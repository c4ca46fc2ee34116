"""Loads every module of gamowkit and of perfbench at the start of a test
session.  Hypothesis mixes the int literals of the loaded local modules
into its draws, so a derandomized test then draws the same examples when
it runs alone as in the full suite, where the collection of
perfbench/tests has loaded the benchmark's modules."""

import importlib
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gamowkit  # noqa: E402

for module in pkgutil.iter_modules(gamowkit.__path__, "gamowkit."):
    importlib.import_module(module.name)
for path in sorted((ROOT / "perfbench").glob("*.py")):
    importlib.import_module(path.stem)
