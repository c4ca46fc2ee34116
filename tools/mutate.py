"""Opt-in mutation runner for the ball kernels of gamowkit.

    python tools/mutate.py [KERNEL ...]

For each named kernel (all of KERNELS by default) it parses the kernel's
module with ast and makes one mutant per site and operator:

- swapped operators: + and -, * and //, << and >>, & and |;
- constants off by one: every int literal n as n + 1 and n - 1;
- dropped terms: a + b, a - b and a * b as a alone and as b alone, and
  -x as x;
- flipped comparisons: < and >=, > and <=, == and !=;
- removed guards: the test of each if, conditional expression and
  while as True and as False, and each operand of and / or alone.

Each mutant is written into a temporary copy of src/, tests/ and
pyproject.toml, never into the checkout, and the test module that owns
the kernel runs there (pytest -x, in a subprocess), its class that tests
the kernel alone first.  Before any mutant, each such class and its
module run once on the unmodified copy: the script stops if they fail,
and gives each test run of a mutant SLACK times as long as the same run
took there.  A mutant is killed when a test fails, survives when the whole
module passes, and times out when a run overstays its limit.  The
script prints the verdict of every mutant and the count of each verdict
per kernel.

Hypothesis mixes the int literals of the loaded modules into its draws,
so a mutated constant also moves every derandomized draw.  The edge
cases that kill a mutant must therefore be explicit @examples.  The
copy runs hypothesis under a settings profile without the shrink phase
(SETTINGS, a conftest.py at the root of the copy): a test that fails
reports its first failing draw at once, so a kill is not timed out while
hypothesis shrinks the draw.  The tests' own @settings set no phases,
so the profile's phases hold for them too.

Only the standard library is used; pytest and hypothesis must be
installed for the test runs.  A full run makes a few hundred mutants and
takes tens of minutes.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# kernel -> (module under src/, owning test module under tests/, its class
# that tests the kernel alone, run first so that most mutants die fast)
KERNELS = {
    "_trim": ("gamowkit/algebra.py", "test_algebra.py", "TestBallPrimitives"),
    "_ball_quotient": ("gamowkit/algebra.py", "test_algebra.py", "TestBallPrimitives"),
    "_ball_product": ("gamowkit/algebra.py", "test_algebra.py", "TestBallPrimitives"),
    "_ball_aligned": ("gamowkit/algebra.py", "test_algebra.py", "TestBallPrimitives"),
    "_rounded_part": ("gamowkit/algebra.py", "test_algebra.py", "TestRoundedPart"),
    "_norm_bounds": ("gamowkit/algebra.py", "test_algebra.py", "TestNormBounds"),
    "_horner_bounds": ("gamowkit/algebra.py", "test_algebra.py", "TestHornerBounds"),
    "_fixed_readings": ("gamowkit/algebra.py", "test_algebra.py", "TestFixedReadings"),
    "_rounded_between": ("gamowkit/algebra.py", "test_algebra.py", "TestFixedReadings"),
    "_scaled": ("gamowkit/algebra.py", "test_algebra.py", "TestScaledReading"),
    "_ket_row": ("gamowkit/algebra.py", "test_algebra.py", "TestKetRow"),
    "_ball_leg": ("gamowkit/smatrix.py", "test_smatrix.py", "TestBallLegAndShift"),
    "_ball_shift": ("gamowkit/smatrix.py", "test_smatrix.py", "TestBallLegAndShift"),
}

# a test run of a mutant may take this many times as long as on the
# unmodified tree before it counts as a timeout
SLACK = 3

# the conftest.py of the copy: every hypothesis phase but shrinking
SETTINGS = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("mutants")
"""

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
         ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr,
         ast.BitOr: ast.BitAnd}
FLIPS = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq}


def mutations(node) -> list:
    """[(label, mutate)] for node, each mutate(node) returning the mutated
    node (a changed deep copy, or another node of the tree)."""
    out = []

    def changed(label, **fields):
        def mutate(node):
            node = copy.deepcopy(node)
            for name, value in fields.items():
                setattr(node, name, value)
            return node
        out.append((label, mutate))

    if isinstance(node, ast.BinOp):
        swap = SWAPS.get(type(node.op))
        if swap:
            changed(f"{type(node.op).__name__} -> {swap.__name__}", op=swap())
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            out.append(("drop right term", lambda node: node.left))
            out.append(("drop left term", lambda node: node.right))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        out.append(("drop sign", lambda node: node.operand))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        changed(f"{node.value} -> {node.value + 1}", value=node.value + 1)
        changed(f"{node.value} -> {node.value - 1}", value=node.value - 1)
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            flip = FLIPS.get(type(op))
            if flip:
                ops = list(node.ops)
                ops[i] = flip()
                changed(f"{type(op).__name__} -> {flip.__name__}", ops=ops)
    elif isinstance(node, (ast.If, ast.IfExp, ast.While)):
        for value in (True, False):
            changed(f"{type(node).__name__} test -> {value}", test=ast.Constant(value))
    elif isinstance(node, ast.BoolOp):
        for i in range(len(node.values)):
            out.append((f"{type(node.op).__name__} operand {i} alone",
                        lambda node, i=i: node.values[i]))
    return out


class _Indexed(ast.NodeTransformer):
    """Visits the nodes of a tree in pre-order, numbering them, and
    replaces node number target by mutate(node)."""

    def __init__(self, target: int = -1, mutate=None):
        self.index, self.target, self.mutate, self.found = -1, target, mutate, []

    def visit(self, node):
        self.index += 1
        self.found.append(node)
        if self.index == self.target:
            return self.mutate(node)
        return self.generic_visit(node)


def kernel_def(tree, name: str):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no function {name} at the top level of its module")


def mutants(source: str, name: str):
    """(line, label, mutated source) for every mutation of the kernel name
    in the module source; the docstring is left alone."""
    tree = ast.parse(source)
    body = kernel_def(tree, name).body
    start = 1 if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value,
                                                                       ast.Constant) else 0
    for statement in range(start, len(body)):
        walker = _Indexed()
        walker.visit(copy.deepcopy(body[statement]))
        for index, node in enumerate(walker.found):
            for label, mutate in mutations(node):
                mutated = copy.deepcopy(tree)
                target = kernel_def(mutated, name).body
                target[statement] = _Indexed(index, mutate).visit(target[statement])
                ast.fix_missing_locations(mutated)
                yield node.lineno, label, ast.unparse(mutated)


def run_tests(tree: Path, test_module: str, first: str, limits=(None, None)):
    """(verdict, seconds of each run): the class first of the test module
    in tree, then the whole module, each with pytest -x and its own limit
    in seconds; verdict is 'killed', 'survived' or 'timeout'."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    path = tree / "tests" / test_module
    seconds = []
    for target, limit in zip((f"{path}::{first}", str(path)), limits):
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", target]
        start = time.perf_counter()
        try:
            result = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                                    timeout=limit)
        except subprocess.TimeoutExpired:
            return "timeout", seconds
        seconds.append(time.perf_counter() - start)
        if result.returncode:
            return "killed", seconds
    return "survived", seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kernels", nargs="*", default=list(KERNELS), metavar="KERNEL")
    args = parser.parse_args(argv)
    unknown = [name for name in args.kernels if name not in KERNELS]
    if unknown:
        parser.error(f"unknown kernel(s) {', '.join(unknown)}; known: {', '.join(KERNELS)}")
    counts = {}
    with tempfile.TemporaryDirectory(prefix="gamowkit-mutants-") as scratch:
        tree = Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        # the pytest settings (warnings as errors) come with the tree
        shutil.copy(ROOT / "pyproject.toml", tree)
        (tree / "conftest.py").write_text(SETTINGS)
        limits = {}
        for name in args.kernels:
            _, test_module, first = KERNELS[name]
            if (test_module, first) not in limits:
                verdict, seconds = run_tests(tree, test_module, first)
                if verdict != "survived":
                    raise SystemExit(f"{test_module}::{first} fails on the unmodified tree")
                limits[test_module, first] = [SLACK * s for s in seconds]
                print(f"baseline {test_module}::{first}, then the module: "
                      + ", ".join(f"{s:.1f} s" for s in seconds), flush=True)
        for name in args.kernels:
            module, test_module, first = KERNELS[name]
            path = tree / "src" / module
            source = path.read_text()
            counts[name] = dict.fromkeys(("killed", "survived", "timeout"), 0)
            try:
                for line, label, text in mutants(source, name):
                    path.write_text(text)
                    verdict, _ = run_tests(tree, test_module, first, limits[test_module, first])
                    print(f"{name}:{line}: {label}: {verdict}", flush=True)
                    counts[name][verdict] += 1
            finally:
                path.write_text(source)
    print("verdicts per kernel:")
    for name, count in counts.items():
        print(f"  {name}: " + ", ".join(f"{n} {verdict}" for verdict, n in count.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
