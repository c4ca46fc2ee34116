"""The public API carries only what something besides the unit tests reads.

Every name in a module's __all__ must be referenced from the package
source outside its own definition, from the acceptance tests, or from
the benchmark.  References are read off the syntax tree: a name of that
spelling that is read, or an attribute of that spelling read off a
gamowkit module (gamowkit.certify, smatrix.pole_jet); a name that is
imported, assigned or listed in an __all__, or a field of another
object that happens to share the spelling, does not count.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gamowkit

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "gamowkit"
MODULES = {"gamowkit", *(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")}


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def _exports(tree) -> list:
    for node in tree.body:
        if _is_all(node):
            return [element.value for element in node.value.elts]
    return []


def _is_module(node) -> bool:
    """Whether node spells a gamowkit module: gamowkit, smatrix, gamowkit.smatrix, ..."""
    if isinstance(node, ast.Name):
        return node.id in MODULES
    return isinstance(node, ast.Attribute) and node.attr in MODULES and _is_module(node.value)


def _used_names(tree, skip=None) -> set:
    """Names read in tree, and attributes read off a gamowkit module,
    outside the node skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip or _is_all(node) or isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and _is_module(node.value):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_export_is_read_outside_the_unit_tests():
    # the package's __init__ only re-exports, so each name is checked in
    # the module that defines it
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    readers = [REPO / "tests" / "test_acceptance.py", *sorted((REPO / "perfbench").rglob("*.py"))]
    outside = set().union(*(_used_names(ast.parse(path.read_text())) for path in readers))
    used = {module: _used_names(tree) for module, tree in trees.items()}
    unread = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        elsewhere = outside.union(*(names for other, names in used.items() if other != module))
        for name in _exports(tree):
            definition = next((n for n in tree.body if getattr(n, "name", None) == name), None)
            if name not in elsewhere | _used_names(tree, definition):
                unread.append(f"{module}.{name}")
    assert unread == []


def test_private_names_cross_modules_only_from_algebra():
    # algebra is the home of the shared kernels; any other private name
    # is read only in the module that defines it
    crossing = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = (node.module or "").rpartition(".")[2]
            if node.level or (node.module or "").startswith("gamowkit"):
                crossing += [f"{path.stem} imports {source}.{alias.name}" for alias in node.names
                             if alias.name.startswith("_") and source != "algebra"]
    assert crossing == []


def test_no_module_imports_outside_the_standard_library():
    # the package has no runtime dependency; an import inside a function
    # body counts too
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.stem} imports {name}" for name in names
                        if name.split(".")[0] not in {*sys.stdlib_module_names, "gamowkit"}]
    assert imports == []



# every standard-library module that some gamowkit module imports at its
# top level: each spawn of the CLI imports them all, so a new one (decimal,
# say, for ball arithmetic) adds to the start-up time of every command
MODULE_LEVEL_IMPORTS = {
    "__future__", "argparse", "cmath", "collections", "fractions", "itertools",
    "json.encoder", "math", "operator", "sys", "types",
}


def test_module_level_imports_are_pinned():
    imports = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                imports |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imports.add(node.module)
    assert imports == MODULE_LEVEL_IMPORTS


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize and execs every
    # generated method: about 11 ms of each spawn that no command needs.
    # The modules are those import gamowkit.cli adds to a bare interpreter.
    probe = ("import sys; bare = set(sys.modules); import gamowkit.cli; "
             "print(*sorted(set(sys.modules) - bare))")
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "gamowkit.cli" in out
    assert {"dataclasses", "inspect"} & set(out) == set()


def test_cli_reads_no_kernel_of_algebra():
    # the command line only formats: every reading of an exact value at a
    # time, exp(-Gamma t) included, lives in states and smatrix
    tree = ast.parse((SRC / "cli.py").read_text())
    sources = [(node.module or "").rpartition(".")[2] for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    sources += [alias.name.rpartition(".")[2] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    assert "algebra" not in sources


OBJECT_LAYER = {"GaussianRational", "Polynomial", "ExpPolynomial", "_over"}


def _names(path: Path) -> set:
    """Every name, attribute and imported name spelled in the file at path."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name, node.asname}
    return names


def test_the_object_layer_stays_in_algebra():
    # the package computes on Gaussian integers over one denominator; the
    # exact-number classes of algebra are read by the benchmark and their
    # own tests alone, and the test oracles compute on Fraction pairs
    files = [*sorted(SRC.glob("*.py")), *sorted((REPO / "tests").glob("*.py"))]
    named = [f"{path.parent.name}/{path.name} names {name}"
             for path in files if path.name not in ("algebra.py", "test_algebra.py")
             for name in sorted(_names(path) & OBJECT_LAYER)]
    assert named == []
    assert OBJECT_LAYER.isdisjoint(gamowkit.__all__)


REMOVED = {"ConstraintSystem", "oracle_evolution", "TestFunctionPair", "from_params",
           "_quotients_at", "_CUT", "_ket_weights", "_ket_norm_squared"}


def test_removed_names_stay_out():
    # certify hands each basis element's own dyads to conjugation_polys and
    # build_constraints returns bare blocks: a dense oracle adapter or a
    # wrapper over the blocks would be code that nothing but tests reads.
    # pole_jet takes its two legs as they are: a wrapper around the pair
    # would be one that every caller builds and pole_jet takes apart.
    # decay_deviation reads its exact tail at each t: a second reader on
    # coefficients cut to 128 bits would round to the same floats.
    # algebra._ket_row is the one derivation of the ket weights of T(t):
    # jordan's matrices and states' rank-one norms read it, not copies.
    files = [*sorted(SRC.glob("*.py")), *sorted((REPO / "tests").glob("*.py"))]
    named = [f"{path.parent.name}/{path.name} names {name}"
             for path in files for name in sorted(_names(path) & REMOVED)]
    assert named == []
    assert REMOVED.isdisjoint(gamowkit.__all__)


def test_no_module_caches():
    # every quantity has one code path, with no cache in front of it
    cached = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {node.attr} if node.value.id == "functools" else set()
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            else:
                continue
            cached += [f"{path.stem} uses functools.{name}"
                       for name in sorted(names & {"cache", "lru_cache"})]
    assert cached == []


def test_cli_reads_only_the_decay_table_from_states():
    # decay-curve formats the columns states.decay_table names and fills
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").rpartition(".")[2] == "states" for alias in node.names]
    modules = [alias.name.rpartition(".")[2] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    assert imported == ["decay_table"] and "states" not in modules


def test_states_imports_nothing_from_smatrix():
    # states holds operators and their evolution; the pole term of a
    # pairing lives in smatrix alone
    tree = ast.parse((SRC / "states.py").read_text())
    sources = [(node.module or "").rpartition(".")[2] for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    sources += [alias.name.rpartition(".")[2] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    assert "smatrix" not in sources


LAYERS = ("errors", "algebra", "jordan", "states", "smatrix", "uniqueness", "cli")


def _package_imports(tree) -> list:
    """The gamowkit modules that tree imports, by their last name."""
    sources = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            sources += [alias.name for alias in node.names if alias.name.startswith("gamowkit.")]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "gamowkit"):
            package = node.module in (None, "gamowkit")
            sources += [alias.name for alias in node.names] if package else [node.module]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gamowkit."):
            sources.append(node.module)
    return [source.rpartition(".")[2] for source in sources]


def test_each_module_imports_only_earlier_layers():
    # jordan holds the pole, its block and the conjugation; states builds W
    # on the block; smatrix pairs the legs of a scattering pairing with W;
    # uniqueness and cli read the layers below.  A new module has to take
    # its place in the order.
    assert sorted(LAYERS) == sorted(MODULES - {"gamowkit"})
    backward = [f"{module} imports {source}" for rank, module in enumerate(LAYERS)
                for source in _package_imports(ast.parse((SRC / f"{module}.py").read_text()))
                if source in LAYERS[rank:]]
    assert backward == []
