"""The public API carries only what something besides the unit tests reads.

Every name in a module's __all__ must be referenced from the package
source outside its own definition, from the acceptance tests, or from
the benchmark.  References are read off the syntax tree: a name or an
attribute of that spelling that is used, not imported or listed in an
__all__.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "gamowkit"


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def _exports(tree) -> list:
    for node in tree.body:
        if _is_all(node):
            return [element.value for element in node.value.elts]
    return []


def _used_names(tree, skip=None) -> set:
    """Names and attribute names used in tree, outside the node skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip or _is_all(node) or isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
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
