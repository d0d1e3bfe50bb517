"""Every module-level private name in the library is read somewhere in it.

A static check with the standard ``ast`` module.  A private name is a
function, class or assigned name at module level that starts with one
underscore (not two).  It counts as read where any library module loads
it as a ``Name`` or imports it with ``from ... import``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qmcube"


def private_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_private_names(sources: dict[str, str]) -> set[str]:
    """``module.name`` for each private name that no module in ``sources`` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    return {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in private_definitions(tree) - read
    }


def test_library_reads_every_private_name():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == set()


def test_check_reports_an_unread_private_name():
    sources = {
        "a": "_X = 1\n_y, _z = 2, 3\n__dunder = 4\n\ndef _f():\n    return _y + _z\n\nclass _C:\n    pass\n",
        "b": "from a import _X\n",
    }
    assert dead_private_names(sources) == {"a._f", "a._C"}
