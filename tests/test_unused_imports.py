"""Every name a library module imports is used in that module.

A static check with the standard ``ast`` module: an imported name counts
as used when it appears as a ``Name`` node anywhere in the module, so
uses inside annotations and attribute chains (``np.float64``) count.
"""

import ast
from pathlib import Path

import pytest

import qmcube

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qmcube"

# Imported on purpose without a use in the module itself.
ALLOWED = {
    "__init__": set(qmcube.__all__),  # the public names it re-exports
    # benchmark/tracing.py rebinds these two names in control_variates to
    # time the cone layer; they go when the tracer stops doing so (ROADMAP
    # item 9).
    "control_variates": {"error_bound", "necessary_condition"},
}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def unused_imports(source: str, allowed=frozenset()) -> set[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported_names(tree) - used - set(allowed)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8"), ALLOWED.get(path.stem, ())) == set()


def test_check_reports_an_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\n\nx = np.pi + len(sep)\n"
    assert unused_imports(source) == {"math", "path"}
    assert unused_imports(source, {"math"}) == {"path"}
