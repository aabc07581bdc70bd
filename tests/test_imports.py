"""No module of the package imports a name it never uses.

A deletion can leave an import behind; this reads each module's syntax tree
and fails on any imported name that no expression of the module reads. A
name listed in `__all__` is used (the package's re-exports), and so is a
name that the benchmark's tracer (perfbench/spans.py) patches, as the
tracer rebinds it in every module that holds it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "submersion_lab"
SPANS = ROOT / "perfbench" / "spans.py"


def assigned_literal(tree: ast.Module, name: str):
    """The literal value assigned to `name` at the top of a module."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return ()


def traced_names() -> set:
    tree = ast.parse(SPANS.read_text())
    return ({attr for _, attr in assigned_literal(tree, "FUNCTIONS")}
            | {cls for _, cls, *_ in assigned_literal(tree, "METHODS")})


def unused_imports(source: str, used_elsewhere: set) -> list:
    """(line, name) of each name bound by an import of `source` that no
    expression reads, `__all__` and `used_elsewhere` aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= set(assigned_literal(tree, "__all__")) | used_elsewhere
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(), traced_names()) == []


def test_an_unused_import_is_found():
    source = "import numpy as np\nfrom .core import GeometryError, check_point\n" \
             "x = np.zeros(1)\n__all__ = ['GeometryError']\n"
    assert unused_imports(source, set()) == [(2, "check_point")]
    assert unused_imports(source, {"check_point"}) == []
