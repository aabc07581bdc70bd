"""No module of the package imports a name it never uses.

A deletion can leave an import behind; this reads each module's syntax tree
and fails on any imported name that no expression of the module reads. A
name listed in `__all__` is used (the package's re-exports), and so is a
name that the benchmark's tracer (perfbench/spans.py) patches, as the
tracer rebinds it in every module that holds it.

The numpy requirement of pyproject.toml is no older than the release that
added each NumPy function the package calls (NUMPY_ADDED).

Only `numerics` sizes a block: no other module names POINTS_PER_BLOCK, and
no call passes `rng_blocks` more than its seed, row count and row width.
Only `numerics` builds a generator: no other module names `np.random`.

The package reads a second fundamental form one way,
`core.tangent_second_fundamental_form`: only its fallback, the full
derivative `graph.KernelFrame.derivative` and the product manifold's
per-factor fallback read `core.projector_derivative`.

Every function, class, method and property of the package is reached from
`cli.main`, from `__all__`, from a name that the benchmark (perfbench/)
imports, reads or patches, or from a name that a demo or the README's python
blocks read. Reachability is by name reference, which over-approximates: a
definition is reached once any reached code reads its name.
"""

import ast
import re
from pathlib import Path

import pytest

from conftest import readme_python_blocks

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "submersion_lab"
SPANS = ROOT / "perfbench" / "spans.py"
PYPROJECT = ROOT / "pyproject.toml"

# the NumPy 2.x functions the package calls, by the release that added them
NUMPY_ADDED = {"vecdot": (2, 0), "matvec": (2, 2), "vecmat": (2, 2)}


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


def numpy_floor() -> tuple:
    """(major, minor) of the numpy requirement in pyproject.toml (read with a
    regular expression: Python 3.10 has no tomllib)."""
    match = re.search(r'"numpy>=(\d+)\.(\d+)', PYPROJECT.read_text())
    assert match, "pyproject.toml declares no numpy>= requirement"
    return int(match[1]), int(match[2])


def numpy_attributes(source: str) -> set:
    """The names that `source` reads as attributes of np or numpy."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")}


def test_numpy_floor_has_every_function_used():
    used = set().union(*(numpy_attributes(path.read_text()) for path in PACKAGE.glob("*.py")))
    newer = {name: NUMPY_ADDED[name] for name in used & NUMPY_ADDED.keys()
             if NUMPY_ADDED[name] > numpy_floor()}
    assert newer == {}, f"numpy>={numpy_floor()} lacks {newer}"


def test_a_numpy_attribute_is_found():
    source = "import numpy as np\ny = np.matvec(a, b) + np.linalg.norm(b)\n"
    assert numpy_attributes(source) == {"matvec", "linalg"}


def block_size_uses(source: str) -> list:
    """(line, what) of each place in `source` that names POINTS_PER_BLOCK or
    passes `rng_blocks` more than three arguments."""
    found = []
    for node in ast.walk(ast.parse(source)):
        named = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
        if named and getattr(node, named) == "POINTS_PER_BLOCK":
            found.append((node.lineno, "POINTS_PER_BLOCK"))
        elif isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else \
                getattr(node.func, "attr", None)
            if name == "rng_blocks" and len(node.args) + len(node.keywords) > 3:
                found.append((node.lineno, "rng_blocks"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.stem != "numerics"),
                         ids=lambda p: p.name)
def test_only_numerics_sizes_a_block(path):
    assert block_size_uses(path.read_text()) == []


def test_a_block_size_outside_numerics_is_found():
    source = ("from .numerics import POINTS_PER_BLOCK, rng_blocks\n"
              "from . import numerics\n"
              "a = rng_blocks(1, 10, 3, 4)\n"
              "b = numerics.rng_blocks(1, 10, 3, size=4)\n"
              "c = numerics.POINTS_PER_BLOCK\n"
              "d = rng_blocks(1, 10, 3)\n")
    assert block_size_uses(source) == [(1, "POINTS_PER_BLOCK"), (3, "rng_blocks"),
                                       (4, "rng_blocks"), (5, "POINTS_PER_BLOCK")]


def random_module_uses(source: str) -> list:
    """The lines of `source` that name np.random or numpy.random."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "random"
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.stem != "numerics"),
                         ids=lambda p: p.name)
def test_only_numerics_builds_a_generator(path):
    assert random_module_uses(path.read_text()) == []


def test_a_generator_outside_numerics_is_found():
    source = ("import numpy as np\n"
              "x0 = f(np.random.default_rng(0))\n"
              "g = np.random.Generator(np.random.PCG64(1))\n"
              "h = np.linalg.norm(x0)\n")
    assert random_module_uses(source) == [2, 3, 3]


# the functions that may read core.projector_derivative, as module.qualname
PROJECTOR_DERIVATIVE_READERS = {"core.tangent_second_fundamental_form",
                                "graph.KernelFrame.derivative",
                                "geometries.product_manifold"}


def projector_derivative_readers(source: str, module: str) -> set:
    """module.qualname of each function of `source` that reads
    core.projector_derivative: as an attribute of `core`, or by name in
    `core` itself or after importing the name from it."""
    tree = ast.parse(source)
    by_name = module == "core" or any(
        isinstance(node, ast.ImportFrom) and (node.module or "").endswith("core")
        and any(alias.name == "projector_derivative" for alias in node.names)
        for node in ast.walk(tree))
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        reads = (isinstance(node, ast.Attribute) and node.attr == "projector_derivative"
                 and isinstance(node.value, ast.Name) and node.value.id == "core") or (
            by_name and isinstance(node, ast.Name) and node.id == "projector_derivative")
        if reads:
            found.add(".".join((module,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_fallbacks_read_the_full_projector_derivative():
    readers = set().union(*(projector_derivative_readers(path.read_text(), path.stem)
                            for path in PACKAGE.glob("*.py")))
    assert readers == PROJECTOR_DERIVATIVE_READERS


def test_a_projector_derivative_reader_is_found():
    source = ("from . import core\n"
              "def d2f(x):\n"
              "    return core.projector_derivative(x)\n"
              "class Frame:\n"
              "    def derivative(self, u):\n"
              "        def projector_derivative(z):\n"   # a local of the same name
              "            return z\n"
              "        return projector_derivative(u)\n")
    assert projector_derivative_readers(source, "graph") == {"graph.d2f"}
    assert projector_derivative_readers(
        "def riemann(m):\n    return projector_derivative(m)\n", "core") == {"core.riemann"}


def read_names(*nodes) -> set:
    """The identifiers and attribute names that the syntax trees `nodes` read."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for node in nodes for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def definitions(tree: ast.Module, module: str) -> tuple[list, set]:
    """(defs, top): each function, class, method and property of a module as
    (qualname, name, class qualname or None, names it reads), and the names
    that the module's other top-level statements read, which run on import."""
    defs, top = [], set()

    def visit(node, scope, owner):
        qualname = ".".join((module, *scope, node.name))
        if isinstance(node, ast.ClassDef):
            own = [n for n in node.body if not isinstance(n, DEFINITIONS)]
            defs.append((qualname, node.name, owner, read_names(
                *node.decorator_list, *node.bases, *node.keywords, *own)))
            for child in node.body:
                if isinstance(child, DEFINITIONS):
                    visit(child, scope + (node.name,), qualname)
        else:
            defs.append((qualname, node.name, owner, read_names(node)))

    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            visit(node, (), None)
        else:
            top |= read_names(node)
    return defs, top


def unreached(sources: dict, roots: set) -> list:
    """Qualified names of the definitions of `sources` (module -> source) that
    no reached code reads, from the names `roots` and every module's
    top-level statements. A class's dunder methods are reached with it."""
    defs, names = [], set(roots)
    for module, source in sources.items():
        module_defs, top = definitions(ast.parse(source), module)
        defs += module_defs
        names |= top
    reached: set = set()
    grew = True
    while grew:
        grew = False
        for qualname, name, owner, reads in defs:
            dunder = name.startswith("__") and name.endswith("__")
            if qualname not in reached and (name in names or dunder and owner in reached):
                reached.add(qualname)
                names |= reads
                grew = True
    return sorted(qualname for qualname, *_ in defs if qualname not in reached)


def reachability_roots() -> set:
    """`main` (of cli), `__all__`, and what perfbench, the demos and the
    README's python blocks import, read or patch."""
    package_all = set(assigned_literal(ast.parse((PACKAGE / "__init__.py").read_text()),
                                       "__all__"))
    spans = ast.parse(SPANS.read_text())
    patched = {name for row in assigned_literal(spans, "FUNCTIONS") + assigned_literal(
        spans, "METHODS") for name in row}
    trees = [ast.parse(path.read_text()) for path in (*(ROOT / "perfbench").glob("*.py"),
                                                      *(ROOT / "demos").glob("*.py"))]
    trees += [ast.parse(block) for block in readme_python_blocks()]
    imported = {alias.name for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return {"main"} | package_all | patched | imported | read_names(*trees)


def test_every_definition_is_reached():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreached(sources, reachability_roots()) == []


def test_an_unreached_definition_is_found():
    sources = {
        "cli": "from .graph import Frame\n"
               "def main():\n    return _run(Frame())\n"
               "def _run(frame):\n    return frame.used\n"
               "def orphan():\n    return 1\n",
        "graph": "TABLE = {'key': lambda: _tabled()}\n"
                 "def _tabled():\n    return 0\n"
                 "class Frame:\n"
                 "    def __init__(self):\n        self.x = _helper()\n"
                 "    @property\n    def used(self):\n        return 1\n"
                 "    @property\n    def normal(self):\n        return 2\n"
                 "def _helper():\n    return 0\n"
                 "class Orphan:\n    def __init__(self):\n        pass\n",
    }
    assert unreached(sources, {"main"}) == ["cli.orphan", "graph.Frame.normal",
                                            "graph.Orphan", "graph.Orphan.__init__"]
    assert unreached(sources, {"main", "normal", "orphan", "Orphan"}) == []
