"""Per-layer tracing of submersion_lab from outside the package.

The tracer wraps public functions of the package's modules in place and
records one span per call: a name, a start, an end and the enclosing span.
Spans are folded into per-name totals as they close, so memory stays flat
however many calls an operation makes:

* ``calls``   -- number of spans of that name;
* ``self_s``  -- span durations minus the time covered by their child spans;
* ``total_s`` -- durations of the outermost span of that name only, so a
  function that recurses or re-enters itself is not counted twice.

A module that did ``from .x import y`` holds its own binding of ``y``, so
every binding in every module of the package is replaced, not only the one
in the defining module; otherwise counts are silently partial.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import types

# (module, attribute) pairs traced as plain functions.
FUNCTIONS = (
    ("algebra", "multiply"),
    ("numerics", "orthonormal_basis"),
    ("numerics", "nullspace_basis"),
    ("numerics", "central_difference"),
    ("core", "tangent_basis"),
    ("core", "riemann"),
    ("core", "lie_bracket"),
    ("graph", "d2f"),
    ("geometries", "hopf_projection"),
    ("geometries", "hopf_fiber_project"),
    ("submersion", "splitting"),
    ("submersion", "horizontal_lift"),
    ("submersion", "a_tensor"),
    ("submersion", "fatness"),
    ("submersion", "totally_geodesic_fibers_check"),
    ("pullback", "pullback_curvature"),
    ("pullback", "lambda_term"),
    ("pullback", "reduce_connection_metric"),
    ("obstruction", "kernel_splitting"),
    ("obstruction", "obstruction_operator"),
    ("obstruction", "level_set_ii"),
    ("obstruction", "negative_plane_finder"),
    ("obstruction", "theorem_report"),
    ("scenarios", "build_scenario"),
    ("cli", "run_check"),
    ("cli", "run_validation"),
    ("cli", "main"),
)

# (module, class, method, span name) for methods patched on the class.
METHODS = (
    ("graph", "SmoothMapBetweenManifolds", "jac", "graph.jac"),
    ("graph", "GraphOperators", "__init__", "graph.GraphOperators"),
    ("pullback", "PullbackBundle", "tangent_basis", "pullback.tangent_basis"),
)

# Only the outermost call of these is a span: algebra.multiply recurses
# through the Cayley-Dickson halves, and its count means "products
# requested", which stays comparable if the recursion is replaced. While an
# outermost call runs, the module binding is the original function again, so
# the recursion pays nothing for the tracing.
OUTERMOST_ONLY = {("algebra", "multiply")}

# Projector fields are per-instance callables on each manifold.
PROJECTOR_SPAN = "core.projector_field"

SPAN_NAMES = tuple(sorted(
    [f"{mod}.{attr}" for mod, attr in FUNCTIONS]
    + [name for *_, name in METHODS] + [PROJECTOR_SPAN]))


class Tracer:
    """Span recorder with per-name aggregates; single-threaded use only."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.total_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self._open = dict.fromkeys(SPAN_NAMES, 0)
        # open spans: [name, start, time covered by closed children]
        self._stack: list[list] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open[name] += 1
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                duration = end - frame[1]
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if not self._open[name]:
                    self.total_s[name] += duration
                if self._stack:
                    self._stack[-1][2] += duration

        return traced


class Instrumentation:
    """Installs a tracer's wrappers into the package and removes them again.

    Used as a context manager around traced operations only, so untraced
    operations run the package exactly as shipped.
    """

    def __init__(self, package, tracer: Tracer):
        self.package = package
        self.tracer = tracer
        self._undo: list = []  # callables that restore what was replaced

    def _modules(self):
        return [m for m in vars(self.package).values()
                if isinstance(m, types.ModuleType)
                and m.__name__.startswith(self.package.__name__ + ".")]

    def _rebind(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append(functools.partial(setattr, module, attr, value))
                    setattr(module, attr, wrapper)

    def __enter__(self):
        modules = {m.__name__.rsplit(".", 1)[1]: m for m in self._modules()}
        for mod, attr in FUNCTIONS:
            original = getattr(modules[mod], attr)
            target = original
            if (mod, attr) in OUTERMOST_ONLY:
                target = _untraced_inside(modules[mod], attr, original)
            wrapper = self.tracer.wrap(f"{mod}.{attr}", target)
            if attr == "build_scenario":
                wrapper = self._instrumenting_build(wrapper)
            self._rebind(original, wrapper)
        for mod, cls_name, method, name in METHODS:
            cls = getattr(modules[mod], cls_name)
            original = vars(cls)[method]
            self._undo.append(functools.partial(setattr, cls, method, original))
            setattr(cls, method, self.tracer.wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False

    def _instrumenting_build(self, build):
        """Scenarios are built inside each operation; wrap the projector
        field of every manifold the new scenario reaches."""

        @functools.wraps(build)
        def build_and_instrument(*args, **kwargs):
            scenario = build(*args, **kwargs)
            for manifold in reachable_manifolds(scenario, self.package.EmbeddedManifold):
                # EmbeddedManifold is a frozen dataclass.
                restore = functools.partial(object.__setattr__, manifold, "projector_field",
                                            manifold.projector_field)
                object.__setattr__(manifold, "projector_field",
                                   self.tracer.wrap(PROJECTOR_SPAN, manifold.projector_field))
                self._undo.append(restore)
            return scenario

        return build_and_instrument


def _untraced_inside(module, attr: str, original):
    """`original` with `module.attr` bound to itself for the call's duration."""

    @functools.wraps(original)
    def call(*args, **kwargs):
        traced = getattr(module, attr)
        setattr(module, attr, original)
        try:
            return original(*args, **kwargs)
        finally:
            setattr(module, attr, traced)

    return call


def reachable_manifolds(root, manifold_type) -> list:
    """Every manifold instance reachable from `root` through dataclass
    fields, instance attributes and closure cells (composed maps keep their
    factors in closures)."""
    seen: set[int] = set()
    found = []
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None or isinstance(obj, (int, float, str, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, manifold_type):
            found.append(obj)
        if dataclasses.is_dataclass(obj):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
        elif isinstance(obj, types.FunctionType):
            stack.extend(c.cell_contents for c in obj.__closure__ or ()
                         if _cell_is_set(c))
        elif hasattr(obj, "__dict__") and not isinstance(obj, types.ModuleType):
            stack.extend(vars(obj).values())
    return found


def _cell_is_set(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True
