"""Scenario configuration: named bundles and base-map expressions.

A scenario is a bundle choice plus a base-map expression such as
"compose(hopf, perturbed(0.3, e1))", a fiber-scale epsilon, sampling
parameters, the step of `validate`'s finite-difference oracles and a seed.
Everything needed to rebuild a run byte-identically lives in the config.
Tolerances are not part of it: each threshold is a module constant read
where it decides (the bounds of `validate` are the rows of `cli.CHECKS`),
and a config that names `tolerances` is rejected as an unknown field.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import re
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

from . import geometries, graph
from .core import EmbeddedManifold, GeometryError
from .graph import SmoothMapBetweenManifolds
from .pullback import PullbackBundle
from .submersion import RiemannianSubmersionBundle


class ConfigError(Exception):
    """Malformed scenario configuration; the message names the field."""


BUNDLES = {
    "hopf_complex": functools.partial(geometries.hopf_fibration, "complex"),
    "hopf_quaternionic": functools.partial(geometries.hopf_fibration, "quaternionic"),
    "hopf_octonionic": functools.partial(geometries.hopf_fibration, "octonionic"),
    "trivial": lambda: geometries.trivial_bundle(geometries.sphere(2, 1.0),
                                                 geometries.sphere(1, 1.0)),
}

BUNDLE_NAMES = tuple(BUNDLES)

# Each base-map head and the names of its positional parameters.
BASE_MAP_PARAMETERS = {
    "identity": (),
    "constant": (),
    "hopf": (),
    "geodesic_fold": ("k",),
    "perturbed": ("delta", "axis"),
    "compose": ("outer", "inner"),
}

BASE_MAP_HEADS = tuple(BASE_MAP_PARAMETERS)

# The largest product of the folds along a base-map expression (`fold_count`):
# d2f grows like its square, and validate's retraction check reads 14 > 10 on
# geodesic_fold(9) over hopf_complex at seed 1; pure fold products up to 8
# pass it, a fold of 8 after perturbed(0.3, e1) need not (ROADMAP item 13).
MAX_FOLD = 8

# The range of `fd_step`. validate's `obstruction.cross_term_direct_vs_formula`
# row reads the step most: over the three Hopf bundles x hopf,
# compose(hopf, perturbed(0.3, e1)), compose(hopf, geodesic_fold(2)) and
# compose(geodesic_fold(2), hopf) at seeds 0-4 (8 samples), it passes at
# every step from 3e-13 to 0.1 and fails at 2e-13 (rounding, which a
# difference quotient divides by h) and at 0.15 (its O(h^2) truncation
# error); each bound keeps a factor 10 from the worst case.
MIN_FD_STEP = 3e-12
MAX_FD_STEP = 1e-2


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    bundle: str
    base_map: str
    epsilon: float = 0.1
    samples: int = 200
    kernel_directions: int = 20
    seed: int = 0
    fd_step: float = 1e-4

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("field '<root>': config must be a JSON object")
        fields = dataclasses.fields(ScenarioConfig)
        known = {f.name for f in fields}
        for key in raw:
            if key not in known:
                raise ConfigError(f"field '{key}': unknown configuration field")
        # the fields without a default are the strings; the others are numbers
        strings = [f.name for f in fields if f.default is dataclasses.MISSING]
        for key in strings:
            if key not in raw:
                raise ConfigError(f"field '{key}': missing")
            if not isinstance(raw[key], str):
                raise ConfigError(f"field '{key}': must be a string")
        if raw["bundle"] not in BUNDLE_NAMES:
            raise ConfigError(
                f"field 'bundle': {raw['bundle']!r} is not one of {BUNDLE_NAMES}")

        def number(key, default):
            val = _finite_number(raw.get(key, default), key)
            kind = type(default)
            if kind is int and val != int(val):
                raise ConfigError(f"field '{key}': must be a whole number")
            val = kind(val)
            if key != "seed" and val <= 0:  # the seed alone may be 0
                raise ConfigError(f"field '{key}': must be positive")
            if val < 0:
                raise ConfigError(f"field '{key}': must be non-negative")
            return val

        values = {key: raw[key] for key in strings}
        for f in fields:
            if f.name not in values:
                values[f.name] = number(f.name, f.default)
        if not MIN_FD_STEP <= values["fd_step"] <= MAX_FD_STEP:
            raise ConfigError(f"field 'fd_step': must be in [{MIN_FD_STEP:g}, {MAX_FD_STEP:g}], "
                              f"got {values['fd_step']:g}")
        return ScenarioConfig(**values)


def _finite_number(val, key: str):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"field '{key}': must be a number")
    if not abs(val) <= sys.float_info.max:  # NaN, infinities, huge integers
        raise ConfigError(f"field '{key}': must be finite")
    return val


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------

def build_bundle(name: str) -> RiemannianSubmersionBundle:
    if name not in BUNDLES:
        raise ConfigError(f"field 'bundle': unknown bundle {name!r}")
    return BUNDLES[name]()


# ---------------------------------------------------------------------------
# Base-map expressions
# ---------------------------------------------------------------------------

def parse_base_map_expression(text: str):
    """The tree of a base-map expression in Python call syntax: a name or a
    number, optionally signed, is (its source text, None); a call of a name
    on positional arguments is (name, [argument trees])."""
    source = text.strip()
    try:
        body = ast.parse(source, mode="eval").body
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ConfigError(f"field 'base_map': cannot parse the expression "
                          f"({getattr(exc, 'msg', None) or type(exc).__name__})") from None

    def is_number(node) -> bool:
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    def walk(node):
        if isinstance(node, ast.Name):
            return node.id, None
        if is_number(node) or (isinstance(node, ast.UnaryOp) and is_number(node.operand)
                               and isinstance(node.op, (ast.UAdd, ast.USub))):
            return ast.get_source_segment(source, node), None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
            return node.func.id, [walk(arg) for arg in node.args]
        raise ConfigError(
            "field 'base_map': expected a name, a number or a call on positional "
            f"arguments, got {reprlib.repr(ast.get_source_segment(source, node))}")

    return walk(body)


def _as_number(node, context: str) -> float:
    head, args = node
    if args is not None:
        raise ConfigError(f"field 'base_map': {context} must be a number")
    try:
        return float(head)
    except ValueError:
        raise ConfigError(f"field 'base_map': {context} must be a number, got {head!r}")


def _as_axis(node, manifold: EmbeddedManifold) -> np.ndarray:
    head, args = node
    if args is not None or not re.fullmatch(r"e\d+", head):
        raise ConfigError(f"field 'base_map': expected an axis like e1, got {head!r}")
    idx = int(head[1:]) - 1
    if not 0 <= idx < manifold.ambient_dim:
        raise ConfigError(
            f"field 'base_map': axis {head} out of range for ambient "
            f"dimension {manifold.ambient_dim}")
    out = np.zeros(manifold.ambient_dim)
    out[idx] = 1.0
    return out


def resolve_base_map(node, target: EmbeddedManifold,
                     bundle: RiemannianSubmersionBundle) -> SmoothMapBetweenManifolds:
    head, args = node
    if head not in BASE_MAP_PARAMETERS:
        raise ConfigError(
            f"field 'base_map': unknown map {head!r}, expected one of {BASE_MAP_HEADS}")
    params = BASE_MAP_PARAMETERS[head]
    args = args or []
    if len(args) != len(params):
        raise ConfigError(f"field 'base_map': {head}({', '.join(params)}) takes "
                          f"{len(params)} arguments, got {len(args)}")
    if head == "identity":
        return graph.identity_map(target)
    if head == "constant":
        return graph.constant_map(target, target, geometries.canonical_point(target))
    if head == "hopf":
        if not isinstance(bundle, geometries.HopfFibration):
            raise ConfigError(
                f"field 'base_map': 'hopf' requires a Hopf bundle, "
                f"got {bundle.name!r}")
        if target.ambient_dim != bundle.base.ambient_dim:
            raise ConfigError(
                "field 'base_map': 'hopf' must target the bundle base")
        return bundle.projection
    if head == "geodesic_fold":
        k = _as_number(args[0], "geodesic_fold k")
        if not (k.is_integer() and 1 <= k <= MAX_FOLD):
            raise ConfigError(f"field 'base_map': geodesic_fold k must be a whole "
                              f"number in [1, {MAX_FOLD}], got {args[0][0]}")
        return geometries.geodesic_k_fold(target, int(k))
    if head == "perturbed":
        delta = _as_number(args[0], "perturbed delta")
        axis = _as_axis(args[1], target)
        return geometries.perturbation_diffeo(target, delta, axis)
    outer = resolve_base_map(args[0], target, bundle)  # compose
    inner = resolve_base_map(args[1], outer.source, bundle)
    if fold_count(node) > MAX_FOLD:
        raise ConfigError(f"field 'base_map': the geodesic_fold counts of a compose multiply "
                          f"to {fold_count(node):g}, above {MAX_FOLD}")
    return graph.compose(outer, inner)


def fold_count(node) -> float:
    """k of geodesic_fold(k), the product over a compose, else 1 (a valid tree)."""
    head, args = node
    if head == "compose":
        return fold_count(args[0]) * fold_count(args[1])
    return float(args[0][0]) if head == "geodesic_fold" else 1.0


# ---------------------------------------------------------------------------
# Scenario assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    config: ScenarioConfig
    bundle: RiemannianSubmersionBundle
    base_map: SmoothMapBetweenManifolds
    pullback: PullbackBundle


def build_scenario(config: ScenarioConfig) -> Scenario:
    bundle = build_bundle(config.bundle)
    tree = parse_base_map_expression(config.base_map)
    try:
        base_map = resolve_base_map(tree, bundle.base, bundle)
        pb = PullbackBundle(base_map, bundle)
    except GeometryError as exc:
        raise ConfigError(f"field 'base_map': {exc}")
    k = fold_count(tree)   # a fold stretches the polar direction by k: sup |df|^2 = k^2
    if tree[0] == "geodesic_fold" and config.epsilon * k * k >= 1.0:
        raise ConfigError(f"field 'epsilon': {config.epsilon:g} is inadmissible for "
                          f"{config.base_map}, which needs epsilon < 1/k^2 = {1.0 / (k * k):g}")
    bound = (1.0 - float(tree[1][0][0])) ** 2 if tree[0] == "perturbed" else np.inf
    if config.epsilon >= bound:   # sup |df| = 1 / (1 - delta), at x = -r axis
        raise ConfigError(f"field 'epsilon': {config.epsilon:g} is inadmissible for "
                          f"{config.base_map}, which needs epsilon < (1 - delta)^2 = {bound:g}")
    return Scenario(config=config, bundle=bundle, base_map=base_map, pullback=pb)
