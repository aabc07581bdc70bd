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

import re
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


BUNDLE_NAMES = ("hopf_complex", "hopf_quaternionic", "hopf_octonionic", "trivial")

BASE_MAP_HEADS = ("identity", "constant", "hopf", "geodesic_fold", "perturbed", "compose")


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
        return {
            "name": self.name,
            "bundle": self.bundle,
            "base_map": self.base_map,
            "epsilon": self.epsilon,
            "samples": self.samples,
            "kernel_directions": self.kernel_directions,
            "seed": self.seed,
            "fd_step": self.fd_step,
        }

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("field '<root>': config must be a JSON object")
        known = {"name", "bundle", "base_map", "epsilon", "samples",
                 "kernel_directions", "seed", "fd_step"}
        for key in raw:
            if key not in known:
                raise ConfigError(f"field '{key}': unknown configuration field")
        for key in ("name", "bundle", "base_map"):
            if key not in raw:
                raise ConfigError(f"field '{key}': missing")
            if not isinstance(raw[key], str):
                raise ConfigError(f"field '{key}': must be a string")
        if raw["bundle"] not in BUNDLE_NAMES:
            raise ConfigError(
                f"field 'bundle': {raw['bundle']!r} is not one of {BUNDLE_NAMES}")

        def number(key, default, kind=float, positive=False):
            val = _finite_number(raw.get(key, default), key)
            if kind is int and val != int(val):
                raise ConfigError(f"field '{key}': must be a whole number")
            val = kind(val)
            if positive and val <= 0:
                raise ConfigError(f"field '{key}': must be positive")
            if val < 0:
                raise ConfigError(f"field '{key}': must be non-negative")
            return val

        return ScenarioConfig(
            name=raw["name"],
            bundle=raw["bundle"],
            base_map=raw["base_map"],
            epsilon=number("epsilon", 0.1, float, positive=True),
            samples=int(number("samples", 200, int, positive=True)),
            kernel_directions=int(number("kernel_directions", 20, int, positive=True)),
            seed=int(number("seed", 0, int)),
            fd_step=number("fd_step", 1e-4, float, positive=True),
        )


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
    if name == "hopf_complex":
        return geometries.hopf_fibration("complex")
    if name == "hopf_quaternionic":
        return geometries.hopf_fibration("quaternionic")
    if name == "hopf_octonionic":
        return geometries.hopf_fibration("octonionic")
    if name == "trivial":
        return geometries.trivial_bundle(geometries.sphere(2, 1.0),
                                         geometries.sphere(1, 1.0))
    raise ConfigError(f"field 'bundle': unknown bundle {name!r}")


# ---------------------------------------------------------------------------
# Base-map expressions
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|[(),])")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ConfigError(
                f"field 'base_map': cannot tokenize {text[pos:pos + 10]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _peek(tokens: list[str], pos: int) -> str:
    if pos >= len(tokens):
        raise ConfigError("field 'base_map': unexpected end of expression")
    return tokens[pos]


def _parse(tokens: list[str], pos: int):
    head = _peek(tokens, pos)
    pos += 1
    if pos < len(tokens) and tokens[pos] == "(":
        pos += 1
        args = []
        if _peek(tokens, pos) != ")":
            while True:
                arg, pos = _parse(tokens, pos)
                args.append(arg)
                if _peek(tokens, pos) == ",":
                    pos += 1
                    continue
                break
        if _peek(tokens, pos) != ")":
            raise ConfigError("field 'base_map': expected ')'")
        return (head, args), pos + 1
    return (head, None), pos


def parse_base_map_expression(text: str):
    tokens = _tokenize(text)
    tree, pos = _parse(tokens, 0)
    if pos != len(tokens):
        raise ConfigError(f"field 'base_map': trailing tokens {tokens[pos:]}")
    return tree


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


def canonical_point(manifold: EmbeddedManifold) -> np.ndarray:
    start = np.zeros(manifold.ambient_dim)
    start[-1] = 1.0
    return manifold.retraction(start, np.zeros(manifold.ambient_dim))


def _sphere_radius(manifold: EmbeddedManifold) -> float:
    return float(np.linalg.norm(canonical_point(manifold)))


def resolve_base_map(node, target: EmbeddedManifold,
                     bundle: RiemannianSubmersionBundle) -> SmoothMapBetweenManifolds:
    head, args = node
    if head not in BASE_MAP_HEADS:
        raise ConfigError(
            f"field 'base_map': unknown map {head!r}, expected one of {BASE_MAP_HEADS}")
    if head == "identity":
        return graph.identity_map(target)
    if head == "constant":
        return graph.constant_map(target, target, canonical_point(target))
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
        if not args or len(args) != 1:
            raise ConfigError("field 'base_map': geodesic_fold takes one argument k")
        k = int(_as_number(args[0], "geodesic_fold k"))
        if k < 1:
            raise ConfigError("field 'base_map': geodesic_fold k must be >= 1")
        pole = np.zeros(target.ambient_dim)
        pole[0] = 1.0
        return geometries.geodesic_k_fold(target.intrinsic_dim, k, pole=pole,
                                          radius=_sphere_radius(target),
                                          manifold=target)
    if head == "perturbed":
        if not args or len(args) != 2:
            raise ConfigError(
                "field 'base_map': perturbed takes (delta, axis)")
        delta = _as_number(args[0], "perturbed delta")
        axis = _as_axis(args[1], target)
        return geometries.perturbation_diffeo(target, delta, axis)
    if head == "compose":
        if not args or len(args) != 2:
            raise ConfigError("field 'base_map': compose takes two expressions")
        outer = resolve_base_map(args[0], target, bundle)
        inner = resolve_base_map(args[1], outer.source, bundle)
        return graph.compose(outer, inner)
    raise AssertionError(f"unhandled base-map head {head!r}")


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
    base_map = resolve_base_map(tree, bundle.base, bundle)
    if base_map.target.ambient_dim != bundle.base.ambient_dim:
        raise ConfigError(
            "field 'base_map': target dimension does not match the bundle base")
    try:
        pb = PullbackBundle(base_map, bundle)
    except GeometryError as exc:
        raise ConfigError(f"field 'base_map': {exc}")
    return Scenario(config=config, bundle=bundle, base_map=base_map, pullback=pb)
