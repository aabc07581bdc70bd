"""Embedded-submanifold calculus in flat ambient space.

A manifold is described extrinsically by a field of orthogonal tangent
projectors and a retraction; the metric is the one induced by the ambient
inner product. Covariant derivatives are tangent-projected ambient
derivatives along retraction curves, the second fundamental form comes from
the derivative of the projector field, and the full curvature tensor is
assembled from it via the Gauss identity, which only needs first derivatives
of the projector. A manifold that knows that derivative in closed form
(`analytic_projector_derivative`: spheres, flat spaces, the pull-back f*P)
is differentiated without finite differences; replacing it by None gives
the central-difference oracle along retraction curves. A product takes the
derivative block by block, each factor by its own rule.
`gauss_identity` takes the normal projector derivatives directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import DEFAULT_FD_STEP, central_difference, orthonormal_basis, over_stack

MEMBERSHIP_TOL = 1e-8
GRAM_DEGENERACY_TOL = 1e-12


class GeometryError(Exception):
    """Base class for geometric failures."""


class PointOffManifoldError(GeometryError):
    pass


class DegeneratePlaneError(GeometryError):
    pass


class RankDeficiencyError(GeometryError):
    pass


class SingularConfigurationError(RankDeficiencyError):
    """A differential loses the rank its construction needs."""


@dataclass(frozen=True)
class EmbeddedManifold:
    """Submanifold of R^d given by a tangent-projector field and a retraction.

    projector_field(x) must be symmetric, idempotent, of rank intrinsic_dim.
    retraction(x, v) returns a manifold point with retraction(x, hV) - (x+hV)
    = O(h^2) for tangent V; retraction(x, 0) is the nearest-point map used
    for the membership test. analytic_projector_derivative(x, U), when
    available, is the ambient derivative of the projector field along each
    direction of the stack U (..., d), as (..., d, d), and removes one
    finite-difference layer from every curvature quantity. Every closure but
    the sampler also takes a block x (b, d): projectors (b, d, d), v (b, d),
    U (b, ..., d) with point i's directions in U[i] (`call_on_stack`).
    """

    ambient_dim: int
    intrinsic_dim: int
    projector_field: Callable[[np.ndarray], np.ndarray]
    retraction: Callable[[np.ndarray, np.ndarray], np.ndarray]
    analytic_projector_derivative: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    sampler: Optional[Callable[[np.random.Generator], np.ndarray]] = None
    name: str = "manifold"

    def projector(self, x: np.ndarray) -> np.ndarray:
        return call_on_stack(self.projector_field, x, None, (self.ambient_dim,) * 2,
                             "projector_field", self.name)

    def membership_residual(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        d = call_on_stack(self.retraction, x, np.zeros_like(x), (self.ambient_dim,),
                          "retraction", self.name) - x
        return np.sqrt(np.vecdot(d, d))

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        if self.sampler is None:
            raise GeometryError(f"{self.name} has no point sampler")
        return self.sampler(rng)


# A vector field on a manifold is any callable point -> tangent components.
VectorField = Callable[[np.ndarray], np.ndarray]


def check_point(manifold: EmbeddedManifold, x: np.ndarray) -> np.ndarray:
    """x as a float array, once the point, or every point of a block x (b, d),
    lies on the manifold: one retraction call; the error names the worst."""
    x = np.asarray(x, dtype=float)
    res = manifold.membership_residual(x)
    off = res > MEMBERSHIP_TOL
    if off.any() if off.ndim else off:   # a Python test at one point, which costs less
        i = int(np.argmax(res))
        raise PointOffManifoldError(
            f"point{'' if x.ndim == 1 else f' {i} of the block'} is {np.ravel(res)[i]:.3e} "
            f"away from {manifold.name} (tolerance {MEMBERSHIP_TOL:.1e})")
    return x


def tangent_projector(manifold: EmbeddedManifold, x: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the tangent space at x."""
    return manifold.projector(check_point(manifold, x))


def tangent_basis(manifold: EmbeddedManifold, x: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal tangent basis (columns) at x, or at each point
    of a block x (b, d)."""
    basis = orthonormal_basis(tangent_projector(manifold, x),
                              dim=manifold.intrinsic_dim)
    if basis.shape[-1] != manifold.intrinsic_dim:
        raise RankDeficiencyError(
            f"tangent projector of {manifold.name} has rank {basis.shape[-1]}, "
            f"expected {manifold.intrinsic_dim}")
    return basis


def random_tangent(manifold: EmbeddedManifold, x: np.ndarray,
                   rng: np.random.Generator, unit: bool = True) -> np.ndarray:
    v = manifold.projector_field(x) @ rng.standard_normal(manifold.ambient_dim)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise GeometryError("degenerate random tangent draw")
    return v / n if unit else v


def covariant_derivative(manifold: EmbeddedManifold, field: VectorField,
                         x: np.ndarray, direction: np.ndarray,
                         h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Levi-Civita derivative of `field` along `direction` at x.

    Tangent projection of the ambient derivative of the field along the
    retraction curve t -> retraction(x, t * direction).
    """
    x = check_point(manifold, x)
    p = manifold.projector_field(x)
    direction = np.asarray(direction, dtype=float)
    return p @ central_difference(
        lambda t: field(manifold.retraction(x, t * direction)), h)


def projector_derivative(manifold: EmbeddedManifold, x: np.ndarray,
                         direction: np.ndarray) -> np.ndarray:
    """Derivatives of the projector field along the stack of tangents
    `direction` (..., d) at x, or (b, ..., d) at a block x (b, d), as
    (..., d, d): the closed form when the manifold has one, held to the
    contract by `call_on_stack`, else a central difference per point and
    retraction curve at DEFAULT_FD_STEP."""
    direction = np.asarray(direction, dtype=float)
    shape = (manifold.ambient_dim, manifold.ambient_dim)
    if manifold.analytic_projector_derivative is None:
        return over_stack(lambda y, v: central_difference(
            lambda t: manifold.projector_field(manifold.retraction(y, t * v)),
            DEFAULT_FD_STEP), x, direction, shape)
    return call_on_stack(manifold.analytic_projector_derivative, x, direction, shape,
                         "analytic_projector_derivative", manifold.name)


def call_on_stack(closure, x: np.ndarray, u: Optional[np.ndarray], shape: tuple,
                  kind: str, owner: str) -> np.ndarray:
    """closure(x), or closure(x, u) for a stack u (..., n), at x (n,) or (b, n),
    which must give (x or u).shape[:-1] + shape. A closure written for one point
    or direction fails or gives another shape: a GeometryError names it."""
    if x.ndim == 1 and (u is None or u.ndim == 1):   # one point and direction: nothing to hold
        return closure(x) if u is None else closure(x, u)
    args = (x,) if u is None else (x, u)
    try:
        out = closure(*args)
    except (ValueError, IndexError, TypeError) as exc:   # numpy's error names no closure
        raise GeometryError(f"{kind} of {owner} on shapes {[a.shape for a in args]} "
                            f"fails: {exc}") from exc
    if np.shape(out) != args[-1].shape[:-1] + shape:
        raise GeometryError(f"{kind} of {owner} on shapes {[a.shape for a in args]} gives "
                            f"{np.shape(out)}, not {args[-1].shape[:-1] + shape}")
    return out


def second_fundamental_form(manifold: EmbeddedManifold, x: np.ndarray,
                            X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Normal-valued second fundamental form II(X, Y) at x.

    Equals the normal projection of the ambient derivative, along X, of the
    canonical tangent extension y -> P(y) Y of Y, i.e. (I - P) dP[X] Y.
    """
    x = check_point(manifold, x)
    p = manifold.projector_field(x)
    dp = projector_derivative(manifold, x, X)
    return (np.eye(manifold.ambient_dim) - p) @ (dp @ np.asarray(Y, dtype=float))


def gauss_identity(dn_x: np.ndarray, dn_y: np.ndarray,
                   Z: np.ndarray, W: np.ndarray) -> float:
    """R(X,Y,Z,W) = <II(X,W), II(Y,Z)> - <II(X,Z), II(Y,W)> from the normal
    projector derivatives dn_x, dn_y along X and Y, with the sign fixed so
    the unit round sphere has R(X,Y,Y,X) = +1 on orthonormal pairs."""
    ii_xw = dn_x @ W
    ii_xz = dn_x @ Z
    ii_yz = dn_y @ Z
    ii_yw = dn_y @ W
    return float(ii_xw @ ii_yz - ii_xz @ ii_yw)


def riemann(manifold: EmbeddedManifold, x: np.ndarray,
            X: np.ndarray, Y: np.ndarray, Z: np.ndarray, W: np.ndarray) -> float:
    """(4,0) curvature tensor R(X, Y, Z, W) via the flat-ambient Gauss identity."""
    x = check_point(manifold, x)
    q = np.eye(manifold.ambient_dim) - manifold.projector_field(x)
    return gauss_identity(q @ projector_derivative(manifold, x, X),
                          q @ projector_derivative(manifold, x, Y), Z, W)


def sectional_curvature(manifold: EmbeddedManifold, x: np.ndarray,
                        X: np.ndarray, Y: np.ndarray) -> float:
    """Sectional curvature of the plane spanned by X and Y."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    gram = (X @ X) * (Y @ Y) - (X @ Y) ** 2
    if gram <= GRAM_DEGENERACY_TOL:
        raise DegeneratePlaneError(
            f"plane is numerically degenerate (Gram determinant {gram:.3e})")
    return riemann(manifold, x, X, Y, Y, X) / gram


def lie_bracket(manifold: EmbeddedManifold, field_x: VectorField,
                field_y: VectorField, x: np.ndarray,
                h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Bracket [X, Y] of two tangent fields, by ambient derivatives along
    retraction curves. Tangent-projected to strip finite-difference noise."""
    x = check_point(manifold, x)
    p = manifold.projector_field(x)
    xx = field_x(x)
    yx = field_y(x)
    dy_along_x = central_difference(
        lambda t: field_y(manifold.retraction(x, t * xx)), h)
    dx_along_y = central_difference(
        lambda t: field_x(manifold.retraction(x, t * yx)), h)
    return p @ (dy_along_x - dx_along_y)
