"""Embedded-submanifold calculus in flat ambient space.

A manifold is described extrinsically by a field of orthogonal tangent
projectors and a retraction; the metric is the one induced by the ambient
inner product. Covariant derivatives are tangent-projected ambient
derivatives along retraction curves. The second fundamental form is read one
way, II(u, W) = dP[u] W on tangent columns W (`tangent_second_fundamental_form`),
normal since P dP P = 0, and the curvature tensor is assembled from it via
the Gauss identity. A manifold that knows II in closed form (spheres, flat
spaces, products) or the projector derivative (those and the pull-back f*P)
is differentiated without finite differences; replacing both by None gives
the central-difference oracle along retraction curves. A product takes them
block by block, each factor by its own rule. The curvature oracles below
take tangents at one point or a block of points, one direction per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import DEFAULT_FD_STEP, central_difference, orthonormal_basis, over_stack, row_norms

MEMBERSHIP_TOL = 1e-8
GRAM_DEGENERACY_TOL = 1e-12
# `curvature` drops a sampled plane whose Gram determinant is at most this:
# sec = R(a, b, b, a) / Gram magnifies R's rounding (~1e-16) by 1 / Gram
SAMPLED_PLANE_GRAM_FLOOR = 1e-8


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
    finite-difference layer from every curvature quantity;
    analytic_second_fundamental_form(x, U, W), when available, is II(u, W) =
    dP[u] W on the tangent columns W (..., d, k) for each tangent u of U, as
    (..., d, k), with no (d, d) array (`tangent_second_fundamental_form`).
    Every closure also takes a block x (b, d): projectors (b, d, d), v (b, d),
    U (b, ..., d) with point i's directions in U[i] (`call_on_stack`), and
    the sampler maps standard normals z (..., d) to points (..., d).
    """

    ambient_dim: int
    intrinsic_dim: int
    projector_field: Callable[[np.ndarray], np.ndarray]
    retraction: Callable[[np.ndarray, np.ndarray], np.ndarray]
    analytic_projector_derivative: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    analytic_second_fundamental_form: Optional[Callable[..., np.ndarray]] = None
    sampler: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "manifold"

    def projector(self, x: np.ndarray) -> np.ndarray:
        return call_on_stack(self.projector_field, x, None, (self.ambient_dim,) * 2,
                             "projector_field", self.name)

    def membership_residual(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        d = call_on_stack(self.retraction, x, np.zeros_like(x), (self.ambient_dim,),
                          "retraction", self.name) - x
        return np.sqrt(np.vecdot(d, d))

    def random_point(self, z: np.ndarray) -> np.ndarray:
        """The sampler's point of standard normals z (d,), or of each row of z (b, d)."""
        if self.sampler is None:
            raise GeometryError(f"{self.name} has no point sampler")
        return call_on_stack(self.sampler, np.asarray(z, dtype=float), None, (self.ambient_dim,),
                             "sampler", self.name)


# A vector field on a manifold is any callable point -> tangent components.
VectorField = Callable[[np.ndarray], np.ndarray]


def check_point(manifold: EmbeddedManifold, x: np.ndarray) -> np.ndarray:
    """x as a float array, once the point, or every point of a block x (b, d),
    lies on the manifold: one retraction call; the error names the worst."""
    x = np.asarray(x, dtype=float)
    res = manifold.membership_residual(x)
    off = res > MEMBERSHIP_TOL
    if off.any():
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


def random_tangent(manifold: EmbeddedManifold, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The standard normals z (d,) projected onto the tangent space at x and
    normalised; at a block x (b, d), row i of z (b, d) at point i."""
    v = np.matvec(manifold.projector(x), z)
    n = row_norms(v)
    if np.min(n) < 1e-12:
        raise GeometryError("degenerate random tangent draw")
    return v / n


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


def tangent_second_fundamental_form(manifold: EmbeddedManifold, x: np.ndarray,
                                    u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """II(u, W) for each tangent u of the stack u (..., d) and the tangent
    columns of w (..., d, k), which broadcast against u's stack, as (..., d, k):
    the manifold's closed form, else dP[u] W, which is normal since P dP P = 0."""
    if manifold.analytic_second_fundamental_form is None:
        return projector_derivative(manifold, x, u) @ w
    return manifold.analytic_second_fundamental_form(x, u, w)


def call_on_stack(closure, x: np.ndarray, u: Optional[np.ndarray], shape: tuple,
                  kind: str, owner: str) -> np.ndarray:
    """closure(x), or closure(x, u) for a stack u (..., n), at x (n,) or (b, n),
    which must give (x or u).shape[:-1] + shape, at one point as at a block. A
    closure that fails or gives another shape is named in a GeometryError."""
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
    """Normal-valued second fundamental form II(X, Y) = dP[X] Y for tangent
    X, Y at x, or at each point of a block x (b, d) with X, Y (b, d): the
    normal part of the ambient derivative, along X, of the canonical tangent
    extension y -> P(y) Y of Y (`tangent_second_fundamental_form`)."""
    x = check_point(manifold, x)
    return tangent_second_fundamental_form(manifold, x, np.asarray(X, dtype=float),
                                           np.asarray(Y, dtype=float)[..., None])[..., 0]


def riemann(manifold: EmbeddedManifold, x: np.ndarray,
            X: np.ndarray, Y: np.ndarray, Z: np.ndarray, W: np.ndarray):
    """(4,0) curvature tensor R(X, Y, Z, W) of tangent X, Y, Z, W by the
    flat-ambient Gauss identity <II(X,W), II(Y,Z)> - <II(X,Z), II(Y,W)>, with
    the sign fixed so the unit round sphere has R(X,Y,Y,X) = +1 on orthonormal
    pairs; at x or at each point of a block x (b, d) with X, Y, Z, W (b, d).
    II is read in one call, along the stack (X, Y) on the columns (Z, W)."""
    x = check_point(manifold, x)
    xy = np.stack([X, Y], axis=-2).astype(float, copy=False)
    zw = np.stack([Z, W], axis=-1)[..., None, :, :]   # broadcasts against the stack (X, Y)
    ii = tangent_second_fundamental_form(manifold, x, xy, zw)   # (..., 2, d, 2)
    (x_z, x_w), (y_z, y_w) = np.moveaxis(ii, (-3, -1), (0, 1))
    return np.vecdot(x_w, y_z) - np.vecdot(x_z, y_w)


def sectional_curvature(manifold: EmbeddedManifold, x: np.ndarray,
                        X: np.ndarray, Y: np.ndarray):
    """Sectional curvature of the plane spanned by X and Y, at x or at each
    point of a block x (b, d) with X, Y (b, d)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    gram = np.vecdot(X, X) * np.vecdot(Y, Y) - np.vecdot(X, Y) ** 2
    if np.min(gram) <= GRAM_DEGENERACY_TOL:   # name the first degenerate point of a block
        i = int(np.argmax(np.ravel(gram) <= GRAM_DEGENERACY_TOL))
        raise DegeneratePlaneError(
            f"plane{'' if X.ndim == 1 else f' at point {i} of the block'} is numerically "
            f"degenerate (Gram determinant {np.ravel(gram)[i]:.3e})")
    return riemann(manifold, x, X, Y, Y, X) / gram


def lie_bracket(manifold: EmbeddedManifold, field_x: VectorField,
                field_y: VectorField, x: np.ndarray,
                h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Bracket [X, Y] of two tangent fields, by ambient derivatives along
    retraction curves. Tangent-projected to strip finite-difference noise.
    At a block x (b, d) the fields take the block too, and each side of a
    central difference evaluates its field once, at the block's retracted
    points."""
    x = check_point(manifold, x)
    xx = field_x(x)
    yx = field_y(x)
    dy_along_x = central_difference(
        lambda t: field_y(manifold.retraction(x, t * xx)), h)
    dx_along_y = central_difference(
        lambda t: field_x(manifold.retraction(x, t * yx)), h)
    return np.matvec(manifold.projector(x), dy_along_x - dx_along_y)
