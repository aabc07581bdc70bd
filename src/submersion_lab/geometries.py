"""Built-in geometries: round spheres, flat spaces, products, the three Hopf
fibrations, geodesic k-fold self-maps of spheres, perturbation
diffeomorphisms used to manufacture non-geodesic level sets, and the trivial
and identity bundles. Every closure takes one point or a block, point axis
first, and broadcasts over a stack of directions, U (..., n) -> (..., m, n)
or (..., d, d). A sampler maps normals z (..., ambient dim) to points, a
fiber sampler base points n and its total space's normals to fiber points,
each a block's rows in one call (a sphere normalises z, a product splits it).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from . import algebra, core
from .core import EmbeddedManifold, GeometryError
from .graph import SmoothMapBetweenManifolds, identity_map
from .numerics import constant_field, per_point, row_norms
from .submersion import RiemannianSubmersionBundle


# ---------------------------------------------------------------------------
# Elementary manifolds
# ---------------------------------------------------------------------------

def sphere(dim: int, radius: float = 1.0) -> EmbeddedManifold:
    """Round sphere of the given dimension and radius in R^(dim+1)."""
    d = dim + 1
    r = float(radius)
    eye = np.eye(d)

    def projector(x: np.ndarray) -> np.ndarray:
        return eye - x[..., :, None] * x[..., None, :] / np.vecdot(x, x)[..., None, None]

    def projector_derivative(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        x = per_point(x, x, u.ndim - x.ndim)
        nn = np.vecdot(x, x)[..., None, None]
        ux = u[..., :, None] * x[..., None, :]
        return (-(ux + ux.swapaxes(-1, -2)) / nn
                + x[..., :, None] * x[..., None, :] * (2.0 * np.vecdot(u, x)[..., None, None]
                                                       / nn ** 2))

    def retraction(x: np.ndarray, v: np.ndarray) -> np.ndarray:
        y = x + v
        return r * y / row_norms(y)

    return EmbeddedManifold(
        ambient_dim=d, intrinsic_dim=dim,
        projector_field=projector,
        retraction=retraction,
        analytic_projector_derivative=projector_derivative,
        analytic_second_fundamental_form=_sphere_second_fundamental_form,
        sampler=lambda z: r * z / row_norms(z),
        name=f"S{dim}(r={r:g})")


def _sphere_second_fundamental_form(x: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    x = per_point(x, x, u.ndim - x.ndim)   # -(u . W) x / r^2
    return (u[..., None, :] @ w) * (-x / np.vecdot(x, x)[..., None])[..., :, None]


def canonical_point(manifold: EmbeddedManifold) -> np.ndarray:
    """The point the retraction assigns to the last ambient axis."""
    axis = np.zeros(manifold.ambient_dim)
    axis[-1] = 1.0
    return manifold.retraction(axis, np.zeros(manifold.ambient_dim))


def sphere_radius(m: EmbeddedManifold) -> float:
    """Radius of a round sphere about the origin: the norm of its
    `canonical_point`, where its nearest-point retraction takes the last axis."""
    return float(np.linalg.norm(canonical_point(m)))


def flat_space(dim: int) -> EmbeddedManifold:
    """R^dim with the flat metric; its sampler returns its normals (no built-in
    scenario samples a flat space)."""
    return EmbeddedManifold(
        ambient_dim=dim, intrinsic_dim=dim,
        projector_field=constant_field(np.eye(dim)),
        retraction=lambda x, v: x + v,
        analytic_projector_derivative=lambda x, u: np.zeros(np.shape(u)[:-1] + (dim, dim)),
        analytic_second_fundamental_form=_zero_second_fundamental_form,
        sampler=lambda z: z,
        name=f"R{dim}")


def _zero_second_fundamental_form(x: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.zeros(np.broadcast_shapes(u[..., None].shape, w.shape))


def product_manifold(a: EmbeddedManifold, b: EmbeddedManifold) -> EmbeddedManifold:
    """Riemannian product, embedded in the concatenated ambient space."""
    da, db = a.ambient_dim, b.ambient_dim

    def projector(z):
        out = np.zeros(z.shape[:-1] + (da + db, da + db))
        out[..., :da, :da] = a.projector(z[..., :da])
        out[..., da:, da:] = b.projector(z[..., da:])
        return out

    def retraction(z, v):
        return np.concatenate([a.retraction(z[..., :da], v[..., :da]),
                               b.retraction(z[..., da:], v[..., da:])], axis=-1)

    # block-wise: a factor's closed form, else that factor's finite difference
    dpa = a.analytic_projector_derivative or functools.partial(core.projector_derivative, a)
    dpb = b.analytic_projector_derivative or functools.partial(core.projector_derivative, b)

    def dp(z, u):
        out = np.zeros(np.shape(u)[:-1] + (da + db, da + db))
        out[..., :da, :da] = dpa(z[..., :da], u[..., :da])
        out[..., da:, da:] = dpb(z[..., da:], u[..., da:])
        return out

    def ii(z, u, w):
        return np.concatenate([core.tangent_second_fundamental_form(m, z[..., s], u[..., s],
                                                                    w[..., s, :])
                               for m, s in ((a, np.s_[:da]), (b, np.s_[da:]))], axis=-2)

    sampler = None
    if a.sampler is not None and b.sampler is not None:
        def sampler(z):
            return np.concatenate([a.sampler(z[..., :da]), b.sampler(z[..., da:])], axis=-1)

    return EmbeddedManifold(
        ambient_dim=da + db,
        intrinsic_dim=a.intrinsic_dim + b.intrinsic_dim,
        projector_field=projector,
        retraction=retraction,
        analytic_projector_derivative=dp,
        analytic_second_fundamental_form=ii,
        sampler=sampler,
        name=f"{a.name}x{b.name}")


# ---------------------------------------------------------------------------
# Hopf fibrations
# ---------------------------------------------------------------------------

HOPF_FLAVORS = {"complex": 2, "quaternionic": 4, "octonionic": 8}


@dataclass(frozen=True)
class HopfFibration(RiemannianSubmersionBundle):
    """Sphere-to-sphere bundle built from a normed division algebra.

    Total space is the unit sphere in A^2, the base the radius-1/2 sphere in
    A x R, and the projection (a,b) -> (a conj(b), (|a|^2-|b|^2)/2). The base
    radius makes the projection a Riemannian submersion. For the complex and
    quaternionic flavors the fibers are orbits of the right unit-scalar
    action (a,b) -> (az,bz); the octonionic map has 7-sphere fibers but no
    group action, so it participates only through the fiber charts.
    """

    flavor: str = "complex"
    algebra_dim: int = 2


def hopf_projection(flavor: str, p: np.ndarray) -> np.ndarray:
    k = _flavor_dim(flavor)
    p = np.asarray(p, dtype=float)
    a, b = p[..., :k], p[..., k:]
    w = algebra.multiply(a, algebra.conj(b))
    s = 0.5 * (np.vecdot(a, a) - np.vecdot(b, b))
    return np.concatenate([w, s[..., None]], axis=-1)


def _flavor_dim(flavor: str) -> int:
    if flavor not in HOPF_FLAVORS:
        raise GeometryError(f"unknown Hopf flavor {flavor!r}")
    return HOPF_FLAVORS[flavor]


def _hopf_jacobian(k: int, p: np.ndarray) -> np.ndarray:
    a, b = p[:k], p[k:]
    conj_mat = np.diag([1.0] + [-1.0] * (k - 1))
    out = np.zeros((k + 1, 2 * k))
    # d(a conj(b)) = da conj(b) + a conj(db)
    out[:k, :k] = algebra.right_multiplication_matrix(algebra.conj(b))
    out[:k, k:] = algebra.left_multiplication_matrix(a) @ conj_mat
    out[k, :k] = a
    out[k, k:] = -b
    return out


@functools.cache
def _hopf_linear(k: int):
    """p -> J(p) = L p for the constant L[:, :, j] = J(e_j): the projection is
    quadratic. L's entries are 0 and +-1, so L p is exact. One L per flavor,
    not per bundle, so no run leaves one to the cyclic garbage collector."""
    lin = np.stack([_hopf_jacobian(k, e) for e in np.eye(2 * k)], -1).reshape(-1, 2 * k).T
    return lambda p: (p @ lin).reshape(np.shape(p)[:-1] + (k + 1, 2 * k))


def hopf_fiber_project(flavor: str, p_tilde: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Nearest point to p_tilde on the fiber over n = (w, s) (closed form).

    The fiber is a round sphere parametrized linearly by either coordinate,
    a = w b / |b|^2 or b = conj(w) a / |a|^2, so both charts give the
    maximizer (U_a, U_b) / |(U_a, U_b)| of the linear alignment objective,
    U_a = |a|^2 at + w bt, U_b = conj(w) at + |b|^2 bt (the algebras are
    alternative): no chart to choose, no division by a chart radius.
    """
    k = _flavor_dim(flavor)
    pair = np.asarray(p_tilde, dtype=float).reshape(np.shape(p_tilde)[:-1] + (2, k))
    n = np.asarray(n, dtype=float)
    w_signs, s_signs = _PAIR_SIGNS[k]
    radii = 0.5 + n[..., k:] * s_signs   # (|a|^2, |b|^2) times (at, bt) ...
    out = (radii[..., None] * pair   # ... plus (w, conj(w)) times (bt, at)
           + algebra.multiply(n[..., None, :k] * w_signs, pair[..., ::-1, :]))
    out = out.reshape(np.shape(p_tilde))
    norm = row_norms(out)
    if (norm < 1e-12).any():
        where = "" if out.ndim == 1 else f" at point {int(np.argmax(norm < 1e-12))} of the block"
        raise GeometryError(f"fiber projection is ambiguous{where}")
    return out / norm


# per algebra dimension, the signs that take w to (w, conj(w)) and s to (s, -s)
_PAIR_SIGNS = {k: (np.stack([np.ones(k), algebra.conj(np.ones(k))]), np.array([1.0, -1.0]))
               for k in HOPF_FLAVORS.values()}


def hopf_fiber_sampler(flavor: str, n: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A uniform point of the fiber over n = (w, s), or each n of a block, from
    the first k of the 2k normals z: the chart b -> (w b / |b|^2, b), or a ->
    (a, conj(w) a / |a|^2) where |a| > |b|, is a similarity onto the fiber from
    the sphere onto which the k normals normalise."""
    k = _flavor_dim(flavor)
    n = np.asarray(n, dtype=float)
    w, s = n[..., :k], n[..., k:]
    b_chart = 0.5 - s >= 0.5 + s   # |b|^2 >= |a|^2 on the fiber
    r2 = 0.5 + np.abs(s)   # the larger of the two
    chart = np.sqrt(r2) * (z[..., :k] / row_norms(z[..., :k]))
    other = algebra.multiply(np.where(b_chart, w, algebra.conj(w)), chart) / r2
    a, b = np.where(b_chart, other, chart), np.where(b_chart, chart, other)
    return np.concatenate([a, b], axis=-1)


def hopf_fibration(flavor: str) -> HopfFibration:
    k = _flavor_dim(flavor)
    total = sphere(2 * k - 1, 1.0)
    base = sphere(k, 0.5)
    linear = _hopf_linear(k)   # dJ[U] = L U
    projection = SmoothMapBetweenManifolds(
        source=total, target=base,
        ambient_map=lambda p: hopf_projection(flavor, p),
        jacobian=linear,
        jacobian_derivative=lambda p, u: linear(u),
        name=f"hopf_{flavor}")
    return HopfFibration(
        total=total, base=base, projection=projection,
        fiber_dim=k - 1,
        fiber_projector=lambda p, n: hopf_fiber_project(flavor, p, n),
        fiber_sampler=lambda n, z: hopf_fiber_sampler(flavor, n, z),
        name=f"hopf_{flavor}",
        flavor=flavor, algebra_dim=k)


# ---------------------------------------------------------------------------
# Sphere self-maps
# ---------------------------------------------------------------------------

def geodesic_k_fold(sphere: EmbeddedManifold, k: int) -> SmoothMapBetweenManifolds:
    """Self-map of a round sphere multiplying the polar angle from the pole,
    the first ambient axis, by k.

    Implemented through Chebyshev polynomials of the cosine of the polar
    angle, which is polynomial in the ambient coordinates and smooth at the
    poles; sends cos(t) pole + sin(t) X to cos(kt) pole + sin(kt) X. The
    dimension and the radius are read from the sphere (`sphere_radius`), so
    the images lie on it.
    """
    r = sphere_radius(sphere)
    d = sphere.ambient_dim
    pole = np.eye(d)[0]
    t_k = chebyshev.Chebyshev.basis(k)
    u_km1 = t_k.deriv() / k            # T_k' = k U_{k-1}
    # chebval on the coefficients skips the series' map of [-1, 1] onto itself
    t_k, u_km1, u_km1_deriv, u_km1_deriv2 = (functools.partial(chebyshev.chebval, c=p.coef)
                                             for p in (t_k, u_km1, u_km1.deriv(), u_km1.deriv(2)))
    pp = np.outer(pole, pole)
    off_pole = np.eye(d) - pp

    def ambient_map(y: np.ndarray) -> np.ndarray:
        yp = y @ pole
        c = yp / r
        tang = y - yp[..., None] * pole
        return (r * t_k(c))[..., None] * pole + u_km1(c)[..., None] * tang

    def jacobian(y: np.ndarray) -> np.ndarray:
        yp = y @ pole
        c = yp / r
        tang = y - yp[..., None] * pole
        u = u_km1(c)[..., None, None]
        return (k * u * pp + (u_km1_deriv(c)[..., None] * tang / r)[..., :, None] * pole
                + u * off_pole)

    def jacobian_derivative(y: np.ndarray, v: np.ndarray) -> np.ndarray:
        y = per_point(y, y, v.ndim - y.ndim)
        yp = y @ pole
        c = yp / r
        vp = v @ pole
        dc = vp / r
        tang = y - yp[..., None] * pole
        dtang = v - vp[..., None] * pole
        du = u_km1_deriv(c)[..., None]
        return (dc[..., None, None] * (k * du[..., None] * pp
                                       + (u_km1_deriv2(c)[..., None] * tang / r)[..., :, None]
                                       * pole + du[..., None] * off_pole)
                + (du * dtang / r)[..., :, None] * pole)

    return SmoothMapBetweenManifolds(
        source=sphere, target=sphere, ambient_map=ambient_map, jacobian=jacobian,
        jacobian_derivative=jacobian_derivative, name=f"fold{k}_S{sphere.intrinsic_dim}")


def perturbation_diffeo(manifold: EmbeddedManifold, delta: float,
                        axis: np.ndarray) -> SmoothMapBetweenManifolds:
    """Self-diffeomorphism of a round sphere: push toward `axis` and renormalize.

    x -> r (x + r delta axis)/|x + r delta axis|; identity at delta = 0,
    injective for delta < 1 (rejected at delta >= 1).
    """
    if not 0.0 <= delta < 1.0:
        raise GeometryError(f"perturbation strength delta={delta} must lie in [0, 1)")
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    r = sphere_radius(manifold)
    shift = r * delta * axis
    eye = np.eye(manifold.ambient_dim)

    def ambient_map(x: np.ndarray) -> np.ndarray:
        u = x + shift
        return r * u / row_norms(u)

    def jacobian(x: np.ndarray) -> np.ndarray:
        u = x + shift
        nu = row_norms(u)
        uhat = u / nu
        return (r / nu)[..., None] * (eye - uhat[..., :, None] * uhat[..., None, :])

    def jacobian_derivative(x: np.ndarray, v: np.ndarray) -> np.ndarray:
        # d|u| = uhat.v and d uhat = (I - uhat uhat^T) v / |u|
        u = per_point(x, x, v.ndim - x.ndim) + shift
        nu = np.sqrt(np.vecdot(u, u))
        uhat = u / nu[..., None]
        uv = np.vecdot(v, uhat)
        duhat = (v - uv[..., None] * uhat) / nu[..., None]
        off_u = eye - uhat[..., :, None] * uhat[..., None, :]
        return (-(r * uv / nu ** 2)[..., None, None] * off_u
                - (r / nu)[..., None, None] * (duhat[..., :, None] * uhat[..., None, :]
                                               + uhat[..., :, None] * duhat[..., None, :]))

    return SmoothMapBetweenManifolds(
        source=manifold, target=manifold,
        ambient_map=ambient_map, jacobian=jacobian,
        jacobian_derivative=jacobian_derivative,
        name=f"perturbed({delta:g})")


# ---------------------------------------------------------------------------
# Product and identity bundles
# ---------------------------------------------------------------------------

def trivial_bundle(base: EmbeddedManifold,
                   fiber: EmbeddedManifold) -> RiemannianSubmersionBundle:
    """Product bundle base x fiber with first-factor projection."""
    total = product_manifold(base, fiber)
    dn = base.ambient_dim
    jac_mat = np.zeros((dn, total.ambient_dim))
    jac_mat[:, :dn] = np.eye(dn)
    projection = SmoothMapBetweenManifolds(
        source=total, target=base,
        ambient_map=lambda z: z[..., :dn].copy(),
        jacobian=constant_field(jac_mat),
        jacobian_derivative=lambda z, u: np.zeros(np.shape(u)[:-1] + jac_mat.shape),
        name=f"pr_{base.name}")

    def fiber_projector(p_tilde: np.ndarray, n: np.ndarray) -> np.ndarray:
        q = p_tilde[..., dn:]
        return np.concatenate([n, fiber.retraction(q, np.zeros_like(q))], axis=-1)

    return RiemannianSubmersionBundle(
        total=total, base=base, projection=projection,
        fiber_dim=fiber.intrinsic_dim,
        fiber_projector=fiber_projector,
        fiber_sampler=lambda n, z: np.concatenate([n, fiber.random_point(z[..., dn:])], axis=-1),
        name=f"trivial({base.name},{fiber.name})")


def identity_bundle(manifold: EmbeddedManifold) -> RiemannianSubmersionBundle:
    """The manifold over itself by the identity, each fiber a point: its
    pull-back along f is the graph of f, f*N = {(x, f(x))}."""
    return RiemannianSubmersionBundle(
        total=manifold, base=manifold, projection=identity_map(manifold),
        fiber_dim=0,
        fiber_projector=lambda p_tilde, n: n,
        fiber_sampler=lambda n, z: n,
        name=f"id({manifold.name})")
