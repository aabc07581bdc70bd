"""Built-in geometries: round spheres, flat spaces, products, the three Hopf
fibrations, geodesic k-fold self-maps of spheres, and perturbation
diffeomorphisms used to manufacture non-geodesic level sets. Every closed
form broadcasts over a stack of directions: a Jacobian derivative maps U
(..., n) to (..., m, n), a projector derivative U (..., d) to (..., d, d).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev

from . import algebra, core
from .core import EmbeddedManifold, GeometryError
from .graph import SmoothMapBetweenManifolds
from .submersion import RiemannianSubmersionBundle


# ---------------------------------------------------------------------------
# Elementary manifolds
# ---------------------------------------------------------------------------

def sphere(dim: int, radius: float = 1.0) -> EmbeddedManifold:
    """Round sphere of the given dimension and radius in R^(dim+1)."""
    d = dim + 1
    r = float(radius)

    def projector(x: np.ndarray) -> np.ndarray:
        nn = x @ x
        return np.eye(d) - np.outer(x, x) / nn

    def projector_derivative(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        nn = x @ x
        return (-(u[..., :, None] * x + x[:, None] * u[..., None, :]) / nn
                + np.outer(x, x) * (2.0 * (u @ x) / nn ** 2)[..., None, None])

    def retraction(x: np.ndarray, v: np.ndarray) -> np.ndarray:
        y = x + v
        return r * y / np.linalg.norm(y)

    def sampler(rng: np.random.Generator) -> np.ndarray:
        v = rng.standard_normal(d)
        return r * v / np.linalg.norm(v)

    return EmbeddedManifold(
        ambient_dim=d, intrinsic_dim=dim,
        projector_field=projector,
        retraction=retraction,
        analytic_projector_derivative=projector_derivative,
        sampler=sampler,
        name=f"S{dim}(r={r:g})")


def sphere_radius(m: EmbeddedManifold) -> float:
    """Radius of a round sphere about the origin: the norm of the point its
    nearest-point retraction assigns to the last ambient axis."""
    axis = np.zeros(m.ambient_dim)
    axis[-1] = 1.0
    return float(np.linalg.norm(m.retraction(axis, np.zeros(m.ambient_dim))))


def flat_space(dim: int, half_width: float = 1.0) -> EmbeddedManifold:
    """R^dim with the flat metric; samples are uniform in a centered box."""

    def sampler(rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-half_width, half_width, size=dim)

    return EmbeddedManifold(
        ambient_dim=dim, intrinsic_dim=dim,
        projector_field=lambda x: np.eye(dim),
        retraction=lambda x, v: x + v,
        analytic_projector_derivative=lambda x, u: np.zeros(np.shape(u)[:-1] + (dim, dim)),
        sampler=sampler,
        name=f"R{dim}")


def product_manifold(a: EmbeddedManifold, b: EmbeddedManifold) -> EmbeddedManifold:
    """Riemannian product, embedded in the concatenated ambient space."""
    da, db = a.ambient_dim, b.ambient_dim

    def projector(z):
        out = np.zeros((da + db, da + db))
        out[:da, :da] = a.projector_field(z[:da])
        out[da:, da:] = b.projector_field(z[da:])
        return out

    def retraction(z, v):
        return np.concatenate([a.retraction(z[:da], v[:da]),
                               b.retraction(z[da:], v[da:])])

    # block-wise: a factor's closed form, else that factor's finite difference
    dpa = a.analytic_projector_derivative or functools.partial(core.projector_derivative, a)
    dpb = b.analytic_projector_derivative or functools.partial(core.projector_derivative, b)

    def dp(z, u):
        out = np.zeros(np.shape(u)[:-1] + (da + db, da + db))
        out[..., :da, :da] = dpa(z[:da], u[..., :da])
        out[..., da:, da:] = dpb(z[da:], u[..., da:])
        return out

    sampler = None
    if a.sampler is not None and b.sampler is not None:
        def sampler(rng):
            return np.concatenate([a.sampler(rng), b.sampler(rng)])

    return EmbeddedManifold(
        ambient_dim=da + db,
        intrinsic_dim=a.intrinsic_dim + b.intrinsic_dim,
        projector_field=projector,
        retraction=retraction,
        analytic_projector_derivative=dp,
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
    a, b = p[:k], p[k:]
    w = algebra.multiply(a, algebra.conj(b))
    s = 0.5 * (a @ a - b @ b)
    return np.concatenate([w, [s]])


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


def _hopf_fiber_charts(k: int, n: np.ndarray):
    w, s = n[:k], n[k]
    ra2 = max(0.5 + s, 0.0)
    rb2 = max(0.5 - s, 0.0)
    return w, ra2, rb2


def hopf_fiber_section(flavor: str, n: np.ndarray) -> np.ndarray:
    """A point in the fiber over n, continuous away from the pole s = +1/2.

    Primary chart takes b real positive; the fallback chart (a real) only
    engages when the primary one degenerates.
    """
    k = _flavor_dim(flavor)
    n = np.asarray(n, dtype=float)
    w, ra2, rb2 = _hopf_fiber_charts(k, n)
    if rb2 >= 1e-12:
        rb = np.sqrt(rb2)
        b = rb * algebra.one(k)
        a = w / rb
    else:
        ra = np.sqrt(ra2)
        a = ra * algebra.one(k)
        b = algebra.conj(w) / ra
    return np.concatenate([a, b])


def hopf_fiber_project(flavor: str, p_tilde: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Nearest point to p_tilde on the fiber over n (closed form).

    Each fiber is a round sphere parametrized linearly by one coordinate of
    the pair, so the alignment objective is linear and its maximizer over the
    parameter sphere is explicit; this reduces to unit-scalar phase alignment
    in the associative flavors. The better-conditioned chart is used.
    """
    k = _flavor_dim(flavor)
    p_tilde = np.asarray(p_tilde, dtype=float)
    n = np.asarray(n, dtype=float)
    at, bt = p_tilde[:k], p_tilde[k:]
    w, ra2, rb2 = _hopf_fiber_charts(k, n)
    if rb2 >= ra2:
        u = algebra.multiply(algebra.conj(w), at) / rb2 + bt
        nu = np.linalg.norm(u)
        if nu < 1e-12:
            raise GeometryError("fiber projection is ambiguous at this point")
        b = np.sqrt(rb2) * u / nu
        a = algebra.multiply(w, b) / rb2
    else:
        u = at + algebra.multiply(w, bt) / ra2
        nu = np.linalg.norm(u)
        if nu < 1e-12:
            raise GeometryError("fiber projection is ambiguous at this point")
        a = np.sqrt(ra2) * u / nu
        b = algebra.multiply(algebra.conj(w), a) / ra2
    return np.concatenate([a, b])


def hopf_fiber_sampler(flavor: str, n: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random point on the fiber over n, via the chart spheres."""
    k = _flavor_dim(flavor)
    n = np.asarray(n, dtype=float)
    w, ra2, rb2 = _hopf_fiber_charts(k, n)
    if rb2 >= ra2:
        b = np.sqrt(rb2) * algebra.random_unit(k, rng)
        a = algebra.multiply(w, b) / rb2
    else:
        a = np.sqrt(ra2) * algebra.random_unit(k, rng)
        b = algebra.multiply(algebra.conj(w), a) / ra2
    return np.concatenate([a, b])


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
        fiber_section=lambda n: hopf_fiber_section(flavor, n),
        fiber_projector=lambda p, n: hopf_fiber_project(flavor, p, n),
        fiber_sampler=lambda n, rng: hopf_fiber_sampler(flavor, n, rng),
        name=f"hopf_{flavor}",
        flavor=flavor, algebra_dim=k)


# ---------------------------------------------------------------------------
# Sphere self-maps
# ---------------------------------------------------------------------------

def geodesic_k_fold(sphere: EmbeddedManifold, k: int,
                    pole: Optional[np.ndarray] = None) -> SmoothMapBetweenManifolds:
    """Self-map of a round sphere multiplying the polar angle from the pole
    (the first ambient axis by default) by k.

    Implemented through Chebyshev polynomials of the cosine of the polar
    angle, which is polynomial in the ambient coordinates and smooth at the
    poles; sends cos(t) pole + sin(t) X to cos(kt) pole + sin(kt) X. The
    dimension and the radius are read from the sphere (`sphere_radius`), so
    the images lie on it.
    """
    r = sphere_radius(sphere)
    d = sphere.ambient_dim
    if pole is None:
        pole = np.zeros(d)
        pole[0] = 1.0
    pole = np.asarray(pole, dtype=float)
    pole = pole / np.linalg.norm(pole)
    t_k = chebyshev.Chebyshev.basis(k)
    u_km1 = t_k.deriv() / k            # T_k' = k U_{k-1}
    u_km1_deriv = u_km1.deriv()
    u_km1_deriv2 = u_km1_deriv.deriv()

    def ambient_map(y: np.ndarray) -> np.ndarray:
        c = (y @ pole) / r
        tang = y - (y @ pole) * pole
        return r * t_k(c) * pole + u_km1(c) * tang

    def jacobian(y: np.ndarray) -> np.ndarray:
        c = (y @ pole) / r
        tang = y - (y @ pole) * pole
        pp = np.outer(pole, pole)
        return (k * u_km1(c) * pp
                + np.outer(u_km1_deriv(c) * tang / r, pole)
                + u_km1(c) * (np.eye(d) - pp))

    def jacobian_derivative(y: np.ndarray, v: np.ndarray) -> np.ndarray:
        c = (y @ pole) / r
        vp = v @ pole
        dc = vp / r
        tang = y - (y @ pole) * pole
        dtang = v - vp[..., None] * pole
        pp = np.outer(pole, pole)
        return (dc[..., None, None] * (k * u_km1_deriv(c) * pp
                                       + np.outer(u_km1_deriv2(c) * tang / r, pole)
                                       + u_km1_deriv(c) * (np.eye(d) - pp))
                + (u_km1_deriv(c) * dtang / r)[..., :, None] * pole)

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
    d = manifold.ambient_dim
    r = sphere_radius(manifold)
    shift = r * delta * axis

    def ambient_map(x: np.ndarray) -> np.ndarray:
        u = x + shift
        return r * u / np.linalg.norm(u)

    def jacobian(x: np.ndarray) -> np.ndarray:
        u = x + shift
        nu = np.linalg.norm(u)
        uhat = u / nu
        return (r / nu) * (np.eye(d) - np.outer(uhat, uhat))

    def jacobian_derivative(x: np.ndarray, v: np.ndarray) -> np.ndarray:
        # d|u| = uhat.v and d uhat = (I - uhat uhat^T) v / |u|
        u = x + shift
        nu = np.linalg.norm(u)
        uhat = u / nu
        uv = v @ uhat
        duhat = (v - uv[..., None] * uhat) / nu
        return (-(r * uv / nu ** 2)[..., None, None] * (np.eye(d) - np.outer(uhat, uhat))
                - (r / nu) * (duhat[..., :, None] * uhat + uhat[:, None] * duhat[..., None, :]))

    return SmoothMapBetweenManifolds(
        source=manifold, target=manifold,
        ambient_map=ambient_map, jacobian=jacobian,
        jacobian_derivative=jacobian_derivative,
        name=f"perturbed({delta:g})")


# ---------------------------------------------------------------------------
# Product and fixture bundles
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
        ambient_map=lambda z: z[:dn].copy(),
        jacobian=lambda z: jac_mat,
        jacobian_derivative=lambda z, u: np.zeros(np.shape(u)[:-1] + jac_mat.shape),
        name=f"pr_{base.name}")
    f0 = fiber.random_point(np.random.Generator(np.random.PCG64(0)))

    def fiber_projector(p_tilde: np.ndarray, n: np.ndarray) -> np.ndarray:
        zero = np.zeros(fiber.ambient_dim)
        return np.concatenate([n, fiber.retraction(p_tilde[dn:], zero)])

    return RiemannianSubmersionBundle(
        total=total, base=base, projection=projection,
        fiber_dim=fiber.intrinsic_dim,
        fiber_section=lambda n: np.concatenate([n, f0]),
        fiber_projector=fiber_projector,
        fiber_sampler=lambda n, rng: np.concatenate([n, fiber.random_point(rng)]),
        name=f"trivial({base.name},{fiber.name})")


def scaled_fiber_bundle(alpha: float = 0.5) -> RiemannianSubmersionBundle:
    """Fixture circle bundle over the circle whose fiber radius 1 + alpha*n1
    depends on the base point; its fibers are deliberately not totally
    geodesic for alpha > 0, so geodesy checks must flag it."""
    base = sphere(1, 1.0)

    def rho(n: np.ndarray) -> float:
        return 1.0 + alpha * n[0]

    def split(z):
        n = z[:2]
        v = z[2:]
        return n / np.linalg.norm(n), v

    def projector(z: np.ndarray) -> np.ndarray:
        n, v = split(z)
        nv = np.linalg.norm(v)
        vhat = v / nv
        rho_prime = -alpha * n[1]
        t1 = np.array([-n[1], n[0], rho_prime * vhat[0], rho_prime * vhat[1]])
        t2 = np.array([0.0, 0.0, -vhat[1], vhat[0]])
        t1 = t1 / np.linalg.norm(t1)
        return np.outer(t1, t1) + np.outer(t2, t2)

    def retraction(z: np.ndarray, w: np.ndarray) -> np.ndarray:
        n_new = z[:2] + w[:2]
        n_new = n_new / np.linalg.norm(n_new)
        v_new = z[2:] + w[2:]
        v_new = rho(n_new) * v_new / np.linalg.norm(v_new)
        return np.concatenate([n_new, v_new])

    def sampler(rng: np.random.Generator) -> np.ndarray:
        theta, psi = rng.uniform(0.0, 2.0 * np.pi, size=2)
        n = np.array([np.cos(theta), np.sin(theta)])
        return np.concatenate([n, rho(n) * np.array([np.cos(psi), np.sin(psi)])])

    total = core.EmbeddedManifold(
        ambient_dim=4, intrinsic_dim=2,
        projector_field=projector, retraction=retraction,
        sampler=sampler, name=f"scaled_fiber({alpha:g})")

    jac_mat = np.zeros((2, 4))
    jac_mat[:, :2] = np.eye(2)
    projection = SmoothMapBetweenManifolds(
        source=total, target=base,
        ambient_map=lambda z: z[:2].copy(),
        jacobian=lambda z: jac_mat,
        jacobian_derivative=lambda z, u: np.zeros(np.shape(u)[:-1] + jac_mat.shape),
        name="scaled_fiber_projection")

    def fiber_projector(p_tilde: np.ndarray, n: np.ndarray) -> np.ndarray:
        v = p_tilde[2:]
        return np.concatenate([n, rho(n) * v / np.linalg.norm(v)])

    return RiemannianSubmersionBundle(
        total=total, base=base, projection=projection, fiber_dim=1,
        fiber_section=lambda n: np.concatenate([n, [rho(n), 0.0]]),
        fiber_projector=fiber_projector,
        fiber_sampler=lambda n, rng: fiber_projector(
            np.concatenate([n, rng.standard_normal(2)]), n),
        name=f"scaled_fiber({alpha:g})")
