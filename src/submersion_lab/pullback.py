"""The pull-back of a Riemannian submersion along a map into its base.

f*P = {(x,p) : f(x) = pi(p)} is handled as an embedded submanifold of the
product ambient space: membership, tangent solver (nullspace of the linear
constraint df X = dpi E), a retraction that lands exactly back on the
constraint set via fiber projection, the induced submersion onto the graph
of f, the connection-metric reduction on the base, the mixed correction term
Lambda, the second fundamental form formula, and curvature along two
independent evaluation paths (`pullback_curvature`, direct, and
`pullback_curvature_expansion`).

f*P is the zero set of the constraint map (x, p) -> f(x) - pi(p) on M x P
(`PullbackBundle.constraint`, built once per bundle), so its tangent space
is the kernel of that map's differential: `graph.KernelFrame` of the
constraint, at rank dim N, gives the tangent basis (`tangent_basis`), the
tangent projector and its closed-form derivative, from the Jacobian
derivatives of f and pi. The manifold's `projector_field` and
`analytic_projector_derivative` each build a frame per call, so the
curvature oracles of `core` stay context-free; replacing the derivative by
None gives the finite-difference oracle. A factor without a closed-form
projector derivative is differentiated inside the frame by its own
finite-difference fallback.

`PointData(pb, x, p)` holds the data at one point (x, p) of f*P that the
batched paths share, each piece computed on first use: the kernel frame of
dpi at p (`split`: vertical kernel, horizontal coimage), the graph operators
of f at x (`ops`), the kernel frame of df at x (`kd`), the A-tensor
coefficients at p (`coeff`), the Jacobian of f at x (`jac`) and the frame
of the f*P tangent projector (`frame`). None of them is a tangent basis of
M, N or B: each reads df from an ambient matrix or a frame. A kernel
direction X = K c of df takes d2f (`kernel_d2f`) and the second fundamental
form of f*P (`lifted_bases`) on K by contraction. The fields read each
other's values: `ops` (once `kd` is held) and `frame` take J and the
projector of M at x from `kd`, `kernel_d2f` takes them and P_N from
`ops`, and `frame` takes those of pi and P at p from `split`, so a check
evaluates each once per point. `lambda_term` and
`pullback_second_fundamental_form` take it, and so do the batched paths of
the obstruction module. The two curvature paths and
`pullback_second_fundamental_form_direct` never take one from the caller:
they compute their own point data, so each cross-validation pair stays
independent in its signatures.

`PointData` also holds a block of points, x (b, m) and p (b, n): each field
gains the leading point axis and is computed once for the block. So do
`validate`'s oracles below, one value per point (the expansion path aside),
and `reduce_connection_metric` draws its points in blocks of normals, like
every sampled loop (`numerics.rng_blocks`); the f*P sampler maps the first d_M
normals of a row to x, the rest to the fiber point over f(x).
`PointData.blocks` splits a block by the rank of df at its points, which
decides the shapes of `kd`, so one kernel frame of df serves each part; a
block of one point keeps its point axis and takes the same path. The
second fundamental form of `lifted_bases` is the kernel form of the f*P
frame on all its rows at once, in ambient coordinates, with no (d, d) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import core, submersion
from .core import MEMBERSHIP_TOL, EmbeddedManifold, GeometryError
from .geometries import flat_space, product_manifold
from .graph import (GraphOperators, KernelFrame, SmoothMapBetweenManifolds, d2f,
                    kernel_splitting)
from .numerics import first_extreme, orthonormal_basis, per_point, rng_blocks
from .submersion import (RiemannianSubmersionBundle, a_dagger, a_tensor_coefficients,
                         splitting)


# ---------------------------------------------------------------------------
# The connection metric on the base
# ---------------------------------------------------------------------------

class InadmissibleEpsilonError(GeometryError):
    """The fiber-scale epsilon destroys positive definiteness of the reduced
    base metric; carries the offending eigenvalue and the admissible bound."""

    def __init__(self, epsilon: float, min_eigenvalue: float,
                 max_admissible: float, point: np.ndarray):
        self.epsilon = epsilon
        self.min_eigenvalue = min_eigenvalue
        self.max_admissible = max_admissible
        self.point = point
        super().__init__(
            f"epsilon={epsilon:g} makes the reduced metric indefinite "
            f"(min eigenvalue {min_eigenvalue:.3e}); admissible epsilon "
            f"< {max_admissible:.6g}")


@dataclass(frozen=True)
class ReducedConnectionMetric:
    """Result of the base-metric reduction g' = g - eps * f-pullback metric.

    metric_field(x) is g' at x as an ambient matrix: P_M - eps C^T C."""

    epsilon: float
    metric_field: Callable[[np.ndarray], np.ndarray]
    min_eigenvalue: float
    max_admissible_epsilon: float
    reconstruction_residual: float


def reduce_connection_metric(f: SmoothMapBetweenManifolds,
                             epsilon: float,
                             samples: int = 25,
                             seed: int = 0) -> ReducedConnectionMetric:
    """Reduced base metric g'(X, X') = g(X, X') - eps <df X, df X'> for the
    induced metric g.

    On T_xM, g' has eigenvalues 1 - eps s_i^2 over the singular values s_i
    of df (C = P_N J P_M of `GraphOperators`), and 1 on the kernel, so its
    smallest is 1 - eps s_1^2 and the largest admissible epsilon 1 / s_1^2.
    Validates positive definiteness at `samples` points of the seed, drawn
    in the blocks of `numerics.rng_blocks`, and reports
    the reconstruction residual g' + eps f*g_N - g in ambient coordinates.
    Vectors tangent to a level set of f keep their g-inner products exactly.
    """
    if epsilon <= 0.0:
        raise GeometryError(f"epsilon must be positive, got {epsilon:g}")
    if samples < 1:
        raise GeometryError(f"reduce_connection_metric needs samples >= 1, got {samples}")

    points, s1_sq, recon = [], [], 0.0
    for x in map(f.source.random_point, rng_blocks(seed, samples, f.source.ambient_dim)):
        points.append(x)
        ops = GraphOperators(f, x)
        s1_sq += (np.linalg.norm(ops.c, 2, axis=(-2, -1)) ** 2).tolist()
        ctc = ops.c.swapaxes(-1, -2) @ ops.c
        recon = max(recon, float(np.max(np.abs((ops.p_m - epsilon * ctc) + epsilon * ctc
                                               - ops.p_m))))
    worst = int(first_extreme(s1_sq, largest=True))
    min_eig = 1.0 - epsilon * s1_sq[worst]
    max_adm = 1.0 / s1_sq[worst] if s1_sq[worst] > 1e-14 else np.inf
    if min_eig <= 0.0:
        raise InadmissibleEpsilonError(epsilon, min_eig, max_adm, np.concatenate(points)[worst])

    def metric_field(x: np.ndarray) -> np.ndarray:
        o = GraphOperators(f, x)
        return o.p_m - epsilon * (o.c.swapaxes(-1, -2) @ o.c)

    return ReducedConnectionMetric(
        epsilon=epsilon,
        metric_field=metric_field,
        min_eigenvalue=min_eig,
        max_admissible_epsilon=float(max_adm),
        reconstruction_residual=recon)


# ---------------------------------------------------------------------------
# The pull-back bundle
# ---------------------------------------------------------------------------

class PullbackBundle:
    """f*P as an embedded manifold of the product ambient space.

    The retraction retracts both factors and then projects the fiber
    coordinate back onto the fiber over the new base image, so curves stay
    exactly on the constraint set and finite differences are clean.
    """

    def __init__(self, base_map: SmoothMapBetweenManifolds,
                 bundle: RiemannianSubmersionBundle):
        if base_map.target.ambient_dim != bundle.base.ambient_dim:
            raise GeometryError(
                f"base map target dimension {base_map.target.ambient_dim} does not "
                f"match bundle base dimension {bundle.base.ambient_dim}")
        if bundle.fiber_projector is None:
            raise GeometryError(
                f"bundle {bundle.name} has no fiber projector; cannot build the pull-back")
        ones = np.ones(base_map.source.ambient_dim)   # its nearest point lies on every factor
        residual = bundle.base.membership_residual(
            base_map(base_map.source.retraction(ones, 0.0 * ones)))
        if residual > MEMBERSHIP_TOL:
            raise GeometryError(
                f"base map {base_map.name} into {base_map.target.name} misses "
                f"the bundle base {bundle.base.name}: f(x) lies {residual:.3e} "
                f"off it (tolerance {MEMBERSHIP_TOL:.1e})")
        self.f = base_map
        self.bundle = bundle
        self.d_m = base_map.source.ambient_dim
        self.d_p = bundle.total.ambient_dim
        self.d_n = bundle.base.ambient_dim
        self.intrinsic_dim = base_map.source.intrinsic_dim + bundle.fiber_dim
        self.product = product_manifold(base_map.source, bundle.total)
        self.name = f"pullback({base_map.name},{bundle.name})"
        self.constraint = self._build_constraint()
        self.total_manifold = self._build_manifold()

    # -- point plumbing ------------------------------------------------------
    def split_point(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = np.asarray(z, dtype=float)
        return z[..., :self.d_m], z[..., self.d_m:]

    def join(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(x, float), np.asarray(p, float)], axis=-1)

    def constraint_residual(self, x: np.ndarray, p: np.ndarray):
        return np.linalg.norm(self.f(x) - self.bundle.projection(p), axis=-1)

    def tangent_basis(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Orthonormal basis (columns) of the tangent space at (x, p): the
        kernel basis of the constraint's frame, the nullspace of
        (X, E) -> df X - dpi E over T_xM x T_pP."""
        z = core.check_point(self.product, self.join(x, p))
        return KernelFrame(self.constraint, z, self.bundle.base.intrinsic_dim).kernel_basis

    def _build_constraint(self) -> SmoothMapBetweenManifolds:
        """The map (x, p) -> f(x) - pi(p) on M x P, whose zero set is f*P.

        Its Jacobian derivative is that of each factor, so a factor without
        a closed form falls back to a central difference at its own
        `fd_step`."""
        d_m, f, pi = self.d_m, self.f, self.bundle.projection

        def jacobian_derivative(z: np.ndarray, u: np.ndarray) -> np.ndarray:
            return np.concatenate([f.jac_derivative(z[..., :d_m], u[..., :d_m]),
                                   -pi.jac_derivative(z[..., d_m:], u[..., d_m:])], axis=-1)

        return SmoothMapBetweenManifolds(
            source=self.product, target=flat_space(self.d_n),
            ambient_map=lambda z: f(z[..., :d_m]) - pi(z[..., d_m:]),
            jacobian=lambda z: np.concatenate([f.jac(z[..., :d_m]), -pi.jac(z[..., d_m:])],
                                              axis=-1),
            jacobian_derivative=jacobian_derivative,
            name=f"{f.name}-{pi.name}")

    def _build_manifold(self) -> EmbeddedManifold:
        d_m, d_p = self.d_m, self.d_p
        f, bundle, constraint = self.f, self.bundle, self.constraint
        rank = bundle.base.intrinsic_dim

        # the closures read locals only, so the bundle is not a reference cycle
        def projector(z: np.ndarray) -> np.ndarray:
            return KernelFrame(constraint, z, rank).projector

        def projector_derivative(z: np.ndarray, u: np.ndarray) -> np.ndarray:
            return KernelFrame(constraint, z, rank).derivative(u)

        def retraction(z: np.ndarray, v: np.ndarray) -> np.ndarray:
            x_new = f.source.retraction(z[..., :d_m], v[..., :d_m])
            p_raw = bundle.total.retraction(z[..., d_m:], v[..., d_m:])
            p_new = bundle.fiber_projector(p_raw, f(x_new))
            return np.concatenate([x_new, p_new], axis=-1)

        sampler = None
        if f.source.sampler is not None and bundle.fiber_sampler is not None:
            def sampler(z: np.ndarray) -> np.ndarray:
                x = f.source.sampler(z[..., :d_m])
                return np.concatenate([x, bundle.fiber_sampler(f(x), z[..., d_m:])], axis=-1)

        return EmbeddedManifold(
            ambient_dim=d_m + d_p,
            intrinsic_dim=self.intrinsic_dim,
            projector_field=projector,
            retraction=retraction,
            analytic_projector_derivative=projector_derivative,
            sampler=sampler,
            name=f"f*{bundle.name}")


@dataclass(frozen=True)
class PointData:
    """The data of f*P at one point (x, p), or at a block of points.

    Each field is computed on first use and then kept, so a caller that never
    reads `split` never splits the bundle at p.
    """

    pb: PullbackBundle
    x: np.ndarray
    p: np.ndarray

    @classmethod
    def blocks(cls, pb: PullbackBundle, x: np.ndarray,
               p: np.ndarray) -> list[tuple[np.ndarray, "PointData"]]:
        """The data of a block of points x (b, m), p (b, n), one PointData per
        rank of df, each with the indices of its points, from one kernel frame
        of df for the whole block (`KernelFrame.by_rank`). A block of one point
        is a block like any other: its PointData keeps the point axis."""
        parts = []
        for index, kd in KernelFrame.by_rank(pb.f, core.check_point(pb.f.source, x)):
            pt = cls(pb, x[index], p[index])
            vars(pt)["kd"] = kd   # as `kd` would compute it, for these points
            parts.append((index, pt))
        return parts

    @cached_property
    def split(self) -> KernelFrame:
        """The kernel frame of dpi at p: vertical kernel, horizontal coimage."""
        return splitting(self.pb.bundle, self.p)

    @cached_property
    def ops(self) -> GraphOperators:
        # J and P_M from the frame of df when it is held: a check's points
        # always hold it, an oracle's point need not build it for this
        return GraphOperators(self.pb.f, self.x, vars(self).get("kd"))

    @cached_property
    def kd(self) -> KernelFrame:
        return kernel_splitting(self.pb.f, self.x)

    @cached_property
    def coeff(self) -> np.ndarray:
        return a_tensor_coefficients(self.split)

    @cached_property
    def jac(self) -> np.ndarray:
        return self.pb.f.jac(self.x)

    @cached_property
    def frame(self) -> KernelFrame:
        """The tangent projector of f*P and its derivative."""
        pb, kd, sp = self.pb, self.kd, self.split
        z = core.check_point(pb.total_manifold, pb.join(self.x, self.p))
        # the block-diagonal projector of M x P and the constraint's J = [J_f, -J_pi]
        # at z, from those of kd and sp
        projector = np.zeros(z.shape + z.shape[-1:])
        projector[..., :pb.d_m, :pb.d_m] = kd.source_projector
        projector[..., pb.d_m:, pb.d_m:] = sp.source_projector
        jac = np.concatenate([kd.jac, -sp.jac], axis=-1)
        return KernelFrame(pb.constraint, z, pb.bundle.base.intrinsic_dim, projector, jac)

    @cached_property
    def kernel_d2f(self) -> np.ndarray:
        """d2f(K_i, K_j) on the kernel basis K of `kd`, (k, k, n): d2f(X, X)
        of X = K c is the contraction of c twice with it."""
        k = self.kd.kernel_basis.swapaxes(-1, -2)
        return d2f(self.pb.f, self.x, k[..., :, None, :], k[..., None, :, :], self.ops)

    @cached_property
    def coimage_lift(self) -> np.ndarray:
        """L_p(df R) as columns, the horizontal lifts of df on the coimage
        basis R of `kd`."""
        return submersion.horizontal_lift(self.split, self.kd.jac @ self.kd.coimage_basis)

    @cached_property
    def lifted_bases(self) -> tuple[np.ndarray, np.ndarray, tuple[slice, ...]]:
        """(rows, ii, slices): tangents at (x, p) as rows, the lifts (K, 0) of
        the kernel basis of `kd`, the vertical basis (0, V) and the horizontal
        lifts (R, L_p(df R)) of the coimage basis of `kd`, with the slice of
        each; and the second fundamental form of f*P on them in ambient
        coordinates, ii[a, b] = dT[row a] row b for the tangent projector T of
        `frame`, from its kernel form (the rows are tangent), as a view. So
        II(A, B) = a ii b for A = a rows and B = b rows. Over a block each has
        the point axis first. One kernel form takes all rows at all points of
        the block."""
        kd = self.kd
        kernel = kd.kernel_basis
        rows = np.concatenate([a.swapaxes(-1, -2) for a in (
            np.concatenate([kernel, np.zeros(kernel.shape[:-2] + (self.pb.d_p, kernel.shape[-1]))],
                           axis=-2),
            self.vertical_basis,
            np.concatenate([kd.coimage_basis, self.coimage_lift], axis=-2))], axis=-2)
        ii = self.frame.kernel_derivative(rows, rows.swapaxes(-1, -2)).swapaxes(-1, -2)
        k, v = kernel.shape[-1], self.split.kernel_basis.shape[-1]
        return rows, ii, (slice(0, k), slice(k, k + v), slice(k + v, rows.shape[-2]))

    def horizontal_lift(self, X: np.ndarray) -> np.ndarray:
        """(X, L_p(df X)): tangent, orthogonal to the vertical space, with
        squared norm |X|^2 + |df X|^2."""
        lifted = submersion.horizontal_lift(self.split, np.matvec(self.jac, X)[..., None])
        return np.concatenate([X, lifted[..., 0]], axis=-1)

    @property
    def vertical_basis(self) -> np.ndarray:
        """The vertical space of f*P at (x, p), as columns (0, U)."""
        v = self.split.kernel_basis
        return np.concatenate([np.zeros(v.shape[:-2] + (self.pb.d_m, v.shape[-1])), v], axis=-2)

    def dpi_tilde(self, v: np.ndarray) -> np.ndarray:
        """Differential of id x pi on each product tangent vector of a stack v (..., d)."""
        d_m = self.pb.d_m
        jac = per_point(self.split.jac, self.x, v.ndim - self.x.ndim)
        return np.concatenate([v[..., :d_m], np.matvec(jac, v[..., d_m:])], axis=-1)


# ---------------------------------------------------------------------------
# Spec operations: measurements at a point (x, p) of f*P or at each point of a
# block; the caller draws the points (`validate` through `cli._sampled`)
# ---------------------------------------------------------------------------

def pullback_submersion_check(pb: PullbackBundle, z: np.ndarray) -> tuple:
    """How far id x pi is from restricting to a Riemannian submersion of f*P
    onto the graph of f that maps the normal space of f*P isometrically onto
    the graph normals, at a point z of f*P or each point of a block: the
    largest horizontal norm defect, normal isometry defect and normal
    alignment defect, one of each per point."""
    x, p = pb.split_point(z)
    pt = PointData(pb, x, p)
    tangent = pb.tangent_basis(x, p)
    vert = pt.vertical_basis
    # orthonormal horizontal basis inside T f*P
    q_t = tangent @ tangent.swapaxes(-1, -2)
    q_v = vert @ vert.swapaxes(-1, -2)
    horiz = orthonormal_basis(q_t - q_v, dim=tangent.shape[-1] - vert.shape[-1])
    img = pt.dpi_tilde(horiz.swapaxes(-1, -2))   # rows
    horizontal = np.max(np.abs(np.linalg.norm(img, axis=-1) - np.linalg.norm(horiz, axis=-2)),
                        axis=-1, initial=0.0)
    # normal space of f*P inside T(M x P), mapped to the graph normals, as rows
    normals = orthonormal_basis(pb.product.projector(z) - q_t, dim=pb.bundle.base.intrinsic_dim)
    imgs = pt.dpi_tilde(normals.swapaxes(-1, -2))
    gram = imgs @ imgs.swapaxes(-1, -2)
    isometry = np.max(np.abs(gram - np.eye(gram.shape[-1])), axis=(-2, -1))
    basis_m = core.tangent_basis(pb.f.source, x)
    graph_tangents = np.concatenate([basis_m, pt.jac @ basis_m], axis=-2)
    alignment = np.max(np.abs(imgs @ graph_tangents), axis=(-2, -1))
    return horizontal, isometry, alignment


def lambda_term(pt: PointData, Y: np.ndarray, Yp: np.ndarray) -> np.ndarray:
    """Mixed correction -dpi(Adag_{hor Y'} (vert Y) + Adag_{hor Y} (vert Y'))
    at pt.p, for Y, Y' tangent to the total space of the bundle.

    Symmetric, and zero whenever both arguments are horizontal or both are
    vertical; enters the second fundamental form of f*P alongside d2f.
    """
    sp = pt.split
    t1 = a_dagger(sp, pt.coeff, Yp, Y)
    t2 = a_dagger(sp, pt.coeff, Y, Yp)
    return -np.matvec(sp.jac, t1 + t2)


def pullback_second_fundamental_form(pt: PointData, Xt: np.ndarray,
                                     Xtp: np.ndarray) -> np.ndarray:
    """Image under d(id x pi) of the second fundamental form of f*P in M x P,
    assembled from graph operators: Xi_N O (d2f(X, X') + Lambda(Y, Y'))."""
    Xt = np.asarray(Xt, float)
    Xtp = np.asarray(Xtp, float)
    d_m = pt.pb.d_m
    d2 = d2f(pt.pb.f, pt.x, Xt[..., None, :d_m], Xtp[..., None, :d_m], pt.ops)
    w = d2 + lambda_term(pt, Xt[..., d_m:], Xtp[..., d_m:])[..., None, :]
    a, b = pt.ops.xi_n(pt.ops.apply_o(w.swapaxes(-1, -2))[..., 0])
    return np.concatenate([a, b], axis=-1)


def pullback_second_fundamental_form_direct(pb: PullbackBundle, x: np.ndarray,
                                            p: np.ndarray, Xt: np.ndarray,
                                            Xtp: np.ndarray) -> np.ndarray:
    """Independent oracle for the formula above: flat-ambient second
    fundamental form of f*P, projected back into T(M x P) (stripping the
    curvature of M x P itself) and pushed through d(id x pi)."""
    z = pb.join(x, p)
    ii_flat = core.second_fundamental_form(pb.total_manifold, z, Xt, Xtp)
    ii_in_product = np.matvec(pb.product.projector(z), ii_flat)
    return PointData(pb, x, p).dpi_tilde(ii_in_product)


def pullback_curvature(pb: PullbackBundle, x: np.ndarray, p: np.ndarray,
                       A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray):
    """Curvature R(A, B, C, D) of f*P at (x, p), or at each point of a block,
    by the flat-ambient Gauss identity on the f*P manifold. Its independent
    side is `pullback_curvature_expansion`: the two agree to
    finite-difference tolerance and cross-validate each other.
    """
    return core.riemann(pb.total_manifold, pb.join(x, p), A, B, C, D)


def pullback_curvature_expansion(pb: PullbackBundle, x: np.ndarray, p: np.ndarray,
                                 A: np.ndarray, B: np.ndarray, C: np.ndarray,
                                 D: np.ndarray) -> float:
    """Curvature R(A, B, C, D) of f*P at one point (x, p), expanded: the factor
    curvatures of M and P plus the O-weighted inner products of d2f + Lambda
    terms."""
    d_m = pb.d_m
    m, total = pb.f.source, pb.bundle.total
    # private to this call: the A tensor at p is built once for all four terms
    pt = PointData(pb, x, p)

    def w(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (d2f(pb.f, x, u[:d_m], v[:d_m])
                + lambda_term(pt, u[d_m:], v[d_m:]))

    r_m = core.riemann(m, x, A[:d_m], B[:d_m], C[:d_m], D[:d_m])
    r_p = core.riemann(total, p, A[d_m:], B[d_m:], C[d_m:], D[d_m:])
    w_bc, w_ad, w_bd, w_ac = w(B, C), w(A, D), w(B, D), w(A, C)
    return float(r_m + r_p
                 + pt.ops.apply_o(w_bc) @ w_ad
                 - pt.ops.apply_o(w_bd) @ w_ac)


def pullback_sectional_curvature(pb: PullbackBundle, x: np.ndarray, p: np.ndarray,
                                 A: np.ndarray, B: np.ndarray,
                                 unused_step: Optional[float] = None) -> float:
    """Sectional curvature of the plane (A, B) at (x, p), by the direct path.

    The sixth parameter is unused: it only keeps the positional call of the
    benchmark's certificate re-check working, until ROADMAP item 3 deletes
    this function.
    """
    return core.sectional_curvature(pb.total_manifold, pb.join(x, p), A, B)
