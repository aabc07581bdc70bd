"""The pull-back of a Riemannian submersion along a map into its base.

f*P = {(x,p) : f(x) = pi(p)} is handled as an embedded submanifold of the
product ambient space: membership, tangent solver (nullspace of the linear
constraint df X = dpi E), a retraction that lands exactly back on the
constraint set via fiber projection, the induced submersion onto the graph
of f, the connection-metric reduction on the base, the mixed correction term
Lambda, the second fundamental form formula, and curvature along two
independent evaluation paths.

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
form of f*P (`lifted_bases`) on K by contraction. `lambda_term` and
`pullback_second_fundamental_form` take it, and so do the batched paths of
the obstruction module. The two curvature paths of `pullback_curvature` and
`pullback_second_fundamental_form_direct` never take one from the caller:
they compute their own point data, so each cross-validation pair stays
independent in its signatures.
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
from .numerics import orthonormal_basis, rng_streams
from .submersion import (RiemannianSubmersionBundle, a_dagger, a_tensor_coefficients,
                         splitting)

# Bytes of one (rows, d, d) block of projector derivatives in
# `PointData.lifted_bases`: one 22-row block at d = 32 raised the peak
# memory of an octonionic `check` by about 0.4 MB.
DERIVATIVE_BLOCK_BYTES = 2 ** 15


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
                             points: Optional[list] = None,
                             samples: int = 25,
                             seed: int = 0) -> ReducedConnectionMetric:
    """Reduced base metric g'(X, X') = g(X, X') - eps <df X, df X'> for the
    induced metric g.

    On T_xM, g' has eigenvalues 1 - eps s_i^2 over the singular values s_i
    of df (C = P_N J P_M of `GraphOperators`), and 1 on the kernel, so its
    smallest is 1 - eps s_1^2 and the largest admissible epsilon 1 / s_1^2.
    Validates positive definiteness at the sampled points, and reports the
    reconstruction residual g' + eps f*g_N - g in ambient coordinates.
    Vectors tangent to a level set of f keep their g-inner products exactly.
    """
    if epsilon <= 0.0:
        raise GeometryError(f"epsilon must be positive, got {epsilon:g}")
    if points is None:
        points = [f.source.random_point(rng) for rng in rng_streams(seed, samples)]

    ops = [GraphOperators(f, x) for x in points]
    s1_sq = [float(np.linalg.norm(o.c, 2)) ** 2 for o in ops]
    worst = int(np.argmax(s1_sq))
    min_eig = 1.0 - epsilon * s1_sq[worst]
    max_adm = 1.0 / s1_sq[worst] if s1_sq[worst] > 1e-14 else np.inf
    recon = 0.0
    for o in ops:
        ctc = o.c.T @ o.c
        recon = max(recon, float(np.max(np.abs((o.p_m - epsilon * ctc) + epsilon * ctc - o.p_m))))
    if min_eig <= 0.0:
        raise InadmissibleEpsilonError(epsilon, min_eig, max_adm, points[worst])

    def metric_field(x: np.ndarray) -> np.ndarray:
        o = GraphOperators(f, x)
        return o.p_m - epsilon * (o.c.T @ o.c)

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
        if base_map.source.sampler is not None:
            # a private generator, so the check draws nothing from a run's streams
            x0 = base_map.source.random_point(np.random.default_rng(0))
            residual = bundle.base.membership_residual(base_map(x0))
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
        return z[:self.d_m], z[self.d_m:]

    def join(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(x, float), np.asarray(p, float)])

    def constraint_residual(self, x: np.ndarray, p: np.ndarray) -> float:
        return float(np.linalg.norm(self.f(x) - self.bundle.projection(p)))

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
            return np.concatenate([f.jac_derivative(z[:d_m], u[..., :d_m]),
                                   -pi.jac_derivative(z[d_m:], u[..., d_m:])], axis=-1)

        return SmoothMapBetweenManifolds(
            source=self.product, target=flat_space(self.d_n),
            ambient_map=lambda z: f(z[:d_m]) - pi(z[d_m:]),
            jacobian=lambda z: np.hstack([f.jac(z[:d_m]), -pi.jac(z[d_m:])]),
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
            x_new = f.source.retraction(z[:d_m], v[:d_m])
            p_raw = bundle.total.retraction(z[d_m:], v[d_m:])
            p_new = bundle.fiber_projector(p_raw, f(x_new))
            return np.concatenate([x_new, p_new])

        sampler = None
        if f.source.sampler is not None and bundle.fiber_sampler is not None:
            def sampler(rng: np.random.Generator) -> np.ndarray:
                x = f.source.sampler(rng)
                return np.concatenate([x, bundle.fiber_sampler(f(x), rng)])

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
    """The data of f*P at one point (x, p).

    Each field is computed on first use and then kept, so a caller that never
    reads `split` never splits the bundle at p.
    """

    pb: PullbackBundle
    x: np.ndarray
    p: np.ndarray

    @cached_property
    def split(self) -> KernelFrame:
        """The kernel frame of dpi at p: vertical kernel, horizontal coimage."""
        return splitting(self.pb.bundle, self.p)

    @cached_property
    def ops(self) -> GraphOperators:
        return GraphOperators(self.pb.f, self.x)

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
        pb = self.pb
        z = core.check_point(pb.total_manifold, pb.join(self.x, self.p))
        return KernelFrame(pb.constraint, z, pb.bundle.base.intrinsic_dim)

    @cached_property
    def kernel_d2f(self) -> np.ndarray:
        """d2f(K_i, K_j) on the kernel basis K of `kd`, (k, k, n): d2f(X, X)
        of X = K c is the contraction of c twice with it."""
        k = self.kd.kernel_basis.T
        return d2f(self.pb.f, self.x, k[:, None], k[None])

    @cached_property
    def coimage_lift(self) -> np.ndarray:
        """L_p(df R) as columns, the horizontal lifts of df on the coimage
        basis R of `kd`."""
        return submersion.horizontal_lift(self.split, self.jac @ self.kd.coimage_basis)

    @cached_property
    def lifted_bases(self) -> tuple[np.ndarray, np.ndarray, tuple[slice, ...]]:
        """(rows, ii, slices): tangents at (x, p) as rows, the lifts (K, 0) of
        the kernel basis of `kd`, the vertical basis (0, V) and the horizontal
        lifts (R, L_p(df R)) of the coimage basis of `kd`, with the slice of
        each; and the second fundamental form of f*P on them in an orthonormal
        basis Q of its normal space, ii[a, b] = Q^T dT[row a] row b for the
        tangent projector T of `frame`. So II(A, B) = a ii b, in Q coordinates,
        for A = a rows and B = b rows. The derivative takes as many rows at a
        time as fit DERIVATIVE_BLOCK_BYTES."""
        kernel, frame = self.kd.kernel_basis, self.frame
        rows = np.concatenate([
            np.vstack([kernel, np.zeros((self.pb.d_p, kernel.shape[1]))]).T,
            self.vertical_basis.T,
            np.vstack([self.kd.coimage_basis, self.coimage_lift]).T])
        q = np.linalg.eigh(frame.normal)[1][:, self.pb.intrinsic_dim:]   # eigenvalues 0, then 1
        ii = np.empty((len(rows), len(rows), q.shape[1]))
        block = max(1, DERIVATIVE_BLOCK_BYTES // rows.shape[1] ** 2 // 8)
        for a in range(0, len(rows), block):
            ii[a:a + block] = (q.T @ frame.derivative(rows[a:a + block]) @ rows.T).swapaxes(1, 2)
        k, v = kernel.shape[1], self.split.kernel_basis.shape[1]
        return rows, ii, (slice(0, k), slice(k, k + v), slice(k + v, len(rows)))

    def horizontal_lift(self, X: np.ndarray) -> np.ndarray:
        """(X, L_p(df X)): tangent, orthogonal to the vertical space, with
        squared norm |X|^2 + |df X|^2."""
        lifted = submersion.horizontal_lift(self.split, self.jac @ X)
        return np.concatenate([np.asarray(X, float), lifted])

    @property
    def vertical_basis(self) -> np.ndarray:
        """The vertical space of f*P at (x, p), as columns (0, U)."""
        v = self.split.kernel_basis
        return np.vstack([np.zeros((self.pb.d_m, v.shape[1])), v])

    def dpi_tilde(self, v: np.ndarray) -> np.ndarray:
        """Differential of id x pi applied to a product tangent vector."""
        d_m = self.pb.d_m
        return np.concatenate([v[:d_m], self.split.jac @ v[d_m:]])


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmersionCheckReport:
    max_horizontal_norm_defect: float
    max_normal_isometry_defect: float
    max_normal_alignment_defect: float


def pullback_submersion_check(pb: PullbackBundle, samples: int = 25,
                              seed: int = 0) -> SubmersionCheckReport:
    """Check that id x pi restricts to a Riemannian submersion of f*P onto the
    graph of f and maps its normal space isometrically onto the graph normals."""
    worst_h = worst_iso = worst_align = 0.0
    for rng in rng_streams(seed, samples):
        z = pb.total_manifold.random_point(rng)
        x, p = pb.split_point(z)
        pt = PointData(pb, x, p)
        tangent = pb.tangent_basis(x, p)
        vert = pt.vertical_basis
        # orthonormal horizontal basis inside T f*P
        q_t = tangent @ tangent.T
        q_v = vert @ vert.T
        horiz = orthonormal_basis(q_t - q_v, dim=tangent.shape[1] - vert.shape[1])
        for j in range(horiz.shape[1]):
            img = pt.dpi_tilde(horiz[:, j])
            worst_h = max(worst_h, abs(np.linalg.norm(img) - np.linalg.norm(horiz[:, j])))
        # normal space of f*P inside T(M x P), mapped to the graph normals
        normals = orthonormal_basis(pb.product.projector_field(z) - q_t,
                                    dim=pb.bundle.base.intrinsic_dim)
        imgs = np.column_stack([pt.dpi_tilde(normals[:, j])
                                for j in range(normals.shape[1])])
        gram = imgs.T @ imgs
        worst_iso = max(worst_iso, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
        basis_m = core.tangent_basis(pb.f.source, x)
        graph_tangents = np.vstack([basis_m, pt.jac @ basis_m])
        worst_align = max(worst_align, float(np.max(np.abs(imgs.T @ graph_tangents))))
    return SubmersionCheckReport(
        max_horizontal_norm_defect=worst_h,
        max_normal_isometry_defect=worst_iso,
        max_normal_alignment_defect=worst_align)


def lambda_term(pt: PointData, Y: np.ndarray, Yp: np.ndarray) -> np.ndarray:
    """Mixed correction -dpi(Adag_{hor Y'} (vert Y) + Adag_{hor Y} (vert Y'))
    at pt.p, for Y, Y' tangent to the total space of the bundle.

    Symmetric, and zero whenever both arguments are horizontal or both are
    vertical; enters the second fundamental form of f*P alongside d2f.
    """
    sp = pt.split
    t1 = a_dagger(sp, pt.coeff, Yp, Y)
    t2 = a_dagger(sp, pt.coeff, Y, Yp)
    return -(sp.jac @ (t1 + t2))


def pullback_second_fundamental_form(pt: PointData, Xt: np.ndarray,
                                     Xtp: np.ndarray) -> np.ndarray:
    """Image under d(id x pi) of the second fundamental form of f*P in M x P,
    assembled from graph operators: Xi_N O (d2f(X, X') + Lambda(Y, Y'))."""
    Xt = np.asarray(Xt, float)
    Xtp = np.asarray(Xtp, float)
    d_m = pt.pb.d_m
    w = (d2f(pt.pb.f, pt.x, Xt[:d_m], Xtp[:d_m])
         + lambda_term(pt, Xt[d_m:], Xtp[d_m:]))
    ow = pt.ops.apply_o(w)
    a, b = pt.ops.xi_n(ow)
    return np.concatenate([a, b])


def pullback_second_fundamental_form_direct(pb: PullbackBundle, x: np.ndarray,
                                            p: np.ndarray, Xt: np.ndarray,
                                            Xtp: np.ndarray) -> np.ndarray:
    """Independent oracle for the formula above: flat-ambient second
    fundamental form of f*P, projected back into T(M x P) (stripping the
    curvature of M x P itself) and pushed through d(id x pi)."""
    z = pb.join(x, p)
    ii_flat = core.second_fundamental_form(pb.total_manifold, z, Xt, Xtp)
    ii_in_product = pb.product.projector_field(z) @ ii_flat
    return PointData(pb, x, p).dpi_tilde(ii_in_product)


def pullback_curvature(pb: PullbackBundle, x: np.ndarray, p: np.ndarray,
                       A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray,
                       path: str = "direct") -> float:
    """Curvature R(A, B, C, D) of f*P along one of two independent paths.

    "direct" evaluates the flat-ambient Gauss identity on the f*P manifold;
    "expansion" sums the factor curvatures of M and P and the O-weighted
    inner products of d2f + Lambda terms. The two agree to finite-difference
    tolerance and cross-validate each other.
    """
    z = pb.join(x, p)
    if path == "direct":
        return core.riemann(pb.total_manifold, z, A, B, C, D)
    if path != "expansion":
        raise GeometryError(f"unknown curvature path {path!r}")
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
