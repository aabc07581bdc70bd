"""The curvature obstruction bench for pull-backs of fat bundles.

For a kernel direction X of the base map, non-negative curvature of the
pull-back total space forces the integrability tensor applied to the lifted,
O-weighted second derivative of the map to annihilate every lifted image
direction. This module computes that obstruction vector, the vanishing and
cross-term curvature identities it rests on, explicit negative-curvature
plane certificates when it fails, level-set second fundamental forms, the
rank of the associated vertical-surjectivity map, and an aggregated verdict
report per scenario.

The batched paths `obstruction_operator`, `flatness_sweep`,
`negative_plane_finder` and `level_set_ii` take the per-point data of f*P as
one `pullback.PointData` and d2f(X, X) once per kernel direction X, both
built by `theorem_report`. The sweep and the finder evaluate the Gauss
identity from its f*P frame, the finder on the sweep's derivative along X,
so each curvature value costs closed-form projector derivatives only. The
kernel of df is the sample's `kd` frame, whose closed-form derivative gives
`level_set_ii`, so a `check` on built-in geometries takes no finite
difference. The oracles
`obstruction_vector` and `vertizontal_flat_check` never take it: they compute
their own point data from (pb, x, p), independently of the path they check.

A CONSISTENT verdict needs at least one regular sample with a kernel
direction; a report whose samples decided nothing is INCONCLUSIVE and
names the cause in `reason`. A CONSISTENT verdict on a bundle that fails
`fatness`, the theorem's hypothesis, says so in `reason`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import core, submersion
from .core import GeometryError
from .graph import GraphOperators, SmoothMapBetweenManifolds, d2f, kernel_splitting
from .numerics import DEFAULT_FD_STEP, SINGULAR_CLUSTER_RTOL, first_extreme, rng_streams
from .pullback import PointData, PullbackBundle, pullback_curvature
from .submersion import FAT_TOLERANCE, FatnessReport, a_tensor, horizontal_lift, splitting

CROSS_TERM_TOLERANCE = 1e-4
CONSISTENCY_TOLERANCE = 1e-6
XI_RANK_TOLERANCE = 1e-6
NEGATIVE_SEC_TOLERANCE = -1e-6
KERNEL_MEMBERSHIP_TOLERANCE = 1e-8


class KernelConstraintError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# Kernel bookkeeping
# ---------------------------------------------------------------------------

def _require_kernel_direction(jac: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X as a float array, once |jac X| <= KERNEL_MEMBERSHIP_TOLERANCE for the
    Jacobian jac of df."""
    X = np.asarray(X, dtype=float)
    resid = np.linalg.norm(jac @ X)
    if resid > KERNEL_MEMBERSHIP_TOLERANCE:
        raise KernelConstraintError(
            f"direction is not in the kernel of the differential "
            f"(|df X| = {resid:.3e} > {KERNEL_MEMBERSHIP_TOLERANCE:.1e})")
    return X


# ---------------------------------------------------------------------------
# Obstruction vector and identities
# ---------------------------------------------------------------------------

def obstruction_vector(pb: PullbackBundle, x: np.ndarray, p: np.ndarray,
                       X: np.ndarray, Z: np.ndarray,
                       h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """A(lift(O d2f(X,X)), lift(df Z)) at p, for X in the kernel of df.

    Vanishes for every Z exactly when the non-negative-curvature obstruction
    holds at this configuration. Evaluated from scratch for one Z, it is the
    independent oracle of `obstruction_operator`.
    """
    jac = pb.f.jac(x)
    X = _require_kernel_direction(jac, X)
    ops = GraphOperators(pb.f, x)
    sp = splitting(pb.bundle, p)
    w = ops.apply_o(d2f(pb.f, x, X, X))
    lift_w = horizontal_lift(sp, w)
    lift_z = horizontal_lift(sp, jac @ np.asarray(Z, float))
    return a_tensor(pb.bundle, p, lift_w, lift_z, h)


@dataclass(frozen=True)
class ObstructionOperator:
    """The linear map Y -> A(lift(O d2f(X,X)), lift(Y)) on base tangents,
    in (vertical basis) x (horizontal basis) coordinates, plus the induced
    restriction to images df(Z) of coimage directions. (norm, best_z, best_u)
    is its canonical top singular triple:
    A(lift(O d2f(X,X)), lift(df best_z)) = norm * best_u. The lift is an
    isometry of T_B onto the horizontal space, so the horizontal basis gives
    the singular values of any orthonormal basis of T_B."""

    xi_matrix: np.ndarray          # v_dim x h_dim
    obstruction_matrix: np.ndarray  # v_dim x rank(df)
    norm: float                     # sup over unit Z in (ker df)^perp
    best_z: Optional[np.ndarray]    # ambient maximizer in T_xM
    best_u: Optional[np.ndarray]    # ambient unit vertical vector at p
    d2f_norm: float

    @property
    def xi_rank(self) -> int:
        """Rank of the vertical map Y -> A(lift(O d2f(X,X)), lift(Y))."""
        s = np.linalg.svd(self.xi_matrix, compute_uv=False)
        return int(np.sum(s > XI_RANK_TOLERANCE))


def _canonical_top_direction(matrix: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coefficients c, over the columns of `basis`, of a unit maximizer of
    |matrix c| that does not depend on the choice of `basis`.

    The top singular value can be multiple (it is threefold on the perturbed
    quaternionic Hopf pull-back), and then rounding alone would pick the top
    right-singular vector. The maximizers span the right-singular vectors
    with singular values within SINGULAR_CLUSTER_RTOL of the largest; the
    one chosen is the normalised projection onto that span, in ambient
    coordinates, of the ambient axis with the largest projection (the lowest
    index among those within SINGULAR_CLUSTER_RTOL of it, `first_extreme`).
    """
    _, s, vt = np.linalg.svd(matrix)
    top = vt[: int(np.sum(s >= s[0] * (1.0 - SINGULAR_CLUSTER_RTOL)))].T
    ambient = basis @ top
    axis = first_extreme(np.linalg.norm(ambient, axis=1), largest=True)
    c = top @ ambient[axis]
    return c / np.linalg.norm(c)


def obstruction_operator(pt: PointData, X: np.ndarray,
                         d2: np.ndarray) -> ObstructionOperator:
    """The obstruction operator of the kernel direction X at pt, contracted
    from the A tensor on the horizontal basis H at pt.p; d2 = d2f(X, X) at pt.x."""
    X = _require_kernel_direction(pt.jac, X)
    kd, sp = pt.kd, pt.split
    w = pt.ops.apply_o(d2)
    w_c = sp.coimage_basis.T @ horizontal_lift(sp, w)
    xi_matrix = np.einsum("i,ijv->vj", w_c, pt.coeff)
    # restrict to df images of the coimage directions, Z unit in (ker df)^perp
    if kd.rank > 0 and xi_matrix.size > 0:
        lift_df_z = horizontal_lift(sp, pt.jac @ kd.coimage_basis)
        obstruction_matrix = xi_matrix @ (sp.coimage_basis.T @ lift_df_z)
        c = _canonical_top_direction(obstruction_matrix, kd.coimage_basis)
        image = obstruction_matrix @ c
        norm = float(np.linalg.norm(image))
        best_z = kd.coimage_basis @ c
        best_u = sp.kernel_basis @ (image / norm) if norm > 0.0 else None
    else:
        obstruction_matrix = np.zeros((xi_matrix.shape[0], kd.rank))
        norm, best_z, best_u = 0.0, None, None
    return ObstructionOperator(
        xi_matrix=xi_matrix, obstruction_matrix=obstruction_matrix, norm=norm,
        best_z=best_z, best_u=best_u, d2f_norm=float(np.linalg.norm(d2)))


def vertizontal_flat_check(pb: PullbackBundle, x: np.ndarray, p: np.ndarray,
                           X: np.ndarray, U: np.ndarray) -> float:
    """|R(U~, X~, X~, U~)| on f*P for X in ker df and U vertical; vanishes
    identically, so the residual is pure discretization noise."""
    X = _require_kernel_direction(pb.f.jac(x), X)
    x_t = np.concatenate([X, np.zeros(pb.d_p)])
    u_t = np.concatenate([np.zeros(pb.d_m), np.asarray(U, float)])
    return abs(pullback_curvature(pb, x, p, u_t, x_t, x_t, u_t, path="direct"))


def flatness_sweep(pt: PointData, directions: list) -> Iterator[tuple[float, np.ndarray]]:
    """Yield, for each X in `directions` (kernel directions of df at pt.x),
    the max over the vertical basis U of `vertizontal_flat_check`(X, U) and
    the normal projector derivative dn_x along (X, 0) that the finder takes.

    One normal projector derivative per vertical basis vector and one per
    direction, each shared by every curvature value it enters, in place of
    two per (X, U) pair; the Gauss identity and the projector derivative are
    those of the check.
    """
    pb = pt.pb
    lifts = [np.concatenate([_require_kernel_direction(pt.jac, X), np.zeros(pb.d_p)])
             for X in directions]
    verticals = list(pt.vertical_basis.T)
    frame = pt.frame
    dn_u = [frame.normal_derivative(u_t) for u_t in verticals]
    for x_t in lifts:
        dn_x = frame.normal_derivative(x_t)
        yield max((abs(core.gauss_identity(dn, dn_x, x_t, u_t))
                   for dn, u_t in zip(dn_u, verticals)), default=0.0), dn_x


def cross_term_check(pb: PullbackBundle, x: np.ndarray, p: np.ndarray,
                     X: np.ndarray, U: np.ndarray, Z: np.ndarray,
                     h: float = DEFAULT_FD_STEP) -> tuple[float, float]:
    """Directly computed R(U~, X~, X~, Z~) against its closed form
    -<A(lift(df Z), lift(O d2f(X,X))), U> = <obstruction vector, U>.
    Returns (direct, formula)."""
    u_amb = np.asarray(U, dtype=float)
    # the formula side checks that X is a kernel direction
    formula = float(obstruction_vector(pb, x, p, X, Z, h) @ u_amb)
    x_t = np.concatenate([np.asarray(X, dtype=float), np.zeros(pb.d_p)])
    u_t = np.concatenate([np.zeros(pb.d_m), u_amb])
    z_t = PointData(pb, x, p).horizontal_lift(np.asarray(Z, float))
    direct = pullback_curvature(pb, x, p, u_t, x_t, x_t, z_t, path="direct")
    return float(direct), formula


# ---------------------------------------------------------------------------
# Negative-plane certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NegativePlaneCertificate:
    """An explicit plane on f*P with directly verified negative sectional
    curvature, produced from a nonzero obstruction cross term."""

    x: np.ndarray
    p: np.ndarray
    plane_x: np.ndarray       # first spanning vector (kernel lift)
    plane_w: np.ndarray       # second spanning vector t*U~ + Z~
    t: float
    cross_term: float
    sec_value: float          # direct evaluation, < -1e-6
    predicted_value: float    # quadratic-expansion prediction
    z_direction: np.ndarray
    u_direction: np.ndarray

    @property
    def relative_agreement(self) -> float:
        return abs(self.sec_value - self.predicted_value) / max(abs(self.sec_value), 1e-300)


def certificate_parameter(cross_term: float, r_zz: float) -> float:
    """Mixing weight t with quadratic value t^2*0 + 2 t c + R_Z = -1."""
    if cross_term == 0.0:
        raise GeometryError("cross term must be nonzero")
    return -np.sign(cross_term) * (r_zz + 1.0) / (2.0 * abs(cross_term))


def negative_plane_finder(pt: PointData, X: np.ndarray, op: ObstructionOperator,
                          dn_x: np.ndarray) -> Optional[NegativePlaneCertificate]:
    """Search for a plane of negative curvature through the lift x_t = (X, 0)
    of the unit kernel direction X at pt, given its `obstruction_operator`
    op and the `flatness_sweep` normal projector derivative dn_x along x_t.

    Z and U are the top singular pair of the obstruction operator: Z is the
    unit coimage direction maximizing the cross term c = |A(lift(O d2f(X,X)),
    lift(df Z))|, and U the unit vertical vector with A(...) = c U. The mixing
    weight makes the quadratic expansion evaluate to -1, and a certificate is
    emitted only when the direct sectional curvature confirms the sign. Both
    R_Z = R(x_t, z_t, z_t, x_t) and that curvature are the Gauss identity of
    the direct path, on one stacked derivative of pt.frame along (z_t, u_t);
    the one along w_t = t u_t + z_t is t dn_u + dn_z by linearity.
    """
    pb, x, p = pt.pb, pt.x, pt.p
    X = _require_kernel_direction(pt.jac, X)
    c, z, u = op.norm, op.best_z, op.best_u
    if z is None or c <= CROSS_TERM_TOLERANCE:
        return None
    x_t = np.concatenate([X, np.zeros(pb.d_p)])
    u_t = np.concatenate([np.zeros(pb.d_m), u])
    z_t = pt.horizontal_lift(z)
    dn_z, dn_u = pt.frame.normal_derivative(np.stack([z_t, u_t]))
    r_zz = core.gauss_identity(dn_x, dn_z, z_t, x_t)
    t = certificate_parameter(c, r_zz)
    w_t = t * u_t + z_t
    gram = (x_t @ x_t) * (w_t @ w_t) - (x_t @ w_t) ** 2
    predicted = -1.0 / gram
    direct = core.gauss_identity(dn_x, t * dn_u + dn_z, w_t, x_t) / gram
    if direct >= NEGATIVE_SEC_TOLERANCE:
        return None
    return NegativePlaneCertificate(
        x=x, p=p, plane_x=x_t, plane_w=w_t, t=float(t),
        cross_term=c, sec_value=float(direct), predicted_value=float(predicted),
        z_direction=z, u_direction=u)


# ---------------------------------------------------------------------------
# Level sets
# ---------------------------------------------------------------------------

def level_set_ii(pt: PointData, X: np.ndarray,
                 d2: np.ndarray) -> tuple[np.ndarray, float]:
    """Second fundamental form of the level set through pt.x in the direction
    X, with the kernel-aligned extension y -> K(y) X of X (K the projector
    onto ker df at the rank of df at pt.x), plus the residual of the identity
    d2f(X, X) = -df(II), given d2 = d2f(X, X).

    II = (P - K) dK[X] X, with P - K the projector onto the coimage of
    `pt.kd` and dK the closed-form derivative of that frame. Returns
    (ii_vector, identity_residual).
    """
    kd = pt.kd
    X = _require_kernel_direction(pt.jac, X)
    ii = kd.coimage_basis @ (kd.coimage_basis.T @ (kd.derivative(X) @ X))
    residual = float(np.linalg.norm(d2 + pt.jac @ ii))
    return ii, residual


@dataclass(frozen=True)
class RankProfile:
    min_rank: int
    histogram: dict
    witnesses: list            # (point, singular values) at the minimal rank
    samples: int


def rank_profile(f: SmoothMapBetweenManifolds, points: Optional[list] = None,
                 samples: int = 200, seed: int = 0,
                 max_witnesses: int = 5) -> RankProfile:
    """Rank statistics of df over sampled (or given) points, with witnesses
    of the minimal rank; locates singular level sets."""
    if points is None:
        points = [f.source.random_point(rng) for rng in rng_streams(seed, samples)]
    if len(points) == 0:
        raise GeometryError("rank_profile needs at least one point; got none")
    histogram: dict = {}
    min_rank = None
    witnesses: list = []
    for x in points:
        kd = kernel_splitting(f, x)
        histogram[kd.rank] = histogram.get(kd.rank, 0) + 1
        if min_rank is None or kd.rank < min_rank:
            min_rank = kd.rank
            witnesses = [(x, kd.singular_values)]
        elif kd.rank == min_rank and len(witnesses) < max_witnesses:
            witnesses.append((x, kd.singular_values))
    return RankProfile(min_rank=int(min_rank), histogram=histogram,
                       witnesses=witnesses, samples=len(points))


# ---------------------------------------------------------------------------
# Scenario-level report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstructionSample:
    x: np.ndarray
    p: np.ndarray
    X: np.ndarray
    obstruction_norm: float
    d2f_norm: float
    xi_rank: int
    level_set_ii_norm: float
    level_set_identity_residual: float
    flatness_residual: float
    is_regular: bool


@dataclass
class ObstructionReport:
    bundle_name: str
    map_name: str
    seed: int
    fatness: FatnessReport
    fiber_geodesy: float
    samples: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    unverified_candidates: int = 0
    singular_points: int = 0
    verdict: str = "CONSISTENT"
    reason: Optional[str] = None   # why the verdict decides less than it says

    @property
    def regular_samples(self) -> list:
        return [s for s in self.samples if s.is_regular]

    @property
    def max_obstruction_norm(self) -> float:
        vals = [s.obstruction_norm for s in self.regular_samples]
        return max(vals) if vals else 0.0

    @property
    def max_level_set_ii(self) -> float:
        vals = [s.level_set_ii_norm for s in self.regular_samples]
        return max(vals) if vals else 0.0

    @property
    def max_flatness_residual(self) -> float:
        vals = [s.flatness_residual for s in self.samples]
        return max(vals) if vals else 0.0

    @property
    def best_certificate(self) -> Optional[NegativePlaneCertificate]:
        if not self.certificates:
            return None
        return min(self.certificates, key=lambda cert: cert.sec_value)


def theorem_report(pb: PullbackBundle, samples: int = 200,
                   kernel_directions: int = 20, seed: int = 0,
                   fatness_samples: int = 50, fatness_directions: int = 20,
                   fiber_samples: int = 10) -> ObstructionReport:
    """Sampled totally-geodesic-level-set test over a pull-back scenario.

    Per sample: a base point, a random fiber point over its image, kernel
    directions of the base map, the obstruction operator norm, the rank of
    its vertical map, the level-set second fundamental form, and the
    vertical-plane flatness residual. Nonzero obstructions trigger a
    negative-plane search; the verdict is VIOLATED exactly when a certificate
    re-verifies, CONSISTENT when at least one regular sample has a kernel
    direction and all obstruction norms stay below tolerance, INCONCLUSIVE
    otherwise. `reason` names the cause of INCONCLUSIVE, or a failed fatness
    hypothesis behind CONSISTENT.
    """
    report = ObstructionReport(
        bundle_name=pb.bundle.name, map_name=pb.f.name, seed=seed,
        fatness=submersion.fatness(pb.bundle, sample_count=fatness_samples,
                                   directions=fatness_directions, seed=seed),
        fiber_geodesy=submersion.totally_geodesic_fibers_check(
            pb.bundle, samples=fiber_samples, seed=seed))

    for rng in rng_streams(seed, samples):
        x = pb.f.source.random_point(rng)
        p = pb.bundle.fiber_sampler(pb.f(x), rng)
        pt = PointData(pb, x, p)
        kd = pt.kd
        if not kd.is_regular:
            report.singular_points += 1
        kernel_dim = kd.kernel_basis.shape[1]
        if kernel_dim == 0:
            continue
        n_dirs = kernel_directions if kernel_dim > 1 else 1
        dirs = [kd.kernel_basis[:, j] for j in range(min(kernel_dim, n_dirs))]
        while len(dirs) < n_dirs:
            c = rng.standard_normal(kernel_dim)
            c /= np.linalg.norm(c)
            dirs.append(kd.kernel_basis @ c)
        for X, (flat_res, dn_x) in zip(dirs, flatness_sweep(pt, dirs)):
            d2 = d2f(pb.f, x, X, X)
            op = obstruction_operator(pt, X, d2)
            ii, identity_residual = level_set_ii(pt, X, d2)
            report.samples.append(ObstructionSample(
                x=x, p=p, X=X,
                obstruction_norm=op.norm,
                d2f_norm=op.d2f_norm,
                xi_rank=op.xi_rank,
                level_set_ii_norm=float(np.linalg.norm(ii)),
                level_set_identity_residual=identity_residual,
                flatness_residual=flat_res,
                is_regular=kd.is_regular))
            if kd.is_regular and op.norm > CROSS_TERM_TOLERANCE:
                cert = negative_plane_finder(pt, X, op, dn_x)
                if cert is not None:
                    report.certificates.append(cert)
                else:
                    report.unverified_candidates += 1

    if report.certificates:
        report.verdict = "VIOLATED"
    elif not report.regular_samples:
        report.verdict = "INCONCLUSIVE"
        report.reason = (
            f"no regular sample with a kernel direction among {samples} sampled "
            f"points ({report.singular_points} singular, "
            f"{samples - report.singular_points} with an injective differential)")
    elif report.unverified_candidates == 0 and \
            report.max_obstruction_norm <= CONSISTENCY_TOLERANCE:
        report.verdict = "CONSISTENT"
        if not report.fatness.is_fat:
            report.reason = (
                f"the bundle is not fat (min_sigma {report.fatness.min_sigma:.3e} <= "
                f"fatness tolerance {FAT_TOLERANCE:g}): the theorem's "
                f"hypothesis fails, so a vanishing obstruction does not test it")
    else:
        report.verdict = "INCONCLUSIVE"
        report.reason = (
            f"obstruction norm {report.max_obstruction_norm:.3e} above the "
            f"consistency tolerance {CONSISTENCY_TOLERANCE:g}, and no certificate "
            f"re-verified ({report.unverified_candidates} unverified candidates)")
    return report
