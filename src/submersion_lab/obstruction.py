"""The curvature obstruction bench for pull-backs of fat bundles.

For a kernel direction X of the base map, non-negative curvature of the
pull-back total space forces the integrability tensor applied to the lifted,
O-weighted second derivative of the map to annihilate every lifted image
direction. This module computes that obstruction vector, the vanishing and
cross-term curvature identities it rests on, explicit negative-curvature
plane certificates when it fails, level-set second fundamental forms, the
rank of the associated vertical-surjectivity map, and an aggregated verdict
report per scenario.

The batched paths `flatness_sweep`, `obstruction_operator`, `level_set_ii`
and `negative_plane_finder` take one `pullback.PointData` and the sample's
kernel directions as coefficients: a stack c (r, k) on the kernel basis
K = `pt.kd.kernel_basis`, row i standing for X_i = K c_i. Every such X is a
kernel direction, so these paths check no membership. Each input of X is
linear or quadratic in c, so it is contracted from tensors built once per
point on K: `PointData.kernel_d2f`, which also gives the second
fundamental form of the level set through C^+ of the `kd` frame, and the
closed-form second fundamental form of f*P of `PointData.lifted_bases`; a
`check` takes no finite difference. The oracles
`obstruction_vector`, `vertizontal_flat_check` and `cross_term_check` take
one ambient direction, check that it is in the kernel, and compute their
own point data from (pb, x, p); at a block of points, one direction each.

The batched paths also take the `PointData` of a block of points, with c
(b, r, k): every output gains the leading point axis, and each SVD, solve
and contraction runs once for the block, the certificate search's included
(`negative_plane_finder` lists its planes point by point, r to a point).
One point and a block take the same code. `theorem_report` samples its
points in the blocks of `numerics.rng_blocks` and splits each block by the
rank of df (`PointData.blocks`): a point's row of normals holds (x, p), then
its kernel coefficients, so the rows do not depend on the block size.

A CONSISTENT verdict needs at least one regular sample with a kernel
direction; a report whose samples decided nothing is INCONCLUSIVE and
names the cause in `reason`. A CONSISTENT verdict on a bundle that fails
`fatness`, the theorem's hypothesis, says so in `reason`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import submersion
from .core import GeometryError
from .graph import GraphOperators, d2f, kernel_splitting   # kernel_splitting: perfbench traces it
from .numerics import DEFAULT_FD_STEP, SINGULAR_CLUSTER_RTOL, first_extreme, per_point, rng_blocks
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
    Jacobian jac of df and every direction of X (..., m), at a block each point's."""
    X = np.asarray(X, dtype=float)
    image = np.matvec(jac, X)
    resid = float(np.max((image * image).sum(axis=-1), initial=0.0)) ** 0.5
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
    w = ops.apply_o(d2f(pb.f, x, X[..., None, :], X[..., None, :], ops).swapaxes(-1, -2))
    lift_w = horizontal_lift(sp, w)[..., 0]
    lift_z = horizontal_lift(sp, np.matvec(jac, Z)[..., None])[..., 0]
    return a_tensor(pb.bundle, p, lift_w, lift_z, h)


@dataclass(frozen=True)
class ObstructionOperator:
    """Row i of each field belongs to the kernel direction X_i = K c_i of a
    coefficient stack c: the linear map Y -> A(lift(O d2f(X,X)), lift(Y)) on
    base tangents, in (vertical basis) x (horizontal basis) coordinates, and
    its restriction to images df(Z) of coimage directions, whose canonical
    top singular triple (norm, best_z, best_u) has
    A(lift(O d2f(X,X)), lift(df best_z)) = norm * best_u (best_u = 0 where
    norm = 0). The lift is an isometry of T_B onto the horizontal space, so
    the horizontal basis gives the singular values of any orthonormal basis
    of T_B."""

    xi_matrix: np.ndarray           # r x v_dim x h_dim
    obstruction_matrix: np.ndarray  # r x v_dim x rank(df)
    norm: np.ndarray                # sup over unit Z in (ker df)^perp
    best_z: np.ndarray              # ambient maximizers in T_xM
    best_u: np.ndarray              # ambient unit vertical vectors at p
    xi_rank: np.ndarray             # rank of Y -> A(lift(O d2f(X,X)), lift(Y))


def _canonical_top_directions(matrices: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """For each matrix M of the stack, coefficients c, over the columns of
    `basis`, of a unit maximizer of |M c| that does not depend on the choice
    of `basis`: one stacked SVD for all of them.

    The top singular value can be multiple (it is threefold on the perturbed
    quaternionic Hopf pull-back), and then rounding alone would pick the top
    right-singular vector. The maximizers span the right-singular vectors
    with singular values within SINGULAR_CLUSTER_RTOL of the largest; the
    one chosen is the normalised projection onto that span, in ambient
    coordinates, of the ambient axis with the largest projection (the lowest
    index among those within SINGULAR_CLUSTER_RTOL of it, `first_extreme`).
    `basis` broadcasts against the stack: give a block's bases one unit axis.
    """
    _, s, vt = np.linalg.svd(matrices)
    keep = s >= s[..., :1] * (1.0 - SINGULAR_CLUSTER_RTOL)
    top = (vt[..., :s.shape[-1], :] * keep[..., None]).swapaxes(-1, -2)   # top span, as columns
    ambient = basis @ top                      # ambient axes on the top span
    axis = first_extreme(np.linalg.norm(ambient, axis=-1), largest=True)
    chosen = np.take_along_axis(ambient, axis[..., None, None], axis=-2)[..., 0, :]
    c = np.einsum("...ij,...j->...i", top, chosen)
    return c / np.linalg.norm(c, axis=-1, keepdims=True)


def obstruction_operator(pt: PointData, c: np.ndarray) -> ObstructionOperator:
    """The obstruction operators of the kernel directions with coefficients
    c (r, k) at pt, contracted from the A tensor on the horizontal basis H at
    pt.p, with d2f(X, X) contracted from `pt.kernel_d2f`."""
    kd, sp = pt.kd, pt.split
    d2 = _kernel_d2f_along(pt, c)
    w_c = horizontal_lift(sp, pt.ops.apply_o(d2.swapaxes(-1, -2))).swapaxes(-1, -2) \
        @ sp.coimage_basis
    xi_matrix = np.einsum("...ri,...ijv->...rvj", w_c, pt.coeff)
    # restrict to df images of the coimage directions, Z unit in (ker df)^perp
    obstruction_matrix = xi_matrix @ per_point(
        sp.coimage_basis.swapaxes(-1, -2) @ pt.coimage_lift, pt.x, 1)
    z_c = np.zeros(d2.shape[:-1] + (kd.rank,))
    if obstruction_matrix.size > 0:
        z_c = _canonical_top_directions(obstruction_matrix,
                                        per_point(kd.coimage_basis, pt.x, 1))
    image = np.einsum("...vj,...j->...v", obstruction_matrix, z_c)
    norm = np.linalg.norm(image, axis=-1)
    u_c = np.divide(image, norm[..., None], out=np.zeros_like(image),
                    where=norm[..., None] > 0.0)
    return ObstructionOperator(
        xi_matrix=xi_matrix, obstruction_matrix=obstruction_matrix, norm=norm,
        best_z=z_c @ kd.coimage_basis.swapaxes(-1, -2),
        best_u=u_c @ sp.kernel_basis.swapaxes(-1, -2),
        xi_rank=np.sum(np.linalg.svd(xi_matrix, compute_uv=False) > XI_RANK_TOLERANCE,
                       axis=-1))


def vertizontal_flat_check(pb: PullbackBundle, x: np.ndarray, p: np.ndarray,
                           X: np.ndarray, U: np.ndarray) -> float:
    """|R(U~, X~, X~, U~)| on f*P for X in ker df and U vertical; vanishes
    identically, so the residual is pure discretization noise."""
    X = _require_kernel_direction(pb.f.jac(x), X)
    U = np.asarray(U, dtype=float)
    x_t, u_t = pb.join(X, np.zeros(X.shape[:-1] + (pb.d_p,))), pb.join(np.zeros_like(X), U)
    return abs(pullback_curvature(pb, x, p, u_t, x_t, x_t, u_t))


def flatness_sweep(pt: PointData, c: np.ndarray) -> np.ndarray:
    """For each kernel direction X = K c of the coefficient stack c (r, k) at
    pt, the max over the vertical basis U of `vertizontal_flat_check`(X, U):
    its Gauss identity <II(U, U), II(X, X)> - <II(U, X), II(X, U)>,
    contracted from the second fundamental form of `pt.lifted_bases` by matmuls."""
    _, ii, (kern, vert, _) = pt.lifted_bases
    ii_xx = (c[..., None, :] @ _linear(c, ii[..., kern, kern, :]))[..., 0, :]
    ii_xu, ii_ux = (_linear(c, t) for t in (ii[..., kern, vert, :],
                                            ii[..., vert, kern, :].swapaxes(-2, -3)))
    ii_uu = np.diagonal(ii[..., vert, vert, :], axis1=-3, axis2=-2)   # (..., d, a)
    return np.max(np.abs(ii_xx @ ii_uu - np.vecdot(ii_ux, ii_xu)), axis=-1, initial=0.0)


def _linear(c: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_i c[r, i] table[i] for c (..., r, k), table (..., k, a, d): one matmul."""
    return (c @ table.reshape(table.shape[:-2] + (-1,))).reshape(c.shape[:-1] + table.shape[-2:])


def cross_term_check(pb: PullbackBundle, x: np.ndarray, p: np.ndarray,
                     X: np.ndarray, U: np.ndarray, Z: np.ndarray,
                     h: float = DEFAULT_FD_STEP) -> tuple[float, float]:
    """Directly computed R(U~, X~, X~, Z~) against its closed form
    -<A(lift(df Z), lift(O d2f(X,X))), U> = <obstruction vector, U>.
    Returns (direct, formula), one of each per point of a block."""
    # the formula side checks that X is a kernel direction
    formula = np.vecdot(obstruction_vector(pb, x, p, X, Z, h), U)
    X, U = np.asarray(X, dtype=float), np.asarray(U, dtype=float)
    x_t, u_t = pb.join(X, np.zeros(X.shape[:-1] + (pb.d_p,))), pb.join(np.zeros_like(X), U)
    z_t = PointData(pb, x, p).horizontal_lift(np.asarray(Z, float))
    direct = pullback_curvature(pb, x, p, u_t, x_t, x_t, z_t)
    return direct, formula


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


def certificate_parameter(cross_term, r_zz):
    """Mixing weight t with quadratic value t^2*0 + 2 t c + R_Z = -1, for a
    cross term c or each of an array of them."""
    if np.any(cross_term == 0.0):
        raise GeometryError("cross term must be nonzero")
    return -np.sign(cross_term) * (r_zz + 1.0) / (2.0 * np.abs(cross_term))


def negative_plane_finder(pt: PointData, c: np.ndarray, op: ObstructionOperator
                          ) -> list[Optional[NegativePlaneCertificate]]:
    """For each unit kernel direction X = K c of the coefficient stack c
    (r, k) at pt, a plane of negative curvature through its lift
    x_t = (X, 0), given the stack's `obstruction_operator` op; None where the
    cross term is at most CROSS_TERM_TOLERANCE or the plane fails to verify.

    Z and U are the top singular pair of the obstruction operator: Z is the
    unit coimage direction maximizing the cross term c = |A(lift(O d2f(X,X)),
    lift(df Z))|, and U the unit vertical vector with A(...) = c U. The mixing
    weight makes the quadratic expansion evaluate to -1, and a certificate is
    emitted only when the direct sectional curvature confirms the sign. Both
    R_Z = R(x_t, z_t, z_t, x_t) and that curvature are the Gauss identity of
    the direct path, contracted once from the second fundamental form of
    `pt.lifted_bases`: x_t, z_t = (Z, L_p(df Z)) and u_t = (0, U) are
    combinations of its rows, and II is bilinear in w_t = t u_t + z_t. At a
    block, c is (b, r, k) and the list runs point by point, r entries each.
    """
    rows, ii, (kern, vert, coim) = pt.lifted_bases
    # x_t, z_t and u_t of each direction, as combinations of the rows
    coords = np.zeros(c.shape[:-1] + (3, rows.shape[-2]))
    coords[..., 0, kern] = c
    coords[..., 1, coim] = op.best_z @ pt.kd.coimage_basis
    coords[..., 2, vert] = op.best_u @ pt.split.kernel_basis
    # II(S, T) for S, T in (x_t, z_t, u_t): matmuls on the kernel form's (a, d, b)
    # order of ii, one S at a time, so no (r, 3, n, d) array
    g = np.stack([(_linear(coords[..., s, :], ii.swapaxes(-1, -2)) @ coords.swapaxes(-1, -2))
                  .swapaxes(-1, -2) for s in range(3)], axis=-3)
    (xx, xz, xu), (zx, zz, zu), (ux, uz, uu) = [[g[..., s, t, :] for t in range(3)]
                                                for s in range(3)]
    cross = op.norm
    found = cross > CROSS_TERM_TOLERANCE
    t = np.zeros_like(cross)
    t[found] = certificate_parameter(cross[found], (np.vecdot(xx, zz) - np.vecdot(xz, zx))[found])
    tw = t[..., None]
    ww = tw * (tw * uu + uz + zu) + zz
    curvature = np.vecdot(xx, ww) - np.vecdot(tw * xu + xz, tw * ux + zx)   # R(x_t, w_t)
    x_t = coords[..., 0, :] @ rows
    w_t = (tw * coords[..., 2, :] + coords[..., 1, :]) @ rows
    gram = np.vecdot(x_t, x_t) * np.vecdot(w_t, w_t) - np.vecdot(x_t, w_t) ** 2
    direct = np.divide(curvature, gram, out=np.zeros_like(gram), where=found)
    certs = [None] * cross.size
    for k in np.flatnonzero(found & (direct < NEGATIVE_SEC_TOLERANCE)).tolist():
        i = np.unravel_index(k, cross.shape)
        certs[k] = NegativePlaneCertificate(
            x=pt.x[i[:-1]], p=pt.p[i[:-1]], plane_x=x_t[i], plane_w=w_t[i], t=float(t[i]),
            cross_term=float(cross[i]), sec_value=float(direct[i]),
            predicted_value=float(-1.0 / gram[i]), z_direction=op.best_z[i],
            u_direction=op.best_u[i])
    return certs


# ---------------------------------------------------------------------------
# Level sets
# ---------------------------------------------------------------------------

def level_set_ii(pt: PointData, c: np.ndarray) -> np.ndarray:
    """Second fundamental form II (r, m) of the level set through pt.x in
    each kernel direction X = K c of the coefficient stack c (r, k), with the
    kernel-aligned extension y -> K(y) X of X (K the projector onto ker df at
    the rank of df at pt.x).

    f is constant along the level set, so d2f(X, X) + df II(X, X) = 0, and II
    lies in the coimage of `pt.kd`, where df is inverted by C^+: II(X, X) =
    -C^+ d2f(X, X), contracted from `pt.kernel_d2f` with no derivative of
    its own.
    """
    return -_kernel_d2f_along(pt, c) @ pt.kd.c_pinv.swapaxes(-1, -2)


def _kernel_d2f_along(pt: PointData, c: np.ndarray) -> np.ndarray:
    """d2f(X, X) of X = K c, kept on pt for the last stack c (the same array), which
    `obstruction_operator` and `level_set_ii` both read."""
    if vars(pt).get("_d2f_along", (None,))[0] is not c:
        vars(pt)["_d2f_along"] = (c, (c[..., None, :] @ _linear(c, pt.kernel_d2f))[..., 0, :])
    return vars(pt)["_d2f_along"][1]


# ---------------------------------------------------------------------------
# Scenario-level report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstructionRow:
    x: np.ndarray
    p: np.ndarray
    X: np.ndarray
    obstruction_norm: float
    xi_rank: int
    level_set_ii_norm: float
    flatness_residual: float
    is_regular: bool


@dataclass
class ObstructionReport:
    fatness: FatnessReport
    fiber_geodesy: float
    rows: list = field(default_factory=list)   # one per (point, direction)
    certificates: list = field(default_factory=list)
    unverified_candidates: int = 0
    singular_points: int = 0
    regular_points: int = 0        # regular sampled points with a kernel direction
    verdict: str = "CONSISTENT"
    reason: Optional[str] = None   # why the verdict decides less than it says

    @property
    def regular_rows(self) -> list:
        return [s for s in self.rows if s.is_regular]

    @property
    def max_obstruction_norm(self) -> float:
        return max((s.obstruction_norm for s in self.regular_rows), default=0.0)

    @property
    def max_level_set_ii(self) -> float:
        return max((s.level_set_ii_norm for s in self.regular_rows), default=0.0)

    @property
    def max_flatness_residual(self) -> float:
        return max((s.flatness_residual for s in self.rows), default=0.0)

    @property
    def best_certificate(self) -> Optional[NegativePlaneCertificate]:
        return min(self.certificates, key=lambda cert: cert.sec_value, default=None)


def _coefficients(z: np.ndarray, kernel_dim: int, n_dirs: int) -> np.ndarray:
    """Per point, the kernel basis, then random unit combinations of it from the
    leading normals of z (b, kernel_directions, dim M): (b, n_dirs, kernel_dim)."""
    coeffs = np.repeat(np.eye(kernel_dim)[None, :n_dirs], len(z), axis=0)
    if n_dirs > kernel_dim:
        extra = z[:, :n_dirs - kernel_dim, :kernel_dim]
        coeffs = np.hstack([coeffs, extra / np.linalg.norm(extra, axis=-1, keepdims=True)])
    return coeffs


def _sample_block(pb: PullbackBundle, z: np.ndarray,
                  kernel_directions: int) -> tuple[list, float]:
    """The points that a block of rows of normals draws, in row order, each as
    (singular, regular with a kernel direction, its rows, its certificate
    candidates (norm, certificate or None)), and the seconds spent in the
    certificate search. The block's point data lives only as long as this
    call."""
    search_s = 0.0
    zp, zc = np.split(z, [pb.total_manifold.ambient_dim], axis=-1)
    x, p = pb.split_point(pb.total_manifold.random_point(zp))
    directions = zc.reshape(len(z), kernel_directions, -1)
    found: list = [None] * len(z)
    for index, pt in PointData.blocks(pb, x, p):
        kd = pt.kd
        kernel_dim = kd.kernel_basis.shape[-1]
        if kernel_dim == 0:
            for i in index:
                found[i] = (not kd.is_regular, False, [], [])
            continue
        n_dirs = kernel_directions if kernel_dim > 1 else 1
        coeffs = _coefficients(directions[index], kernel_dim, n_dirs)
        # the f*P frame first, while the fewest other fields of pt are held
        flat_res = flatness_sweep(pt, coeffs).reshape(len(index), n_dirs)
        op = obstruction_operator(pt, coeffs)
        norms = op.norm.reshape(len(index), n_dirs)
        # in the field order of ObstructionRow, as Python scalars
        values = zip(coeffs @ kd.kernel_basis.swapaxes(-1, -2), norms.tolist(),
                     op.xi_rank.reshape(len(index), n_dirs).tolist(),
                     np.linalg.norm(level_set_ii(pt, coeffs), axis=-1).reshape(
                         len(index), n_dirs).tolist(), flat_res.tolist())
        certs = [None] * norms.size
        if kd.is_regular and np.any(norms > CROSS_TERM_TOLERANCE):
            start = time.perf_counter()
            certs = negative_plane_finder(pt, coeffs, op)
            search_s += time.perf_counter() - start
        for j, (i, point_values, point_norms) in enumerate(zip(index, values, norms)):
            xi, pi = x[i], p[i]
            found[i] = (not kd.is_regular, kd.is_regular,
                        [ObstructionRow(xi, pi, *row, is_regular=kd.is_regular)
                         for row in zip(*point_values)],
                        list(zip(point_norms, certs[j * n_dirs:(j + 1) * n_dirs])))
    return found, search_s


def theorem_report(pb: PullbackBundle, samples: int = 200,
                   kernel_directions: int = 20, seed: int = 0,
                   timing: Optional[dict] = None) -> ObstructionReport:
    """Sampled totally-geodesic-level-set test over a pull-back scenario.

    `fatness` and `totally_geodesic_fibers_check` run at their own defaults
    with the report's seed, in one loop (`submersion.hypotheses`). Per point
    (x, p) from the f*P sampler: kernel directions of the base map, the
    obstruction operator norm, the rank of its vertical map, the level-set
    second fundamental form, and the vertical-plane flatness residual, from
    one coefficient stack through each batched path: the kernel basis, then
    random unit combinations of it, so more `kernel_directions` cost
    contractions only. `rows` holds one per (point, direction);
    `singular_points` and `regular_points` count points. Nonzero obstructions
    trigger a negative-plane search; the verdict is VIOLATED exactly when a
    certificate re-verifies, CONSISTENT when at least one regular point has a
    kernel direction and all obstruction norms stay below tolerance,
    INCONCLUSIVE otherwise. `reason` names the cause of INCONCLUSIVE, or a
    failed fatness hypothesis behind CONSISTENT.

    The points come in the blocks of `numerics.rng_blocks`, each split by
    the rank of df; rows and certificates keep the sample order. Given a
    `timing` dict, the seconds of each stage go into it: `hypotheses_s` (the
    shared loop of both hypotheses), `sample_loop_s` (the certificate search
    excluded) and `certificate_search_s`.
    """
    start = time.perf_counter()
    fatness, fiber_geodesy = submersion.hypotheses(pb.bundle, seed=seed)
    loop_start = time.perf_counter()
    report = ObstructionReport(fatness=fatness, fiber_geodesy=fiber_geodesy)

    search_s = 0.0
    width = pb.total_manifold.ambient_dim + kernel_directions * pb.f.source.intrinsic_dim
    for z in rng_blocks(seed, samples, width):
        points, block_search_s = _sample_block(pb, z, kernel_directions)
        search_s += block_search_s
        for singular, regular, rows, candidates in points:
            report.singular_points += singular
            report.regular_points += regular
            report.rows += rows
            for norm, cert in candidates:
                if cert is not None:
                    report.certificates.append(cert)
                elif norm > CROSS_TERM_TOLERANCE:
                    report.unverified_candidates += 1
    if timing is not None:
        timing.update(hypotheses_s=loop_start - start, certificate_search_s=search_s,
                      sample_loop_s=time.perf_counter() - loop_start - search_s)

    if report.certificates:
        report.verdict = "VIOLATED"
    elif report.regular_points == 0:
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
                f"the bundle is not fat (min_sigma {report.fatness.min_sigma:.3e}, a lower "
                f"bound over every horizontal direction at the sampled points, <= fatness "
                f"tolerance {FAT_TOLERANCE:g}): the theorem's hypothesis fails, so a "
                f"vanishing obstruction does not test it")
    else:
        report.verdict = "INCONCLUSIVE"
        report.reason = (
            f"obstruction norm {report.max_obstruction_norm:.3e} above the "
            f"consistency tolerance {CONSISTENCY_TOLERANCE:g}, and no certificate "
            f"re-verified ({report.unverified_candidates} unverified candidates)")
    return report
