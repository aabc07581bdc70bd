"""Riemannian submersions with totally geodesic fibers.

The vertical space at p is the kernel of dpi: `splitting(bundle, p)` is
the `graph.KernelFrame(bundle.projection, p, dim B)`, whose kernel basis is
the vertical basis, whose coimage basis is the horizontal basis and whose
C^+ is the horizontal lift. O'Neill's tensors ("The fundamental equations
of a submersion", 1966) need the derivative dV[u] of the vertical projector
only on the vertical space, which the frame's kernel form gives from the
second fundamental form of the total space, with no (n, n) array (a total
space without a closed form is differentiated by its own finite difference
inside it): A_X Y = -V dV[X] Y on horizontal X, Y (taken antisymmetrised),
read as H^T dV[X] V, and the fiber second fundamental form is H dV[U] U'
on vertical U, U'. The per-pair `a_tensor` (a bracket of basic fields)
stays as its finite-difference oracle. Fiber geodesy and fatness (a bound
over every horizontal direction) are checks at seeded sample points.

`horizontal_lift`, `a_tensor_coefficients` and `a_dagger` take the
splitting frame of their point. The oracles `a_tensor` and `basic_field`
take the point alone and split it themselves.

`splitting`, `vertizontal_sec` and these also take a block of points p
(b, n), one vector per point: the frame, the lifts (b, n, k) and the
coefficients gain the leading point axis, from one SVD and one stacked
kernel form per block. `fatness` and `totally_geodesic_fibers_check` read
one loop, `hypotheses` (a `check`'s stage `hypotheses_s`), which draws and
splits each block of `numerics.rng_blocks` once; the fiber check reads its
first points, and no point depends on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import core
from .core import EmbeddedManifold, GeometryError, RankDeficiencyError
from .graph import KernelFrame, SmoothMapBetweenManifolds
from .numerics import DEFAULT_FD_STEP, first_extreme, per_point, rng_blocks

FAT_TOLERANCE = 1e-3


@dataclass(frozen=True)
class RiemannianSubmersionBundle:
    """A submersion total -> base with metric-compatible splitting.

    The optional fiber utilities (the nearest point on a prescribed fiber, a
    map of base points n (..., m) and normals (..., total.ambient_dim) to
    points of their fibers) are closed-form for the built-in bundles and
    power the pull-back construction.
    """

    total: EmbeddedManifold
    base: EmbeddedManifold
    projection: SmoothMapBetweenManifolds
    fiber_dim: int
    fiber_projector: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    fiber_sampler: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "bundle"


def splitting(bundle: RiemannianSubmersionBundle, p: np.ndarray) -> KernelFrame:
    """The kernel frame of dpi at p, or over a block p (b, n), at rank dim B:
    the vertical space is its kernel, the horizontal space its coimage."""
    p = core.check_point(bundle.total, p)
    frame = KernelFrame(bundle.projection, p, bundle.base.intrinsic_dim)
    fiber_dim = bundle.total.intrinsic_dim - frame.rank
    if fiber_dim != bundle.fiber_dim:
        raise RankDeficiencyError(
            f"kernel of the projection has dimension {fiber_dim}, "
            f"expected {bundle.fiber_dim}")
    return frame


def horizontal_lift(sp: KernelFrame, w: np.ndarray) -> np.ndarray:
    """The unique horizontal vector at sp.x that projects to w: C^+ w for
    the frame's C = dpi P (least squares for w off the image). Over a block,
    w is (b, m, k)."""
    return sp.c_pinv @ np.asarray(w, dtype=float)


def a_tensor(bundle: RiemannianSubmersionBundle, p: np.ndarray,
             X: np.ndarray, Y: np.ndarray,
             h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Integrability tensor A(X, Y): half the vertical part of the bracket of
    the basic extensions of the horizontal parts of X and Y."""
    sp = splitting(bundle, p)
    h_proj = sp.coimage_basis @ sp.coimage_basis.swapaxes(-1, -2)
    w_x = np.matvec(sp.jac, np.matvec(h_proj, X))
    w_y = np.matvec(sp.jac, np.matvec(h_proj, Y))
    bracket = core.lie_bracket(bundle.total,
                               basic_field(bundle, w_x),
                               basic_field(bundle, w_y), p, h)
    return 0.5 * np.matvec(sp.projector, bracket)


def basic_field(bundle: RiemannianSubmersionBundle,
                w_ambient: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Basic extension of a base vector: canonical extension on the base,
    horizontally lifted at every total-space point. Given one vector per
    point of a block (b, m), the field takes blocks (b, n), row i extending
    w_ambient[i]."""
    w_ambient = np.asarray(w_ambient, dtype=float)

    def fld(q: np.ndarray) -> np.ndarray:
        wq = np.matvec(bundle.base.projector(bundle.projection(q)), w_ambient)
        return horizontal_lift(splitting(bundle, q), wq[..., None])[..., 0]

    return fld


def a_tensor_coefficients(sp: KernelFrame) -> np.ndarray:
    """A on the horizontal basis at p = sp.x, in vertical coordinates.

    Shape (h_dim, h_dim, v_dim), after the point axis of a block;
    antisymmetric in the first two axes.
    coeff[i, j] = 1/2 V^T (dV[h_j] h_i - dV[h_i] h_j) for the horizontal
    basis vectors h_i: one stacked kernel form of the splitting's frame.
    """
    h_t = sp.coimage_basis.swapaxes(-1, -2)
    # g_t[k, i] = H^T dV[h_k] V, so g_t[k, i, a] = v_a^T dV[h_k] h_i (dV[h_k] is symmetric)
    g_t = per_point(h_t, sp.x, 1) @ sp.kernel_derivative(h_t, sp.kernel_basis)
    return 0.5 * (g_t.swapaxes(-2, -3) - g_t)


def a_dagger(sp: KernelFrame, coeff: np.ndarray,
             X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Dual of the A-tensor: the horizontal vector with
    <A_dagger(X, U), Y> = <U, A(X, Y)> over the horizontal basis, contracted
    from coeff = `a_tensor_coefficients` at sp.x; over a block, one X and U
    per point.

    Inputs are projected to their horizontal/vertical parts first.
    """
    x_c = np.matvec(sp.coimage_basis.swapaxes(-1, -2), X)
    u_c = np.matvec(sp.kernel_basis.swapaxes(-1, -2), U)
    return np.matvec(sp.coimage_basis, np.einsum("...i,...ijv,...v->...j", x_c, coeff, u_c))


def vertizontal_sec(bundle: RiemannianSubmersionBundle, p: np.ndarray,
                    X: np.ndarray, U: np.ndarray):
    """Sectional curvature of a horizontal-vertical plane for unit orthogonal
    X horizontal, U vertical: the squared norm of A_dagger(X, U), at p or at
    each point of a block p (b, n)."""
    sp = splitting(bundle, p)
    dual = a_dagger(sp, a_tensor_coefficients(sp), X, U)
    return np.vecdot(dual, dual)


@dataclass(frozen=True)
class FatnessReport:
    """min_sigma <= sigma_min(A_X) for all unit horizontal X at the samples."""
    min_sigma: float
    worst_point: np.ndarray
    is_fat: bool


def fatness(bundle: RiemannianSubmersionBundle, sample_count: int = 50,
            seed: int = 0) -> FatnessReport:
    """A lower bound on sigma_min(A_X), A_X: horizontal -> vertical, over every
    unit horizontal X at random points; fat when it exceeds FAT_TOLERANCE."""
    if sample_count < 1:
        raise GeometryError(f"fatness needs sample_count >= 1, got {sample_count}")
    return hypotheses(bundle, sample_count, 0, seed)[0]


def totally_geodesic_fibers_check(bundle: RiemannianSubmersionBundle,
                                  samples: int = 10, seed: int = 0) -> float:
    """Max fiber second-fundamental-form norm over sampled points and
    vertical basis pairs; ~0 certifies totally geodesic fibers."""
    if samples < 1:
        raise GeometryError(f"totally_geodesic_fibers_check needs samples >= 1, got {samples}")
    return hypotheses(bundle, 0, samples, seed)[1]


def hypotheses(bundle: RiemannianSubmersionBundle, sample_count: int = 50,
               fiber_samples: int = 10, seed: int = 0) -> tuple[Optional[FatnessReport], float]:
    """`fatness` at the first sample_count points of one loop (None at 0), and
    `totally_geodesic_fibers_check` at its first fiber_samples: each block of
    the loop is drawn and split once.

    With A_i the (v_dim, h_dim) matrix of A along horizontal basis vector i,
    S_ij = (A_i A_j^T + A_j A_i^T) / 2, s = sum_i |A_i|^2 / (h_dim v_dim) and
    E_ij = S_ij - s delta_ij I: |A_X^T w|^2 >= s - |E|_F for unit X, w. E = 0 on
    the Hopf bundles (the Clifford relation; Gromoll & Walschap, "Metric
    Foliations and Curvature", 2009), where the bound is the minimum. E is built
    a row i at a time per block; the witness is the first sample tied at the minimum.
    |II(U_a, U_b)| = |H^T dV[U_a] U_b| for b >= a, from one stacked kernel form
    of the splitting's frame along the vertical basis per block.
    """
    h_dim, v_dim = bundle.base.intrinsic_dim, bundle.fiber_dim
    bounds, points, fiber = [], [], []
    for z in rng_blocks(seed, max(sample_count, fiber_samples), bundle.total.ambient_dim):
        start, p = len(points), bundle.total.random_point(z)
        sp = splitting(bundle, p)
        if start < sample_count:
            a = a_tensor_coefficients(sp).swapaxes(-1, -2)   # a[:, i] = A_i
            s = np.sum(a * a, axis=(1, 2, 3)) / (h_dim * v_dim)
            e_sq = np.zeros(len(p))
            a_t, shift = np.ascontiguousarray(a.swapaxes(-1, -2)), s[:, None, None] * np.eye(v_dim)
            for i in range(h_dim):
                e_i = a[:, i, None] @ a_t   # A_i A_j^T over j
                e_i = 0.5 * (e_i + e_i.swapaxes(-1, -2))
                e_i[:, i] -= shift
                e_sq += np.sum(e_i * e_i, axis=(1, 2, 3))
            bounds += (s - np.sqrt(e_sq)).tolist()
        if start < fiber_samples:
            v, h_t = sp.kernel_basis, sp.coimage_basis.swapaxes(-1, -2)
            ii = h_t[:, None] @ sp.kernel_derivative(v.swapaxes(-1, -2), v)
            norms = np.linalg.norm(ii, axis=-2)   # norms[., a, b] = |II(U_a, U_b)|
            fiber += np.max(np.triu(norms), axis=(-2, -1), initial=0.0).tolist()
        points += list(p)
    report = None
    if sample_count:
        worst = first_extreme(bounds[:sample_count])
        min_sigma = float(np.sqrt(max(bounds[worst], 0.0)))
        report = FatnessReport(min_sigma, points[worst], min_sigma > FAT_TOLERANCE)
    return report, max(fiber[:fiber_samples], default=0.0)
