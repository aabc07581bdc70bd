"""Riemannian submersions with totally geodesic fibers.

Vertical spaces come from the SVD kernel of the projection differential,
horizontal lifts from least squares on a horizontal basis, and the
integrability tensor A from brackets of basic fields (base vectors extended
canonically on the base, lifted pointwise). Fatness and fiber geodesy are
sampled checks with seeded, per-index random streams.

Every basic field is one matrix applied to its base vector: the lift matrix
L(q) = H (J H)^+ P_N(pi q), so basic_field(w)(q) = L(q) w. The whole A
tensor at p therefore needs L at 1 + 2 h_dim points only: at p and at the
central-difference stencil points retraction(p, +-h L(p) w_i) along the
basic fields of the horizontal basis. `a_tensor`, the bracket of one pair of
basic fields evaluated from scratch, stays as the oracle of that batched
stencil.

`horizontal_lift`, `lift_matrix`, `a_tensor_coefficients` and `a_dagger` take
the `Splitting` of their point. The oracles `a_tensor`, `basic_field` and
`fiber_second_fundamental_form` take the point alone and split it themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import core
from .core import EmbeddedManifold, RankDeficiencyError
from .graph import SmoothMapBetweenManifolds
from .numerics import DEFAULT_FD_STEP, central_difference, rng_streams

FAT_TOLERANCE = 1e-3


@dataclass(frozen=True)
class RiemannianSubmersionBundle:
    """A submersion total -> base with metric-compatible splitting.

    The optional fiber utilities (a section of the projection, the nearest
    point on a prescribed fiber, a fiber sampler) are closed-form for the
    built-in bundles and power the pull-back construction.
    """

    total: EmbeddedManifold
    base: EmbeddedManifold
    projection: SmoothMapBetweenManifolds
    fiber_dim: int
    fiber_section: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fiber_projector: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    fiber_sampler: Optional[Callable[[np.ndarray, np.random.Generator], np.ndarray]] = None
    name: str = "bundle"


@dataclass(frozen=True)
class Splitting:
    """Vertical/horizontal data of a bundle at one total-space point."""

    point: np.ndarray
    vertical_basis: np.ndarray    # columns
    horizontal_basis: np.ndarray  # columns
    jac: np.ndarray               # ambient d(projection)

    @property
    def vertical_projector(self) -> np.ndarray:
        return self.vertical_basis @ self.vertical_basis.T

    @property
    def horizontal_projector(self) -> np.ndarray:
        return self.horizontal_basis @ self.horizontal_basis.T


def splitting(bundle: RiemannianSubmersionBundle, p: np.ndarray) -> Splitting:
    p = core.check_point(bundle.total, p)
    basis_p = core.tangent_basis(bundle.total, p)
    jac = bundle.projection.jac(p)
    mat = jac @ basis_p
    u, s, vt = np.linalg.svd(mat)
    rank = bundle.base.intrinsic_dim
    if len(s) < rank or s[rank - 1] <= 1e-6 * s[0]:
        raise RankDeficiencyError(
            f"projection differential of {bundle.name} is rank deficient at the sample")
    vertical = basis_p @ vt[rank:].T
    horizontal = basis_p @ vt[:rank].T
    if vertical.shape[1] != bundle.fiber_dim:
        raise RankDeficiencyError(
            f"kernel of the projection has dimension {vertical.shape[1]}, "
            f"expected {bundle.fiber_dim}")
    return Splitting(point=p, vertical_basis=vertical,
                     horizontal_basis=horizontal, jac=jac)


def vertical_projector(bundle: RiemannianSubmersionBundle, p: np.ndarray) -> np.ndarray:
    return splitting(bundle, p).vertical_projector


def horizontal_lift(sp: Splitting, w: np.ndarray) -> np.ndarray:
    """The unique horizontal vector at sp.point that projects to w."""
    mat = sp.jac @ sp.horizontal_basis
    coef, *_ = np.linalg.lstsq(mat, np.asarray(w, dtype=float), rcond=None)
    return sp.horizontal_basis @ coef


def lift_matrix(bundle: RiemannianSubmersionBundle, sq: Splitting) -> np.ndarray:
    """L(q) = H (J H)^+ P_N(pi q) at q = sq.point: the basic extension of every
    base vector w at q is L(q) w. Shape (total ambient dim, base ambient dim)."""
    mat = sq.jac @ sq.horizontal_basis
    rhs = bundle.base.projector_field(bundle.projection(sq.point))
    coef, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    return sq.horizontal_basis @ coef


def a_tensor(bundle: RiemannianSubmersionBundle, p: np.ndarray,
             X: np.ndarray, Y: np.ndarray,
             h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Integrability tensor A(X, Y): half the vertical part of the bracket of
    the basic extensions of the horizontal parts of X and Y."""
    sp = splitting(bundle, p)
    x_h = sp.horizontal_projector @ np.asarray(X, dtype=float)
    y_h = sp.horizontal_projector @ np.asarray(Y, dtype=float)
    w_x = sp.jac @ x_h
    w_y = sp.jac @ y_h
    bracket = core.lie_bracket(bundle.total,
                               basic_field(bundle, w_x),
                               basic_field(bundle, w_y), p, h)
    return 0.5 * (sp.vertical_projector @ bracket)


def basic_field(bundle: RiemannianSubmersionBundle,
                w_ambient: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Basic extension of a base vector: canonical extension on the base,
    horizontally lifted at every total-space point."""
    w_ambient = np.asarray(w_ambient, dtype=float)

    def fld(q: np.ndarray) -> np.ndarray:
        nq = bundle.projection(q)
        wq = bundle.base.projector_field(nq) @ w_ambient
        return horizontal_lift(splitting(bundle, q), wq)

    return fld


def a_tensor_coefficients(bundle: RiemannianSubmersionBundle, sp: Splitting,
                          h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """A on the horizontal basis at p = sp.point, in vertical coordinates.

    Shape (h_dim, h_dim, v_dim); antisymmetric in the first two axes. With
    w_i = J h_i the base images of the horizontal basis vectors h_i and
    D_i = (L(q_i+) - L(q_i-)) / 2h the central difference of the lift matrix
    between the stencil points q_i+- = retraction(p, +-h L(p) w_i),
    coeff[i, j] = 1/2 V^T P (D_i w_j - D_j w_i): the same bracket formula and
    step as `a_tensor`, from 1 + 2 h_dim lift matrices in all.
    """
    p = sp.point
    w = sp.jac @ sp.horizontal_basis            # base images, columns w_i
    lifted = lift_matrix(bundle, sp) @ w
    # derivs[i] = D_i w: derivative of every basic field along basic field i
    derivs = np.stack([
        central_difference(
            lambda t, d=lifted[:, i]: lift_matrix(
                bundle, splitting(bundle, bundle.total.retraction(p, t * d))) @ w, h)
        for i in range(w.shape[1])])
    bracket = derivs - derivs.transpose(2, 1, 0)  # [i, :, j] = D_i w_j - D_j w_i
    proj = sp.vertical_basis.T @ bundle.total.projector_field(p)
    return 0.5 * np.einsum("vd,idj->ijv", proj, bracket)


def a_dagger(sp: Splitting, coeff: np.ndarray,
             X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Dual of the A-tensor: the horizontal vector with
    <A_dagger(X, U), Y> = <U, A(X, Y)> over the horizontal basis, contracted
    from coeff = `a_tensor_coefficients` at sp.point.

    Inputs are projected to their horizontal/vertical parts first.
    """
    x_c = sp.horizontal_basis.T @ np.asarray(X, dtype=float)
    u_c = sp.vertical_basis.T @ np.asarray(U, dtype=float)
    return sp.horizontal_basis @ np.einsum("i,ijv,v->j", x_c, coeff, u_c)


def vertizontal_sec(bundle: RiemannianSubmersionBundle, p: np.ndarray,
                    X: np.ndarray, U: np.ndarray,
                    h: float = DEFAULT_FD_STEP) -> float:
    """Sectional curvature of a horizontal-vertical plane for unit orthogonal
    X horizontal, U vertical: the squared norm of A_dagger(X, U)."""
    sp = splitting(bundle, p)
    dual = a_dagger(sp, a_tensor_coefficients(bundle, sp, h), X, U)
    return float(dual @ dual)


@dataclass(frozen=True)
class FatnessReport:
    min_sigma: float
    worst_point: np.ndarray
    worst_direction: np.ndarray
    samples: int
    directions: int
    is_fat: bool
    tolerance: float = FAT_TOLERANCE


def fatness(bundle: RiemannianSubmersionBundle, sample_count: int = 200,
            directions: int = 50, seed: int = 0,
            h: float = DEFAULT_FD_STEP,
            fat_tolerance: float = FAT_TOLERANCE) -> FatnessReport:
    """Smallest singular value of A_X: horizontal -> vertical over random unit
    horizontal X at random points; positive minimum means the bundle is fat.

    The full A tensor is assembled once per point; each direction then costs
    one small SVD. Random streams split per sample index from the seed.
    """
    def one_sample(rng: np.random.Generator):
        p = bundle.total.random_point(rng)
        sp = splitting(bundle, p)
        coeff = a_tensor_coefficients(bundle, sp, h)
        h_dim, _, v_dim = coeff.shape
        best = (np.inf, None)
        for _ in range(directions):
            c = rng.standard_normal(h_dim)
            c /= np.linalg.norm(c)
            mat = np.tensordot(c, coeff, axes=(0, 0))  # (h_dim, v_dim)
            s = np.linalg.svd(mat.T, compute_uv=False)
            sigma = s[v_dim - 1] if len(s) >= v_dim else 0.0
            if sigma < best[0]:
                best = (float(sigma), sp.horizontal_basis @ c)
        return best[0], p, best[1]

    results = [one_sample(rng) for rng in rng_streams(seed, sample_count)]
    sigmas = [r[0] for r in results]
    worst = int(np.argmin(sigmas))
    return FatnessReport(
        min_sigma=float(sigmas[worst]),
        worst_point=results[worst][1],
        worst_direction=results[worst][2],
        samples=sample_count,
        directions=directions,
        is_fat=bool(sigmas[worst] > fat_tolerance),
        tolerance=fat_tolerance)


def fiber_second_fundamental_form(bundle: RiemannianSubmersionBundle, p: np.ndarray,
                                  U: np.ndarray, Up: np.ndarray,
                                  h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Second fundamental form of the fiber through p inside the total space:
    horizontal part of the total-space derivative of a vertical extension."""
    sp = splitting(bundle, p)
    up_amb = np.asarray(Up, dtype=float)

    def vertical_extension(q: np.ndarray) -> np.ndarray:
        sq = splitting(bundle, q)
        return sq.vertical_projector @ up_amb

    deriv = central_difference(
        lambda t: vertical_extension(bundle.total.retraction(p, t * np.asarray(U, float))), h)
    return sp.horizontal_projector @ deriv


def totally_geodesic_fibers_check(bundle: RiemannianSubmersionBundle,
                                  samples: int = 20, seed: int = 0,
                                  h: float = DEFAULT_FD_STEP) -> float:
    """Max fiber second-fundamental-form norm over sampled points and
    vertical basis pairs; ~0 certifies totally geodesic fibers.

    The stencil points retraction(p, +-h U_a) depend on U_a only, so each is
    split once and its vertical projector applied to every U_b, b >= a: the
    central difference of `fiber_second_fundamental_form`, one pair at a time.
    """
    worst = 0.0
    for rng in rng_streams(seed, samples):
        p = bundle.total.random_point(rng)
        sp = splitting(bundle, p)
        v = sp.vertical_basis
        for a in range(v.shape[1]):
            def extensions(t: float) -> np.ndarray:
                proj = splitting(bundle, bundle.total.retraction(
                    p, t * v[:, a])).vertical_projector
                return np.column_stack([proj @ v[:, b] for b in range(a, v.shape[1])])

            for deriv in central_difference(extensions, h).T:
                worst = max(worst, float(np.linalg.norm(sp.horizontal_projector @ deriv)))
    return worst
