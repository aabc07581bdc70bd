"""Shared numerical helpers: eigh-based bases, SVD nullspaces, finite differences."""

from __future__ import annotations

import numpy as np

DEFAULT_FD_STEP = 1e-4


def central_difference(g, h: float = DEFAULT_FD_STEP):
    """d/dt g(t) at t=0 by symmetric differences, O(h^2)."""
    return (g(h) - g(-h)) / (2.0 * h)


def fd_error_estimate(g, h: float = DEFAULT_FD_STEP):
    """Central difference at h/2 plus a Richardson-style error estimate.

    Returns (derivative_at_half_step, estimated_truncation_error).
    """
    d1 = central_difference(g, h)
    d2 = central_difference(g, h / 2.0)
    return d2, np.linalg.norm(np.asarray(d2) - np.asarray(d1)) / 3.0


def orthonormal_basis(projector: np.ndarray, dim: int | None = None,
                      tol: float = 1e-6) -> np.ndarray:
    """Deterministic orthonormal basis (columns) of range(projector).

    One symmetric eigendecomposition: the eigenvectors of the symmetrised
    projector whose eigenvalues exceed `tol`, largest first and at most `dim`
    of them, so a rank-short projector yields fewer than `dim` columns. Each
    column's sign makes its largest-magnitude entry positive.
    """
    w, v = np.linalg.eigh(0.5 * (projector + projector.T))
    n = min(int(np.sum(w > tol)), len(w) if dim is None else dim)
    basis = v[:, ::-1][:, :n]
    pivots = basis[np.argmax(np.abs(basis), axis=0), np.arange(n)]
    return basis * np.sign(pivots)


def nullspace_basis(matrix: np.ndarray, nullity: int | None = None,
                    rtol: float = 1e-9):
    """Orthonormal nullspace basis (columns) via SVD.

    With `nullity` given, the trailing right-singular vectors are returned and
    the split is validated; otherwise the numerical rank at `rtol` decides.
    Returns (basis, singular_values).
    """
    m, n = matrix.shape
    u, s, vt = np.linalg.svd(matrix, full_matrices=True)
    s_full = np.zeros(n)
    s_full[: len(s)] = s
    if nullity is None:
        cut = s_full[0] * rtol if len(s) else 0.0
        rank = int(np.sum(s_full > cut))
    else:
        rank = n - nullity
    return vt[rank:].T, s_full


def rank_from_singular_values(s: np.ndarray, rtol: float = 1e-6) -> int:
    s = np.asarray(s)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def spd_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive-definite system (Cholesky)."""
    import scipy.linalg

    c, low = scipy.linalg.cho_factor(matrix)
    return scipy.linalg.cho_solve((c, low), rhs)


def parallel_map(fn, items, max_workers: int = 1):
    """Map preserving item order; threads only when max_workers > 1.

    Work items must be pure. Results are merged in submission order so the
    output is independent of scheduling.
    """
    items = list(items)
    if max_workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, items))
