"""Shared numerical helpers: seeded random streams, eigh-based bases, the SVD
nullspace, the central difference and the tie rule for reported witnesses.

`rng_streams` is the one seeding policy of every sampling loop: sample i of a
run draws from stream i of its seed, so reports depend only on (config, seed).
`nullspace_basis` is the one SVD of every kernel (`graph.KernelFrame`) and
`KERNEL_RTOL` its one rank rule, which `orthonormal_basis` shares.
`first_extreme` is the one rule that picks a witness among tied values.
`central_difference` is the fallback of every derivative without a closed
form (over a stack of directions, `over_stack`), and the oracle that the
tests hold the closed forms to.
"""

from __future__ import annotations

import numpy as np

DEFAULT_FD_STEP = 1e-4
SINGULAR_CLUSTER_RTOL = 1e-6
KERNEL_RTOL = 1e-6


def rng_streams(seed: int, n: int) -> list[np.random.Generator]:
    """n independent PCG64 generators spawned from SeedSequence(seed)."""
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(n)]


def central_difference(g, h: float = DEFAULT_FD_STEP):
    """d/dt g(t) at t=0 by symmetric differences, O(h^2)."""
    return (g(h) - g(-h)) / (2.0 * h)


def over_stack(fn, u: np.ndarray, shape: tuple) -> np.ndarray:
    """fn(v) of the given shape for each v of the stack u (..., n), as (...,) + shape."""
    return np.array([fn(v) for v in u.reshape(-1, u.shape[-1])]).reshape(
        u.shape[:-1] + shape)


def first_extreme(values, largest: bool = False):
    """Index along the last axis of the smallest of `values` (the largest with
    largest=True), the lowest index among all within SINGULAR_CLUSTER_RTOL
    (relative) of it, so rounding does not decide between tied values."""
    values = np.asarray(values, dtype=float)
    ext = values.max(-1, keepdims=True) if largest else values.min(-1, keepdims=True)
    slack = SINGULAR_CLUSTER_RTOL * np.abs(ext)
    near = values >= ext - slack if largest else values <= ext + slack
    return np.argmax(near, axis=-1)


def orthonormal_basis(projector: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Deterministic orthonormal basis (columns) of range(projector).

    One symmetric eigendecomposition: the eigenvectors of the symmetrised
    projector whose eigenvalues exceed KERNEL_RTOL, largest first and at most
    `dim` of them, so a rank-short projector yields fewer than `dim` columns.
    Each column's sign makes its largest-magnitude entry positive.
    """
    w, v = np.linalg.eigh(0.5 * (projector + projector.T))
    n = min(int(np.sum(w > KERNEL_RTOL)), len(w) if dim is None else dim)
    basis = v[:, ::-1][:, :n]
    pivots = basis[np.argmax(np.abs(basis), axis=0), np.arange(n)]
    return basis * np.sign(pivots)


def nullspace_basis(matrix: np.ndarray, nullity: int | None = None):
    """Orthonormal nullspace and row-space bases (columns) via one SVD.

    With `nullity` given, the trailing right-singular vectors span the
    nullspace; otherwise the numerical rank is the number of singular values
    above KERNEL_RTOL * s[0] (rank 0 when s[0] = 0). Returns (nullspace,
    row_space, singular_values), the singular values zero-padded to the
    column count.
    """
    m, n = matrix.shape
    u, s, vt = np.linalg.svd(matrix, full_matrices=True)
    s_full = np.zeros(n)
    s_full[: len(s)] = s
    if nullity is None:
        cut = s_full[0] * KERNEL_RTOL if len(s) else 0.0
        rank = int(np.sum(s_full > cut))
    else:
        rank = n - nullity
    return vt[rank:].T, vt[:rank].T, s_full
