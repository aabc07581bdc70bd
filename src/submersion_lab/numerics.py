"""Shared numerical helpers: the seeded draws of the sampled loops, eigh-based
bases, the SVD row space, the central difference, the tie rule for reported
witnesses and the block size of the sampled loops.

`rng_blocks` is the one seeding policy: a sampled loop of `check`, `validate`
or `curvature` reads one generator of its seed, so reports depend only on
(config, seed), as rows of standard normals, POINTS_PER_BLOCK at a time. Row
i is point i's at every block size, and each draw of the point (the point,
its tangents, its kernel directions) reads fixed columns of it. No other
module sizes a block or builds a generator.
`nullspace_basis` is the one (full) SVD of every kernel, `kernel_rank` its one
rank rule (singular values above `KERNEL_RTOL` times the largest), which on a
projector agrees with the count of `orthonormal_basis` (eigenvalues above
`KERNEL_RTOL`), `positive_pivots` the one sign rule of the bases; only
`graph.KernelFrame` applies the rank rule to the SVD, and `first_extreme`
picks a witness among tied values. `central_difference` is the oracle that
the tests and `validate` hold the closed forms to, one call per side for a
block of points and one direction at each (`core.lie_bracket`), and the
fallback of a Jacobian or projector derivative without a closed form, one
call per point and direction (`over_stack`).

Points come one at a time or in a block, as a leading point axis: x of shape
(n,) is one point, (b, n) a block of b, and a block of one point keeps its
axis. The basis routines decompose a stack (..., m, n) of matrices in one
LAPACK call, a single matrix being a stack with no leading axes, and
`row_norms` keeps the reduced axis at one point too. The closures of a manifold or a map take a block as well as one point, in one
broadcast call (the contract of `core.EmbeddedManifold`, held by
`core.call_on_stack` at one point too); `per_point` lines a block's per-point
matrices up with a stack of directions at each point. Every sampled loop,
`validate`'s included, takes POINTS_PER_BLOCK points per block.
"""
from __future__ import annotations

import numpy as np

DEFAULT_FD_STEP = 1e-4
SINGULAR_CLUSTER_RTOL = 1e-6
KERNEL_RTOL = 1e-6
# Points per block of every sampled loop. Larger blocks make fewer calls and
# hold more at once: at 16 a 200-sample perturbed octonionic Hopf `check`
# traces about 15 MB (22 MB at 32), and at 8 the benchmark's complex `check`
# is slower. Reports do not depend on it.
POINTS_PER_BLOCK = 16


def rng_blocks(seed: int, n: int, width: int):
    """n rows of `width` standard normals from one generator of the seed, in
    (b, width) blocks of at most POINTS_PER_BLOCK rows: successive draws of a
    generator continue its stream bit for bit, so row i does not depend on b."""
    rng = np.random.default_rng(seed)
    size = POINTS_PER_BLOCK
    for start in range(0, n, size):
        yield rng.standard_normal((min(size, n - start), width))


def constant_field(a: np.ndarray):
    """The closure x -> a at each point of x (..., n), one point or a block:
    read-only views of one shared copy."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return lambda x: np.broadcast_to(a, x.shape[:-1] + a.shape)


def row_norms(v: np.ndarray):
    """|v| over the last axis of v (..., n), kept as an axis of length 1."""
    return np.sqrt(np.vecdot(v, v))[..., None]


def per_point(a: np.ndarray, x: np.ndarray, axes: int) -> np.ndarray:
    """The per-point array `a` of the point or block x with `axes` unit axes
    after the point axis, so that a block's matrices broadcast against a
    stack of directions at each of its points; `a` itself at one point."""
    if x.ndim == 1:
        return a
    return a.reshape(a.shape[:1] + (1,) * axes + a.shape[1:])


def central_difference(g, h: float = DEFAULT_FD_STEP):
    """d/dt g(t) at t=0 by symmetric differences, O(h^2)."""
    return (g(h) - g(-h)) / (2.0 * h)


def over_stack(fn, x: np.ndarray, u: np.ndarray, shape: tuple) -> np.ndarray:
    """fn(x, v) of the given shape for each direction v of the stack u (..., n)
    at x, or (b, ..., n) at a block x (b, n), as u.shape[:-1] + shape: one call
    per point and direction, for the finite-difference oracles."""
    if x.ndim > 1:
        return np.array([over_stack(fn, point, v, shape) for point, v in zip(x, u)]).reshape(
            u.shape[:-1] + shape)
    return np.array([fn(x, v) for v in u.reshape(-1, u.shape[-1])]).reshape(
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


def orthonormal_basis(projector: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic orthonormal basis (columns) of range(projector), or of
    each projector of a stack (..., d, d) from one stacked eigh.

    One symmetric eigendecomposition: the eigenvectors of the symmetrised
    projector whose eigenvalues exceed KERNEL_RTOL, largest first and at most
    `dim` of them, so a rank-short projector yields fewer than `dim` columns.
    Every projector of a stack must give the same column count. The columns
    are signed by `positive_pivots`.
    """
    w, v = np.linalg.eigh(0.5 * (projector + projector.swapaxes(-1, -2)))
    counts = (w > KERNEL_RTOL).sum(-1)
    n = min(int(counts.min()), dim)
    if min(int(counts.max()), dim) != n:
        raise ValueError(f"projectors of the stack have ranges of dimensions from "
                         f"{n} to {min(int(counts.max()), dim)}")
    return positive_pivots(v[..., ::-1][..., :n])


def positive_pivots(basis: np.ndarray) -> np.ndarray:
    """Each column of `basis` (..., n, k) signed so its largest-magnitude entry is positive."""
    if basis.shape[-2] == 0:   # no entry to take the sign of (n = 0)
        return basis
    pivots = np.take_along_axis(basis, np.argmax(np.abs(basis), axis=-2)[..., None, :], -2)
    return basis * np.sign(pivots)


def kernel_rank(singular_values: np.ndarray):
    """The one rank rule, over the last axis: the number of singular values
    above KERNEL_RTOL times the largest (rank 0 when the largest is 0)."""
    s = singular_values
    return (s > s[..., :1] * KERNEL_RTOL).sum(-1)


def nullspace_basis(matrix: np.ndarray):
    """Every right-singular vector (columns), all n of them in order, of one
    full SVD of each matrix of a stack (..., m, n), a single matrix (m, n)
    being a stack with no leading axes: the leading `kernel_rank` of them span
    the row space and the rest the nullspace. Returns (right_singular_vectors,
    singular_values), the singular values zero-padded to n.
    """
    n = matrix.shape[-1]
    _, s, vt = np.linalg.svd(matrix)
    s_full = s
    if s.shape[-1] < n:
        s_full = np.zeros(matrix.shape[:-2] + (n,))
        s_full[..., :s.shape[-1]] = s
    return vt.swapaxes(-1, -2), s_full
