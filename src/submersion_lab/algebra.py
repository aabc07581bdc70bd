"""Real, complex, quaternion and octonion arithmetic on numpy arrays.

Elements are real coordinate vectors along the last axis (length 1, 2, 4 or
8). The Cayley-Dickson doubling (a,b)(c,d) = (ac - conj(d)b, da + b conj(c))
defines the product. It is evaluated once per dimension on basis pairs into
structure constants C[i, j, k] = (e_i e_j)_k, and every product is the
contraction (xy)_k = sum_ij x_i y_j C[i, j, k], broadcast over leading axes.
All four algebras are composition algebras: |xy| = |x||y|.
"""

from __future__ import annotations

from functools import cache

import numpy as np

ALGEBRA_DIMS = (1, 2, 4, 8)


def conj(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = -x.copy()
    out[..., 0] = x[..., 0]
    return out


def _multiply_recursive(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = x.shape[-1]
    if d == 1:
        return x * y
    half = d // 2
    a, b = x[..., :half], x[..., half:]
    c, dd = y[..., :half], y[..., half:]
    low = _multiply_recursive(a, c) - _multiply_recursive(conj(dd), b)
    high = _multiply_recursive(dd, a) + _multiply_recursive(b, conj(c))
    return np.concatenate([low, high], axis=-1)


@cache
def _structure_constants(d: int) -> np.ndarray:
    """Read-only tensor C with C[i, j] = e_i e_j, built once per dimension."""
    if d not in ALGEBRA_DIMS:
        raise ValueError(
            f"unsupported algebra dimension {d}; expected one of {ALGEBRA_DIMS}")
    e = np.eye(d)
    c = _multiply_recursive(e[:, None, :], e[None, :, :])
    c.flags.writeable = False
    return c


def multiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x.shape[-1]
    if d != y.shape[-1]:
        raise ValueError(f"algebra dimension mismatch: {d} vs {y.shape[-1]}")
    return np.einsum("...i,...j,ijk->...k", x, y, _structure_constants(d))


def left_multiplication_matrix(x: np.ndarray) -> np.ndarray:
    """Matrix of v -> x v as a real-linear map."""
    x = np.asarray(x, dtype=float)
    return np.einsum("i,ijk->kj", x, _structure_constants(x.shape[-1]))


def right_multiplication_matrix(x: np.ndarray) -> np.ndarray:
    """Matrix of v -> v x as a real-linear map."""
    x = np.asarray(x, dtype=float)
    return np.einsum("j,ijk->ki", x, _structure_constants(x.shape[-1]))
