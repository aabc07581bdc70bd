"""Operators attached to the graph of a map between embedded manifolds.

For f: M -> N the graph {(x, f(x))} sits inside the product ambient space.
This module materializes df and its metric dual as ambient matrices, the
block isomorphism splitting T(MxN) into graph-tangent and graph-normal
parts, the normal projection, the tensorial second derivative d2f and the
kernel frame of df. The graph itself, with its tangent projector and second
fundamental form, is the pull-back f*N of N over itself
(`geometries.identity_bundle`).

A map carries its ambient Jacobian J, which it must give, and optionally the
derivative dJ[u] of that Jacobian along a direction u; every built-in map
has both in closed form, taking a stack of directions: U of shape (..., n)
gives (..., m, n). `d2f` on tangents is one closed formula in dJ and the
second fundamental form of the source, with no finite difference of its own.
A map without a closed-form dJ falls back to a central difference of J at
its own `fd_step`, per direction.

`KernelFrame` is the one place that decides the kernel of a differential:
one SVD of C = J P under one rank rule gives the rank, the kernel and
coimage bases and the closed-form derivative of the kernel projector
P - C^+ C: in full, (n, n) per direction, for the oracles, and on kernel
columns alone (`KernelFrame.kernel_derivative`), which is all that `check`
reads. The package reads three kernels from it: the tangent space of a
pull-back f*P, the vertical space of a submersion (`submersion.splitting`)
and the tangent space of a level set of f (`kernel_splitting`).

`KernelFrame`, `GraphOperators.apply_o` and `d2f` also take a block of
points x (b, n): every field gains the leading point axis, a stack of
directions gains it too, and each closure (J, dJ, the projectors and their
derivatives), SVD, eigh, solve and product is called once per block. A frame
holds one rank; `KernelFrame.by_rank` splits a block by the rank that the
rank rule gives each point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import core
from .core import EmbeddedManifold, GeometryError, SingularConfigurationError
from .numerics import (DEFAULT_FD_STEP, KERNEL_RTOL, central_difference, constant_field,
                       kernel_rank, nullspace_basis, orthonormal_basis, over_stack, per_point,
                       positive_pivots)


@dataclass(frozen=True)
class SmoothMapBetweenManifolds:
    """A map M -> N given on ambient coordinates, with Jacobian access.

    `jacobian` is the analytic ambient derivative, which every map gives.
    `jacobian_derivative(x, U)`, when given, is the analytic derivative of
    that Jacobian along each direction of the stack U, (..., n) -> (..., m,
    n); otherwise `jac_derivative` takes a central difference of `jac` along
    each source retraction curve, with step `fd_step`.
    Like a manifold's, the closures also take a block x (b, n), and U
    (b, ..., n): (b, m), (b, m, n), (b, ..., m, n) (`core.call_on_stack`).
    """

    source: EmbeddedManifold
    target: EmbeddedManifold
    ambient_map: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    jacobian_derivative: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "map"
    fd_step: float = DEFAULT_FD_STEP

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return core.call_on_stack(self.ambient_map, np.asarray(x, dtype=float), None,
                                  (self.target.ambient_dim,), "ambient_map", self.name)

    def jac(self, x: np.ndarray) -> np.ndarray:
        """Ambient Jacobian matrix at x (maps tangent vectors to tangent vectors)."""
        return core.call_on_stack(self.jacobian, np.asarray(x, dtype=float), None,
                                  (self.target.ambient_dim, self.source.ambient_dim),
                                  "jacobian", self.name)

    def jac_derivative(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """dJ[u] at x along each tangent of the stack u (..., n): (..., m, n)."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        shape = (self.target.ambient_dim, self.source.ambient_dim)
        if self.jacobian_derivative is None:
            return over_stack(lambda y, v: central_difference(
                lambda t: self.jac(self.source.retraction(y, t * v)), self.fd_step),
                x, u, shape)
        return core.call_on_stack(self.jacobian_derivative, x, u, shape,
                                  "jacobian_derivative", self.name)


def identity_map(manifold: EmbeddedManifold) -> SmoothMapBetweenManifolds:
    d = manifold.ambient_dim
    return SmoothMapBetweenManifolds(
        source=manifold, target=manifold,
        ambient_map=lambda x: np.asarray(x, dtype=float),
        jacobian=constant_field(np.eye(d)),
        jacobian_derivative=lambda x, u: np.zeros(np.shape(u)[:-1] + (d, d)),
        name=f"id_{manifold.name}")


def constant_map(source: EmbeddedManifold, target: EmbeddedManifold,
                 value: np.ndarray) -> SmoothMapBetweenManifolds:
    value = np.asarray(value, dtype=float)
    core.check_point(target, value)
    return SmoothMapBetweenManifolds(
        source=source, target=target,
        ambient_map=constant_field(value),
        jacobian=constant_field(np.zeros((target.ambient_dim, source.ambient_dim))),
        jacobian_derivative=lambda x, u: np.zeros(
            np.shape(u)[:-1] + (target.ambient_dim, source.ambient_dim)),
        name=f"const_{target.name}")


def compose(outer: SmoothMapBetweenManifolds,
            inner: SmoothMapBetweenManifolds) -> SmoothMapBetweenManifolds:
    """Composition outer(inner(.)) with chain-rule Jacobian and Jacobian
    derivative dJ[u] = dJ_o[J_i u] J_i + J_o dJ_i[u], one J_i, J_o per call."""
    if inner.target.ambient_dim != outer.source.ambient_dim:
        raise GeometryError(
            f"cannot compose {outer.name} with {inner.name}: "
            f"ambient dims {inner.target.ambient_dim} vs {outer.source.ambient_dim}")

    def jacobian_derivative(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        y = inner.ambient_map(x)
        axes = u.ndim - x.ndim
        j_i = per_point(inner.jac(x), x, axes)
        return (outer.jac_derivative(y, (j_i @ u[..., None])[..., 0]) @ j_i
                + per_point(outer.jac(y), x, axes) @ inner.jac_derivative(x, u))

    return SmoothMapBetweenManifolds(
        source=inner.source, target=outer.target,
        ambient_map=lambda x: outer.ambient_map(inner.ambient_map(x)),
        jacobian=lambda x: outer.jac(inner.ambient_map(x)) @ inner.jac(x),
        jacobian_derivative=jacobian_derivative,
        name=f"{outer.name}*{inner.name}")


# ---------------------------------------------------------------------------
# Operator package at a point
# ---------------------------------------------------------------------------

class GraphOperators:
    """df, its dual, and the graph splitting operators at one source point,
    in ambient coordinates.

    C = P_N J P_M is df as an ambient matrix: it vanishes on the normals of M
    and takes values in T_{f(x)}N. I + C C^T acts as 1 + df df^T on T_{f(x)}N
    and as the identity on its normals, so O = (1 + df df^T)^{-1} is a solve
    with it on P_N w; I + C^T C plays the same part for 1 + df^T df on T_xM.
    At a block x (b, m) the fields gain the point axis, `apply_o` takes
    (b, n, k) and the other operators one vector per point, (b, m) and
    (b, n). Given the kernel frame of df at the checked x, its J and P_M
    serve.
    """

    def __init__(self, f: SmoothMapBetweenManifolds, x: np.ndarray,
                 frame: Optional[KernelFrame] = None):
        if frame is None:
            x = core.check_point(f.source, x)
            self.jac = f.jac(x)
            self.p_m = f.source.projector(x)
        else:
            self.jac, self.p_m = frame.jac, frame.source_projector
        self.f = f
        self.x = x
        self.fx = f(x)
        self.p_n = f.target.projector(self.fx)
        self.c = self.p_n @ self.jac @ self.p_m
        self._one_plus_cct = np.eye(self.fx.shape[-1]) + self.c @ self.c.swapaxes(-1, -2)

    def apply_o(self, w: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self._one_plus_cct, self.p_n @ w)

    def xi_n(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Isomorphism from T_{f(x)}N onto the graph normal space."""
        return -np.matvec(self.c.swapaxes(-1, -2), w), w

    def xi(self, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Assemble (v, w) -> dF(v) + xi_n(w) in T(MxN)."""
        a, b = self.xi_n(w)
        return v + a, np.matvec(self.c, v) + b

    def xi_inverse(self, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split (v, w) in T(MxN) into graph-tangent and fiberwise-normal parts.

        Block solve with (1 + df^T df) and (1 + df df^T); round-tripping
        through xi reproduces the input.
        """
        c_t = self.c.swapaxes(-1, -2)
        s_v = _solve(np.eye(self.x.shape[-1]) + c_t @ self.c, np.matvec(self.p_m, v))
        o_w = _solve(self._one_plus_cct, np.matvec(self.p_n, w))
        return s_v + np.matvec(c_t, o_w), o_w - np.matvec(self.c, s_v)

    def normal_projection(self, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Orthogonal projection of (v, w) onto the graph normal space."""
        return self.xi_n(_solve(self._one_plus_cct, np.matvec(self.p_n, w) - np.matvec(self.c, v)))


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:   # one vector b per matrix of a
    return np.linalg.solve(a, b[..., None])[..., 0]


class KernelFrame:
    """The kernel of df inside T_xM, its orthogonal complement, the rank of
    df, and the derivative of the kernel projector in closed form.

    One SVD of C = J P (J = f.jac(x), P the projector of f.source), through
    `nullspace_basis`, decides all of it under one rank rule, which the frame
    alone applies: with rank=None the rank is `kernel_rank`, the number of
    singular values above KERNEL_RTOL * s[0]; a given rank that C loses to
    within KERNEL_RTOL relative raises `SingularConfigurationError`.
    `coimage_basis` holds the leading right singular vectors R of C and
    `nullspace` the other n - rank, N0, `singular_values` the first dim M
    singular values, and `is_regular` says whether df is onto. The rows of C
    lie in range(P), so the kernel projector is K = P - C^+ C = P - R R^T.
    Along a tangent u, where C keeps its rank (Absil-Mahony-Trumpf, "An
    extrinsic look at the Riemannian Hessian", 2013),
        dK[u] = dP[u] - (T + T^T),  T = C^+ dC[u] (I - C^+ C),
        dC[u] = dJ[u] P + J dP[u], for each u of a stack (..., n);
    `kernel_derivative` gives dK[u] W on kernel columns W alone.
    `projector`, `kernel_basis` (one eigh of N0^T P N0, (n - rank)-square)
    and C^+ = R S^-2 (J R)^T are built on first read, so a caller pays only
    for what it uses; a caller that holds P or J at x passes them in.

    Over a block x (b, n) every field has the leading point axis, one SVD and
    one eigh serve the block, and `derivative` takes directions (b, ..., n),
    each row at its own point. The frame of a block holds one rank: the given
    one, or the one the rank rule gives every point; with rank=None, points
    that differ raise `SingularConfigurationError` (`by_rank` splits such a
    block).
    """

    def __init__(self, f: SmoothMapBetweenManifolds, x: np.ndarray,
                 rank: Optional[int] = None, source_projector: Optional[np.ndarray] = None,
                 jac: Optional[np.ndarray] = None):
        x = np.asarray(x, dtype=float)
        if source_projector is None:
            source_projector = f.source.projector(x)
        if jac is None:
            jac = f.jac(x)
        v, s = nullspace_basis(jac @ source_projector)
        if rank is None:
            ranks = np.ravel(kernel_rank(s))
            rank = int(ranks[0])
            if np.any(ranks != rank):
                i = int(np.argmax(ranks != rank))
                raise SingularConfigurationError(
                    f"differential of {f.name} has rank {rank} at point 0 and rank "
                    f"{ranks[i]} at point {i} of the block")
        else:
            # the given rank holds at each point: s.T[j] is s_j, a scalar at one point
            lost = rank and (s.T[0] <= 0) | (s.T[rank - 1] <= KERNEL_RTOL * s.T[0])
            if np.any(lost):
                i = int(np.argmax(lost))
                raise SingularConfigurationError(
                    f"differential of {f.name} is numerically singular at rank {rank}"
                    f"{'' if s.ndim == 1 else f' at point {i} of the block'} "
                    f"(singular values {s.reshape(-1, s.shape[-1])[i, :rank]})")
        self._set(f, x, source_projector, jac, v, rank, s)

    def _set(self, f, x, source_projector, jac, v, rank, s) -> None:
        self.f = f
        self.x = x
        self.source_projector = source_projector
        self.jac = jac
        self.rank = rank
        self.coimage_basis, self.nullspace = v[..., :rank], v[..., rank:]
        self.singular_values = s[..., :f.source.intrinsic_dim]
        self.is_regular = self.rank == f.target.intrinsic_dim

    @classmethod
    def by_rank(cls, f: SmoothMapBetweenManifolds,
                x: np.ndarray) -> list[tuple[np.ndarray, "KernelFrame"]]:
        """The frames of df over a block x (b, n) of points, one per rank that
        the rank rule gives them, each with the indices of its points, in the
        order of their first points: one SVD for the whole block."""
        x = np.asarray(x, dtype=float)
        source_projector = f.source.projector(x)
        jac = f.jac(x)
        v, s = nullspace_basis(jac @ source_projector)
        ranks = kernel_rank(s).tolist()
        frames = []
        for rank in dict.fromkeys(ranks):
            index = np.array([i for i, r in enumerate(ranks) if r == rank])
            frame = cls.__new__(cls)
            frame._set(f, x[index], source_projector[index], jac[index], v[index], rank,
                       s[index])
            frames.append((index, frame))
        return frames

    @cached_property
    def projector(self) -> np.ndarray:
        rows = self.coimage_basis
        return self.source_projector - rows @ rows.swapaxes(-1, -2)

    @cached_property
    def kernel_basis(self) -> np.ndarray:
        """Orthonormal basis (columns) of ker df in T_xM: N0 B, B the eigh basis of
        N0^T P N0. As R lies in range(P), P keeps span(N0) and equals K on it."""
        n0 = self.nullspace
        b = orthonormal_basis(n0.swapaxes(-1, -2) @ self.source_projector @ n0,
                              dim=self.f.source.intrinsic_dim - self.rank)
        return positive_pivots(n0 @ b)   # the sign of N0's columns is LAPACK's

    @cached_property
    def c_pinv(self) -> np.ndarray:
        rows = self.coimage_basis
        return rows @ ((self.jac @ rows).swapaxes(-1, -2)
                       / self.singular_values[..., :self.rank, None] ** 2)

    def derivative(self, u: np.ndarray) -> np.ndarray:
        """dK[u]: the derivative of the kernel projector along each u."""
        u = np.asarray(u, dtype=float)
        x = self.x
        dp = core.projector_derivative(self.f.source, x, u)
        p, jac, pinv, rows = (per_point(a, x, u.ndim - x.ndim) for a in (   # against u
            self.source_projector, self.jac, self.c_pinv, self.coimage_basis))
        dc = self.f.jac_derivative(x, u) @ p   # dJ[u] is not held past this product
        dc += jac @ dp
        t = pinv @ dc
        del dc
        t -= (t @ rows) @ rows.swapaxes(-1, -2)   # T (I - C^+ C)
        t_sym = t + t.swapaxes(-1, -2)
        del t
        return np.subtract(dp, t_sym, out=t_sym)

    def kernel_derivative(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """dK[u] W on the kernel columns W (n, k), (b, n, k) at a block, for
        each tangent u of a stack (..., n): as P dP P = 0, C W = 0 and
        (C^+)^T W = 0, dK[u] W = II(u, W) - C^+ (dJ[u] W + J II(u, W)), from
        the second fundamental form II of the source, with no (n, n) array."""
        u = np.asarray(u, dtype=float)
        x = self.x
        jac, pinv, w = (per_point(a, x, u.ndim - x.ndim) for a in (self.jac, self.c_pinv, w))
        ii = core.tangent_second_fundamental_form(self.f.source, x, u, w)
        dc = self.f.jac_derivative(x, u) @ w
        dc += jac @ ii
        return ii - pinv @ dc


def kernel_splitting(f: SmoothMapBetweenManifolds, x: np.ndarray) -> KernelFrame:
    """The kernel frame of df at a checked point x, at the detected rank; a
    block whose points differ in rank raises `SingularConfigurationError`."""
    return KernelFrame(f, core.check_point(f.source, x))


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------

def d2f(f: SmoothMapBetweenManifolds, x: np.ndarray, X: np.ndarray, Xp: np.ndarray,
        ops: Optional[GraphOperators] = None) -> np.ndarray:
    """Second derivative tensor of f on tangent X, Xp: the target covariant
    derivative of the field df(Xp) along X minus df of the source covariant
    derivative.

    Xp is extended canonically, y -> P_M(y) Xp, whose derivative along X is
    II_M(X, Xp) (`core.tangent_second_fundamental_form`), normal to M, so
    d2f(X, Xp) = P_N (dJ[X] Xp + J II_M(X, Xp)), symmetric in (X, Xp). X and
    Xp are stacks (..., m) that broadcast, one value (..., n) per pair:
    d2f(f, x, K.T[:, None], K.T[None]) is the tensor d2f(K_i, K_j) on the
    columns of K, from one stacked derivative of each kind. At a block x
    (b, m), X and Xp carry the point axis first. Given the operators of f at
    x, their J and P_N serve.
    """
    if ops is None:
        ops = GraphOperators(f, x)
        x = ops.x
    X = np.asarray(X, dtype=float)
    xp = np.asarray(Xp, dtype=float)[..., None]   # one column per pair
    axes = max(X.ndim, xp.ndim - 1) - x.ndim
    p_n, jac = (per_point(a, x, axes) for a in (ops.p_n, ops.jac))
    ii = core.tangent_second_fundamental_form(f.source, x, X, xp)
    dc = f.jac_derivative(x, X) @ xp
    dc += jac @ ii
    return (p_n @ dc)[..., 0]
