"""Operators attached to the graph of a map between embedded manifolds.

For f: M -> N the graph {(x, f(x))} sits inside the product ambient space.
This module materializes df and its metric dual as ambient matrices, the
block isomorphism splitting T(MxN) into graph-tangent and graph-normal
parts, the normal projection, the tensorial second derivative d2f, the
kernel frame of df, and the graph's second fundamental form.

A map carries its ambient Jacobian J and, optionally, the derivative dJ[u]
of that Jacobian along a direction u; every built-in map has both in closed
form, taking a stack of directions: U of shape (..., n) gives (..., m, n).
`d2f` is one closed formula in dJ and the derivative of the source
projector, with no finite difference of its own. A map without a closed
form falls back to central differences at its own `fd_step`, of the map
for J and of J, per direction, for dJ.

`KernelFrame` is the one place that decides the kernel of a differential:
one SVD of C = J P under one rank rule gives the rank, the kernel and
coimage bases and the closed-form derivative of the kernel projector
P - C^+ C. The package reads three kernels from it: the tangent space of a
pull-back f*P, the vertical space of a submersion (`submersion.splitting`)
and the tangent space of a level set of f (`kernel_splitting`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import core
from .core import EmbeddedManifold, GeometryError, SingularConfigurationError
from .numerics import (DEFAULT_FD_STEP, KERNEL_RTOL, central_difference, nullspace_basis,
                       orthonormal_basis, over_stack)


@dataclass(frozen=True)
class SmoothMapBetweenManifolds:
    """A map M -> N given on ambient coordinates, with Jacobian access.

    `jacobian`, when given, is the analytic ambient derivative; otherwise
    the Jacobian is assembled by central differences along source retraction
    curves, composed with the target tangent projection.
    `jacobian_derivative(x, U)`, when given, is the analytic derivative of
    that Jacobian along each direction of the stack U, (..., n) -> (..., m,
    n); otherwise `jac_derivative` takes a central difference of `jac` along
    each source retraction curve. `fd_step` is the step of both fallbacks.
    """

    source: EmbeddedManifold
    target: EmbeddedManifold
    ambient_map: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jacobian_derivative: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "map"
    fd_step: float = DEFAULT_FD_STEP

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.ambient_map(np.asarray(x, dtype=float))

    def jac(self, x: np.ndarray) -> np.ndarray:
        """Ambient Jacobian matrix at x (maps tangent vectors to tangent vectors)."""
        x = np.asarray(x, dtype=float)
        if self.jacobian is not None:
            return self.jacobian(x)
        basis = core.tangent_basis(self.source, x)
        cols = np.column_stack([
            central_difference(
                lambda t, b=basis[:, j]: self.ambient_map(self.source.retraction(x, t * b)),
                self.fd_step)
            for j in range(basis.shape[1])
        ])
        p_target = self.target.projector_field(self.ambient_map(x))
        return p_target @ cols @ basis.T

    def jac_derivative(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """dJ[u] at x along each tangent of the stack u (..., n): (..., m, n)."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        shape = (self.target.ambient_dim, self.source.ambient_dim)
        if self.jacobian_derivative is None:
            return over_stack(lambda v: central_difference(
                lambda t: self.jac(self.source.retraction(x, t * v)), self.fd_step), u, shape)
        return core.call_on_stack(self.jacobian_derivative, x, u, shape,
                                  f"jacobian_derivative of {self.name}")


def identity_map(manifold: EmbeddedManifold) -> SmoothMapBetweenManifolds:
    d = manifold.ambient_dim
    return SmoothMapBetweenManifolds(
        source=manifold, target=manifold,
        ambient_map=lambda x: np.asarray(x, dtype=float),
        jacobian=lambda x: np.eye(d),
        jacobian_derivative=lambda x, u: np.zeros(np.shape(u)[:-1] + (d, d)),
        name=f"id_{manifold.name}")


def constant_map(source: EmbeddedManifold, target: EmbeddedManifold,
                 value: np.ndarray) -> SmoothMapBetweenManifolds:
    value = np.asarray(value, dtype=float)
    core.check_point(target, value)
    return SmoothMapBetweenManifolds(
        source=source, target=target,
        ambient_map=lambda x: value.copy(),
        jacobian=lambda x: np.zeros((target.ambient_dim, source.ambient_dim)),
        jacobian_derivative=lambda x, u: np.zeros(
            np.shape(u)[:-1] + (target.ambient_dim, source.ambient_dim)),
        name=f"const_{target.name}")


def compose(outer: SmoothMapBetweenManifolds,
            inner: SmoothMapBetweenManifolds) -> SmoothMapBetweenManifolds:
    """Composition outer(inner(.)) with chain-rule Jacobian and Jacobian
    derivative dJ[u] = dJ_o[J_i u] J_i + J_o dJ_i[u], one J_i, J_o per stack u."""
    if inner.target.ambient_dim != outer.source.ambient_dim:
        raise GeometryError(
            f"cannot compose {outer.name} with {inner.name}: "
            f"ambient dims {inner.target.ambient_dim} vs {outer.source.ambient_dim}")

    def jacobian_derivative(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        y = inner.ambient_map(x)
        j_i = inner.jac(x)
        return (outer.jac_derivative(y, u @ j_i.T) @ j_i
                + outer.jac(y) @ inner.jac_derivative(x, u))

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
    """

    def __init__(self, f: SmoothMapBetweenManifolds, x: np.ndarray):
        x = core.check_point(f.source, x)
        self.f = f
        self.x = x
        self.fx = f(x)
        self.p_m = f.source.projector_field(x)
        self.p_n = f.target.projector_field(self.fx)
        self.c = self.p_n @ f.jac(x) @ self.p_m
        self._one_plus_cct = np.eye(len(self.fx)) + self.c @ self.c.T

    def apply_o(self, w: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self._one_plus_cct, self.p_n @ w)

    def xi_n(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Isomorphism from T_{f(x)}N onto the graph normal space."""
        return -self.c.T @ w, w

    def xi(self, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Assemble (v, w) -> dF(v) + xi_n(w) in T(MxN)."""
        a, b = self.xi_n(w)
        return v + a, self.c @ v + b

    def xi_inverse(self, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split (v, w) in T(MxN) into graph-tangent and fiberwise-normal parts.

        Block solve with (1 + df^T df) and (1 + df df^T); round-tripping
        through xi reproduces the input.
        """
        s_v = np.linalg.solve(np.eye(len(self.x)) + self.c.T @ self.c, self.p_m @ v)
        o_w = np.linalg.solve(self._one_plus_cct, self.p_n @ w)
        return s_v + self.c.T @ o_w, -self.c @ s_v + o_w

    def normal_projection(self, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Orthogonal projection of (v, w) onto the graph normal space."""
        o_resid = np.linalg.solve(self._one_plus_cct, self.p_n @ w - self.c @ v)
        return -self.c.T @ o_resid, o_resid


class KernelFrame:
    """The kernel of df inside T_xM, its orthogonal complement, the rank of
    df, and the derivative of the kernel projector in closed form.

    One SVD of C = J P (J = f.jac(x), P the projector of f.source), through
    `nullspace_basis`, decides all of it under one rank rule: with rank=None
    the rank is the number of singular values above KERNEL_RTOL * s[0]; a
    given rank that C loses to within KERNEL_RTOL relative raises
    `SingularConfigurationError`. `coimage_basis` holds the leading right
    singular vectors R of C, `singular_values` the first dim M singular
    values, and `is_regular` says whether df is onto. The rows of C lie in
    range(P), so the kernel projector is K = P - C^+ C, C^+ = R S^-2 (J R)^T.
    Along a tangent u, where C keeps its rank (Absil-Mahony-Trumpf, "An
    extrinsic look at the Riemannian Hessian", 2013),
        dK[u] = dP[u] - (T + T^T),  T = C^+ dC[u] (I - C^+ C),
        dC[u] = dJ[u] P + J dP[u], for each u of a stack (..., n).
    `projector`, `kernel_basis` (one eigh of `projector`), C^+ and `normal`
    are built on first read, so a caller pays only for what it uses.
    """

    def __init__(self, f: SmoothMapBetweenManifolds, x: np.ndarray,
                 rank: Optional[int] = None):
        self.f = f
        self.x = np.asarray(x, dtype=float)
        self.source_projector = f.source.projector_field(self.x)
        self.jac = f.jac(self.x)
        nullity = None if rank is None else len(self.x) - rank
        _, rows, s = nullspace_basis(self.jac @ self.source_projector, nullity)
        if rank is not None and rank > 0 and (
                len(s) < rank or s[0] <= 0 or s[rank - 1] <= KERNEL_RTOL * s[0]):
            raise SingularConfigurationError(
                f"differential of {f.name} is numerically singular at rank {rank} "
                f"(singular values {s[:rank]})")
        self.rank = rows.shape[1]
        self.coimage_basis = rows
        self.singular_values = s[:f.source.intrinsic_dim]
        self.is_regular = self.rank == f.target.intrinsic_dim

    @cached_property
    def projector(self) -> np.ndarray:
        return self.source_projector - self.coimage_basis @ self.coimage_basis.T

    @cached_property
    def kernel_basis(self) -> np.ndarray:
        """Orthonormal basis (columns) of the kernel of df in T_xM."""
        return orthonormal_basis(self.projector, dim=self.f.source.intrinsic_dim - self.rank)

    @cached_property
    def c_pinv(self) -> np.ndarray:
        rows = self.coimage_basis
        return rows @ ((self.jac @ rows).T / self.singular_values[:self.rank, None] ** 2)

    @cached_property
    def normal(self) -> np.ndarray:
        return np.eye(len(self.x)) - self.projector

    def derivative(self, u: np.ndarray) -> np.ndarray:
        """dK[u]: the derivative of the kernel projector along each u."""
        u = np.asarray(u, dtype=float)
        dp = core.projector_derivative(self.f.source, self.x, u)
        dc = self.f.jac_derivative(self.x, u) @ self.source_projector + self.jac @ dp
        t = self.c_pinv @ dc
        t -= (t @ self.coimage_basis) @ self.coimage_basis.T   # T (I - C^+ C)
        return dp - (t + t.swapaxes(-1, -2))


def kernel_splitting(f: SmoothMapBetweenManifolds, x: np.ndarray) -> KernelFrame:
    """The kernel frame of df at a checked point x, at the detected rank."""
    return KernelFrame(f, core.check_point(f.source, x))


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------

def d2f(f: SmoothMapBetweenManifolds, x: np.ndarray,
        X: np.ndarray, Xp: np.ndarray) -> np.ndarray:
    """Second derivative tensor of f: the target covariant derivative of the
    field df(Xp) along X minus df of the source covariant derivative.

    Xp is extended canonically, y -> P_M(y) Xp, so the first term is
    P_N (dJ[X] P_M + J dP_M[X]) Xp and the second J P_M dP_M[X] Xp, which
    vanishes for tangent Xp. Both are closed forms in the Jacobian
    derivative and the source projector derivative, and the result is
    symmetric in (X, Xp). X and Xp are stacks (..., m) that broadcast, one
    value (..., n) per pair: d2f(f, x, K.T[:, None], K.T[None]) is the tensor
    d2f(K_i, K_j) on the columns of K, from one stacked derivative of each kind.
    """
    x = core.check_point(f.source, x)
    m = f.source
    X = np.asarray(X, dtype=float)
    xp_amb = np.asarray(Xp, dtype=float)
    p_n = f.target.projector_field(f(x))
    jac = f.jac(x)
    p_m = m.projector_field(x)
    dp_xp = (core.projector_derivative(m, x, X) @ xp_amb[..., None])[..., 0]
    dj_xp = (f.jac_derivative(x, X) @ (xp_amb @ p_m.T)[..., None])[..., 0]
    return (dj_xp + dp_xp @ jac.T) @ p_n.T - (dp_xp @ p_m.T) @ jac.T


def graph_second_fundamental_form(f: SmoothMapBetweenManifolds, x: np.ndarray,
                                  X: np.ndarray, Xp: np.ndarray) -> np.ndarray:
    """Second fundamental form of the graph, as one ambient product vector."""
    ops = GraphOperators(f, x)
    w = ops.apply_o(d2f(f, x, X, Xp))
    a, b = ops.xi_n(w)
    return np.concatenate([a, b])


def graph_manifold(f: SmoothMapBetweenManifolds) -> EmbeddedManifold:
    """The graph of f as an embedded manifold of the product ambient space."""
    m, n = f.source, f.target
    d_m, d_n = m.ambient_dim, n.ambient_dim

    def projector(z: np.ndarray) -> np.ndarray:
        x = z[:d_m]
        basis = core.tangent_basis(m, x)
        jac = f.jac(x)
        cols = np.vstack([basis, jac @ basis])
        q, _ = np.linalg.qr(cols)
        return q @ q.T

    def retraction(z: np.ndarray, v: np.ndarray) -> np.ndarray:
        x1 = m.retraction(z[:d_m], v[:d_m])
        return np.concatenate([x1, f(x1)])

    sampler = None
    if m.sampler is not None:
        def sampler(rng: np.random.Generator) -> np.ndarray:
            x = m.sampler(rng)
            return np.concatenate([x, f(x)])

    return EmbeddedManifold(
        ambient_dim=d_m + d_n,
        intrinsic_dim=m.intrinsic_dim,
        projector_field=projector,
        retraction=retraction,
        sampler=sampler,
        name=f"graph({f.name})")
