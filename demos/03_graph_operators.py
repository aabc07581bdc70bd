"""Operators attached to the graph of a map between manifolds.

For f: M -> N the product T(M x N) splits into tangents and normals of the
graph {(x, f(x))}. The splitting, its inverse (an explicit 2x2 block
formula), the orthogonal projection onto the normal space, and the second
derivative tensor d2f are the building blocks of everything downstream.
"""

import numpy as np

from submersion_lab import core, geometries
from submersion_lab.graph import (GraphOperators, d2f, graph_manifold,
                                  graph_second_fundamental_form)

rng = np.random.default_rng(2)

s2 = geometries.sphere(2)

# a generic analytic self-map of the sphere: push along an axis, renormalize
f = geometries.perturbation_diffeo(s2, 0.4, np.array([0.0, 0.0, 1.0]))
x = s2.random_point(rng)
ops = GraphOperators(f, x)

print("df in ambient coordinates:\n", ops.c)

# the splitting round-trips to machine precision
v = core.random_tangent(s2, x, rng)
w = core.random_tangent(s2, f(x), rng)
tangent_part, normal_part = ops.xi_inverse(v, w)
rv, rw = ops.xi(tangent_part, normal_part)
print("splitting round trip error:",
      max(np.linalg.norm(rv - v), np.linalg.norm(rw - w)))

# normal projection annihilates graph tangents ...
pv, pw = ops.normal_projection(v, ops.c @ v)
print("projection of a graph tangent:", np.linalg.norm(np.concatenate([pv, pw])))

# ... and agrees with brute-force Gram-Schmidt projection
basis = core.tangent_basis(s2, x)
cols = np.vstack([basis, f.jac(x) @ basis])
q, _ = np.linalg.qr(cols)
stacked = np.concatenate([v, w])
oracle = stacked - q @ (q.T @ stacked)
pv, pw = ops.normal_projection(v, w)
print("vs Gram-Schmidt oracle:",
      np.linalg.norm(np.concatenate([pv, pw]) - oracle))

# d2f is symmetric and extension-independent
X = core.random_tangent(s2, x, rng)
Y = core.random_tangent(s2, x, rng)
print("d2f symmetry:", np.linalg.norm(d2f(f, x, X, Y) - d2f(f, x, Y, X)))

# the graph's second fundamental form has a closed form through d2f, and it
# matches the direct flat-ambient computation on the embedded graph
gm = graph_manifold(f)
z = np.concatenate([x, f(x)])
xt = np.concatenate([X, f.jac(x) @ X])
direct = core.second_fundamental_form(gm, z, xt, xt)
p_prod = np.zeros((6, 6))
p_prod[:3, :3] = s2.projector_field(x)
p_prod[3:, 3:] = s2.projector_field(f(x))
formula = graph_second_fundamental_form(f, x, X, X)
print("graph II, formula vs direct:", np.linalg.norm(formula - p_prod @ direct))

# geodesic k-folds: polynomial in the ambient coordinates, smooth at poles
rho2 = geometries.geodesic_k_fold(s2, 2)
print("two-fold of the pole:", rho2(np.array([1.0, 0, 0])))
print("two-fold of an equator point:", rho2(np.array([0.0, 1.0, 0])))
