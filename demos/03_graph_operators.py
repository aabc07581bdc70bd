"""Operators attached to the graph of a map between manifolds.

For f: M -> N the product T(M x N) splits into tangents and normals of the
graph {(x, f(x))}. The splitting, its inverse (an explicit 2x2 block
formula), the orthogonal projection onto the normal space, and the second
derivative tensor d2f are the building blocks of everything downstream.
"""

import numpy as np

from submersion_lab import core, geometries
from submersion_lab.graph import GraphOperators, d2f
from submersion_lab.pullback import (PointData, PullbackBundle, pullback_second_fundamental_form,
                                     pullback_second_fundamental_form_direct)

rng = np.random.default_rng(2)

s2 = geometries.sphere(2)

# a generic analytic self-map of the sphere: push along an axis, renormalize
f = geometries.perturbation_diffeo(s2, 0.4, np.array([0.0, 0.0, 1.0]))
x = s2.random_point(rng.standard_normal(s2.ambient_dim))
ops = GraphOperators(f, x)

print("df in ambient coordinates:\n", ops.c)

# the splitting round-trips to machine precision
v = core.random_tangent(s2, x, rng.standard_normal(s2.ambient_dim))
w = core.random_tangent(s2, f(x), rng.standard_normal(s2.ambient_dim))
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
X = core.random_tangent(s2, x, rng.standard_normal(s2.ambient_dim))
Y = core.random_tangent(s2, x, rng.standard_normal(s2.ambient_dim))
print("d2f symmetry:", np.linalg.norm(d2f(f, x, X, Y) - d2f(f, x, Y, X)))

# the graph {(x, f(x))} is the pull-back of S2 over itself by the identity:
# its second fundamental form has a closed form through d2f, and it matches
# the direct flat-ambient computation on the embedded graph
graph = PullbackBundle(f, geometries.identity_bundle(s2))
xt = np.concatenate([X, f.jac(x) @ X])
formula = pullback_second_fundamental_form(PointData(graph, x, f(x)), xt, xt)
direct = pullback_second_fundamental_form_direct(graph, x, f(x), xt, xt)
print("graph II, formula vs direct:", np.linalg.norm(formula - direct))

# geodesic k-folds: polynomial in the ambient coordinates, smooth at poles
rho2 = geometries.geodesic_k_fold(s2, 2)
print("two-fold of the pole:", rho2(np.array([1.0, 0, 0])))
print("two-fold of an equator point:", rho2(np.array([0.0, 1.0, 0])))
