"""Pull-back bundles as embedded manifolds, and their curvature two ways.

f*P = {(x, p) : f(x) = pi(p)} carries the metric induced from the product.
Its tangent spaces solve a linear constraint, its retraction lands exactly
back on the constraint set through closed-form fiber projection, and its
second fundamental form has a formula through the graph operators of f plus
a correction term built from the A-tensor of pi. Curvature can then be
computed either directly (flat-ambient Gauss identity on f*P) or through
the expansion in factor curvatures and O-weighted d2f + Lambda products;
the two paths cross-validate each other.
"""

import numpy as np

from submersion_lab import core, geometries
from submersion_lab.pullback import (PointData, PullbackBundle, lambda_term,
                                     pullback_curvature, pullback_curvature_expansion,
                                     pullback_second_fundamental_form,
                                     pullback_second_fundamental_form_direct,
                                     pullback_submersion_check,
                                     reduce_connection_metric)

rng = np.random.default_rng(3)

hopf = geometries.hopf_fibration("complex")
pb = PullbackBundle(hopf.projection, hopf)
print("pull-back of the Hopf bundle along itself:",
      pb.total_manifold.name, "dim", pb.intrinsic_dim,
      "in R^", pb.total_manifold.ambient_dim)

z = pb.total_manifold.random_point(rng.standard_normal(pb.total_manifold.ambient_dim))
x, p = pb.split_point(z)
print("constraint residual |f(x) - pi(p)|:", pb.constraint_residual(x, p))

# the retraction keeps the constraint exact, so finite differences are clean
v = core.random_tangent(pb.total_manifold, z, rng.standard_normal(pb.total_manifold.ambient_dim))
z2 = pb.total_manifold.retraction(z, 0.01 * v)
print("after a retraction step:", pb.constraint_residual(*pb.split_point(z2)))

# (id x pi) restricts to a Riemannian submersion onto the graph of f and is
# an isometry between the normal spaces: the worst of each defect over a
# block of 25 points
zs = pb.total_manifold.random_point(rng.standard_normal((25, pb.total_manifold.ambient_dim)))
horizontal, isometry, alignment = pullback_submersion_check(pb, zs)
print("submersion-onto-graph defects: horizontal norm", horizontal.max(),
      " normal isometry", isometry.max(), " normal alignment", alignment.max())

# the fiber scale epsilon is admissible while 1 - eps df df^T stays definite
reduced = reduce_connection_metric(hopf.projection, epsilon=0.1, samples=10, seed=0)
print("reduced metric: min eigenvalue", reduced.min_eigenvalue,
      "admissible epsilon <", reduced.max_admissible_epsilon)

# second fundamental form: formula vs direct ambient computation; the
# formula reads the splitting, graph operators and A tensor at (x, p) from
# one PointData, the direct path computes its own
pt = PointData(pb, x, p)
basis = pb.tangent_basis(x, p)
xt, xtp = basis[:, 0], basis[:, 2]
formula = pullback_second_fundamental_form(pt, xt, xtp)
direct = pullback_second_fundamental_form_direct(pb, x, p, xt, xtp)
print("II formula vs direct:", np.linalg.norm(formula - direct))

# the mixed correction term vanishes on pure pairs and is symmetric
sp = pt.split
y_h = sp.coimage_basis[:, 0]
u_v = sp.kernel_basis[:, 0]
print("Lambda(horizontal, horizontal):",
      np.linalg.norm(lambda_term(pt, y_h, sp.coimage_basis[:, 1])))
print("Lambda(horizontal, vertical) norm:",
      np.linalg.norm(lambda_term(pt, y_h, u_v)), "(unit for the Hopf bundle)")

# curvature along both evaluation paths
args = [basis[:, i] for i in (0, 1, 1, 0)]
direct_r = pullback_curvature(pb, x, p, *args)
expansion_r = pullback_curvature_expansion(pb, x, p, *args)
print("R(e0,e1,e1,e0): direct", direct_r, " expansion", expansion_r,
      " gap", abs(direct_r - expansion_r))
