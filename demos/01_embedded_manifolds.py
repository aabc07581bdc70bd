"""Embedded manifolds from projector fields: derivatives and curvature.

Every manifold here is a subset of flat space described by two callables:
an orthogonal projector onto the tangent space at each point, and a
retraction that steps along the manifold. That is enough to differentiate
vector fields, read off second fundamental forms, and assemble the full
curvature tensor from first derivatives of the projector alone.
"""

import dataclasses

import numpy as np

from submersion_lab import core, geometries

rng = np.random.default_rng(0)

# -- a round 2-sphere ---------------------------------------------------------

s2 = geometries.sphere(2)
x = s2.random_point(rng.standard_normal(s2.ambient_dim))   # normalised normals: uniform
print("point on S2:", x, " |x| =", np.linalg.norm(x))

P = core.tangent_projector(s2, x)
print("projector rank:", int(round(np.trace(P))))

# tangent vectors are just ambient vectors annihilated by I - P
X = core.random_tangent(s2, x, rng.standard_normal(s2.ambient_dim))
Y = core.random_tangent(s2, x, rng.standard_normal(s2.ambient_dim))

# -- covariant derivative = project the ambient derivative --------------------

# the velocity field of the equator is parallel along itself (a geodesic):
velocity = lambda y: np.array([-y[1], y[0], 0.0])
eq = np.array([1.0, 0.0, 0.0])
nabla = core.covariant_derivative(s2, velocity, eq, velocity(eq))
print("geodesic acceleration of the equator:", np.linalg.norm(nabla))

# -- second fundamental form and curvature ------------------------------------

ii = core.second_fundamental_form(s2, x, X, X)
print("II(X,X) + x |X|^2 =", np.linalg.norm(ii + x * (X @ X)), "(sphere shape operator)")

print("sec(S2) =", core.sectional_curvature(s2, x, X, Y))
print("sec(S2(r=2)) =", core.sectional_curvature(
    geometries.sphere(2, 2.0), 2 * x, X, Y), "(expect 1/4)")

# without the closed-form projector derivative and second fundamental form
# the same number emerges from finite differences of the projector field
# along retraction curves:
s2_fd = dataclasses.replace(s2, analytic_projector_derivative=None,
                            analytic_second_fundamental_form=None)
print("sec via fd projector:", core.sectional_curvature(s2_fd, x, X, Y))

# -- products are flat in mixed planes ----------------------------------------

circle = geometries.sphere(1)
torus = geometries.product_manifold(circle, circle)
z = torus.random_point(rng.standard_normal(torus.ambient_dim))   # the product splits the normals
u = np.concatenate([core.random_tangent(circle, z[:2], rng.standard_normal(2)), [0, 0]])
v = np.concatenate([[0, 0], core.random_tangent(circle, z[2:], rng.standard_normal(2))])
print("sec of a mixed torus plane:", core.sectional_curvature(torus, z, u, v))

# -- curvature tensor symmetries ----------------------------------------------

s3 = geometries.sphere(3)
p3 = s3.random_point(rng.standard_normal(s3.ambient_dim))
vecs = [core.random_tangent(s3, p3, rng.standard_normal(s3.ambient_dim)) for _ in range(4)]
a, b, c, d = vecs
print("antisymmetry check:",
      core.riemann(s3, p3, a, b, c, d) + core.riemann(s3, p3, b, a, c, d))
print("first Bianchi sum:",
      core.riemann(s3, p3, a, b, c, d)
      + core.riemann(s3, p3, a, c, d, b)
      + core.riemann(s3, p3, a, d, b, c))
