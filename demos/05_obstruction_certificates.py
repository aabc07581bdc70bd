"""The curvature obstruction in action: geodesic level sets or negative planes.

If the pull-back of a fat bundle carries non-negative sectional curvature,
the regular level sets of the base map must be totally geodesic. The bench
tests the contrapositive numerically: for kernel directions X of df it
evaluates the obstruction vector A(lift(O d2f(X,X)), lift(df Z)); when the
obstruction is nonzero it assembles an explicit plane whose directly
computed sectional curvature is negative, which certifies that this
pull-back metric is not non-negatively curved.
"""

import numpy as np

from submersion_lab import geometries, obstruction
from submersion_lab.graph import KernelFrame, compose
from submersion_lab.pullback import PointData, PullbackBundle

rng = np.random.default_rng(4)
hopf = geometries.hopf_fibration("complex")

# The batched paths take a stack of kernel directions, one per row, as
# coefficients c on the kernel basis K of df (X = K c), and build their
# inputs once per point on K.

# --- positive control: the bundle projection itself --------------------------
# its level sets are the Hopf fibers, which are great circles

pure = PullbackBundle(hopf.projection, hopf)
z = pure.total_manifold.random_point(rng.standard_normal(pure.total_manifold.ambient_dim))
x, p = pure.split_point(z)
pt = PointData(pure, x, p)
c = np.ones((1, 1))                            # the one kernel direction, as a stack
op = obstruction.obstruction_operator(pt, c)
ii = obstruction.level_set_ii(pt, c)
print("pure Hopf: obstruction norm", op.norm[0],
      " level-set II", np.linalg.norm(ii[0]),
      " certificate:", obstruction.negative_plane_finder(pt, c, op)[0])

# --- negative control: compose with a non-isometric diffeomorphism -----------
# level sets become images of great circles that are no longer geodesics

phi = geometries.perturbation_diffeo(hopf.total, 0.3, np.array([1.0, 0, 0, 0]))
perturbed = PullbackBundle(compose(hopf.projection, phi), hopf)
m = perturbed.total_manifold
z = m.random_point(rng.standard_normal(m.ambient_dim))
x, p = perturbed.split_point(z)
pt = PointData(perturbed, x, p)
kd = pt.kd
c = np.array([[1.0], [-0.5], [2.0]])           # X, -X/2, 2X: three directions, one call
op = obstruction.obstruction_operator(pt, c)
ii = obstruction.level_set_ii(pt, c)
print("perturbed Hopf, directions X, -X/2, 2X:")
print("  obstruction norms", op.norm, " (quadratic in X)")
print("  level-set II norms", np.linalg.norm(ii, axis=1))
print("  vertical-plane flatness residuals", obstruction.flatness_sweep(pt, c))

# the two curvature identities behind the construction, each evaluated
# from (x, p) and one ambient direction alone
X = kd.kernel_basis[:, 0]
u = pt.split.kernel_basis[:, 0]
print("vertical-plane flatness oracle:",
      obstruction.vertizontal_flat_check(perturbed, x, p, X, u))
direct, formula = obstruction.cross_term_check(perturbed, x, p, X, u,
                                               kd.coimage_basis[:, 0])
print("cross term: direct", direct, " closed form", formula)

# one certificate search over the unit direction, as a one-row stack
[cert] = obstruction.negative_plane_finder(pt, c[:1], obstruction.obstruction_operator(pt, c[:1]))
print("certificate: t =", cert.t, " cross term =", cert.cross_term)
print("  direct sectional curvature:", cert.sec_value)
print("  expansion prediction:      ", cert.predicted_value)
print("  relative agreement:        ", cert.relative_agreement)

# --- scenario-level reports ---------------------------------------------------

rep = obstruction.theorem_report(pure, samples=40, seed=0)
print("pure scenario verdict:", rep.verdict,
      " max obstruction:", rep.max_obstruction_norm)

rep = obstruction.theorem_report(perturbed, samples=40, seed=0)
print("perturbed scenario verdict:", rep.verdict,
      " certificates:", len(rep.certificates),
      " best plane sec:", rep.best_certificate.sec_value)

# the rank of df splits a block of points, locating singular level sets,
# e.g. the equator of a two-fold
rho2 = geometries.geodesic_k_fold(geometries.sphere(2), 2)
equator = np.array([[0.0, np.cos(t), np.sin(t)] for t in np.linspace(0, 3, 4)])
frames = KernelFrame.by_rank(rho2, equator)
print("two-fold rank histogram on the equator:",
      {frame.rank: len(index) for index, frame in frames})
