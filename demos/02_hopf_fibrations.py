"""The three Hopf fibrations as Riemannian submersions.

One Cayley-Dickson multiplication drives all three: the unit sphere of
pairs (a, b) over the complex numbers, quaternions, or octonions projects
to (a conj(b), (|a|^2 - |b|^2)/2) on a radius-1/2 sphere. The splitting into
vertical and horizontal spaces, horizontal lifts, and the integrability
tensor A all come out numerically, and the classical facts drop out:
vertizontal curvature 1, fatness, totally geodesic fibers.
"""

import dataclasses

import numpy as np

from submersion_lab import core, geometries, graph, submersion

rng = np.random.default_rng(1)

for flavor in ("complex", "quaternionic", "octonionic"):
    bundle = geometries.hopf_fibration(flavor)
    p = bundle.total.random_point(rng.standard_normal(bundle.total.ambient_dim))
    n = bundle.projection(p)
    # the splitting is the kernel frame of dpi: vertical kernel, horizontal coimage
    sp = submersion.splitting(bundle, p)
    print(f"--- {flavor}: S{bundle.total.intrinsic_dim} -> "
          f"S{bundle.base.intrinsic_dim}(1/2), fiber dim {bundle.fiber_dim}")
    print("    |pi(p)| =", np.linalg.norm(n))
    print("    vertical/horizontal dims:",
          sp.kernel_basis.shape[1], "/", sp.coimage_basis.shape[1])

    # horizontal lifts preserve norms: the submersion is Riemannian
    w = core.random_tangent(bundle.base, n, rng.standard_normal(bundle.base.ambient_dim))
    lift = submersion.horizontal_lift(sp, w)
    print("    |lift(w)| / |w| =", np.linalg.norm(lift) / np.linalg.norm(w))

    # vertizontal curvature through the A-tensor equals the round value 1
    x = sp.coimage_basis[:, 0]
    u = sp.kernel_basis[:, 0]
    print("    sec(X, U) via A-dual:", submersion.vertizontal_sec(bundle, p, x, u))
    print("    sec(X, U) intrinsic: ",
          core.sectional_curvature(bundle.total, p, x, u))

    # fibers are totally geodesic
    print("    max fiber II:",
          submersion.totally_geodesic_fibers_check(bundle, samples=3, seed=0))

# fatness: A_X surjective onto the vertical space for every horizontal X
hopf = geometries.hopf_fibration("complex")
rep = submersion.fatness(hopf, sample_count=50, seed=0)
print("complex Hopf fatness: min sigma =", rep.min_sigma, "fat:", rep.is_fat)

trivial = geometries.trivial_bundle(geometries.sphere(2), geometries.sphere(1))
rep0 = submersion.fatness(trivial, sample_count=20, seed=0)
print("trivial product fatness: min sigma =", rep0.min_sigma, "fat:", rep0.is_fat)

# a negative control: after a perturbation of the total space the fibers of
# the projection are no longer great circles, and the check flags them
phi = geometries.perturbation_diffeo(hopf.total, 0.3, np.eye(4)[0])
broken = dataclasses.replace(hopf, projection=graph.compose(hopf.projection, phi))
print("perturbed projection, max fiber II:",
      submersion.totally_geodesic_fibers_check(broken, samples=20, seed=0))
