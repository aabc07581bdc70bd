import pathlib
import re

import numpy as np
import pytest

from submersion_lab import algebra, core, geometries, graph
from submersion_lab.core import EmbeddedManifold
from submersion_lab.graph import SmoothMapBetweenManifolds
from submersion_lab.numerics import DEFAULT_FD_STEP, central_difference, constant_field, rng_blocks
from submersion_lab.submersion import RiemannianSubmersionBundle, splitting


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_python_blocks() -> list:
    """The source of each fenced python block of README.md."""
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


@pytest.fixture(scope="session")
def s2():
    return geometries.sphere(2)


@pytest.fixture(scope="session")
def s3():
    return geometries.sphere(3)


@pytest.fixture(scope="session")
def hopf_complex():
    return geometries.hopf_fibration("complex")


@pytest.fixture(scope="session")
def hopf_quaternionic():
    return geometries.hopf_fibration("quaternionic")


@pytest.fixture(scope="session")
def hopf_octonionic():
    return geometries.hopf_fibration("octonionic")


@pytest.fixture(scope="session")
def trivial_bundle_spheres():
    return geometries.trivial_bundle(geometries.sphere(2, 1.0),
                                     geometries.sphere(1, 1.0))


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def draw_point(manifold, rng):
    """The manifold's sampled point of rng's next standard normals."""
    return manifold.random_point(rng.standard_normal(manifold.ambient_dim))


def draw_block(manifold, seed, n):
    """n sampled points of the manifold, from n rows of standard normals of the seed."""
    return manifold.random_point(rng_for(seed).standard_normal((n, manifold.ambient_dim)))


def loop_rows(seed, n, width):
    """The n rows of normals that a sampled loop of the seed reads, `width` to a point."""
    return np.concatenate(list(rng_blocks(seed, n, width)))


def kernel_frames_built(monkeypatch) -> list:
    """The map of each kernel frame that the `graph.KernelFrame` constructor
    builds from now on, in order."""
    built = []
    original = graph.KernelFrame.__init__

    def counted(self, f, *args, **kwargs):
        built.append(f)
        original(self, f, *args, **kwargs)

    monkeypatch.setattr(graph.KernelFrame, "__init__", counted)
    return built


def draw_tangent(manifold, x, rng):
    """A random unit tangent at x, or at each point of a block x, from rng's
    next standard normals."""
    return core.random_tangent(manifold, x, rng.standard_normal(np.shape(x)))


def extend_tangent(manifold, v):
    """Canonical smooth extension of an ambient vector: y -> P(y) v."""
    v = np.asarray(v, dtype=float)
    return lambda y: manifold.projector_field(y) @ v


def fiber_second_fundamental_form(bundle, p, U, Up, h=DEFAULT_FD_STEP):
    """The finite-difference oracle of `submersion.totally_geodesic_fibers_check`:
    the second fundamental form of the fiber through p inside the total space,
    the horizontal part of a central difference, along U, of the vertical
    extension q -> V(q) Up."""
    sp = splitting(bundle, p)
    up_amb = np.asarray(Up, dtype=float)

    def vertical_extension(q):
        return splitting(bundle, q).projector @ up_amb

    deriv = central_difference(
        lambda t: vertical_extension(bundle.total.retraction(p, t * np.asarray(U, float))), h)
    return sp.coimage_basis @ sp.coimage_basis.T @ deriv


def hopf_fiber_action(p, z):
    """Right unit-scalar action (a, b) -> (az, bz) on a complex or
    quaternionic Hopf total space."""
    k = len(p) // 2
    return np.concatenate([algebra.multiply(p[:k], z), algebra.multiply(p[k:], z)])


def hopf_fiber_section(flavor: str, n: np.ndarray) -> np.ndarray:
    """A point in the fiber of the Hopf bundle over n, continuous away from
    the pole s = +1/2.

    Primary chart takes b real positive; the fallback chart (a real) only
    engages when the primary one degenerates.
    """
    k = geometries.HOPF_FLAVORS[flavor]
    n = np.asarray(n, dtype=float)
    w, ra2, rb2 = n[:k], max(0.5 + n[k], 0.0), max(0.5 - n[k], 0.0)
    if rb2 >= 1e-12:
        rb = np.sqrt(rb2)
        b = rb * np.eye(k)[0]
        a = w / rb
    else:
        ra = np.sqrt(ra2)
        a = ra * np.eye(k)[0]
        b = algebra.conj(w) / ra
    return np.concatenate([a, b])


def scaled_fiber_section(alpha: float, n: np.ndarray) -> np.ndarray:
    """A point in the fiber of `scaled_fiber_bundle(alpha)` over n."""
    return np.concatenate([n, [1.0 + alpha * n[0], 0.0]])


def linear_sphere_map(source, target, matrix):
    """x -> r_target * (L x)/|L x|: a generic analytic map between spheres."""
    matrix = np.asarray(matrix, dtype=float)
    r = float(np.linalg.norm(target.retraction(
        np.eye(target.ambient_dim)[0], np.zeros(target.ambient_dim))))

    def ambient_map(x):
        u = x @ matrix.T
        return r * u / np.linalg.norm(u, axis=-1, keepdims=True)

    def jacobian(x):
        u = x @ matrix.T
        nu = np.linalg.norm(u, axis=-1, keepdims=True)
        uhat = u / nu
        return ((r / nu)[..., None] * (np.eye(target.ambient_dim)
                                       - uhat[..., :, None] * uhat[..., None, :]) @ matrix)

    return SmoothMapBetweenManifolds(source=source, target=target,
                                     ambient_map=ambient_map, jacobian=jacobian,
                                     name="linear_sphere_map")


def scaled_fiber_bundle(alpha: float = 0.5) -> RiemannianSubmersionBundle:
    """Fixture circle bundle over the circle whose fiber radius 1 + alpha*n1
    depends on the base point; its fibers are deliberately not totally
    geodesic for alpha > 0, so geodesy checks must flag it."""
    base = geometries.sphere(1, 1.0)

    def rho(n: np.ndarray) -> np.ndarray:
        return 1.0 + alpha * n[..., 0]

    def unit(v: np.ndarray) -> np.ndarray:
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def projector(z: np.ndarray) -> np.ndarray:
        n, vhat = unit(z[..., :2]), unit(z[..., 2:])
        rho_prime = -alpha * n[..., 1]
        zero = np.zeros_like(rho_prime)
        t1 = unit(np.stack([-n[..., 1], n[..., 0], rho_prime * vhat[..., 0],
                            rho_prime * vhat[..., 1]], axis=-1))
        t2 = np.stack([zero, zero, -vhat[..., 1], vhat[..., 0]], axis=-1)
        return t1[..., :, None] * t1[..., None, :] + t2[..., :, None] * t2[..., None, :]

    def retraction(z: np.ndarray, w: np.ndarray) -> np.ndarray:
        n_new = unit(z[..., :2] + w[..., :2])
        v_new = rho(n_new)[..., None] * unit(z[..., 2:] + w[..., 2:])
        return np.concatenate([n_new, v_new], axis=-1)

    def sampler(z: np.ndarray) -> np.ndarray:
        n = unit(z[..., :2])   # uniform on the circles, as normalised normals
        return np.concatenate([n, rho(n)[..., None] * unit(z[..., 2:])], axis=-1)

    total = EmbeddedManifold(
        ambient_dim=4, intrinsic_dim=2,
        projector_field=projector, retraction=retraction,
        sampler=sampler, name=f"scaled_fiber({alpha:g})")

    jac_mat = np.zeros((2, 4))
    jac_mat[:, :2] = np.eye(2)
    projection = SmoothMapBetweenManifolds(
        source=total, target=base,
        ambient_map=lambda z: z[..., :2].copy(),
        jacobian=constant_field(jac_mat),
        jacobian_derivative=lambda z, u: np.zeros(np.shape(u)[:-1] + jac_mat.shape),
        name="scaled_fiber_projection")

    def fiber_projector(p_tilde: np.ndarray, n: np.ndarray) -> np.ndarray:
        return np.concatenate([n, rho(n)[..., None] * unit(p_tilde[..., 2:])], axis=-1)

    return RiemannianSubmersionBundle(
        total=total, base=base, projection=projection, fiber_dim=1,
        fiber_projector=fiber_projector,
        fiber_sampler=lambda n, z: fiber_projector(np.concatenate([n, z[..., 2:]], axis=-1), n),
        name=f"scaled_fiber({alpha:g})")
