import numpy as np
import pytest

from submersion_lab import algebra, geometries
from submersion_lab.graph import SmoothMapBetweenManifolds


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


def extend_tangent(manifold, v):
    """Canonical smooth extension of an ambient vector: y -> P(y) v."""
    v = np.asarray(v, dtype=float)
    return lambda y: manifold.projector_field(y) @ v


def hopf_fiber_action(p, z):
    """Right unit-scalar action (a, b) -> (az, bz) on a complex or
    quaternionic Hopf total space."""
    k = len(p) // 2
    return np.concatenate([algebra.multiply(p[:k], z), algebra.multiply(p[k:], z)])


def linear_sphere_map(source, target, matrix):
    """x -> r_target * (L x)/|L x|: a generic analytic map between spheres."""
    matrix = np.asarray(matrix, dtype=float)
    r = float(np.linalg.norm(target.retraction(
        np.eye(target.ambient_dim)[0], np.zeros(target.ambient_dim))))

    def ambient_map(x):
        u = matrix @ x
        return r * u / np.linalg.norm(u)

    def jacobian(x):
        u = matrix @ x
        nu = np.linalg.norm(u)
        uhat = u / nu
        return (r / nu) * (np.eye(target.ambient_dim) - np.outer(uhat, uhat)) @ matrix

    return SmoothMapBetweenManifolds(source=source, target=target,
                                     ambient_map=ambient_map, jacobian=jacobian,
                                     name="linear_sphere_map")
