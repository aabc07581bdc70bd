"""Built-in geometries: Hopf projections, geodesic folds, perturbations."""

import numpy as np
import numpy.testing as npt
import pytest

from submersion_lab import core, geometries
from submersion_lab.core import GeometryError
from submersion_lab.geometries import (geodesic_k_fold,
                                       hopf_fibration, hopf_projection,
                                       perturbation_diffeo)
from submersion_lab.graph import compose

from conftest import (draw_point, draw_tangent, hopf_fiber_action, rng_for, scaled_fiber_bundle,
                      scaled_fiber_section)


# ---------------------------------------------------------------------------
# Hopf projections
# ---------------------------------------------------------------------------

class TestHopfProjection:
    def test_complex_north_pole(self):
        npt.assert_allclose(hopf_projection("complex", np.array([1.0, 0, 0, 0])),
                            [0.0, 0.0, 0.5], atol=0)

    def test_complex_diagonal_point(self):
        p = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
        npt.assert_allclose(hopf_projection("complex", p), [0.5, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("flavor", ["complex", "quaternionic"])
    def test_fiber_action_invariance(self, flavor):
        dim = geometries.HOPF_FLAVORS[flavor]
        rng = rng_for(1)
        bundle = hopf_fibration(flavor)
        for _ in range(10):
            p = draw_point(bundle.total, rng)
            z = draw_point(geometries.sphere(dim - 1), rng)
            moved = hopf_fiber_action(p, z)
            assert abs(np.linalg.norm(moved) - 1.0) <= 1e-12
            npt.assert_allclose(hopf_projection(flavor, moved),
                                hopf_projection(flavor, p), atol=1e-12)

    @pytest.mark.parametrize("flavor", ["complex", "quaternionic", "octonionic"])
    def test_image_on_half_radius_sphere(self, flavor):
        bundle = hopf_fibration(flavor)
        rng = rng_for(3)
        for _ in range(20):
            p = draw_point(bundle.total, rng)
            assert abs(np.linalg.norm(bundle.projection(p)) - 0.5) <= 1e-12

    @pytest.mark.parametrize("flavor", ["complex", "quaternionic", "octonionic"])
    def test_jacobian_vs_fd(self, flavor):
        bundle = hopf_fibration(flavor)
        rng = rng_for(4)
        p = draw_point(bundle.total, rng)
        v = draw_tangent(bundle.total, p, rng)
        h = 1e-5
        fd = (bundle.projection(bundle.total.retraction(p, h * v))
              - bundle.projection(bundle.total.retraction(p, -h * v))) / (2 * h)
        npt.assert_allclose(bundle.projection.jac(p) @ v, fd, atol=1e-7)


# ---------------------------------------------------------------------------
# Geodesic k-folds
# ---------------------------------------------------------------------------

def angle_form(k, pole, y):
    c = np.clip(y @ pole, -1.0, 1.0)
    t = np.arccos(c)
    tang = y - c * pole
    norm = np.linalg.norm(tang)
    if norm < 1e-14:
        x_dir = np.zeros_like(y)
    else:
        x_dir = tang / norm
    return np.cos(k * t) * pole + np.sin(k * t) * x_dir


class TestGeodesicKFold:
    def test_pole_fixed(self):
        rho2 = geodesic_k_fold(geometries.sphere(2), 2)
        e0 = np.array([1.0, 0.0, 0.0])
        npt.assert_allclose(rho2(e0), e0, atol=1e-14)

    def test_equator_to_antipode(self):
        rho2 = geodesic_k_fold(geometries.sphere(2), 2)
        y = np.array([0.0, 1.0, 0.0])
        npt.assert_allclose(rho2(y), [-1.0, 0.0, 0.0], atol=1e-14)

    def test_output_norm(self):
        rho3 = geodesic_k_fold(geometries.sphere(3), 3)
        rng = rng_for(5)
        m = geometries.sphere(3)
        for _ in range(50):
            y = draw_point(m, rng)
            assert abs(np.linalg.norm(rho3(y)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_chebyshev_vs_angle_form(self, k):
        rho = geodesic_k_fold(geometries.sphere(2), k)
        pole = np.array([1.0, 0.0, 0.0])
        rng = rng_for(6 + k)
        m = geometries.sphere(2)
        checked = 0
        while checked < 50:
            y = draw_point(m, rng)
            if abs(y @ pole) >= 0.99:
                continue
            npt.assert_allclose(rho(y), angle_form(k, pole, y), atol=1e-9)
            checked += 1

    def test_rank_drop_at_equator(self):
        # the polar-angle doubling collapses the equator to the antipode:
        # singular values of the differential there are {2, 0}
        rho2 = geodesic_k_fold(geometries.sphere(2), 2)
        y = np.array([0.0, 0.0, 1.0])
        basis = core.tangent_basis(rho2.source, y)
        h = 1e-6
        cols = np.column_stack([
            (rho2(rho2.source.retraction(y, h * basis[:, j]))
             - rho2(rho2.source.retraction(y, -h * basis[:, j]))) / (2 * h)
            for j in range(2)])
        s = np.linalg.svd(cols, compute_uv=False)
        assert abs(s[0] - 2.0) <= 1e-6
        assert s[1] <= 1e-6

    def test_half_radius_sphere_variant(self):
        m = geometries.sphere(2, 0.5)
        rho2 = geodesic_k_fold(m, 2)
        rng = rng_for(9)
        for _ in range(20):
            y = draw_point(m, rng)
            assert abs(np.linalg.norm(rho2(y)) - 0.5) <= 1e-12
        pole = np.array([0.5, 0.0, 0.0])
        npt.assert_allclose(rho2(pole), pole, atol=1e-14)


# ---------------------------------------------------------------------------
# Perturbation diffeomorphisms
# ---------------------------------------------------------------------------

class TestPerturbationDiffeo:
    def test_zero_delta_is_identity(self, s2):
        phi = perturbation_diffeo(s2, 0.0, np.array([1.0, 0.0, 0.0]))
        rng = rng_for(10)
        for _ in range(10):
            x = draw_point(s2, rng)
            npt.assert_allclose(phi(x), x, atol=1e-14)

    def test_output_norm(self, s2):
        phi = perturbation_diffeo(s2, 0.3, np.array([1.0, 0.0, 0.0]))
        rng = rng_for(11)
        for _ in range(100):
            x = draw_point(s2, rng)
            assert abs(np.linalg.norm(phi(x)) - 1.0) <= 1e-14

    def test_delta_out_of_range_rejected(self, s2):
        with pytest.raises(GeometryError):
            perturbation_diffeo(s2, 1.0, np.array([1.0, 0.0, 0.0]))

    def test_injectivity_sampling(self, s2):
        # image distances stay above the contraction bound
        # (1 - 2 delta) / (1 - delta^2) for delta < 1/2
        delta = 0.3
        phi = perturbation_diffeo(s2, delta, np.array([1.0, 0.0, 0.0]))
        rng = rng_for(12)
        xs = np.array([draw_point(s2, rng) for _ in range(200)])
        images = np.array([phi(x) for x in xs])
        bound = (1.0 - 2.0 * delta) / (1.0 - delta ** 2)
        pairs = 0
        for i in range(0, 200, 2):
            x, y = xs[i], xs[i + 1]
            d_pre = np.linalg.norm(x - y)
            d_img = np.linalg.norm(images[i] - images[i + 1])
            assert d_img >= bound * d_pre * (1.0 - 1e-9)
            pairs += 1
        assert pairs == 100


class TestCompositions:
    def test_double_two_fold_is_four_fold(self):
        rho2 = geodesic_k_fold(geometries.sphere(2), 2)
        rho4 = geodesic_k_fold(geometries.sphere(2), 4)
        rho22 = compose(rho2, rho2)
        rng = rng_for(13)
        m = geometries.sphere(2)
        for _ in range(25):
            y = draw_point(m, rng)
            npt.assert_allclose(rho22(y), rho4(y), atol=1e-12)

    def test_perturbed_hopf_composition(self, hopf_complex):
        phi = perturbation_diffeo(hopf_complex.total, 0.3,
                                  np.array([1.0, 0.0, 0.0, 0.0]))
        f = compose(hopf_complex.projection, phi)
        rng = rng_for(14)
        x = draw_point(hopf_complex.total, rng)
        npt.assert_allclose(f(x), hopf_complex.projection(phi(x)), atol=1e-15)
        assert abs(np.linalg.norm(f(x)) - 0.5) <= 1e-12


# ---------------------------------------------------------------------------
# Fixture bundle
# ---------------------------------------------------------------------------

class TestScaledFiberFixture:
    def test_membership_and_projector(self):
        bundle = scaled_fiber_bundle(0.5)
        rng = rng_for(15)
        for _ in range(10):
            z = draw_point(bundle.total, rng)
            assert bundle.total.membership_residual(z) <= 1e-10
            p = bundle.total.projector_field(z)
            assert np.linalg.norm(p @ p - p) <= 1e-12
            assert abs(np.trace(p) - 2.0) <= 1e-12

    def test_fiber_radius_varies(self):
        bundle = scaled_fiber_bundle(0.5)
        east = scaled_fiber_section(0.5, np.array([1.0, 0.0]))
        west = scaled_fiber_section(0.5, np.array([-1.0, 0.0]))
        assert max(bundle.total.membership_residual(east),
                   bundle.total.membership_residual(west)) <= 1e-12
        assert abs(np.linalg.norm(east[2:]) - 1.5) <= 1e-12
        assert abs(np.linalg.norm(west[2:]) - 0.5) <= 1e-12
