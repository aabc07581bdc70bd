"""Riemannian submersion structure: splittings, lifts, the A-tensor, fatness."""

import collections

import numpy as np
import numpy.testing as npt
import pytest

from submersion_lab import core, geometries, graph, numerics, submersion
from submersion_lab.core import GeometryError
from submersion_lab.numerics import central_difference
from submersion_lab.submersion import (a_dagger, a_tensor, a_tensor_coefficients,
                                       fatness, horizontal_lift, splitting,
                                       totally_geodesic_fibers_check,
                                       vertizontal_sec)

from conftest import (draw_point, draw_tangent, fiber_second_fundamental_form, loop_rows, rng_for,
                      scaled_fiber_bundle)

HOPF_FIXTURES = ["hopf_complex", "hopf_quaternionic", "hopf_octonionic"]
# every bundle with a closed-form A and T, plus the fixture whose total space
# has no closed-form projector derivative
ALL_FIXTURES = HOPF_FIXTURES + ["trivial_bundle_spheres", "scaled_fiber"]


def unit_vector(rng, n):
    c = rng.standard_normal(n)
    return c / np.linalg.norm(c)


@pytest.fixture(scope="module")
def scaled_fiber():
    return scaled_fiber_bundle(0.5)


class TestSplitting:
    def test_trivial_product_vertical_is_fiber_factor(self, trivial_bundle_spheres):
        bundle = trivial_bundle_spheres
        rng = rng_for(0)
        p = draw_point(bundle.total, rng)
        v = splitting(bundle, p).projector
        # vertical = tangent of the circle factor
        expected = np.zeros((5, 5))
        expected[3:, 3:] = geometries.sphere(1).projector_field(p[3:])
        npt.assert_allclose(v, expected, atol=1e-12)

    def test_complex_hopf_vertical_is_phase_direction(self, hopf_complex):
        rng = rng_for(1)
        p = draw_point(hopf_complex.total, rng)
        a, b = p[:2], p[2:]
        ip = np.array([-a[1], a[0], -b[1], b[0]])
        v = splitting(hopf_complex, p).projector
        npt.assert_allclose(v @ ip, ip, atol=1e-12)
        assert abs(np.trace(v) - 1.0) <= 1e-12

    def test_rank_deficient_projection_rejected(self, s3):
        # a constant "projection" has rank 0 < dim base everywhere
        from submersion_lab.core import RankDeficiencyError
        from submersion_lab.graph import constant_map
        from submersion_lab.submersion import RiemannianSubmersionBundle
        base = geometries.sphere(2)
        broken = RiemannianSubmersionBundle(
            total=s3, base=base,
            projection=constant_map(s3, base, np.array([0.0, 0.0, 1.0])),
            fiber_dim=1, name="degenerate")
        with pytest.raises(RankDeficiencyError):
            splitting(broken, draw_point(s3, rng_for(22)))

    @pytest.mark.parametrize("fixture", ["hopf_complex", "hopf_quaternionic",
                                         "hopf_octonionic"])
    def test_rank_counts(self, fixture, request):
        bundle = request.getfixturevalue(fixture)
        rng = rng_for(2)
        p = draw_point(bundle.total, rng)
        sp = splitting(bundle, p)
        assert sp.kernel_basis.shape[1] == bundle.fiber_dim
        assert (sp.kernel_basis.shape[1] + sp.coimage_basis.shape[1]
                == bundle.total.intrinsic_dim)
        # V and H orthogonal
        assert np.max(np.abs(sp.kernel_basis.T @ sp.coimage_basis)) <= 1e-12


class TestHorizontalLift:
    def test_trivial_bundle_lifts_to_first_factor(self, trivial_bundle_spheres):
        bundle = trivial_bundle_spheres
        rng = rng_for(3)
        p = draw_point(bundle.total, rng)
        w = draw_tangent(bundle.base, p[:3], rng)
        lift = horizontal_lift(splitting(bundle, p), w)
        npt.assert_allclose(lift, np.concatenate([w, np.zeros(2)]), atol=1e-12)

    @pytest.mark.parametrize("fixture", ["hopf_complex", "hopf_quaternionic"])
    def test_roundtrip_and_isometry(self, fixture, request):
        bundle = request.getfixturevalue(fixture)
        rng = rng_for(4)
        for _ in range(10):
            p = draw_point(bundle.total, rng)
            sp = splitting(bundle, p)
            w = draw_tangent(bundle.base, bundle.projection(p), rng)
            lift = horizontal_lift(sp, w)
            assert np.linalg.norm(sp.jac @ lift - w) <= 1e-8
            assert np.linalg.norm(sp.projector @ lift) <= 1e-10
            assert abs(np.linalg.norm(lift) - np.linalg.norm(w)) <= 1e-6


class TestATensor:
    def test_trivial_bundle_vanishes(self, trivial_bundle_spheres):
        bundle = trivial_bundle_spheres
        rng = rng_for(5)
        p = draw_point(bundle.total, rng)
        sp = splitting(bundle, p)
        x = sp.coimage_basis[:, 0]
        y = sp.coimage_basis[:, 1]
        assert np.linalg.norm(a_tensor(bundle, p, x, y)) <= 1e-8

    def test_antisymmetry(self, hopf_quaternionic):
        rng = rng_for(6)
        p = draw_point(hopf_quaternionic.total, rng)
        sp = splitting(hopf_quaternionic, p)
        x = sp.coimage_basis @ rng.standard_normal(4)
        y = sp.coimage_basis @ rng.standard_normal(4)
        axy = a_tensor(hopf_quaternionic, p, x, y)
        ayx = a_tensor(hopf_quaternionic, p, y, x)
        assert np.linalg.norm(axy + ayx) <= 1e-4

    def test_complex_hopf_unit_norm(self, hopf_complex):
        rng = rng_for(7)
        for _ in range(5):
            p = draw_point(hopf_complex.total, rng)
            sp = splitting(hopf_complex, p)
            x, y = sp.coimage_basis[:, 0], sp.coimage_basis[:, 1]
            assert abs(np.linalg.norm(a_tensor(hopf_complex, p, x, y))
                       - 1.0) <= 1e-6

    def test_vertical_valued(self, hopf_complex):
        rng = rng_for(8)
        p = draw_point(hopf_complex.total, rng)
        sp = splitting(hopf_complex, p)
        val = a_tensor(hopf_complex, p, sp.coimage_basis[:, 0],
                       sp.coimage_basis[:, 1])
        assert np.linalg.norm(sp.jac @ val) <= 1e-8

    def test_vertical_input_gives_zero(self, hopf_complex):
        rng = rng_for(9)
        p = draw_point(hopf_complex.total, rng)
        sp = splitting(hopf_complex, p)
        u = sp.kernel_basis[:, 0]
        y = sp.coimage_basis[:, 0]
        assert np.linalg.norm(a_tensor(hopf_complex, p, u, y)) <= 1e-10


class TestBatchedATensor:
    @pytest.mark.parametrize("fixture", ALL_FIXTURES)
    def test_vertical_projector_derivative_matches_difference(self, fixture, request):
        # along horizontal and vertical directions, against a central
        # difference of the vertical projector along the retraction
        bundle = request.getfixturevalue(fixture)
        p = draw_point(bundle.total, rng_for(29))
        sp = splitting(bundle, p)
        frame = graph.KernelFrame(bundle.projection, p, bundle.base.intrinsic_dim)
        npt.assert_allclose(frame.projector, sp.projector, atol=1e-12)
        for u in np.hstack([sp.coimage_basis, sp.kernel_basis]).T:
            dv = frame.derivative(u)
            oracle = central_difference(lambda t: splitting(
                bundle, bundle.total.retraction(p, t * u)).projector, 1e-5)
            npt.assert_allclose(dv, oracle, atol=1e-8)

    @pytest.mark.parametrize("fixture", ALL_FIXTURES)
    def test_coefficients_match_per_pair_oracle(self, fixture, request):
        # the oracle is a central difference with error O(h^2) ~ 5e-9; its
        # Richardson extrapolation from steps h and h/2 leaves about 1e-11
        bundle = request.getfixturevalue(fixture)
        rng = rng_for(31)
        h = numerics.DEFAULT_FD_STEP
        for _ in range(2):
            p = draw_point(bundle.total, rng)
            sp = splitting(bundle, p)
            coeff = a_tensor_coefficients(sp)
            h_basis, v_basis = sp.coimage_basis, sp.kernel_basis
            for i in range(h_basis.shape[1]):
                for j in range(h_basis.shape[1]):
                    coarse, fine = (v_basis.T @ a_tensor(bundle, p, h_basis[:, i],
                                                         h_basis[:, j], step)
                                    for step in (h, h / 2))
                    npt.assert_allclose(coeff[i, j], (4.0 * fine - coarse) / 3.0,
                                        atol=1e-10)

    @pytest.mark.parametrize("fixture", HOPF_FIXTURES)
    def test_a_dagger_matches_per_pair_loop(self, fixture, request):
        bundle = request.getfixturevalue(fixture)
        rng = rng_for(32)
        p = draw_point(bundle.total, rng)
        sp = splitting(bundle, p)
        x = sp.coimage_basis @ unit_vector(rng, sp.coimage_basis.shape[1])
        u = sp.kernel_basis @ unit_vector(rng, sp.kernel_basis.shape[1])
        oracle = sum((u @ a_tensor(bundle, p, x, y)) * y
                     for y in sp.coimage_basis.T)
        npt.assert_allclose(a_dagger(sp, a_tensor_coefficients(sp), x, u), oracle,
                            atol=1e-7)

    def test_octonionic_closed_form_takes_no_stencil(self, hopf_octonionic, monkeypatch):
        # A and T come from one kernel form of the vertical projector at the
        # block's own splitting, on the sphere's closed-form second
        # fundamental form: no finite difference, no projector derivative,
        # no further splitting
        calls = {"central_difference": 0, "projector_derivative": 0, "splitting": 0,
                 "kernel_derivative": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for module in (numerics, core, graph):
            counted(module, "central_difference")
        counted(core, "projector_derivative")
        counted(submersion, "splitting")
        counted(graph.KernelFrame, "kernel_derivative")
        p = draw_point(hopf_octonionic.total, rng_for(33))
        sp = submersion.splitting(hopf_octonionic, p)
        assert calls == {"central_difference": 0, "projector_derivative": 0, "splitting": 1,
                         "kernel_derivative": 0}
        a_tensor_coefficients(sp)
        assert calls == {"central_difference": 0, "projector_derivative": 0, "splitting": 1,
                         "kernel_derivative": 1}
        # both samples in one block
        assert numerics.POINTS_PER_BLOCK >= 2
        totally_geodesic_fibers_check(hopf_octonionic, samples=2, seed=0)
        assert calls == {"central_difference": 0, "projector_derivative": 0, "splitting": 2,
                         "kernel_derivative": 2}


class TestADagger:
    def test_trivial_bundle_vanishes(self, trivial_bundle_spheres):
        bundle = trivial_bundle_spheres
        rng = rng_for(10)
        p = draw_point(bundle.total, rng)
        sp = splitting(bundle, p)
        x = sp.coimage_basis[:, 0]
        u = sp.kernel_basis[:, 0]
        assert np.linalg.norm(a_dagger(sp, a_tensor_coefficients(sp), x, u)) <= 1e-8

    def test_duality_identity(self, hopf_quaternionic):
        rng = rng_for(11)
        for _ in range(5):
            p = draw_point(hopf_quaternionic.total, rng)
            sp = splitting(hopf_quaternionic, p)
            x = sp.coimage_basis @ rng.standard_normal(4)
            u = sp.kernel_basis @ rng.standard_normal(3)
            dual = a_dagger(sp, a_tensor_coefficients(sp), x, u)
            for j in range(4):
                y = sp.coimage_basis[:, j]
                lhs = dual @ y
                rhs = u @ a_tensor(hopf_quaternionic, p, x, y)
                assert abs(lhs - rhs) <= 1e-6

    def test_complex_hopf_norm_product(self, hopf_complex):
        rng = rng_for(12)
        p = draw_point(hopf_complex.total, rng)
        sp = splitting(hopf_complex, p)
        x = 0.7 * sp.coimage_basis[:, 0]
        u = 1.3 * sp.kernel_basis[:, 0]
        dual = a_dagger(sp, a_tensor_coefficients(sp), x, u)
        assert abs(np.linalg.norm(dual) - 0.7 * 1.3) <= 1e-5


class TestVertizontalSec:
    @pytest.mark.parametrize("fixture,expected", [
        ("hopf_complex", 1.0),
        ("hopf_quaternionic", 1.0),
    ])
    def test_hopf_unit_curvature(self, fixture, expected, request):
        bundle = request.getfixturevalue(fixture)
        rng = rng_for(13)
        p = draw_point(bundle.total, rng)
        sp = splitting(bundle, p)
        x = sp.coimage_basis[:, 0]
        u = sp.kernel_basis[:, 0]
        assert abs(vertizontal_sec(bundle, p, x, u) - expected) <= 1e-4

    def test_trivial_bundle_zero(self, trivial_bundle_spheres):
        bundle = trivial_bundle_spheres
        rng = rng_for(14)
        p = draw_point(bundle.total, rng)
        sp = splitting(bundle, p)
        assert abs(vertizontal_sec(bundle, p, sp.coimage_basis[:, 0],
                                   sp.kernel_basis[:, 0])) <= 1e-8

    def test_gray_oneill_identity_sampled(self, hopf_complex):
        # vertizontal curvature equals the intrinsic curvature of the plane
        rng = rng_for(15)
        for _ in range(20):
            p = draw_point(hopf_complex.total, rng)
            sp = splitting(hopf_complex, p)
            x = sp.coimage_basis @ rng.standard_normal(2)
            x /= np.linalg.norm(x)
            u = sp.kernel_basis[:, 0]
            vsec = vertizontal_sec(hopf_complex, p, x, u)
            isec = core.sectional_curvature(hopf_complex.total, p, x, u)
            assert abs(vsec - isec) <= 1e-4


class TestFatness:
    def test_complex_hopf_is_fat(self, hopf_complex):
        rep = fatness(hopf_complex, sample_count=25, seed=0)
        assert rep.is_fat
        assert abs(rep.min_sigma - 1.0) <= 1e-3

    def test_trivial_bundle_not_fat(self, trivial_bundle_spheres):
        rep = fatness(trivial_bundle_spheres, sample_count=10, seed=0)
        assert not rep.is_fat
        assert rep.min_sigma <= 1e-8

    def test_quaternionic_hopf_is_fat(self, hopf_quaternionic):
        rep = fatness(hopf_quaternionic, sample_count=10, seed=0)
        assert rep.is_fat
        assert abs(rep.min_sigma - 1.0) <= 1e-3

    def test_witness_ignores_rounding_ties(self, hopf_complex, monkeypatch):
        # the same A tensor at every sample, with sigma = 1 in every direction,
        # so only the tie rule fixes the witness: shrinking the last sample's
        # tensor by 1e-14 must not move it there
        def tied(shrink_last):
            seen = []   # samples whose tensor was built, over all blocks

            def coefficients(sp):
                coeff = np.repeat([[[[0.0], [1.0]], [[-1.0], [0.0]]]], len(sp.x), axis=0)
                if shrink_last and len(seen) <= 3 < len(seen) + len(sp.x):
                    coeff[3 - len(seen)] *= 1.0 - 1e-14
                seen.extend(sp.x)
                return coeff
            return coefficients

        monkeypatch.setattr(submersion, "a_tensor_coefficients", tied(False))
        plain = fatness(hopf_complex, sample_count=4, seed=0)
        monkeypatch.setattr(submersion, "a_tensor_coefficients", tied(True))
        tilted = fatness(hopf_complex, sample_count=4, seed=0)
        assert abs(tilted.min_sigma - plain.min_sigma) <= 1e-12
        npt.assert_array_equal(tilted.worst_point, plain.worst_point)

    def test_deterministic(self, hopf_complex):
        r1 = fatness(hopf_complex, sample_count=5, seed=11)
        r2 = fatness(hopf_complex, sample_count=5, seed=11)
        assert r1.min_sigma == r2.min_sigma
        npt.assert_array_equal(r1.worst_point, r2.worst_point)

    @pytest.mark.parametrize("count", [0, -1])
    def test_no_samples_rejected(self, hopf_complex, count):
        with pytest.raises(GeometryError, match="sample_count"):
            fatness(hopf_complex, sample_count=count)

    @pytest.mark.parametrize("clifford, noise", [(1.0, 0.01), (1.0, 0.1), (1.0, 1.0),
                                                 (0.0, 1.0)])
    def test_bound_below_sampled_minimum(self, hopf_quaternionic, monkeypatch,
                                         clifford, noise):
        # A tensors off the Clifford relation: `clifford` times the Hopf
        # tensor of a point plus `noise` times a random antisymmetric one.
        # At each, min_sigma^2 must not exceed sigma_min(A_X)^2 at any of
        # 10,000 random unit X
        hopf = hopf_quaternionic
        exact = a_tensor_coefficients(splitting(hopf, draw_point(hopf.total, rng_for(30))))
        for rng in map(rng_for, range(31, 36)):
            r = rng.standard_normal(exact.shape)
            coeff = clifford * exact + noise * (r - r.swapaxes(0, 1)) / np.linalg.norm(r)
            monkeypatch.setattr(submersion, "a_tensor_coefficients",
                                lambda sp, coeff=coeff: np.repeat([coeff], len(sp.x), axis=0))
            rep = fatness(hopf, sample_count=1, seed=0)
            x = rng.standard_normal((10_000, coeff.shape[0]))
            x /= np.linalg.norm(x, axis=-1, keepdims=True)
            s = np.linalg.svd(np.einsum("ki,ijv->kvj", x, coeff), compute_uv=False)
            assert rep.min_sigma ** 2 <= np.min(s[:, coeff.shape[-1] - 1]) ** 2 + 1e-12
            if noise <= 0.1 and clifford:   # the bound is not vacuous near the relation
                assert rep.min_sigma > 0.5

    def test_a_scaled_a_i_moves_the_bound(self, hopf_octonionic, monkeypatch):
        # x1.01 on A_0 breaks the Clifford relation (E_00 = 0.0176 I), so the
        # bound falls to about 0.976, although sigma_min(A_X) stays 1 on the
        # other basis vectors
        exact = submersion.a_tensor_coefficients

        def scaled(sp):
            coeff = exact(sp).copy()
            coeff[:, 0] *= 1.01
            return coeff

        monkeypatch.setattr(submersion, "a_tensor_coefficients", scaled)
        assert fatness(hopf_octonionic, sample_count=4, seed=0).min_sigma < 1.0 - 1e-3

    def test_one_svd_per_block(self, hopf_octonionic, monkeypatch):
        # the splitting is all the singular- and eigenvalue work, one SVD of
        # dpi and one eigh for the kernel basis a block: 50 samples make 4
        # blocks of at most POINTS_PER_BLOCK = 16 points
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("svd", "eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        fatness(hopf_octonionic, sample_count=50, seed=0)
        blocks = -(-50 // numerics.POINTS_PER_BLOCK)
        assert calls == {"svd": blocks, "eigh": blocks} == {"svd": 4, "eigh": 4}


class TestTotallyGeodesicFibers:
    def test_complex_hopf(self, hopf_complex):
        assert totally_geodesic_fibers_check(hopf_complex, samples=10, seed=0) <= 1e-6

    def test_trivial_product(self, trivial_bundle_spheres):
        assert totally_geodesic_fibers_check(trivial_bundle_spheres,
                                             samples=10, seed=0) <= 1e-10

    def test_broken_fixture_flagged(self):
        bundle = scaled_fiber_bundle(0.5)
        assert totally_geodesic_fibers_check(bundle, samples=20, seed=0) > 0.1

    @pytest.mark.parametrize("count", [0, -1])
    def test_no_samples_rejected(self, hopf_complex, count):
        # no sample would read as totally geodesic fibers
        with pytest.raises(GeometryError, match="samples"):
            totally_geodesic_fibers_check(hopf_complex, samples=count)

    def test_octonionic_bundle_structure(self, hopf_octonionic):
        bundle = hopf_octonionic
        assert totally_geodesic_fibers_check(bundle, samples=3, seed=0) <= 1e-6
        rng = rng_for(23)
        for _ in range(5):
            p = draw_point(bundle.total, rng)
            sp = splitting(bundle, p)
            c = rng.standard_normal(8)
            x = sp.coimage_basis @ (c / np.linalg.norm(c))
            assert abs(np.linalg.norm(sp.jac @ x) - 1.0) <= 1e-6
            w = draw_tangent(bundle.base, bundle.projection(p), rng)
            lift = horizontal_lift(sp, w)
            assert abs(np.linalg.norm(lift) - 1.0) <= 1e-6

    @pytest.mark.parametrize("fixture", HOPF_FIXTURES + ["trivial_bundle_spheres",
                                                         "scaled_fiber"])
    def test_matches_per_pair_oracle(self, fixture, request):
        bundle = request.getfixturevalue(fixture)
        worst = 0.0
        for p in bundle.total.random_point(loop_rows(4, 3, bundle.total.ambient_dim)):
            sp = splitting(bundle, p)
            v = sp.kernel_basis
            for i in range(v.shape[1]):
                for j in range(i, v.shape[1]):
                    ii = fiber_second_fundamental_form(bundle, p, v[:, i], v[:, j])
                    worst = max(worst, float(np.linalg.norm(ii)))
        # the oracle is a central difference: it differs from the closed form
        # by its step error (about 3e-12 on the Hopf bundles, 4e-11 on the
        # scaled fiber, where the norm is 0.19)
        assert abs(totally_geodesic_fibers_check(bundle, samples=3, seed=4)
                   - worst) <= 1e-8

    def test_fiber_ii_values(self, hopf_complex):
        rng = rng_for(16)
        p = draw_point(hopf_complex.total, rng)
        sp = splitting(hopf_complex, p)
        u = sp.kernel_basis[:, 0]
        ii = fiber_second_fundamental_form(hopf_complex, p, u, u)
        assert np.linalg.norm(ii) <= 1e-8
