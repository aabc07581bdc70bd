"""Pull-back bundles: fiber charts, tangent solver, metric reduction,
second fundamental form, and the two curvature paths."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from submersion_lab import algebra, core, geometries, graph, obstruction, scenarios
from submersion_lab.core import GeometryError
from submersion_lab.geometries import (hopf_fibration, perturbation_diffeo,
                                       trivial_bundle)
from submersion_lab.graph import (GraphOperators, KernelFrame, compose, constant_map,
                                  identity_map, kernel_splitting)
from submersion_lab.numerics import constant_field, kernel_rank, nullspace_basis
from submersion_lab.pullback import (InadmissibleEpsilonError, PointData, lambda_term,
                                     PullbackBundle, pullback_curvature,
                                     pullback_curvature_expansion,
                                     pullback_second_fundamental_form,
                                     pullback_second_fundamental_form_direct,
                                     pullback_submersion_check,
                                     reduce_connection_metric)
from submersion_lab.submersion import a_tensor_coefficients, splitting

from conftest import (draw_block, draw_point, draw_tangent, hopf_fiber_action, hopf_fiber_section,
                      kernel_frames_built, loop_rows, rng_for, scaled_fiber_bundle)


@pytest.fixture(scope="module")
def hopf():
    return hopf_fibration("complex")


@pytest.fixture(scope="module")
def pure_pullback(hopf):
    return PullbackBundle(hopf.projection, hopf)


@pytest.fixture(scope="module")
def perturbed_pullback(hopf):
    phi = perturbation_diffeo(hopf.total, 0.3, np.array([1.0, 0.0, 0.0, 0.0]))
    return PullbackBundle(compose(hopf.projection, phi), hopf)


# ---------------------------------------------------------------------------
# Fiber utilities
# ---------------------------------------------------------------------------

class TestFiberPoint:
    def test_section_over_south_pole(self, hopf):
        n = np.array([0.0, 0.0, -0.5])
        q = hopf_fiber_section("complex", n)
        npt.assert_allclose(hopf.projection(q), n, atol=1e-12)
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-12

    def test_section_over_north_pole_uses_fallback_chart(self, hopf):
        n = np.array([0.0, 0.0, 0.5])
        q = hopf_fiber_section("complex", n)
        npt.assert_allclose(hopf.projection(q), n, atol=1e-12)
        # up to fiber phase this is (1, 0)
        assert abs(np.linalg.norm(q[:2]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("flavor", ["complex", "quaternionic", "octonionic"])
    def test_roundtrip_random(self, flavor):
        bundle = hopf_fibration(flavor)
        rng = rng_for(1)
        for _ in range(20):
            n = draw_point(bundle.base, rng)
            q = hopf_fiber_section(flavor, n)
            assert np.linalg.norm(bundle.projection(q) - n) <= 1e-10

    def test_continuity_along_base_path(self, hopf):
        # away from the excluded north pole the primary chart is continuous
        steps = np.linspace(0.0, np.pi, 200)
        prev = None
        for t in steps:
            n = 0.5 * np.array([np.sin(t), 0.12 * np.cos(t), -np.cos(t)])
            n = 0.5 * n / np.linalg.norm(n)
            if n[2] > 0.45:
                continue
            q = hopf_fiber_section("complex", n)
            if prev is not None:
                assert np.linalg.norm(q - prev) <= 0.1
            prev = q


class TestFiberProject:
    def test_fixed_point_on_fiber(self, hopf):
        rng = rng_for(2)
        p = draw_point(hopf.total, rng)
        n = hopf.projection(p)
        npt.assert_allclose(hopf.fiber_projector(p, n), p, atol=1e-12)

    def test_matches_dense_grid_search(self, hopf):
        # three-stage grid over the fiber circle, refined around the best
        # angle; the closed form must hit the same point
        rng = rng_for(3)
        for _ in range(5):
            n = draw_point(hopf.base, rng)
            q0 = hopf_fiber_section("complex", n)
            p_tilde = q0 + 0.3 * rng.standard_normal(4)
            closed = hopf.fiber_projector(p_tilde, n)

            center, width = 0.0, 2.0 * np.pi
            for _stage in range(3):
                thetas = center + np.linspace(-width / 2, width / 2, 2001)
                zs = np.column_stack([np.cos(thetas), np.sin(thetas)])
                pts = np.column_stack([
                    algebra.multiply(q0[None, :2], zs),
                    algebra.multiply(q0[None, 2:], zs)])
                objective = pts @ p_tilde
                best = int(np.argmax(objective))
                center = thetas[best]
                width = 2.0 * (thetas[1] - thetas[0])
            z_best = np.array([np.cos(center), np.sin(center)])
            grid_point = np.concatenate([
                algebra.multiply(q0[:2], z_best), algebra.multiply(q0[2:], z_best)])
            assert np.linalg.norm(closed - grid_point) <= 1e-6

    def test_equivariance_under_fiber_action(self, hopf):
        # projecting a phase-shifted point shifts the projection by the phase
        rng = rng_for(4)
        n = draw_point(hopf.base, rng)
        p_tilde = draw_point(hopf.total, rng)
        z = draw_point(geometries.sphere(1), rng)
        lhs = hopf.fiber_projector(hopf_fiber_action(p_tilde, z), n)
        rhs = hopf_fiber_action(hopf.fiber_projector(p_tilde, n), z)
        npt.assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("flavor", ["quaternionic", "octonionic"])
    def test_projection_is_nearest_among_fiber_samples(self, flavor):
        bundle = hopf_fibration(flavor)
        rng = rng_for(5)
        n = draw_point(bundle.base, rng)
        p_tilde = draw_point(bundle.total, rng)
        closed = bundle.fiber_projector(p_tilde, n)
        d_closed = np.linalg.norm(closed - p_tilde)
        for _ in range(500):
            q = bundle.fiber_sampler(n, rng.standard_normal(bundle.total.ambient_dim))
            assert d_closed <= np.linalg.norm(q - p_tilde) + 1e-10


# ---------------------------------------------------------------------------
# Tangent structure
# ---------------------------------------------------------------------------

class TestConstruction:
    def test_base_map_off_the_bundle_base_rejected(self):
        # the complex Hopf map lands on the sphere of radius 1/2, which shares
        # its ambient dimension with the unit-sphere base but misses it
        f = hopf_fibration("complex").projection
        bundle = trivial_bundle(geometries.sphere(2, 1.0), geometries.sphere(1))
        with pytest.raises(GeometryError,
                           match=r"S2\(r=0\.5\).*S2\(r=1\).*5\.000e-01") as exc:
            PullbackBundle(f, bundle)
        assert not isinstance(exc.value, core.PointOffManifoldError)

    def test_base_map_from_a_product_off_the_bundle_base_rejected(self):
        # the probe point lies on every factor of a product source: the
        # projection of S2(r=1/2) x S1 lands on S2(r=1/2), not on the base S2(r=1)
        f = trivial_bundle(geometries.sphere(2, 0.5), geometries.sphere(1)).projection
        bundle = trivial_bundle(geometries.sphere(2, 1.0), geometries.sphere(1))
        with pytest.raises(GeometryError, match=r"misses the bundle base S2\(r=1\).*5\.000e-01"):
            PullbackBundle(f, bundle)


class TestTangentBasis:
    def test_dimension(self, pure_pullback):
        rng = rng_for(6)
        z = draw_point(pure_pullback.total_manifold, rng)
        x, p = pure_pullback.split_point(z)
        basis = pure_pullback.tangent_basis(x, p)
        assert basis.shape == (8, 4)  # 3 + 1 over an 8-dim ambient

    def test_vertical_vectors_in_span(self, pure_pullback):
        rng = rng_for(7)
        z = draw_point(pure_pullback.total_manifold, rng)
        x, p = pure_pullback.split_point(z)
        basis = pure_pullback.tangent_basis(x, p)
        q = basis @ basis.T
        a, b = p[:2], p[2:]
        ip = np.concatenate([np.zeros(4), [-a[1], a[0], -b[1], b[0]]])
        npt.assert_allclose(q @ ip, ip, atol=1e-10)

    def test_horizontal_lift_in_span_and_norm(self, pure_pullback):
        rng = rng_for(8)
        z = draw_point(pure_pullback.total_manifold, rng)
        x, p = pure_pullback.split_point(z)
        basis = pure_pullback.tangent_basis(x, p)
        q = basis @ basis.T
        for _ in range(5):
            X = pure_pullback.f.source.projector(x) @ rng.standard_normal(x.shape)
            lift = PointData(pure_pullback, x, p).horizontal_lift(X)
            npt.assert_allclose(q @ lift, lift, atol=1e-9)
            dfx = pure_pullback.f.jac(x) @ X
            assert abs(lift @ lift - (X @ X + dfx @ dfx)) <= 1e-8
            # orthogonal to the vertical space
            vert = PointData(pure_pullback, x, p).vertical_basis
            assert np.max(np.abs(lift @ vert)) <= 1e-9

    def test_kernel_direction_lifts_to_zero_fiber_part(self, pure_pullback):
        rng = rng_for(9)
        z = draw_point(pure_pullback.total_manifold, rng)
        x, p = pure_pullback.split_point(z)
        kd = obstruction.kernel_splitting(pure_pullback.f, x)
        X = kd.kernel_basis[:, 0]
        lift = PointData(pure_pullback, x, p).horizontal_lift(X)
        npt.assert_allclose(lift[4:], np.zeros(4), atol=1e-9)

    def test_membership_preserved_by_retraction(self, perturbed_pullback):
        rng = rng_for(10)
        for _ in range(10):
            z = draw_point(perturbed_pullback.total_manifold, rng)
            v = draw_tangent(perturbed_pullback.total_manifold, z, rng)
            z2 = perturbed_pullback.total_manifold.retraction(z, 1e-2 * v)
            x2, p2 = perturbed_pullback.split_point(z2)
            assert perturbed_pullback.constraint_residual(x2, p2) <= 1e-8
            assert perturbed_pullback.total_manifold.membership_residual(z2) <= 1e-8


# the pull-backs of the scenario bundles along maps that exercise dJ
FRAME_SCENARIOS = [
    ("hopf_complex", "compose(hopf, perturbed(0.3, e1))"),
    ("hopf_quaternionic", "compose(hopf, perturbed(0.3, e1))"),
    ("hopf_octonionic", "compose(hopf, perturbed(0.3, e1))"),
    ("trivial", "compose(geodesic_fold(3), perturbed(0.9, e2))"),
]


def scenario_pullback(bundle, base_map):
    return scenarios.build_scenario(scenarios.ScenarioConfig.from_dict(
        {"name": "frame", "bundle": bundle, "base_map": base_map})).pullback


def tangent_frame(pb, x, p):
    """The kernel frame of the f*P constraint map at (x, p)."""
    return KernelFrame(pb.constraint, pb.join(x, p), pb.bundle.base.intrinsic_dim)


class TestTangentFrame:
    """The closed-form f*P projector derivative, from the kernel frame of the
    constraint map, against finite differences of the tangent-basis
    projector field."""

    @pytest.mark.parametrize("bundle, base_map", FRAME_SCENARIOS)
    def test_projector_matches_tangent_basis(self, bundle, base_map):
        pb = scenario_pullback(bundle, base_map)
        rng = rng_for(60)
        for _ in range(3):
            x, p = pb.split_point(draw_point(pb.total_manifold, rng))
            basis = pb.tangent_basis(x, p)
            frame = tangent_frame(pb, x, p)
            npt.assert_allclose(frame.projector, basis @ basis.T, atol=1e-12)

    @pytest.mark.parametrize("bundle, base_map", FRAME_SCENARIOS)
    def test_projector_derivative_matches_finite_difference(self, bundle, base_map):
        pb = scenario_pullback(bundle, base_map)
        m = pb.total_manifold
        fd = dataclasses.replace(m, analytic_projector_derivative=None,
                                 analytic_second_fundamental_form=None)
        rng = rng_for(61)
        for _ in range(3):
            z = draw_point(m, rng)
            u = draw_tangent(m, z, rng)
            oracle = core.projector_derivative(fd, z, u)
            analytic = core.projector_derivative(m, z, u)
            assert np.linalg.norm(analytic - oracle) <= 1e-6 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("bundle, base_map", FRAME_SCENARIOS)
    def test_direct_curvature_matches_finite_difference(self, bundle, base_map):
        # direct and expansion curvature both consume dJ; this keeps the
        # direct side tied to the finite-difference projector field
        pb = scenario_pullback(bundle, base_map)
        m = pb.total_manifold
        fd = dataclasses.replace(m, analytic_projector_derivative=None,
                                 analytic_second_fundamental_form=None)
        rng = rng_for(62)
        for _ in range(3):
            z = draw_point(m, rng)
            a, b, c, d = (draw_tangent(m, z, rng) for _ in range(4))
            assert abs(core.riemann(m, z, a, b, c, d)
                       - core.riemann(fd, z, a, b, c, d)) <= 1e-6
            assert abs(core.sectional_curvature(m, z, a, b)
                       - core.sectional_curvature(fd, z, a, b)) <= 1e-6

    def test_factor_without_closed_form_matches_finite_difference(self):
        # the scaled fiber's total space has no closed-form projector
        # derivative; the frame takes that factor's finite difference and
        # still matches the finite-difference oracle of the f*P projector
        bundle = scaled_fiber_bundle(0.5)
        pb = PullbackBundle(identity_map(bundle.base), bundle)
        assert bundle.total.analytic_projector_derivative is None
        m = pb.total_manifold
        fd = dataclasses.replace(m, analytic_projector_derivative=None,
                                 analytic_second_fundamental_form=None)
        rng = rng_for(64)
        for _ in range(3):
            z = draw_point(m, rng)
            u = draw_tangent(m, z, rng)
            oracle = core.projector_derivative(fd, z, u)
            analytic = core.projector_derivative(m, z, u)
            assert np.linalg.norm(analytic - oracle) <= 1e-6 * np.linalg.norm(oracle)

    def test_point_data_shares_one_frame(self, perturbed_pullback):
        rng = rng_for(63)
        x, p = perturbed_pullback.split_point(
            draw_point(perturbed_pullback.total_manifold, rng))
        pt = PointData(perturbed_pullback, x, p)
        assert pt.frame is pt.frame
        npt.assert_array_equal(pt.frame.projector,
                               tangent_frame(perturbed_pullback, x, p).projector)

    def test_point_data_evaluates_df_and_the_projectors_once(self, perturbed_pullback):
        # `ops`, `kernel_d2f` and `frame` take J and the projectors of M and
        # P from the frames of df and dpi, and give what they give alone
        pb = perturbed_pullback
        x, p = pb.split_point(draw_point(pb.total_manifold, rng_for(64)))
        pt = PointData(pb, x, p)
        assert pt.kd.jac is pt.ops.jac   # as in a check: the frame of df first
        alone = GraphOperators(pb.f, x)
        for name in ("fx", "p_m", "p_n", "jac", "c"):
            npt.assert_array_equal(getattr(pt.ops, name), getattr(alone, name))
        k = pt.kd.kernel_basis.T
        npt.assert_array_equal(pt.kernel_d2f, graph.d2f(pb.f, x, k[:, None], k[None]))
        frame = tangent_frame(pb, x, p)
        for name in ("source_projector", "jac", "coimage_basis", "singular_values"):
            npt.assert_array_equal(getattr(pt.frame, name), getattr(frame, name))
        u = frame.kernel_basis.T
        npt.assert_array_equal(pt.frame.derivative(u), frame.derivative(u))


def intrinsic_kernel_solve(f, x):
    """(rank, kernel, coimage, singular values) of df at x from the SVD of
    df on eigh tangent bases of M and N, lifted to ambient columns: the
    solve that kernel frames replaced."""
    basis_m = core.tangent_basis(f.source, x)
    basis_n = core.tangent_basis(f.target, f(x))
    c = basis_n.T @ f.jac(x) @ basis_m
    vectors, s = nullspace_basis(c)
    rank = int(kernel_rank(s))
    kernel = np.linalg.svd(c)[2][rank:].T   # the full SVD's nullspace
    return rank, basis_m @ kernel, basis_m @ vectors[:, :rank], s


def block_basis_constraint_solve(pb, x, p):
    """The same for the f*P constraint at rank dim N, from the nullspace of
    (X, E) -> df X - dpi E on the tangent bases of M and P."""
    basis_m = core.tangent_basis(pb.f.source, x)
    basis_p = core.tangent_basis(pb.bundle.total, p)
    c = np.hstack([pb.f.jac(x) @ basis_m, -pb.bundle.projection.jac(p) @ basis_p])
    rank = pb.bundle.base.intrinsic_dim
    vectors, s = nullspace_basis(c)
    coimage = vectors[:, :rank]
    kernel = np.linalg.svd(c)[2][rank:].T   # the full SVD's nullspace
    blocks = np.block([[basis_m, np.zeros((pb.d_m, basis_p.shape[1]))],
                       [np.zeros((pb.d_p, basis_m.shape[1])), basis_p]])
    return rank, blocks @ kernel, blocks @ coimage, s


class TestKernelFrameAgainstIntrinsicSolve:
    """Each kernel frame (df, dpi and the f*P constraint) spans what the
    intrinsic solves it replaced span, at the same rank and singular values."""

    @pytest.mark.parametrize("bundle, base_map", FRAME_SCENARIOS + [("trivial", "constant")])
    @pytest.mark.parametrize("kind", ["f", "pi", "constraint"])
    def test_bases_rank_and_singular_values(self, bundle, base_map, kind):
        pb = scenario_pullback(bundle, base_map)
        rng = rng_for(65)
        for _ in range(3):
            x, p = pb.split_point(draw_point(pb.total_manifold, rng))
            if kind == "f":
                frame, oracle = kernel_splitting(pb.f, x), intrinsic_kernel_solve(pb.f, x)
            elif kind == "pi":
                frame = splitting(pb.bundle, p)
                oracle = intrinsic_kernel_solve(pb.bundle.projection, p)
            else:
                frame, oracle = tangent_frame(pb, x, p), block_basis_constraint_solve(pb, x, p)
                npt.assert_array_equal(pb.tangent_basis(x, p), frame.kernel_basis)
            rank, kernel, coimage, s = oracle
            assert frame.rank == rank
            npt.assert_allclose(frame.singular_values, s, rtol=0.0,
                                atol=1e-12 * max(1.0, s[0]))
            for basis, expected in ((frame.kernel_basis, kernel),
                                    (frame.coimage_basis, coimage)):
                assert basis.shape == expected.shape
                npt.assert_allclose(basis @ basis.T, expected @ expected.T, atol=1e-12)


class TestOneSolvePerKernel:
    def test_kernel_of_df_builds_no_graph_operators(self, perturbed_pullback, monkeypatch):
        built = []
        original = GraphOperators.__init__

        def counted(self, *args, **kwargs):
            built.append(None)
            original(self, *args, **kwargs)

        monkeypatch.setattr(GraphOperators, "__init__", counted)
        x, p = perturbed_pullback.split_point(
            draw_point(perturbed_pullback.total_manifold, rng_for(66)))
        kd = PointData(perturbed_pullback, x, p).kd
        assert kd.rank == 2 and kd.kernel_basis.shape[1] == 1
        assert built == []

    def test_a_tensor_reads_the_splitting_frame(self, hopf, monkeypatch):
        calls = []
        original = graph.SmoothMapBetweenManifolds.jac

        def counted(self, x):
            if self is hopf.projection:
                calls.append(None)
            return original(self, x)

        monkeypatch.setattr(graph.SmoothMapBetweenManifolds, "jac", counted)
        sp = splitting(hopf, draw_point(hopf.total, rng_for(67)))
        assert len(calls) == 1
        assert a_tensor_coefficients(sp).shape == (2, 2, 1)
        assert len(calls) == 1


class TestOneFramePerCurvature:
    @pytest.mark.parametrize("points", [None, 5], ids=["one-point", "block"])
    def test_pullback_curvature_builds_one_constraint_frame(self, perturbed_pullback,
                                                            monkeypatch, points):
        # core.riemann reads II along the stack (A, B) in one call, so one
        # f*P curvature value, or one per point of a block, builds one frame
        # of the constraint and its one projector derivative
        pb = perturbed_pullback
        rng = rng_for(68)
        z = (draw_point(pb.total_manifold, rng) if points is None
             else draw_block(pb.total_manifold, 68, points))
        a, b, c, d = (draw_tangent(pb.total_manifold, z, rng) for _ in range(4))
        x, p = pb.split_point(z)
        built = kernel_frames_built(monkeypatch)
        value = pullback_curvature(pb, x, p, a, b, c, d)
        assert len(built) == 1 and built[0] is pb.constraint
        assert np.shape(value) == np.shape(z)[:-1]
        expansion = [pullback_curvature_expansion(pb, *args)   # one point a call
                     for args in zip(*np.atleast_2d(x, p, a, b, c, d))]
        npt.assert_allclose(np.atleast_1d(value), expansion, rtol=0.0, atol=1e-10)


class TestSubmersionOntoGraph:
    def test_hopf_scenarios_pass(self, pure_pullback, perturbed_pullback):
        # normal-pair inner products preserved over 100 random samples
        for pb, n in ((pure_pullback, 100), (perturbed_pullback, 25)):
            z = draw_block(pb.total_manifold, 0, n)
            horizontal, isometry, alignment = pullback_submersion_check(pb, z)
            assert horizontal.shape == isometry.shape == alignment.shape == (n,)
            assert np.max(horizontal) <= 1e-6
            assert np.max(isometry) <= 1e-6
            assert np.max(alignment) <= 1e-6

    def test_trivial_bundle_passes(self):
        bundle = trivial_bundle(geometries.sphere(2), geometries.sphere(1))
        pb = PullbackBundle(identity_map(bundle.base), bundle)
        z = draw_block(pb.total_manifold, 0, 10)
        _, isometry, _ = pullback_submersion_check(pb, z)
        assert np.max(isometry) <= 1e-6


# ---------------------------------------------------------------------------
# Metric reduction
# ---------------------------------------------------------------------------

class TestSingularConfiguration:
    def test_degenerate_constraint_detected(self, hopf):
        # the constraint solver loses rank only when the bundle differential
        # itself degenerates; doctor both differentials to zero so the
        # nullspace dimension no longer matches and the solver must report it
        from submersion_lab.core import SingularConfigurationError
        from submersion_lab.graph import SmoothMapBetweenManifolds
        from submersion_lab.submersion import RiemannianSubmersionBundle
        zero_projection = SmoothMapBetweenManifolds(
            source=hopf.total, target=hopf.base,
            ambient_map=hopf.projection.ambient_map,
            jacobian=constant_field(np.zeros((3, 4))), name="flat_projection")
        broken_bundle = RiemannianSubmersionBundle(
            total=hopf.total, base=hopf.base, projection=zero_projection,
            fiber_dim=1,
            fiber_projector=hopf.fiber_projector,
            fiber_sampler=hopf.fiber_sampler, name="broken")
        zero_map = SmoothMapBetweenManifolds(
            source=hopf.total, target=hopf.base,
            ambient_map=hopf.projection.ambient_map,
            jacobian=constant_field(np.zeros((3, 4))), name="flat_map")
        pb = PullbackBundle(zero_map, broken_bundle)
        rng = rng_for(26)
        x = draw_point(hopf.total, rng)
        p = hopf.fiber_sampler(hopf.projection(x), rng.standard_normal(hopf.total.ambient_dim))
        with pytest.raises(SingularConfigurationError):
            pb.tangent_basis(x, p)

    def test_degenerate_constraint_detected_by_frame(self, hopf):
        from submersion_lab.core import SingularConfigurationError
        zero = constant_map(hopf.total, hopf.base, hopf.projection(
            draw_point(hopf.total, rng_for(27))))
        flat_projection = dataclasses.replace(
            hopf.projection, jacobian=constant_field(np.zeros((3, 4))))
        pb = PullbackBundle(zero, dataclasses.replace(hopf, projection=flat_projection))
        rng = rng_for(26)
        x = draw_point(hopf.total, rng)
        p = hopf.fiber_sampler(zero(x), rng.standard_normal(hopf.total.ambient_dim))
        with pytest.raises(SingularConfigurationError):
            tangent_frame(pb, x, p)


class TestReduceConnectionMetric:
    def test_nonpositive_epsilon_rejected(self, hopf):
        with pytest.raises(GeometryError):
            reduce_connection_metric(hopf.projection, epsilon=0.0, samples=2)

    @pytest.mark.parametrize("count", [0, -1])
    def test_no_samples_rejected(self, hopf, count):
        with pytest.raises(GeometryError, match="samples"):
            reduce_connection_metric(hopf.projection, epsilon=0.1, samples=count)

    def test_zero_differential_keeps_metric(self, hopf):
        f = constant_map(hopf.base, hopf.base, np.array([0.0, 0.0, 0.5]))
        reduced = reduce_connection_metric(f, epsilon=5.0, samples=10, seed=0)
        rng = rng_for(11)
        x = draw_point(hopf.base, rng)
        npt.assert_allclose(reduced.metric_field(x),
                            hopf.base.projector_field(x), atol=1e-12)


    def test_spectrum_matches_intrinsic_oracle(self, perturbed_pullback):
        # g' on eigh tangent bases of M and N: its smallest eigenvalue, and the
        # largest epsilon that keeps it positive, from the eigenvalues of d^T d
        f = perturbed_pullback.f
        points = f.source.random_point(loop_rows(26, 6, f.source.ambient_dim))   # the reduction's
        reduced = reduce_connection_metric(f, epsilon=0.1, samples=6, seed=26)
        mins, mus = [], []
        for x in points:
            basis_m = core.tangent_basis(f.source, x)
            d = core.tangent_basis(f.target, f(x)).T @ f.jac(x) @ basis_m
            mins.append(np.linalg.eigvalsh(np.eye(d.shape[1]) - 0.1 * d.T @ d)[0])
            mus.append(np.linalg.eigvalsh(d.T @ d)[-1])
            npt.assert_allclose(basis_m.T @ reduced.metric_field(x) @ basis_m,
                                np.eye(d.shape[1]) - 0.1 * d.T @ d, atol=1e-14)
        assert len(set(np.round(mus, 6))) > 1
        npt.assert_allclose(reduced.min_eigenvalue, min(mins), rtol=1e-13)
        npt.assert_allclose(reduced.max_admissible_epsilon, 1.0 / max(mus), rtol=1e-12)

    def test_hopf_epsilon_point_one(self, hopf):
        reduced = reduce_connection_metric(hopf.projection, epsilon=0.1,
                                           samples=20, seed=0)
        # df has unit singular values on the horizontal space, so the reduced
        # metric's smallest eigenvalue is 1 - 0.1 and epsilon < 1 is admissible
        assert abs(reduced.min_eigenvalue - 0.9) <= 1e-10
        assert abs(reduced.max_admissible_epsilon - 1.0) <= 1e-8
        assert reduced.reconstruction_residual <= 1e-10

    def test_inadmissible_epsilon_rejected(self, hopf):
        with pytest.raises(InadmissibleEpsilonError) as err:
            reduce_connection_metric(hopf.projection, epsilon=1.5,
                                     samples=10, seed=0)
        assert err.value.min_eigenvalue <= 0.0
        assert abs(err.value.max_admissible - 1.0) <= 1e-8

    def test_level_set_tangential_agreement(self, hopf):
        reduced = reduce_connection_metric(hopf.projection, epsilon=0.1,
                                           samples=5, seed=0)
        rng = rng_for(12)
        for _ in range(5):
            x = draw_point(hopf.total, rng)
            kd = obstruction.kernel_splitting(hopf.projection, x)
            kx = kd.kernel_basis[:, 0]
            z = draw_tangent(hopf.total, x, rng)
            g_amb = reduced.metric_field(x)
            p_amb = hopf.total.projector_field(x)
            assert abs(kx @ g_amb @ z - kx @ p_amb @ z) <= 1e-12

    def test_reconstruction_identity(self, hopf):
        reduced = reduce_connection_metric(hopf.projection, epsilon=0.25,
                                           samples=5, seed=0)
        rng = rng_for(13)
        f = hopf.projection
        for _ in range(5):
            x = draw_point(hopf.total, rng)
            g_amb = reduced.metric_field(x)
            X = draw_tangent(hopf.total, x, rng)
            Y = draw_tangent(hopf.total, x, rng)
            lhs = X @ g_amb @ Y + 0.25 * (f.jac(x) @ X) @ (f.jac(x) @ Y)
            assert abs(lhs - X @ Y) <= 1e-10


# ---------------------------------------------------------------------------
# Lambda and the second fundamental form
# ---------------------------------------------------------------------------

class TestLambdaTerm:
    def test_horizontal_pair_vanishes(self, pure_pullback):
        rng = rng_for(14)
        z = draw_point(pure_pullback.total_manifold, rng)
        x, p = pure_pullback.split_point(z)
        sp = splitting(pure_pullback.bundle, p)
        y1 = sp.coimage_basis @ rng.standard_normal(2)
        y2 = sp.coimage_basis @ rng.standard_normal(2)
        assert np.linalg.norm(lambda_term(PointData(pure_pullback, x, p), y1, y2)) <= 1e-8

    def test_vertical_pair_vanishes(self, pure_pullback):
        rng = rng_for(15)
        z = draw_point(pure_pullback.total_manifold, rng)
        x, p = pure_pullback.split_point(z)
        sp = splitting(pure_pullback.bundle, p)
        u = sp.kernel_basis[:, 0]
        assert np.linalg.norm(lambda_term(PointData(pure_pullback, x, p), u, u)) <= 1e-8

    def test_mixed_pair_unit_norm(self, pure_pullback):
        rng = rng_for(16)
        z = draw_point(pure_pullback.total_manifold, rng)
        x, p = pure_pullback.split_point(z)
        sp = splitting(pure_pullback.bundle, p)
        y = sp.coimage_basis[:, 0]
        u = sp.kernel_basis[:, 0]
        val = lambda_term(PointData(pure_pullback, x, p), y, u)
        assert abs(np.linalg.norm(val) - 1.0) <= 1e-5

    def test_symmetry(self, perturbed_pullback):
        rng = rng_for(17)
        z = draw_point(perturbed_pullback.total_manifold, rng)
        x, p = perturbed_pullback.split_point(z)
        sp = splitting(perturbed_pullback.bundle, p)
        y1 = sp.coimage_basis @ rng.standard_normal(2) + sp.kernel_basis[:, 0]
        y2 = sp.coimage_basis @ rng.standard_normal(2) - 0.3 * sp.kernel_basis[:, 0]
        pt = PointData(perturbed_pullback, x, p)
        npt.assert_allclose(lambda_term(pt, y1, y2), lambda_term(pt, y2, y1), atol=1e-10)


class TestSecondFundamentalForm:
    def test_constant_base_map_trivial_bundle_zero(self):
        bundle = trivial_bundle(geometries.sphere(2), geometries.sphere(1))
        f = constant_map(bundle.base, bundle.base, np.array([0.0, 0.0, 1.0]))
        pb = PullbackBundle(f, bundle)
        rng = rng_for(18)
        z = draw_point(pb.total_manifold, rng)
        x, p = pb.split_point(z)
        basis = pb.tangent_basis(x, p)
        ii = pullback_second_fundamental_form(PointData(pb, x, p), basis[:, 0], basis[:, 1])
        assert np.linalg.norm(ii) <= 1e-8

    @pytest.mark.parametrize("fixture", ["pure_pullback", "perturbed_pullback"])
    def test_formula_vs_direct_oracle(self, fixture, request):
        pb = request.getfixturevalue(fixture)
        rng = rng_for(19)
        for _ in range(10):
            z = draw_point(pb.total_manifold, rng)
            x, p = pb.split_point(z)
            basis = pb.tangent_basis(x, p)
            i, j = rng.integers(0, basis.shape[1], size=2)
            formula = pullback_second_fundamental_form(PointData(pb, x, p),
                                                       basis[:, i], basis[:, j])
            direct = pullback_second_fundamental_form_direct(pb, x, p,
                                                             basis[:, i], basis[:, j])
            assert np.linalg.norm(formula - direct) <= 1e-4

    def test_kernel_lift_pair(self, pure_pullback):
        pb = pure_pullback
        rng = rng_for(20)
        z = draw_point(pb.total_manifold, rng)
        x, p = pb.split_point(z)
        kd = obstruction.kernel_splitting(pb.f, x)
        pt = PointData(pb, x, p)
        lift = pt.horizontal_lift(kd.kernel_basis[:, 0])
        formula = pullback_second_fundamental_form(pt, lift, lift)
        direct = pullback_second_fundamental_form_direct(pb, x, p, lift, lift)
        assert np.linalg.norm(formula - direct) <= 1e-4

    def test_symmetric(self, perturbed_pullback):
        pb = perturbed_pullback
        rng = rng_for(21)
        z = draw_point(pb.total_manifold, rng)
        x, p = pb.split_point(z)
        basis = pb.tangent_basis(x, p)
        a, b = basis[:, 0], basis[:, 2]
        pt = PointData(pb, x, p)
        lhs = pullback_second_fundamental_form(pt, a, b)
        rhs = pullback_second_fundamental_form(pt, b, a)
        assert np.linalg.norm(lhs - rhs) <= 1e-4


# ---------------------------------------------------------------------------
# Curvature paths
# ---------------------------------------------------------------------------

class TestCurvaturePaths:
    def test_flat_trivial_bundle_both_zero(self):
        base = geometries.flat_space(2)
        bundle = trivial_bundle(base, geometries.sphere(1))
        f = identity_map(base)
        pb = PullbackBundle(f, bundle)
        rng = rng_for(22)
        z = draw_point(pb.total_manifold, rng)
        x, p = pb.split_point(z)
        basis = pb.tangent_basis(x, p)
        args = [basis[:, 0], basis[:, 1], basis[:, 2], basis[:, 0]]
        assert abs(pullback_curvature(pb, x, p, *args)) <= 1e-8
        assert abs(pullback_curvature_expansion(pb, x, p, *args)) <= 1e-8

    def test_constant_map_product_curvature(self):
        # f constant: f*P = M x (fiber over the constant value); curvature
        # splits termwise into the factor curvatures
        bundle = trivial_bundle(geometries.sphere(2), geometries.sphere(1))
        f = constant_map(geometries.sphere(2), bundle.base, np.array([0.0, 0.0, 1.0]))
        pb = PullbackBundle(f, bundle)
        rng = rng_for(23)
        z = draw_point(pb.total_manifold, rng)
        x, p = pb.split_point(z)
        # plane inside the M factor: curvature 1; mixed plane: 0
        xm = draw_tangent(pb.f.source, x, rng)
        ym = draw_tangent(pb.f.source, x, rng)
        ym = ym - xm * (xm @ ym)
        ym /= np.linalg.norm(ym)
        a = np.concatenate([xm, np.zeros(5)])
        b = np.concatenate([ym, np.zeros(5)])
        direct = pullback_curvature(pb, x, p, a, b, b, a)
        expansion = pullback_curvature_expansion(pb, x, p, a, b, b, a)
        assert abs(direct - 1.0) <= 1e-6
        assert abs(expansion - 1.0) <= 1e-6

    @pytest.mark.parametrize("fixture", ["pure_pullback", "perturbed_pullback"])
    def test_path_agreement_random_arguments(self, fixture, request):
        pb = request.getfixturevalue(fixture)
        rng = rng_for(24)
        for _ in range(10):
            z = draw_point(pb.total_manifold, rng)
            x, p = pb.split_point(z)
            basis = pb.tangent_basis(x, p)
            coeffs = rng.standard_normal((4, basis.shape[1]))
            args = [basis @ (c / np.linalg.norm(c)) for c in coeffs]
            direct = pullback_curvature(pb, x, p, *args)
            expansion = pullback_curvature_expansion(pb, x, p, *args)
            assert abs(direct - expansion) <= 1e-3
