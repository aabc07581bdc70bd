"""Graph operators: duals, the block splitting, normal projection, d2f; the
graph itself as the pull-back of the identity bundle."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submersion_lab import core, geometries, graph, numerics, scenarios
from submersion_lab.graph import (GraphOperators, SmoothMapBetweenManifolds,
                                  compose, constant_map, d2f, identity_map)
from submersion_lab.numerics import (DEFAULT_FD_STEP, central_difference, constant_field,
                                     positive_pivots)
from submersion_lab.pullback import PointData, PullbackBundle, pullback_second_fundamental_form

from conftest import (draw_block, draw_point, draw_tangent, extend_tangent, linear_sphere_map,
                      rng_for, scaled_fiber_bundle)


def flat_linear_map(matrix):
    matrix = np.asarray(matrix, dtype=float)
    src = geometries.flat_space(matrix.shape[1])
    dst = geometries.flat_space(matrix.shape[0])
    return SmoothMapBetweenManifolds(
        source=src, target=dst,
        ambient_map=lambda x: x @ matrix.T,
        jacobian=constant_field(matrix),
        name="flat_linear")


class TestXiInverse:
    def test_zero_differential_identity_blocks(self, s2, s3):
        f = constant_map(s3, s2, np.array([0.0, 0.0, 1.0]))
        rng = rng_for(3)
        x = draw_point(s3, rng)
        X = draw_tangent(s3, x, rng)
        Y = draw_tangent(s2, f(x), rng)
        tv, nw = GraphOperators(f, x).xi_inverse(X, Y)
        npt.assert_allclose(tv, X, atol=1e-12)
        npt.assert_allclose(nw, Y, atol=1e-12)

    def test_flat_identity_halves(self):
        f = flat_linear_map(np.eye(2))
        x = np.zeros(2)
        X = np.array([1.0, 0.0])
        Y = np.array([0.0, 2.0])
        tv, nw = GraphOperators(f, x).xi_inverse(X, Y)
        npt.assert_allclose(tv, 0.5 * (X + Y), atol=1e-12)
        npt.assert_allclose(nw, 0.5 * (Y - X), atol=1e-12)

    def test_roundtrip_random_flat_map(self):
        rng = rng_for(4)
        f = flat_linear_map(rng.standard_normal((3, 2)))
        x = np.zeros(2)
        ops = GraphOperators(f, x)
        for _ in range(10):
            X = rng.standard_normal(2)
            Y = rng.standard_normal(3)
            tv, nw = ops.xi_inverse(X, Y)
            rx, ry = ops.xi(tv, nw)
            assert np.linalg.norm(rx - X) <= 1e-10
            assert np.linalg.norm(ry - Y) <= 1e-10

    def test_roundtrip_sphere_map(self, s2, s3):
        rng = rng_for(5)
        f = linear_sphere_map(s3, s2, rng.standard_normal((3, 4)))
        x = draw_point(s3, rng)
        ops = GraphOperators(f, x)
        X = draw_tangent(s3, x, rng)
        Y = draw_tangent(s2, f(x), rng)
        tv, nw = ops.xi_inverse(X, Y)
        rx, ry = ops.xi(tv, nw)
        assert max(np.linalg.norm(rx - X), np.linalg.norm(ry - Y)) <= 1e-9


class TestNormalProjectionGraph:
    def test_graph_tangent_annihilated(self, s2, s3):
        rng = rng_for(6)
        f = linear_sphere_map(s3, s2, rng.standard_normal((3, 4)))
        x = draw_point(s3, rng)
        X = draw_tangent(s3, x, rng)
        pv, pw = GraphOperators(f, x).normal_projection(X, f.jac(x) @ X)
        assert np.linalg.norm(pv) <= 1e-9
        assert np.linalg.norm(pw) <= 1e-9

    def test_zero_differential_keeps_target_part(self, s2, s3):
        f = constant_map(s3, s2, np.array([0.0, 0.0, 1.0]))
        rng = rng_for(7)
        x = draw_point(s3, rng)
        X = draw_tangent(s3, x, rng)
        Y = draw_tangent(s2, f(x), rng)
        pv, pw = GraphOperators(f, x).normal_projection(X, Y)
        npt.assert_allclose(pv, np.zeros(4), atol=1e-12)
        npt.assert_allclose(pw, Y, atol=1e-12)

    def test_against_gram_schmidt_oracle(self, s2, s3):
        # brute force: orthonormalize a graph tangent basis and subtract the
        # tangential component; both flat and sphere scenarios
        rng = rng_for(8)
        cases = [flat_linear_map(rng.standard_normal((3, 2))),
                 linear_sphere_map(s3, s2, rng.standard_normal((3, 4))),
                 linear_sphere_map(s2, s2, rng.standard_normal((3, 3)))]
        for f in cases:
            for _ in range(5):
                x = draw_point(f.source, rng)
                basis_m = core.tangent_basis(f.source, x)
                cols = np.vstack([basis_m, f.jac(x) @ basis_m])
                q, _ = np.linalg.qr(cols)
                v = draw_tangent(f.source, x, rng)
                w = draw_tangent(f.target, f(x), rng)
                stacked = np.concatenate([v, w])
                oracle = stacked - q @ (q.T @ stacked)
                pv, pw = GraphOperators(f, x).normal_projection(v, w)
                assert np.linalg.norm(np.concatenate([pv, pw]) - oracle) <= 1e-8

    def test_idempotent(self, s2):
        rng = rng_for(9)
        f = linear_sphere_map(s2, s2, rng.standard_normal((3, 3)))
        x = draw_point(s2, rng)
        v = draw_tangent(s2, x, rng)
        w = draw_tangent(s2, f(x), rng)
        ops = GraphOperators(f, x)
        pv, pw = ops.normal_projection(v, w)
        qv, qw = ops.normal_projection(pv, pw)
        assert max(np.linalg.norm(qv - pv), np.linalg.norm(qw - pw)) <= 1e-8

    def test_commute_identity(self, s2, s3):
        # df (1 + df^T df)^{-1} = (1 + df df^T)^{-1} df, df as the ambient C
        rng = rng_for(10)
        f = linear_sphere_map(s3, s2, rng.standard_normal((3, 4)))
        x = draw_point(s3, rng)
        c = GraphOperators(f, x).c
        lhs = c @ np.linalg.inv(np.eye(4) + c.T @ c)
        rhs = np.linalg.inv(np.eye(3) + c @ c.T) @ c
        npt.assert_allclose(lhs, rhs, atol=1e-10)

    def test_o_spectrum_in_unit_interval(self, s2, s3):
        rng = rng_for(11)
        f = linear_sphere_map(s3, s2, rng.standard_normal((3, 4)))
        x = draw_point(s3, rng)
        ops = GraphOperators(f, x)
        # O on the ambient target space, column by column through apply_o: it
        # vanishes on the normal line of S^2 and inverts 1 + df df^T on T_{f(x)}N
        o = np.column_stack([ops.apply_o(e) for e in np.eye(3)])
        npt.assert_allclose(o, o.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(o)
        npt.assert_allclose(eigs[0], 0.0, atol=1e-12)
        assert np.all(eigs[1:] > 0.0)
        assert np.all(eigs <= 1.0 + 1e-12)
        npt.assert_allclose(o @ (np.eye(3) + ops.c @ ops.c.T), ops.p_n, atol=1e-10)


@pytest.fixture(scope="module")
def quaternionic_pullback():
    return scenarios.build_scenario(scenarios.ScenarioConfig.from_dict({
        "name": "frame", "bundle": "hopf_quaternionic",
        "base_map": "compose(hopf, perturbed(0.3, e1))"})).pullback


def kernel_frame_case(pb, kind, rng):
    """(map, point, rank) of one of the package's three kernel projectors."""
    bundle, dim_n = pb.bundle, pb.bundle.base.intrinsic_dim
    if kind == "pullback":
        return pb.constraint, draw_point(pb.total_manifold, rng), dim_n
    if kind == "vertical":
        return bundle.projection, draw_point(bundle.total, rng), dim_n
    x = draw_point(pb.f.source, rng)
    return pb.f, x, graph.kernel_splitting(pb.f, x).rank


class TestKernelFrame:
    @pytest.mark.parametrize("kind", ["pullback", "vertical", "level_set"])
    def test_derivative_matches_difference_of_projector(self, quaternionic_pullback, kind):
        rng = rng_for(47)
        f, x, rank = kernel_frame_case(quaternionic_pullback, kind, rng)
        frame = graph.KernelFrame(f, x, rank)
        k = frame.projector
        npt.assert_allclose(k @ k, k, atol=1e-12)
        assert np.trace(k) == pytest.approx(f.source.intrinsic_dim - rank, abs=1e-12)
        for _ in range(2):
            u = draw_tangent(f.source, x, rng)
            oracle = central_difference(lambda t: graph.KernelFrame(
                f, f.source.retraction(x, t * u), rank).projector, 1e-5)
            npt.assert_allclose(frame.derivative(u), oracle, atol=1e-8)


def assert_orthonormal_basis_of(basis, projector):
    """B B^T = K and B^T B = I at each point of a block, to 1e-12."""
    npt.assert_allclose(basis @ basis.swapaxes(-1, -2), projector, rtol=0.0, atol=1e-12)
    npt.assert_allclose(basis.swapaxes(-1, -2) @ basis - np.eye(basis.shape[-1]), 0.0,
                        atol=1e-12)


class TestKernelBasisFromTheNullspace:
    """`kernel_basis` is N0 B, B the eigh basis of the compression of P onto
    the nullspace N0 of C = J P: an orthonormal basis of the kernel projector
    K = P - R R^T on every kind of frame, at every rank."""

    @pytest.mark.parametrize("bundle, base_map", [
        (bundle, base_map) for bundle in scenarios.BUNDLE_NAMES
        for base_map in ("compose(geodesic_fold(3), perturbed(0.9, e2))" if bundle == "trivial"
                         else "compose(hopf, perturbed(0.3, e1))", "constant")])
    def test_basis_spans_the_kernel_projector(self, bundle, base_map):
        pb = scenarios.build_scenario(scenarios.ScenarioConfig.from_dict(
            {"name": "basis", "bundle": bundle, "base_map": base_map})).pullback
        z = draw_block(pb.total_manifold, 71, 5)
        x, p = pb.split_point(z)
        frames = [frame for _, frame in graph.KernelFrame.by_rank(pb.f, x)]
        frames.append(graph.KernelFrame(pb.bundle.projection, p, pb.bundle.base.intrinsic_dim))
        # the f*P constraint frame as `PointData` builds it, with P and J given
        frames.append(graph.KernelFrame(pb.constraint, z, pb.bundle.base.intrinsic_dim,
                                        pb.product.projector(z), pb.constraint.jac(z)))
        if base_map == "constant":
            assert frames[0].rank == 0
        for frame in frames:
            assert frame.kernel_basis.shape[-1] == frame.f.source.intrinsic_dim - frame.rank
            assert_orthonormal_basis_of(frame.kernel_basis, frame.projector)
            # signed in ambient coordinates, so a kernel of dimension 1 has one basis
            npt.assert_array_equal(frame.kernel_basis, positive_pivots(frame.kernel_basis))

    def test_basis_of_the_identity_on_flat_space_is_empty(self):
        # identity on R^2: rank n, so the nullspace of C and the kernel are {0}
        f = identity_map(geometries.flat_space(2))
        assert graph.KernelFrame(f, np.zeros(2)).kernel_basis.shape == (2, 0)
        assert graph.KernelFrame(f, np.zeros((3, 2))).kernel_basis.shape == (3, 2, 0)

    def test_basis_of_a_mixed_rank_block(self):
        # geodesic_fold(2) folds the equator x_0 = 0 of S^2 onto a pole, where
        # df drops to rank 1
        pb = scenarios.build_scenario(scenarios.ScenarioConfig.from_dict(
            {"name": "basis", "bundle": "trivial", "base_map": "geodesic_fold(2)"})).pullback
        x = draw_block(pb.f.source, 72, 4)
        x[[1, 3], 0] = 0.0
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        frames = graph.KernelFrame.by_rank(pb.f, x)
        assert [(index.tolist(), frame.rank) for index, frame in frames] == \
            [([0, 2], 2), ([1, 3], 1)]
        for _, frame in frames:
            assert_orthonormal_basis_of(frame.kernel_basis, frame.projector)


# one expression per base-map head of the scenario parser
HEAD_EXAMPLES = {
    "identity": "identity",
    "constant": "constant",
    "hopf": "hopf",
    "geodesic_fold": "geodesic_fold(3)",
    "perturbed": "perturbed(0.9, e2)",
    "compose": "compose(hopf, perturbed(0.3, e1))",
}


def assert_jacobian_derivative_matches_fd(f, rng, points=3):
    """f's closed-form dJ[u] against a central difference of f.jac."""
    assert f.jacobian_derivative is not None, f"{f.name} has no closed-form dJ"
    fd = dataclasses.replace(f, jacobian_derivative=None, fd_step=1e-5)
    for _ in range(points):
        x = draw_point(f.source, rng)
        u = draw_tangent(f.source, x, rng)
        oracle = fd.jac_derivative(x, u)
        assert np.linalg.norm(f.jac_derivative(x, u) - oracle) <= \
            1e-7 * max(1.0, np.linalg.norm(oracle))


class TestD2f:
    def test_identity_map_zero(self, s2):
        f = identity_map(s2)
        rng = rng_for(12)
        x = draw_point(s2, rng)
        X = draw_tangent(s2, x, rng)
        Y = draw_tangent(s2, x, rng)
        assert np.linalg.norm(d2f(f, x, X, Y)) <= 1e-8

    def test_constant_map_zero(self, s2, s3):
        f = constant_map(s3, s2, np.array([0.0, 0.0, 1.0]))
        rng = rng_for(13)
        x = draw_point(s3, rng)
        X = draw_tangent(s3, x, rng)
        assert np.linalg.norm(d2f(f, x, X, X)) <= 1e-10

    def test_hopf_vertical_direction_vanishes(self, hopf_complex):
        # kernel directions of the bundle projection are fiber velocities and
        # the fibers are great circles, hence geodesics: d2f(X, X) = 0.
        rng = rng_for(14)
        f = hopf_complex.projection
        p = draw_point(hopf_complex.total, rng)
        a, b = p[:2], p[2:]
        vertical = np.array([-a[1], a[0], -b[1], b[0]])
        # oracle: the fiber circle acceleration is purely normal
        accel = -p  # second derivative of cos(t) p + sin(t) (ip) at t=0
        assert np.linalg.norm(hopf_complex.total.projector_field(p) @ accel) <= 1e-12
        assert np.linalg.norm(d2f(f, p, vertical, vertical)) <= 1e-6

    def test_symmetry(self, s2, s3):
        rng = rng_for(15)
        f = linear_sphere_map(s3, s2, rng.standard_normal((3, 4)))
        x = draw_point(s3, rng)
        X = draw_tangent(s3, x, rng)
        Y = draw_tangent(s3, x, rng)
        assert np.linalg.norm(d2f(f, x, X, Y) - d2f(f, x, Y, X)) <= 1e-4

    @pytest.mark.parametrize("head", scenarios.BASE_MAP_HEADS)
    def test_closed_form_matches_difference_definition(self, head):
        # the defining difference: target derivative of df(P_M(y) Y) along X
        # minus df of the source covariant derivative of P_M(y) Y
        b = scenarios.build_bundle("hopf_quaternionic")
        f = scenarios.resolve_base_map(
            scenarios.parse_base_map_expression(HEAD_EXAMPLES[head]), b.base, b)
        m, h = f.source, 1e-5
        rng = rng_for(43)
        for _ in range(3):
            x = draw_point(m, rng)
            X = draw_tangent(m, x, rng)
            Y = draw_tangent(m, x, rng)
            field = extend_tangent(m, Y)
            moved = lambda t: m.retraction(x, t * X)
            term1 = f.target.projector_field(f(x)) @ (
                f.jac(moved(h)) @ field(moved(h)) - f.jac(moved(-h)) @ field(moved(-h))) / (2 * h)
            term2 = f.jac(x) @ core.covariant_derivative(m, field, x, X, h)
            oracle = term1 - term2
            assert np.linalg.norm(d2f(f, x, X, Y) - oracle) <= \
                1e-6 * max(1.0, np.linalg.norm(oracle))

    def test_extension_independence(self, s2):
        # halving the step changes the value only at second order
        rng = rng_for(16)
        f = linear_sphere_map(s2, s2, rng.standard_normal((3, 3)))
        x = draw_point(s2, rng)
        X = draw_tangent(s2, x, rng)
        v1 = d2f(dataclasses.replace(f, fd_step=1e-4), x, X, X)
        v2 = d2f(dataclasses.replace(f, fd_step=5e-5), x, X, X)
        assert np.linalg.norm(v1 - v2) <= 1e-7


class TestJacobianDerivative:
    def test_examples_cover_every_head(self):
        assert set(HEAD_EXAMPLES) == set(scenarios.BASE_MAP_HEADS)

    @pytest.mark.parametrize("bundle", ["hopf_complex", "hopf_octonionic"])
    @pytest.mark.parametrize("head", scenarios.BASE_MAP_HEADS)
    def test_closed_form_matches_central_difference(self, head, bundle):
        b = scenarios.build_bundle(bundle)
        f = scenarios.resolve_base_map(
            scenarios.parse_base_map_expression(HEAD_EXAMPLES[head]), b.base, b)
        assert_jacobian_derivative_matches_fd(f, rng_for(40))

    @pytest.mark.parametrize("bundle", ["trivial", "scaled_fiber"])
    def test_product_projections(self, bundle):
        b = (scaled_fiber_bundle(0.5) if bundle == "scaled_fiber"
             else scenarios.build_bundle(bundle))
        assert_jacobian_derivative_matches_fd(b.projection, rng_for(41))

    def test_fd_fallback_without_closed_form(self, s2):
        # a map with no jacobian_derivative differentiates its Jacobian
        rng = rng_for(42)
        f = linear_sphere_map(s2, s2, rng.standard_normal((3, 3)))
        x = draw_point(s2, rng)
        u = draw_tangent(s2, x, rng)
        h = 1e-5
        fd = (f.jac(s2.retraction(x, h * u)) - f.jac(s2.retraction(x, -h * u))) / (2 * h)
        npt.assert_allclose(f.jac_derivative(x, u), fd, atol=1e-6)

    def test_fd_fallback_takes_the_callers_step(self, s2):
        # the map's fd_step reaches the fallback, through d2f as well: a
        # coarse step moves the value at second order, and DEFAULT_FD_STEP
        # is the default
        rng = rng_for(43)
        f = linear_sphere_map(s2, s2, rng.standard_normal((3, 3)))
        x = draw_point(s2, rng)
        u = draw_tangent(s2, x, rng)
        h = 0.1
        fd = (f.jac(s2.retraction(x, h * u)) - f.jac(s2.retraction(x, -h * u))) / (2 * h)
        coarse = dataclasses.replace(f, fd_step=h)
        npt.assert_array_equal(coarse.jac_derivative(x, u), fd)
        npt.assert_array_equal(
            dataclasses.replace(f, fd_step=DEFAULT_FD_STEP).jac_derivative(x, u),
            f.jac_derivative(x, u))
        assert np.linalg.norm(d2f(coarse, x, u, u) - d2f(f, x, u, u)) > 1e-4


def graph_of(f):
    """The graph of f: the pull-back of the identity bundle of its target."""
    return PullbackBundle(f, geometries.identity_bundle(f.target))


def graph_tangent(f, x, X):
    """(X, df X), the graph's tangent over X."""
    return np.concatenate([X, f.jac(x) @ X], axis=-1)


class TestGraphSecondFundamentalForm:
    def test_identity_and_constant_vanish(self, s2, s3):
        rng = rng_for(17)
        for f in (identity_map(s2),
                  constant_map(s3, s2, np.array([0.0, 0.0, 1.0]))):
            x = draw_point(f.source, rng)
            xt = graph_tangent(f, x, draw_tangent(f.source, x, rng))
            pt = PointData(graph_of(f), x, f(x))
            assert np.linalg.norm(pullback_second_fundamental_form(pt, xt, xt)) <= 1e-8

    def test_against_direct_ambient_oracle(self, s2, s3):
        # the flat-ambient second fundamental form of the graph, from a
        # central difference of its projector and projected to T(M x N),
        # against the closed form through d2f
        rng = rng_for(18)
        f = linear_sphere_map(s3, s2, rng.standard_normal((3, 4)))
        pb = graph_of(f)
        gm = dataclasses.replace(pb.total_manifold, analytic_projector_derivative=None,
                                 analytic_second_fundamental_form=None)
        for _ in range(5):
            x = draw_point(s3, rng)
            z = pb.join(x, f(x))
            xt = graph_tangent(f, x, draw_tangent(s3, x, rng))
            yt = graph_tangent(f, x, draw_tangent(s3, x, rng))
            direct = pb.product.projector(z) @ core.second_fundamental_form(gm, z, xt, yt)
            formula = pullback_second_fundamental_form(PointData(pb, x, f(x)), xt, yt)
            assert np.linalg.norm(formula - direct) <= 1e-4

    def test_output_normal_to_graph(self, s2):
        rng = rng_for(19)
        f = linear_sphere_map(s2, s2, rng.standard_normal((3, 3)))
        x = draw_point(s2, rng)
        xt = graph_tangent(f, x, draw_tangent(s2, x, rng))
        ii = pullback_second_fundamental_form(PointData(graph_of(f), x, f(x)), xt, xt)
        basis_m = core.tangent_basis(s2, x)
        graph_tangents = np.vstack([basis_m, f.jac(x) @ basis_m])
        assert np.max(np.abs(ii @ graph_tangents)) <= 1e-6


GRAPH_MAPS = [
    ("fold2_S2", geometries.geodesic_k_fold(geometries.sphere(2), 2)),
    ("perturbed_S2", geometries.perturbation_diffeo(geometries.sphere(2), 0.3, np.eye(3)[0])),
    ("perturbed_S3", geometries.perturbation_diffeo(geometries.sphere(3), 0.5, np.eye(4)[1])),
    ("skew_S3_S2", linear_sphere_map(geometries.sphere(3), geometries.sphere(2),
                                     rng_for(20).standard_normal((3, 4)))),
]


class TestIdentityPullbackIsTheGraph:
    @pytest.mark.parametrize("f", [f for _, f in GRAPH_MAPS], ids=[i for i, _ in GRAPH_MAPS])
    def test_projector_matches_orthonormalised_graph_basis(self, f):
        # the oracle: QR of [I; J] on a tangent basis of M spans T graph
        pb = graph_of(f)
        rng = rng_for(21)
        x = np.array([draw_point(f.source, rng) for _ in range(4)])
        projector = pb.total_manifold.projector(pb.join(x, f(x)))
        for i in range(len(x)):
            basis = core.tangent_basis(f.source, x[i])
            q, _ = np.linalg.qr(np.concatenate([basis, f.jac(x[i]) @ basis]))
            npt.assert_allclose(projector[i], q @ q.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("f", [f for _, f in GRAPH_MAPS], ids=[i for i, _ in GRAPH_MAPS])
    def test_retraction_lands_on_the_graph(self, f):
        pb = graph_of(f)
        rng = rng_for(22)
        z = np.array([draw_point(pb.total_manifold, rng) for _ in range(4)])
        v = np.matvec(pb.total_manifold.projector(z), rng.standard_normal(z.shape))
        x, y = pb.split_point(pb.total_manifold.retraction(z, 0.3 * v))
        npt.assert_array_equal(y, f(x))
        npt.assert_array_equal(x, f.source.retraction(z[:, :pb.d_m], 0.3 * v[:, :pb.d_m]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([1.0, 0.0, 0.3]))
def test_xi_roundtrip_property(seed, m, n, scale):
    # the graph splitting inverts exactly for any differential, including
    # zero and rank-deficient ones
    rng = np.random.default_rng(seed)
    mat = scale * rng.standard_normal((n, m))
    if min(m, n) > 1 and seed % 3 == 0:
        mat[:, -1] = mat[:, 0]  # force rank deficiency
    f = flat_linear_map(mat)
    ops = GraphOperators(f, np.zeros(m))
    v = rng.standard_normal(m)
    w = rng.standard_normal(n)
    tv, nw = ops.xi_inverse(v, w)
    rv, rw = ops.xi(tv, nw)
    assert np.linalg.norm(rv - v) <= 1e-9 * max(1.0, np.linalg.norm(v))
    assert np.linalg.norm(rw - w) <= 1e-9 * max(1.0, np.linalg.norm(w))


class TestCompose:
    def test_identity_composition(self, s2):
        rng = rng_for(20)
        f = linear_sphere_map(s2, s2, rng.standard_normal((3, 3)))
        g = compose(identity_map(s2), f)
        x = draw_point(s2, rng)
        npt.assert_allclose(g(x), f(x), atol=1e-14)
        npt.assert_allclose(g.jac(x), f.jac(x), atol=1e-14)

    def test_chain_rule_vs_fd(self, s2):
        rng = rng_for(21)
        f = linear_sphere_map(s2, s2, rng.standard_normal((3, 3)))
        g = linear_sphere_map(s2, s2, rng.standard_normal((3, 3)))
        fg = compose(f, g)
        x = draw_point(s2, rng)
        X = draw_tangent(s2, x, rng)
        h = 1e-5
        fd = (fg(s2.retraction(x, h * X)) - fg(s2.retraction(x, -h * X))) / (2 * h)
        npt.assert_allclose(s2.projector_field(fg(x)) @ (fg.jac(x) @ X),
                            s2.projector_field(fg(x)) @ fd, atol=1e-6)
