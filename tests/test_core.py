"""Embedded-manifold calculus: projectors, derivatives, curvature."""

import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submersion_lab import core, geometries
from submersion_lab.core import DegeneratePlaneError, PointOffManifoldError
from submersion_lab.pullback import PullbackBundle

from conftest import draw_point, draw_tangent, extend_tangent, linear_sphere_map, rng_for


# ---------------------------------------------------------------------------
# Tangent projectors and manifold plumbing
# ---------------------------------------------------------------------------

class TestTangentProjector:
    def test_unit_sphere_at_pole(self, s2):
        e3 = np.array([0.0, 0.0, 1.0])
        expected = np.eye(3) - np.outer(e3, e3)
        npt.assert_allclose(core.tangent_projector(s2, e3), expected, atol=1e-14)

    def test_flat_space_identity(self):
        flat = geometries.flat_space(2)
        x = np.array([0.3, -0.7])
        npt.assert_allclose(core.tangent_projector(flat, x), np.eye(2), atol=0)

    def test_torus_product_block_diagonal(self):
        torus = geometries.product_manifold(geometries.sphere(1), geometries.sphere(1))
        z = np.array([1.0, 0.0, 1.0, 0.0])
        block = np.eye(2) - np.outer([1.0, 0.0], [1.0, 0.0])
        expected = np.zeros((4, 4))
        expected[:2, :2] = block
        expected[2:, 2:] = block
        npt.assert_allclose(core.tangent_projector(torus, z), expected, atol=1e-14)

    def test_wrong_shape_at_one_point_is_named(self):
        # a closure of the wrong shape is named at one point as on a block
        m = dataclasses.replace(geometries.sphere(2), projector_field=lambda x: np.eye(4))
        x = np.array([1.0, 0.0, 0.0])
        for point in (x, x[None]):
            with pytest.raises(core.GeometryError,
                               match=re.escape(f"projector_field of {m.name}")):
                m.projector(point)

    def test_off_manifold_rejected(self, s2):
        with pytest.raises(PointOffManifoldError):
            core.tangent_projector(s2, np.array([0.0, 0.0, 1.5]))

    @pytest.mark.parametrize("dim", [2, 3, 4, 7])
    def test_projector_identities_sampled(self, dim):
        m = geometries.sphere(dim)
        rng = rng_for(dim)
        for _ in range(5):
            x = draw_point(m, rng)
            p = m.projector_field(x)
            assert np.linalg.norm(p @ p - p) <= 1e-10
            assert np.linalg.norm(p - p.T) <= 1e-10
            assert abs(np.trace(p) - dim) <= 1e-8

    def test_retraction_zero_step_and_second_order(self, s2):
        rng = rng_for(1)
        x = draw_point(s2, rng)
        npt.assert_allclose(s2.retraction(x, np.zeros(3)), x, atol=1e-13)
        v = draw_tangent(s2, x, rng)
        for h in (1e-2, 1e-3):
            assert np.linalg.norm(s2.retraction(x, h * v) - (x + h * v)) <= 2.0 * h ** 2



# ---------------------------------------------------------------------------
# Covariant derivative
# ---------------------------------------------------------------------------

class TestCovariantDerivative:
    def test_great_circle_velocity_is_geodesic(self, s2):
        # velocity field of the equator circle, differentiated along itself
        def velocity(y):
            return np.array([-y[1], y[0], 0.0])

        x = np.array([1.0, 0.0, 0.0])
        nabla = core.covariant_derivative(s2, velocity, x, velocity(x))
        assert np.linalg.norm(nabla) <= 1e-8

    def test_constant_field_flat(self):
        flat = geometries.flat_space(3)
        a = np.array([0.2, -0.5, 1.0])
        nabla = core.covariant_derivative(flat, lambda y: a, np.zeros(3), np.ones(3))
        npt.assert_allclose(nabla, np.zeros(3), atol=1e-12)

    def test_against_richardson_fd_oracle(self, s2):
        # Y(x) = P(x) a on the sphere, differentiated along the great circle
        # through x with velocity X: an oracle on an exact geodesic curve,
        # evaluated at two step sizes and Richardson-combined.
        x = np.array([1.0, 0.0, 0.0])
        X = np.array([0.0, 1.0, 0.0])
        a = np.array([0.0, 1.0, 0.0])
        field = extend_tangent(s2, a)

        def circle(t):
            return np.cos(t) * x + np.sin(t) * X

        def oracle(h):
            return s2.projector_field(x) @ (field(circle(h)) - field(circle(-h))) / (2 * h)

        d_h = oracle(1e-4)
        d_h2 = oracle(5e-5)
        richardson = (4.0 * d_h2 - d_h) / 3.0
        value = core.covariant_derivative(s2, field, x, X)
        npt.assert_allclose(value, richardson, atol=1e-8)

    def test_metric_compatibility(self, s3):
        rng = rng_for(7)
        for _ in range(5):
            x = draw_point(s3, rng)
            a = rng.standard_normal(4)
            b = rng.standard_normal(4)
            X = draw_tangent(s3, x, rng)
            fa = extend_tangent(s3, a)
            fb = extend_tangent(s3, b)
            h = 1e-4

            def inner(t):
                y = s3.retraction(x, t * X)
                return fa(y) @ fb(y)

            lhs = (inner(h) - inner(-h)) / (2 * h)
            rhs = (core.covariant_derivative(s3, fa, x, X) @ fb(x)
                   + fa(x) @ core.covariant_derivative(s3, fb, x, X))
            assert abs(lhs - rhs) <= 1e-4


# ---------------------------------------------------------------------------
# Second fundamental form
# ---------------------------------------------------------------------------

class TestSecondFundamentalForm:
    def test_unit_sphere_shape(self, s2):
        rng = rng_for(3)
        x = draw_point(s2, rng)
        X = draw_tangent(s2, x, rng)
        ii = core.second_fundamental_form(s2, x, X, X)
        npt.assert_allclose(ii, -x * (X @ X), atol=1e-10)

    def test_flat_space_vanishes(self):
        flat = geometries.flat_space(3)
        ii = core.second_fundamental_form(flat, np.zeros(3), np.ones(3), np.ones(3))
        npt.assert_allclose(ii, np.zeros(3), atol=1e-14)

    def test_cylinder_ruled_direction(self):
        # {x^2 + y^2 = 1} x R as a product of a circle and a line
        cyl = geometries.product_manifold(geometries.sphere(1), geometries.flat_space(1))
        z = np.array([1.0, 0.0, 0.3])
        dz = np.array([0.0, 0.0, 1.0])
        ii = core.second_fundamental_form(cyl, z, dz, dz)
        npt.assert_allclose(ii, np.zeros(3), atol=1e-12)

    def test_normality_and_symmetry(self, s3):
        rng = rng_for(11)
        for _ in range(5):
            x = draw_point(s3, rng)
            X = draw_tangent(s3, x, rng)
            Y = draw_tangent(s3, x, rng)
            ii_xy = core.second_fundamental_form(s3, x, X, Y)
            ii_yx = core.second_fundamental_form(s3, x, Y, X)
            assert np.linalg.norm(s3.projector_field(x) @ ii_xy) <= 1e-8
            assert np.linalg.norm(ii_xy - ii_yx) <= 1e-5


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------

class TestRiemann:
    def test_unit_sphere_orthonormal_pair(self, s2):
        x = np.array([0.0, 0.0, 1.0])
        X = np.array([1.0, 0.0, 0.0])
        Y = np.array([0.0, 1.0, 0.0])
        assert abs(core.riemann(s2, x, X, Y, Y, X) - 1.0) <= 1e-10

    def test_flat_space_zero(self):
        flat = geometries.flat_space(4)
        rng = rng_for(0)
        x = draw_point(flat, rng)
        vecs = [rng.standard_normal(4) for _ in range(4)]
        assert abs(core.riemann(flat, x, *vecs)) <= 1e-14

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_sphere_scaling(self, radius):
        m = geometries.sphere(2, radius)
        rng = rng_for(5)
        x = draw_point(m, rng)
        X = draw_tangent(m, x, rng)
        Y = draw_tangent(m, x, rng)
        Y = Y - X * (X @ Y)
        Y /= np.linalg.norm(Y)
        assert abs(core.riemann(m, x, X, Y, Y, X) - 1.0 / radius ** 2) <= 1e-8

    def test_symmetries_and_first_bianchi(self):
        # on a genuinely anisotropic geometry: the graph of a skewed sphere map,
        # through the finite-difference projector derivative
        rng = rng_for(21)
        src = geometries.sphere(2)
        dst = geometries.sphere(2)
        gm = skew_graph(linear_sphere_map(src, dst, rng.standard_normal((3, 3))))
        for _ in range(3):
            z = draw_point(gm, rng)
            v = [draw_tangent(gm, z, rng) for _ in range(4)]
            x, y, zz, w = v
            r = lambda a, b, c, d: core.riemann(gm, z, a, b, c, d)
            base = r(x, y, zz, w)
            assert abs(base + r(y, x, zz, w)) <= 1e-6
            assert abs(base + r(x, y, w, zz)) <= 1e-6
            assert abs(base - r(zz, w, x, y)) <= 1e-6
            bianchi = r(x, y, zz, w) + r(x, zz, w, y) + r(x, w, y, zz)
            assert abs(bianchi) <= 1e-6


class TestSectionalCurvature:
    @pytest.mark.parametrize("dim", [2, 3, 4, 7])
    def test_unit_sphere_any_plane(self, dim):
        m = geometries.sphere(dim)
        rng = rng_for(dim + 100)
        for _ in range(5):
            x = draw_point(m, rng)
            X = draw_tangent(m, x, rng)
            Y = draw_tangent(m, x, rng)
            assert abs(core.sectional_curvature(m, x, X, Y) - 1.0) <= 1e-8

    def test_product_mixed_plane_flat(self):
        m = geometries.product_manifold(geometries.sphere(2), geometries.sphere(2))
        rng = rng_for(9)
        z = draw_point(m, rng)
        X = np.concatenate([draw_tangent(geometries.sphere(2), z[:3], rng),
                            np.zeros(3)])
        Y = np.concatenate([np.zeros(3),
                            draw_tangent(geometries.sphere(2), z[3:], rng)])
        assert abs(core.sectional_curvature(m, z, X, Y)) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 4, 7])
    def test_finite_difference_path(self, dim):
        m = dataclasses.replace(geometries.sphere(dim), analytic_projector_derivative=None,
                                analytic_second_fundamental_form=None)
        rng = rng_for(13 + dim)
        for _ in range(5):
            x = draw_point(m, rng)
            X = draw_tangent(m, x, rng)
            Y = draw_tangent(m, x, rng)
            assert abs(core.sectional_curvature(m, x, X, Y) - 1.0) <= 1e-4

    def test_finite_difference_path_takes_central_differences(self, monkeypatch):
        # riemann reads the second fundamental form, so a sphere keeps its
        # closed-form II unless the copy drops it too: then every II is a
        # central difference of the projector field
        calls = []
        original = core.central_difference
        monkeypatch.setattr(core, "central_difference",
                            lambda *args: calls.append(args) or original(*args))
        s3 = geometries.sphere(3)
        rng = rng_for(17)
        x = draw_point(s3, rng)
        X, Y = (draw_tangent(s3, x, rng) for _ in range(2))
        dp_only = dataclasses.replace(s3, analytic_projector_derivative=None)
        assert abs(core.sectional_curvature(dp_only, x, X, Y) - 1.0) <= 1e-12
        assert calls == []
        fd = dataclasses.replace(dp_only, analytic_second_fundamental_form=None)
        assert abs(core.sectional_curvature(fd, x, X, Y) - 1.0) <= 1e-4
        assert len(calls) == 2   # one derivative along X, one along Y

    def test_degenerate_plane_rejected(self, s2):
        x = np.array([1.0, 0.0, 0.0])
        X = np.array([0.0, 1.0, 0.0])
        with pytest.raises(DegeneratePlaneError):
            core.sectional_curvature(s2, x, X, 2.0 * X)


# ---------------------------------------------------------------------------
# Lie bracket
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_sectional_curvature_is_plane_invariant(seed):
    # replacing (X, Y) by any other basis of the same plane leaves the value
    # unchanged; exercised on an anisotropic geometry so the value varies
    rng = np.random.default_rng(seed)
    z = draw_point(_SKEW_GRAPH, rng)
    X = draw_tangent(_SKEW_GRAPH, z, rng)
    Y = draw_tangent(_SKEW_GRAPH, z, rng)
    coeffs = rng.uniform(-2, 2, size=(2, 2))
    if abs(np.linalg.det(coeffs)) < 0.1:
        coeffs += np.eye(2)
    if abs(np.linalg.det(coeffs)) < 0.05:
        return
    x2 = coeffs[0, 0] * X + coeffs[0, 1] * Y
    y2 = coeffs[1, 0] * X + coeffs[1, 1] * Y
    s1 = core.sectional_curvature(_SKEW_GRAPH, z, X, Y)
    s2 = core.sectional_curvature(_SKEW_GRAPH, z, x2, y2)
    assert abs(s1 - s2) <= 1e-6 * max(1.0, abs(s1))


def skew_graph(f):
    """The graph of f, the pull-back of the identity bundle, without its
    closed-form projector derivative."""
    return dataclasses.replace(
        PullbackBundle(f, geometries.identity_bundle(f.target)).total_manifold,
        analytic_projector_derivative=None, analytic_second_fundamental_form=None)


_SKEW_GRAPH = skew_graph(linear_sphere_map(geometries.sphere(2), geometries.sphere(2),
                                           rng_for(99).standard_normal((3, 3))))


class TestLieBracket:
    def test_constant_fields_flat(self):
        flat = geometries.flat_space(3)
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        out = core.lie_bracket(flat, lambda y: a, lambda y: b, np.zeros(3))
        npt.assert_allclose(out, np.zeros(3), atol=1e-10)

    def test_euler_field(self):
        flat = geometries.flat_space(3)
        a = np.array([0.5, -1.0, 2.0])
        x = np.array([0.1, 0.2, 0.3])
        out = core.lie_bracket(flat, lambda y: a, lambda y: y, x)
        npt.assert_allclose(out, a, atol=1e-8)

    def test_rotation_generators_vs_matrix_commutator(self, s2):
        # J_u(p) = u x p restricted to the sphere; the bracket of the linear
        # fields A p, B p is (BA - AB) p, the matrix-commutator oracle.
        def cross_matrix(u):
            return np.array([[0.0, -u[2], u[1]],
                             [u[2], 0.0, -u[0]],
                             [-u[1], u[0], 0.0]])

        a_mat = cross_matrix([1.0, 0.0, 0.0])
        b_mat = cross_matrix([0.0, 1.0, 0.0])
        rng = rng_for(17)
        p = draw_point(s2, rng)
        bracket = core.lie_bracket(s2, lambda y: a_mat @ y, lambda y: b_mat @ y, p)
        oracle = (b_mat @ a_mat - a_mat @ b_mat) @ p
        npt.assert_allclose(bracket, oracle, atol=1e-7)
        # equals -J_z up to the convention sign
        npt.assert_allclose(bracket, -cross_matrix([0.0, 0.0, 1.0]) @ p, atol=1e-7)

    def test_antisymmetry(self, s2):
        rng = rng_for(19)
        p = draw_point(s2, rng)
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        fa = extend_tangent(s2, a)
        fb = extend_tangent(s2, b)
        out1 = core.lie_bracket(s2, fa, fb, p)
        out2 = core.lie_bracket(s2, fb, fa, p)
        npt.assert_allclose(out1, -out2, atol=1e-7)
