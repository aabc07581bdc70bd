"""Directions as stacks: every closed-form Jacobian derivative, projector
derivative and kernel-frame derivative takes U of shape (..., n) and gives
one derivative per direction, equal to the single-direction call."""

import dataclasses
import re

import numpy as np
import pytest

from submersion_lab import core, geometries, graph, scenarios
from submersion_lab.core import GeometryError
from submersion_lab.graph import KernelFrame, compose, d2f
from submersion_lab.obstruction import (flatness_sweep, level_set_ii,
                                        negative_plane_finder, obstruction_operator)
from submersion_lab.pullback import PointData, PullbackBundle

from conftest import draw_point, rng_for, scaled_fiber_bundle
from test_graph import HEAD_EXAMPLES, graph_of

FLAVORS = ["complex", "quaternionic", "octonionic"]


def tangent_stack(manifold, x, rng, shape=(2, 3)):
    """Random tangents at x, stacked with the given leading shape."""
    p = manifold.projector_field(x)
    return rng.standard_normal(shape + (manifold.ambient_dim,)) @ p


def assert_stack_matches_singles(derivative, x, U, rtol=1e-13):
    """derivative(x, U)[i] equals derivative(x, U[i]) to rtol, in norm."""
    stacked = derivative(x, U)
    assert stacked.shape[:U.ndim - 1] == U.shape[:-1]
    for idx in np.ndindex(*U.shape[:-1]):
        single = derivative(x, U[idx])
        assert stacked[idx].shape == single.shape
        assert np.linalg.norm(stacked[idx] - single) <= rtol * np.linalg.norm(single)


def base_map(bundle_name, expression):
    b = scenarios.build_bundle(bundle_name)
    return scenarios.resolve_base_map(
        scenarios.parse_base_map_expression(expression), b.base, b)


def builtin_maps():
    """(id, map) for every built-in closed-form Jacobian derivative."""
    cases = [(f"{expr}-{flavor}", base_map(f"hopf_{flavor}", expr))
             for flavor in ("complex", "octonionic") for expr in HEAD_EXAMPLES.values()]
    cases += [(f"hopf_{flavor}", geometries.hopf_fibration(flavor).projection)
              for flavor in FLAVORS]
    cases += [("trivial", scenarios.build_bundle("trivial").projection),
              ("scaled_fiber", scaled_fiber_bundle(0.5).projection)]
    hopf = geometries.hopf_fibration("quaternionic")
    phi = geometries.perturbation_diffeo(hopf.total, 0.3, np.eye(8)[0])
    cases.append(("pullback_constraint",
                  PullbackBundle(compose(hopf.projection, phi), hopf).constraint))
    return cases


MAPS = builtin_maps()


class TestJacobianDerivativeStacks:
    @pytest.mark.parametrize("f", [f for _, f in MAPS], ids=[i for i, _ in MAPS])
    def test_stack_matches_single_directions(self, f):
        rng = rng_for(60)
        x = draw_point(f.source, rng)
        assert_stack_matches_singles(f.jac_derivative, x, tangent_stack(f.source, x, rng))

    @pytest.mark.parametrize("f", [f for _, f in MAPS], ids=[i for i, _ in MAPS])
    def test_difference_oracle_matches_on_stacks(self, f):
        rng = rng_for(61)
        x = draw_point(f.source, rng)
        U = tangent_stack(f.source, x, rng, (3,))
        oracle = dataclasses.replace(f, jacobian_derivative=None, fd_step=1e-5)
        fd = oracle.jac_derivative(x, U)
        for i in range(len(U)):
            np.testing.assert_array_equal(fd[i], oracle.jac_derivative(x, U[i]))
        assert np.linalg.norm(f.jac_derivative(x, U) - fd) <= \
            1e-7 * max(1.0, np.linalg.norm(fd))

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_hopf_jacobian_is_the_constant_tensor(self, flavor):
        # J(p) = L p reproduces the structure-constant Jacobian bit for bit
        bundle = geometries.hopf_fibration(flavor)
        rng = rng_for(62)
        for _ in range(3):
            p = draw_point(bundle.total, rng)
            np.testing.assert_array_equal(
                bundle.projection.jac(p),
                geometries._hopf_jacobian(bundle.algebra_dim, p))

    def test_closure_ignoring_the_stack_is_named(self, s2):
        # a constant map whose dJ closure returns one matrix for any U
        f = dataclasses.replace(
            graph.constant_map(s2, s2, np.array([0.0, 0.0, 1.0])),
            name="one_direction_only", jacobian_derivative=lambda x, u: np.zeros((3, 3)))
        rng = rng_for(63)
        x = draw_point(s2, rng)
        U = tangent_stack(s2, x, rng, (3,))
        np.testing.assert_array_equal(f.jac_derivative(x, U[0]), np.zeros((3, 3)))
        with pytest.raises(GeometryError, match=re.escape("one_direction_only")):
            f.jac_derivative(x, U)

    def test_one_direction_closures_are_named_on_a_stack(self, s2):
        # the sphere's projector derivative written for one direction with
        # np.outer, as a manifold's closure and as a map's dJ closure: right on
        # one direction; on a stack of two numpy's broadcasting fails, on a
        # stack of one the shape is wrong, and either error names the owner
        def one_direction(x, u):
            nn = x @ x
            return (-(np.outer(u, x) + np.outer(x, u)) / nn
                    + np.outer(x, x) * (2.0 * (u @ x) / nn ** 2))

        sphere = dataclasses.replace(s2, analytic_projector_derivative=one_direction,
                                     name="one_direction_S2")
        f = dataclasses.replace(graph.identity_map(s2), jacobian_derivative=one_direction,
                                name="one_direction_map")
        x = np.array([0.0, 0.0, 1.0])
        U = np.eye(3)[:2]
        np.testing.assert_allclose(core.projector_derivative(sphere, x, U[0]),
                                   core.projector_derivative(s2, x, U[0]), atol=1e-15)
        for stack in (U, U[:1]):
            with pytest.raises(GeometryError, match="one_direction_S2"):
                core.projector_derivative(sphere, x, stack)
            with pytest.raises(GeometryError, match="one_direction_map"):
                f.jac_derivative(x, stack)


def manifolds():
    hopf = geometries.hopf_fibration("complex")
    phi = geometries.perturbation_diffeo(hopf.total, 0.3, np.eye(4)[0])
    return [
        ("sphere", geometries.sphere(3, 2.0)),
        ("flat", geometries.flat_space(3)),
        ("product", geometries.product_manifold(geometries.sphere(2), geometries.sphere(1))),
        ("product_with_difference_factor", geometries.product_manifold(
            dataclasses.replace(geometries.sphere(2), analytic_projector_derivative=None,
                                analytic_second_fundamental_form=None),
            geometries.flat_space(2))),
        ("pullback", PullbackBundle(compose(hopf.projection, phi), hopf).total_manifold),
    ]


MANIFOLDS = manifolds()


class TestProjectorDerivativeStacks:
    @pytest.mark.parametrize("m", [m for _, m in MANIFOLDS], ids=[i for i, _ in MANIFOLDS])
    def test_stack_matches_single_directions(self, m):
        rng = rng_for(64)
        x = draw_point(m, rng)
        assert_stack_matches_singles(
            lambda y, u: core.projector_derivative(m, y, u), x, tangent_stack(m, x, rng))

    @pytest.mark.parametrize("m", [m for _, m in MANIFOLDS], ids=[i for i, _ in MANIFOLDS])
    def test_difference_oracle_matches_on_stacks(self, m):
        rng = rng_for(65)
        x = draw_point(m, rng)
        U = tangent_stack(m, x, rng, (3,))
        oracle = dataclasses.replace(m, analytic_projector_derivative=None,
                                     analytic_second_fundamental_form=None)
        fd = core.projector_derivative(oracle, x, U)
        for i in range(len(U)):
            np.testing.assert_array_equal(fd[i], core.projector_derivative(oracle, x, U[i]))
        assert np.linalg.norm(core.projector_derivative(m, x, U) - fd) <= \
            1e-6 * max(1.0, np.linalg.norm(fd))


def frame_cases():
    """(id, map, point, rank) of the df, dpi and f*P kernel frames."""
    hopf = geometries.hopf_fibration("quaternionic")
    phi = geometries.perturbation_diffeo(hopf.total, 0.3, np.eye(8)[0])
    pb = PullbackBundle(compose(hopf.projection, phi), hopf)
    rng = rng_for(66)
    x = draw_point(pb.f.source, rng)
    return [("df", pb.f, x, graph.kernel_splitting(pb.f, x).rank),
            ("dpi", hopf.projection, draw_point(hopf.total, rng), 4),
            ("f*P", pb.constraint, draw_point(pb.total_manifold, rng), 4)]


FRAMES = frame_cases()


class TestKernelFrameStacks:
    @pytest.mark.parametrize("f, x, rank", [c[1:] for c in FRAMES], ids=[c[0] for c in FRAMES])
    def test_stack_matches_single_directions(self, f, x, rank):
        frame = KernelFrame(f, x, rank)
        U = tangent_stack(f.source, x, rng_for(67))
        assert_stack_matches_singles(lambda _, u: frame.derivative(u), x, U)
        normal = np.eye(x.shape[-1]) - frame.projector
        assert_stack_matches_singles(lambda _, u: normal @ frame.derivative(u), x, U)

    def test_finder_derivative_by_linearity(self):
        # the finder's curvature along w_t = t u_t + z_t rests on dn_w =
        # t dn_u + dn_z, checked against a fresh derivative along w_t
        hopf = geometries.hopf_fibration("complex")
        phi = geometries.perturbation_diffeo(hopf.total, 0.3, np.eye(4)[0])
        pb = PullbackBundle(compose(hopf.projection, phi), hopf)
        checked = 0
        for seed in range(6):
            rng = rng_for(seed)
            x, p = pb.split_point(draw_point(pb.total_manifold, rng))
            pt = PointData(pb, x, p)
            c = np.eye(pt.kd.kernel_basis.shape[1])[:1]
            [cert] = negative_plane_finder(pt, c, obstruction_operator(pt, c))
            if cert is None:
                continue
            z_t = pt.horizontal_lift(cert.z_direction)
            u_t = np.concatenate([np.zeros(pb.d_m), cert.u_direction])
            normal = np.eye(pb.d_m + pb.d_p) - pt.frame.projector
            dn_z, dn_u = normal @ pt.frame.derivative(np.stack([z_t, u_t]))
            fresh = normal @ pt.frame.derivative(cert.plane_w)
            assert np.linalg.norm(cert.t * dn_u + dn_z - fresh) <= 1e-12 * np.linalg.norm(fresh)
            checked += 1
        assert checked >= 3


def kernel_direction_cases():
    """(id, pull-back, x, p, four random unit kernel directions at x) on the
    perturbed Hopf pull-backs: non-basis directions with nonzero obstruction."""
    cases = []
    for flavor in FLAVORS:
        hopf = geometries.hopf_fibration(flavor)
        phi = geometries.perturbation_diffeo(hopf.total, 0.3, np.eye(hopf.total.ambient_dim)[0])
        pb = PullbackBundle(compose(hopf.projection, phi), hopf)
        rng = rng_for(68)
        x, p = pb.split_point(draw_point(pb.total_manifold, rng))
        kernel = graph.kernel_splitting(pb.f, x).kernel_basis
        X = rng.standard_normal((4, kernel.shape[1])) @ kernel.T
        cases.append((flavor, pb, x, p, X / np.linalg.norm(X, axis=1, keepdims=True)))
    return cases


DIRECTIONS = kernel_direction_cases()


class TestKernelDirectionStacks:
    """Each batched obstruction path on a stack of kernel directions gives,
    row by row, what it gives on each direction as a one-row stack."""

    @pytest.mark.parametrize("pb, x, p, X", [c[1:] for c in DIRECTIONS],
                             ids=[c[0] for c in DIRECTIONS])
    def test_paths_match_one_row_stacks(self, pb, x, p, X):
        pt = PointData(pb, x, p)
        c = X @ pt.kd.kernel_basis
        op = obstruction_operator(pt, c)
        outputs = {"flatness": flatness_sweep(pt, c), "ii": level_set_ii(pt, c),
                   **{name: getattr(op, name) for name in (
                       "xi_matrix", "obstruction_matrix", "norm", "best_z", "best_u",
                       "xi_rank")}}
        for i in range(len(c)):
            row_op = obstruction_operator(pt, c[i:i + 1])
            row = {"flatness": flatness_sweep(pt, c[i:i + 1]),
                   "ii": level_set_ii(pt, c[i:i + 1]),
                   **{name: getattr(row_op, name) for name in (
                       "xi_matrix", "obstruction_matrix", "norm", "best_z", "best_u",
                       "xi_rank")}}
            for name, stacked in outputs.items():
                np.testing.assert_allclose(stacked[i], row[name][0], rtol=1e-12, atol=1e-14,
                                           err_msg=name)

    @pytest.mark.parametrize("pb, x, p, X", [c[1:] for c in DIRECTIONS],
                             ids=[c[0] for c in DIRECTIONS])
    def test_certificates_match_one_row_stacks(self, pb, x, p, X):
        pt = PointData(pb, x, p)
        c = X @ pt.kd.kernel_basis
        certs = negative_plane_finder(pt, c, obstruction_operator(pt, c))
        assert sum(cert is not None for cert in certs) >= 2
        for i, cert in enumerate(certs):
            [single] = negative_plane_finder(pt, c[i:i + 1], obstruction_operator(pt, c[i:i + 1]))
            assert (cert is None) == (single is None)
            if cert is None:
                continue
            for name in ("plane_x", "plane_w", "t", "cross_term", "sec_value",
                         "predicted_value", "z_direction", "u_direction"):
                np.testing.assert_allclose(getattr(cert, name), getattr(single, name),
                                           rtol=1e-12, atol=1e-14, err_msg=name)

    @pytest.mark.parametrize("pb, x, p, X", [c[1:] for c in DIRECTIONS],
                             ids=[c[0] for c in DIRECTIONS])
    def test_d2f_stacks(self, pb, x, p, X):
        # row-wise pairs, and the broadcast tensor on a basis
        assert_stack_matches_singles(lambda y, u: d2f(pb.f, y, u, u), x, X, rtol=1e-12)
        kernel = graph.kernel_splitting(pb.f, x).kernel_basis
        tensor = d2f(pb.f, x, kernel.T[:, None], kernel.T[None])
        for i, j in np.ndindex(*tensor.shape[:2]):
            np.testing.assert_allclose(tensor[i, j], d2f(pb.f, x, kernel[:, i], kernel[:, j]),
                                       rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# Points as blocks: every closure takes x (b, n), directions (b, ..., n)
# ---------------------------------------------------------------------------

def assert_block_matches_points(closure, x, *args, rtol=1e-13):
    """closure(x, *args)[i] equals closure(x[i], *(a[i] for a in args)) to
    rtol, in norm: the block call gives each point's value."""
    block = closure(x, *args)
    assert np.shape(block)[:1] == x.shape[:1]
    for i in range(len(x)):
        single = closure(x[i], *(a[i] for a in args))
        assert block[i].shape == np.shape(single)
        assert np.linalg.norm(block[i] - single) <= rtol * np.linalg.norm(single)


def point_block(manifold, rng, size=4):
    return np.array([draw_point(manifold, rng) for _ in range(size)])


def block_manifolds():
    """(id, manifold) of the built-in manifolds and fixtures: those of the
    stack tests, and the trivial bundle's total space, the scaled-fiber
    fixture, a graph (the pull-back of an identity bundle) and the octonionic
    f*P."""
    octonionic = geometries.hopf_fibration("octonionic")
    phi = geometries.perturbation_diffeo(octonionic.total, 0.3, np.eye(16)[0])
    return MANIFOLDS + [
        ("trivial_total", scenarios.build_bundle("trivial").total),
        ("scaled_fiber_total", scaled_fiber_bundle(0.5).total),
        ("graph", graph_of(base_map("hopf_complex", HEAD_EXAMPLES["compose"])).total_manifold),
        ("octonionic_pullback", PullbackBundle(compose(octonionic.projection, phi),
                                               octonionic).total_manifold),
    ]


BLOCK_MANIFOLDS = block_manifolds()
BLOCK_MAPS = MAPS + [("fold_after_perturbed", base_map(
    "hopf_quaternionic", "compose(geodesic_fold(2), perturbed(0.3, e2))"))]


class TestPointBlocks:
    @pytest.mark.parametrize("m", [m for _, m in BLOCK_MANIFOLDS],
                             ids=[i for i, _ in BLOCK_MANIFOLDS])
    def test_manifold_closures_of_a_block(self, m):
        rng = rng_for(70)
        x = point_block(m, rng)
        v = np.array([tangent_stack(m, point, rng, ()) for point in x])
        u = np.array([tangent_stack(m, point, rng, (3,)) for point in x])
        assert_block_matches_points(m.projector, x)
        assert_block_matches_points(lambda y, w: m.retraction(y, 0.1 * w), x, v)
        for directions in (v, u):
            assert_block_matches_points(
                lambda y, w: core.projector_derivative(m, y, w), x, directions)

    @pytest.mark.parametrize("f", [f for _, f in BLOCK_MAPS], ids=[i for i, _ in BLOCK_MAPS])
    def test_map_closures_of_a_block(self, f):
        rng = rng_for(71)
        x = point_block(f.source, rng)
        v = np.array([tangent_stack(f.source, point, rng, ()) for point in x])
        u = np.array([tangent_stack(f.source, point, rng, (2, 3)) for point in x])
        assert_block_matches_points(f, x)
        assert_block_matches_points(f.jac, x)
        for directions in (v, u):
            assert_block_matches_points(f.jac_derivative, x, directions)

    @pytest.mark.parametrize("bundle", [
        *(geometries.hopf_fibration(flavor) for flavor in FLAVORS),
        scenarios.build_bundle("trivial"), scaled_fiber_bundle(0.5)],
        ids=[*FLAVORS, "trivial", "scaled_fiber"])
    def test_fiber_projector_of_a_block(self, bundle):
        rng = rng_for(72)
        p = point_block(bundle.total, rng, 6)
        n = bundle.projection(point_block(bundle.total, rng, 6))
        p_tilde = p + 0.3 * rng.standard_normal(p.shape)
        assert_block_matches_points(bundle.fiber_projector, p_tilde, n)

    def test_closures_ignoring_the_point_axis_are_named(self, s2):
        # closures written for one point: right at one point; on a block
        # numpy fails or the shape is wrong, and the error names the closure
        x = point_block(s2, rng_for(73))
        one_point_sphere = dataclasses.replace(
            s2, projector_field=lambda y: np.eye(3) - np.outer(y, y) / (y @ y),
            name="one_point_S2")
        np.testing.assert_allclose(one_point_sphere.projector(x[0]), s2.projector(x[0]),
                                   atol=1e-15)
        with pytest.raises(GeometryError, match="projector_field of one_point_S2"):
            one_point_sphere.projector(x)
        identity = graph.identity_map(s2)
        for field, closure in (("jacobian", lambda y: np.eye(3)),
                               ("ambient_map", lambda y: np.array([y[0], y[1], y[2]]))):
            f = dataclasses.replace(identity, name="one_point_map", **{field: closure})
            np.testing.assert_array_equal(f(x[0]), x[0])
            with pytest.raises(GeometryError, match=f"{field} of one_point_map"):
                graph.GraphOperators(f, x)
        f = dataclasses.replace(identity, name="one_point_map", jacobian=lambda y: np.eye(3))
        with pytest.raises(GeometryError, match="jacobian of one_point_map"):
            KernelFrame(f, x)
