"""Obstruction vectors, curvature identities, certificates, verdicts."""

import copy
import inspect
import types
import typing

import numpy as np
import numpy.testing as npt
import pytest

from submersion_lab import (core, geometries, numerics, obstruction, pullback, scenarios,
                           submersion)
from submersion_lab.geometries import (geodesic_k_fold, hopf_fibration,
                                       perturbation_diffeo, trivial_bundle)
from submersion_lab.graph import compose, constant_map, identity_map
from submersion_lab.graph import GraphOperators, KernelFrame, d2f
from submersion_lab.obstruction import (KernelConstraintError,
                                        certificate_parameter,
                                        cross_term_check, flatness_sweep,
                                        kernel_splitting,
                                        level_set_ii, negative_plane_finder,
                                        obstruction_operator,
                                        obstruction_vector,
                                        theorem_report,
                                        vertizontal_flat_check)
from submersion_lab.pullback import PointData, PullbackBundle
from submersion_lab.submersion import a_tensor, horizontal_lift, splitting

import conftest
from conftest import draw_block, draw_point, rng_for


@pytest.fixture(scope="module")
def hopf():
    return hopf_fibration("complex")


@pytest.fixture(scope="module")
def pure_pb(hopf):
    return PullbackBundle(hopf.projection, hopf)


@pytest.fixture(scope="module")
def perturbed_pb(hopf):
    phi = perturbation_diffeo(hopf.total, 0.3, np.array([1.0, 0.0, 0.0, 0.0]))
    return PullbackBundle(compose(hopf.projection, phi), hopf)


@pytest.fixture(scope="module")
def perturbed_quaternionic_pb():
    bundle = hopf_fibration("quaternionic")
    phi = perturbation_diffeo(bundle.total, 0.3, np.eye(8)[0])
    return PullbackBundle(compose(bundle.projection, phi), bundle)


@pytest.fixture(scope="module")
def constant_pb(hopf):
    f = constant_map(hopf.base, hopf.base, np.array([0.0, 0.0, 0.5]))
    return PullbackBundle(f, hopf)


def sample_config(pb, seed):
    rng = rng_for(seed)
    z = draw_point(pb.total_manifold, rng)
    x, p = pb.split_point(z)
    kd = kernel_splitting(pb.f, x)
    return rng, x, p, kd


def operator_at(pt, X):
    """The obstruction operator of the one-row stack [X] at pt."""
    return obstruction_operator(pt, X[None] @ pt.kd.kernel_basis)


def identity_residual(pt, c, ii):
    """|d2f(X, X) + df(II)| for each row of the coefficient stack c and its
    level-set second fundamental form ii, from `pt.kernel_d2f` and `pt.jac`."""
    d2 = np.einsum("ri,rj,ijn->rn", c, c, pt.kernel_d2f)
    return np.linalg.norm(d2 + ii @ pt.jac.T, axis=1)


def level_set_ii_at(pt, X):
    """(ii, identity residual) of the one-row stack [X] at pt."""
    c = X[None] @ pt.kd.kernel_basis
    ii = level_set_ii(pt, c)
    return ii[0], identity_residual(pt, c, ii)[0]


def find_plane(pt, X, op):
    """`negative_plane_finder` on the one-row stack [X] and its operator op."""
    [cert] = negative_plane_finder(pt, X[None] @ pt.kd.kernel_basis, op)
    return cert


# ---------------------------------------------------------------------------
# Kernel bookkeeping
# ---------------------------------------------------------------------------

class TestKernelSplitting:
    def test_hopf_rank_and_kernel(self, pure_pb):
        _, x, _, kd = sample_config(pure_pb, 0)
        assert kd.rank == 2
        assert kd.kernel_basis.shape[1] == 1
        assert kd.is_regular
        assert np.linalg.norm(pure_pb.f.jac(x) @ kd.kernel_basis[:, 0]) <= 1e-10

    def test_constant_map_nowhere_regular(self, constant_pb):
        _, x, _, kd = sample_config(constant_pb, 1)
        assert kd.rank == 0
        assert not kd.is_regular
        assert kd.kernel_basis.shape[1] == 2

    def test_non_kernel_direction_rejected(self, pure_pb):
        _, x, p, kd = sample_config(pure_pb, 2)
        with pytest.raises(KernelConstraintError):
            obstruction_vector(pure_pb, x, p, kd.coimage_basis[:, 0],
                               kd.coimage_basis[:, 0])


# ---------------------------------------------------------------------------
# Obstruction vector
# ---------------------------------------------------------------------------

class TestObstructionVector:
    def test_pure_hopf_vanishes(self, pure_pb):
        # level sets of the bundle projection are its geodesic fibers
        for seed in range(5):
            rng, x, p, kd = sample_config(pure_pb, seed)
            X = kd.kernel_basis[:, 0]
            for j in range(kd.rank):
                v = obstruction_vector(pure_pb, x, p, X, kd.coimage_basis[:, j])
                assert np.linalg.norm(v) <= 1e-6

    def test_constant_map_zero(self, constant_pb):
        _, x, p, kd = sample_config(constant_pb, 3)
        X = kd.kernel_basis[:, 0]
        Z = kd.kernel_basis[:, 1]
        assert np.linalg.norm(obstruction_vector(constant_pb, x, p, X, Z)) <= 1e-12

    def test_perturbed_hopf_nonzero_somewhere(self, perturbed_pb):
        found = 0.0
        for seed in range(10):
            _, x, p, kd = sample_config(perturbed_pb, seed)
            op = operator_at(PointData(perturbed_pb, x, p), kd.kernel_basis[:, 0])
            found = max(found, op.norm[0])
        assert found > 1e-3

    def test_operator_top_pair_matches_oracle(self, perturbed_pb):
        # norm * best_u is the obstruction vector at best_z, evaluated afresh
        for seed in range(3):
            _, x, p, kd = sample_config(perturbed_pb, seed)
            X = kd.kernel_basis[:, 0]
            op = operator_at(PointData(perturbed_pb, x, p), X)
            npt.assert_allclose(np.linalg.norm(op.best_u[0]), 1.0, atol=1e-12)
            npt.assert_allclose(op.norm[0] * op.best_u[0],
                                obstruction_vector(perturbed_pb, x, p, X, op.best_z[0]),
                                atol=1e-6)

    def test_vertical_valued(self, perturbed_pb):
        _, x, p, kd = sample_config(perturbed_pb, 4)
        v = obstruction_vector(perturbed_pb, x, p, kd.kernel_basis[:, 0],
                               kd.coimage_basis[:, 0])
        sp = splitting(perturbed_pb.bundle, p)
        npt.assert_allclose(sp.projector @ v, v, atol=1e-10)


    @pytest.mark.parametrize("fixture", ["perturbed_pb", "perturbed_quaternionic_pb"])
    def test_contracted_xi_matrix_matches_per_column_oracle(self, fixture, request):
        pb = request.getfixturevalue(fixture)
        _, x, p, kd = sample_config(pb, 2)
        X = kd.kernel_basis[:, 0]
        op = operator_at(PointData(pb, x, p), X)
        sp = splitting(pb.bundle, p)
        w = GraphOperators(pb.f, x).apply_o(d2f(pb.f, x, X, X))
        lift_w = horizontal_lift(sp, w)
        oracle = np.column_stack([sp.kernel_basis.T @ a_tensor(pb.bundle, p, lift_w, h)
                                  for h in sp.coimage_basis.T])
        assert np.linalg.norm(oracle) > 1e-2
        npt.assert_allclose(op.xi_matrix[0], oracle, atol=1e-7)

    def test_caller_coefficients_give_identical_operator(self, perturbed_pb):
        # a PointData whose A-tensor coefficients the caller already built
        # gives the operator of a fresh one, bit for bit
        _, x, p, kd = sample_config(perturbed_pb, 3)
        X = kd.kernel_basis[:, 0]
        own = operator_at(PointData(perturbed_pb, x, p), X)
        pt = PointData(perturbed_pb, x, p)
        assert pt.coeff.shape[:2] == (2, 2)
        shared = operator_at(pt, X)
        npt.assert_array_equal(own.xi_matrix, shared.xi_matrix)
        npt.assert_array_equal(own.best_z, shared.best_z)
        npt.assert_array_equal(own.best_u, shared.best_u)

    @pytest.mark.parametrize("seed", range(3))
    def test_top_pair_independent_of_coimage_basis(self, perturbed_quaternionic_pb, seed):
        # the top singular value is threefold here, so only a canonical
        # choice inside its subspace survives a change of coimage basis
        pb = perturbed_quaternionic_pb
        rng, x, p, kd = sample_config(pb, seed)
        X = kd.kernel_basis[:, 0]
        op = operator_at(PointData(pb, x, p), X)
        s = np.linalg.svd(op.obstruction_matrix[0], compute_uv=False)
        assert s[-1] >= s[0] * (1.0 - 1e-6)
        q, _ = np.linalg.qr(rng.standard_normal((kd.rank, kd.rank)))
        pt = PointData(pb, x, p)
        # seed the cached kernel frame with a copy whose coimage basis is rotated
        rotated_kd = copy.copy(kd)
        rotated_kd.coimage_basis = kd.coimage_basis @ q
        object.__setattr__(pt, "kd", rotated_kd)
        rotated = operator_at(pt, X)
        npt.assert_allclose(rotated.best_z, op.best_z, atol=1e-8)
        npt.assert_allclose(rotated.best_u, op.best_u, atol=1e-8)
        npt.assert_allclose(rotated.norm, op.norm, rtol=1e-8)


    def test_canonical_axis_ignores_rounding_ties(self):
        # a twofold top singular value whose span meets ambient axes 0 and 1
        # equally: tilting axis 1 up by 1e-14 must not move the choice
        matrix = np.eye(2)
        basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        tilted = basis.copy()
        tilted[1, 1] += 1e-14
        npt.assert_allclose(obstruction._canonical_top_directions(matrix[None], tilted),
                            obstruction._canonical_top_directions(matrix[None], basis),
                            atol=1e-12)


# ---------------------------------------------------------------------------
# Oracle independence
# ---------------------------------------------------------------------------

ORACLES = [(submersion, "a_tensor"), (submersion, "basic_field"),
           (conftest, "fiber_second_fundamental_form"),
           (obstruction, "obstruction_vector"), (obstruction, "vertizontal_flat_check"),
           (pullback, "pullback_curvature")]


@pytest.mark.parametrize("module,name", ORACLES, ids=[name for _, name in ORACLES])
def test_oracles_take_no_point_data(module, name):
    # an oracle computes its own per-point data, so it cannot share the
    # splitting or A tensor of the batched path it checks
    fn = getattr(module, name)
    hints = typing.get_type_hints(fn)
    for param in inspect.signature(fn).parameters:
        hint = hints.get(param)
        assert not {PointData, KernelFrame} & {hint, *typing.get_args(hint)}, param


# ---------------------------------------------------------------------------
# Curvature identities
# ---------------------------------------------------------------------------

class TestVertizontalFlat:
    @pytest.mark.parametrize("fixture", ["pure_pb", "perturbed_pb"])
    def test_residual_small(self, fixture, request):
        pb = request.getfixturevalue(fixture)
        for seed in range(5):
            rng, x, p, kd = sample_config(pb, seed)
            X = kd.kernel_basis[:, 0]
            sp = splitting(pb.bundle, p)
            u = sp.kernel_basis[:, 0]
            assert vertizontal_flat_check(pb, x, p, X, u) <= 1e-4

    def test_trivial_bundle_zero(self):
        bundle = trivial_bundle(geometries.sphere(2), geometries.sphere(1))
        pb = PullbackBundle(identity_map(bundle.base), bundle)
        rng, x, p, kd = sample_config(pb, 5)
        # identity has no kernel; use the constant map over the same bundle
        f = constant_map(bundle.base, bundle.base, np.array([0.0, 0.0, 1.0]))
        pb = PullbackBundle(f, bundle)
        rng, x, p, kd = sample_config(pb, 5)
        X = kd.kernel_basis[:, 0]
        sp = splitting(pb.bundle, p)
        assert vertizontal_flat_check(pb, x, p, X, sp.kernel_basis[:, 0]) <= 1e-8


class TestFlatnessSweep:
    @pytest.mark.parametrize("fixture", ["perturbed_pb", "perturbed_quaternionic_pb"])
    def test_matches_per_pair_check(self, fixture, request):
        pb = request.getfixturevalue(fixture)
        rng, x, p, kd = sample_config(pb, 1)
        dirs = list(kd.kernel_basis.T) + [kd.kernel_basis @ rng.standard_normal(
            kd.kernel_basis.shape[1])]
        sp = splitting(pb.bundle, p)
        oracle = [max(vertizontal_flat_check(pb, x, p, X, u) for u in sp.kernel_basis.T)
                  for X in dirs]
        pt = PointData(pb, x, p)
        npt.assert_allclose(flatness_sweep(pt, np.array(dirs) @ pt.kd.kernel_basis), oracle,
                            rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n_dirs", [1, 5, 20])
    def test_derivatives_per_point_not_per_direction(self, perturbed_quaternionic_pb,
                                                     monkeypatch, n_dirs):
        # the sweep contracts the second fundamental form on the lifted
        # kernel, vertical and coimage bases (3 + 3 + 4 rows at d = 16 here),
        # however many directions it gets: one kernel form of the f*P frame
        # for all 10 rows, and then d2f on the kernel basis, which reads the
        # closed-form second fundamental form of M: neither takes a
        # projector derivative
        pb = perturbed_quaternionic_pb
        rng, x, p, kd = sample_config(pb, 1)
        c = rng.standard_normal((n_dirs, kd.kernel_basis.shape[1]))
        calls = {"projector_derivative": 0, "kernel_derivative": 0}

        def counting(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(core, "projector_derivative",
                            counting("projector_derivative", core.projector_derivative))
        monkeypatch.setattr(KernelFrame, "kernel_derivative",
                            counting("kernel_derivative", KernelFrame.kernel_derivative))
        pt = PointData(pb, x, p)
        flatness_sweep(pt, c)
        assert calls == {"projector_derivative": 0, "kernel_derivative": 1}
        pt.kernel_d2f
        assert calls == {"projector_derivative": 0, "kernel_derivative": 1}


    @pytest.mark.parametrize("points", [(), (3,)], ids=["point", "block"])
    def test_matmuls_equal_the_einsum_forms(self, points):
        # a random, non-geometric table of II(row a, row b) in the kernel
        # form's (a, d, b) memory order, as `PointData.lifted_bases` holds it
        rng = rng_for(31)
        k, v, n, d, r = 3, 4, 9, 11, 6
        ii = rng.standard_normal(points + (n, d, n)).swapaxes(-1, -2)
        slices = (slice(0, k), slice(k, k + v), slice(k + v, n))
        c = rng.standard_normal(points + (r, k))
        kern, vert, _ = slices
        ii_xx = np.einsum("...ri,...rj,...ijd->...rd", c, c, ii[..., kern, kern, :])
        ii_xu = np.einsum("...ri,...iad->...rad", c, ii[..., kern, vert, :])
        ii_ux = np.einsum("...rj,...ajd->...rad", c, ii[..., vert, kern, :])
        ii_uu = np.einsum("...aad->...ad", ii[..., vert, vert, :])
        want = np.max(np.abs(ii_xx @ ii_uu.swapaxes(-1, -2)
                             - np.einsum("...rad,...rad->...ra", ii_ux, ii_xu)), axis=-1)
        got = flatness_sweep(types.SimpleNamespace(lifted_bases=(None, ii, slices)), c)
        npt.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("points", [(), (3,)], ids=["point", "block"])
    def test_d2f_contraction_equals_the_einsum_form(self, points):
        rng = rng_for(32)
        k, n, r = 4, 9, 7
        table = rng.standard_normal(points + (k, k, n))
        c = rng.standard_normal(points + (r, k))
        want = np.einsum("...ri,...rj,...ijn->...rn", c, c, table)
        got = obstruction._kernel_d2f_along(types.SimpleNamespace(kernel_d2f=table), c)
        npt.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_obstruction_and_level_set_share_one_d2f_contraction(self, perturbed_pb,
                                                                 monkeypatch):
        rng, x, p, kd = sample_config(perturbed_pb, 2)
        pt = PointData(perturbed_pb, x, p)
        c = rng.standard_normal((5, kd.kernel_basis.shape[1]))
        tables = []
        linear = obstruction._linear
        monkeypatch.setattr(obstruction, "_linear",
                            lambda c, table: tables.append(table) or linear(c, table))
        obstruction_operator(pt, c)
        level_set_ii(pt, c)
        assert len(tables) == 1 and tables[0] is pt.kernel_d2f
        level_set_ii(pt, c.copy())   # another stack is contracted anew
        assert len(tables) == 2


class TestCrossTerm:
    def test_pure_hopf_both_near_zero(self, pure_pb):
        _, x, p, kd = sample_config(pure_pb, 6)
        X = kd.kernel_basis[:, 0]
        sp = splitting(pure_pb.bundle, p)
        direct, formula = cross_term_check(pure_pb, x, p, X,
                                           sp.kernel_basis[:, 0],
                                           kd.coimage_basis[:, 0])
        assert abs(direct) <= 1e-6
        assert abs(formula) <= 1e-6

    def test_constant_map_both_zero(self, constant_pb):
        _, x, p, kd = sample_config(constant_pb, 7)
        X = kd.kernel_basis[:, 0]
        sp = splitting(constant_pb.bundle, p)
        direct, formula = cross_term_check(constant_pb, x, p, X,
                                           sp.kernel_basis[:, 0],
                                           kd.kernel_basis[:, 1])
        assert abs(direct) <= 1e-8
        assert abs(formula) <= 1e-12

    def test_perturbed_hopf_nonzero_and_matching(self, perturbed_pb):
        worst_gap, best_size = 0.0, 0.0
        for seed in range(5):
            _, x, p, kd = sample_config(perturbed_pb, seed)
            X = kd.kernel_basis[:, 0]
            sp = splitting(perturbed_pb.bundle, p)
            for j in range(kd.rank):
                direct, formula = cross_term_check(perturbed_pb, x, p, X,
                                                   sp.kernel_basis[:, 0],
                                                   kd.coimage_basis[:, j])
                worst_gap = max(worst_gap, abs(direct - formula))
                best_size = max(best_size, abs(formula))
        assert best_size > 1e-3
        assert worst_gap <= 1e-3


# ---------------------------------------------------------------------------
# Negative-plane certificates
# ---------------------------------------------------------------------------

class TestNegativePlaneFinder:
    def test_pure_hopf_returns_none(self, pure_pb):
        _, x, p, kd = sample_config(pure_pb, 8)
        pt = PointData(pure_pb, x, p)
        X = kd.kernel_basis[:, 0]
        assert find_plane(pt, X, operator_at(pt, X)) is None

    def test_certificate_parameter_arithmetic(self):
        # c = 0.5 and R_Z = 1 give t = -2 and quadratic value -1
        t = certificate_parameter(0.5, 1.0)
        assert t == -2.0
        assert t ** 2 * 0.0 + 2.0 * t * 0.5 + 1.0 == -1.0

    def test_perturbed_hopf_certificate(self, perturbed_pb):
        cert = None
        for seed in range(10):
            _, x, p, kd = sample_config(perturbed_pb, seed)
            X = kd.kernel_basis[:, 0]
            op = operator_at(PointData(perturbed_pb, x, p), X)
            cert = find_plane(PointData(perturbed_pb, x, p), X, op)
            if cert is not None:
                break
        assert cert is not None
        assert cert.sec_value < -1e-6
        # quadratic-expansion prediction within 10 percent of the direct value
        assert cert.relative_agreement <= 0.10
        # re-verify the plane directly on the embedded pull-back
        direct = core.sectional_curvature(
            perturbed_pb.total_manifold,
            perturbed_pb.join(cert.x, cert.p), cert.plane_x, cert.plane_w)
        assert direct < -1e-6
        npt.assert_allclose(direct, cert.sec_value, rtol=1e-10)
        # one PointData shared by the flatness sweep, the operator and the
        # finder gives the certificate of a fresh PointData per call
        pt = PointData(perturbed_pb, x, p)
        flatness_sweep(pt, X[None] @ pt.kd.kernel_basis)
        shared = find_plane(pt, X, operator_at(pt, X))
        npt.assert_array_equal(shared.plane_w, cert.plane_w)
        npt.assert_array_equal(shared.u_direction, cert.u_direction)
        assert shared.sec_value == cert.sec_value

    def test_unverified_candidates_curve_negatively_above_the_threshold(self, monkeypatch):
        # compose(hopf, geodesic_fold(2)) over hopf_octonionic, 20 samples at
        # seed 11. The weight t = -(R_Z + 1) / (2c) gives a plane whose
        # un-normalised curvature is -1 and whose Gram is about t^2, so
        # sec ~ -1 / t^2 = -4c^2 / (R_Z + 1)^2: a cross term c a few times
        # CROSS_TERM_TOLERANCE makes a candidate whose plane curves negatively,
        # but by less than NEGATIVE_SEC_TOLERANCE can verify
        pb = scenarios.build_scenario(scenarios.ScenarioConfig.from_dict({
            "name": "fold-octonionic", "bundle": "hopf_octonionic",
            "base_map": "compose(hopf, geodesic_fold(2))", "samples": 20,
            "seed": 11})).pullback
        report = theorem_report(pb, samples=20, kernel_directions=20, seed=11)
        assert (len(report.certificates), report.unverified_candidates) == (304, 96)
        assert min(c.cross_term for c in report.certificates) >= 1.03e-3
        threshold = obstruction.NEGATIVE_SEC_TOLERANCE
        monkeypatch.setattr(obstruction, "NEGATIVE_SEC_TOLERANCE", 0.0)
        lowered = theorem_report(pb, samples=20, kernel_directions=20, seed=11)
        assert (len(lowered.certificates), lowered.unverified_candidates) == (400, 0)
        assert [c.sec_value for c in lowered.certificates if c.sec_value < threshold] == \
            [c.sec_value for c in report.certificates]
        added = [c for c in lowered.certificates if c.sec_value >= threshold]
        assert len(added) == 96
        for c in added:
            assert 1.8e-4 <= c.cross_term <= 8.2e-4
            assert threshold < c.sec_value < 0.0
            assert c.sec_value == pytest.approx(-1.0 / c.t ** 2, rel=1e-3)


# ---------------------------------------------------------------------------
# Level sets
# ---------------------------------------------------------------------------

def fd_level_set_ii(f, x, X, h=1e-4):
    """II(X, X) of the level set through x by a central difference of the
    kernel field y -> K(y) X, K(y) the projector onto ker df at y."""
    kd = kernel_splitting(f, x)

    def kernel_field(y):
        k = kernel_splitting(f, y)
        assert k.rank == kd.rank
        return k.kernel_basis @ (k.kernel_basis.T @ X)

    nabla = core.covariant_derivative(f.source, kernel_field, x, X, h)
    return (f.source.projector_field(x) - kd.kernel_basis @ kd.kernel_basis.T) @ nabla


def level_set_pullback(flavor, perturbed, trivial=False):
    hopf = hopf_fibration(flavor)
    f = hopf.projection
    if perturbed:
        axis = np.eye(hopf.total.ambient_dim)[0]
        f = compose(f, perturbation_diffeo(hopf.total, 0.3, axis))
    bundle = trivial_bundle(hopf.base, geometries.sphere(1)) if trivial else hopf
    return PullbackBundle(f, bundle)


LEVEL_SET_CASES = [(flavor, perturbed, False)
                   for flavor in ("complex", "quaternionic", "octonionic")
                   for perturbed in (False, True)] + [("complex", True, True)]


class TestLevelSetII:
    @pytest.mark.parametrize("flavor, perturbed, trivial", LEVEL_SET_CASES)
    def test_matches_finite_difference_oracle(self, flavor, perturbed, trivial):
        pb = level_set_pullback(flavor, perturbed, trivial)
        for seed in range(2):
            rng, x, p, kd = sample_config(pb, seed)
            X = kd.kernel_basis @ rng.standard_normal(kd.kernel_basis.shape[1])
            X /= np.linalg.norm(X)
            ii, residual = level_set_ii_at(PointData(pb, x, p), X)
            assert np.linalg.norm(ii - fd_level_set_ii(pb.f, x, X)) <= 1e-7
            assert residual <= 1e-12

    @pytest.mark.parametrize("flavor, perturbed, trivial", LEVEL_SET_CASES)
    def test_matches_level_set_projector_derivative(self, flavor, perturbed, trivial):
        # level_set_ii contracts d2f; the derivative dK[X] of the level set's
        # tangent projector K gives II = (P - K) dK[X] X without d2f
        pb = level_set_pullback(flavor, perturbed, trivial)
        for seed in range(2):
            rng, x, p, kd = sample_config(pb, seed)
            X = kd.kernel_basis @ rng.standard_normal(kd.kernel_basis.shape[1])
            X /= np.linalg.norm(X)
            ii, _ = level_set_ii_at(PointData(pb, x, p), X)
            oracle = kd.coimage_basis @ (kd.coimage_basis.T @ (kd.derivative(X) @ X))
            npt.assert_allclose(ii, oracle, rtol=0.0, atol=1e-12)

    def test_pure_hopf_geodesic_fibers(self, pure_pb):
        for seed in range(5):
            _, x, p, kd = sample_config(pure_pb, seed)
            ii, residual = level_set_ii_at(PointData(pure_pb, x, p), kd.kernel_basis[:, 0])
            assert np.linalg.norm(ii) <= 1e-6
            assert residual <= 1e-6

    def test_constant_map_level_set_is_everything(self, constant_pb):
        _, x, p, kd = sample_config(constant_pb, 9)
        ii, residual = level_set_ii_at(PointData(constant_pb, x, p), kd.kernel_basis[:, 0])
        assert np.linalg.norm(ii) <= 1e-10
        assert residual <= 1e-10

    def test_perturbed_hopf_not_geodesic(self, perturbed_pb):
        worst_ii, worst_resid = 0.0, 0.0
        for seed in range(10):
            _, x, p, kd = sample_config(perturbed_pb, seed)
            ii, residual = level_set_ii_at(PointData(perturbed_pb, x, p), kd.kernel_basis[:, 0])
            worst_ii = max(worst_ii, np.linalg.norm(ii))
            worst_resid = max(worst_resid, residual)
        assert worst_ii > 1e-3
        assert worst_resid <= 1e-4


@pytest.fixture(scope="module")
def folded_quaternionic_pb():
    # level sets that are not umbilic: d2f and II differ off the diagonal
    # of the kernel basis, so a contraction that drops those terms fails
    sc = scenarios.build_scenario(scenarios.ScenarioConfig.from_dict({
        "name": "fold", "bundle": "hopf_quaternionic",
        "base_map": "compose(hopf, geodesic_fold(3))", "samples": 1, "seed": 1}))
    return sc.pullback


class TestContractedDirections:
    """Every per-direction value of the batched paths is contracted from
    per-point tensors on the kernel basis; on random non-basis directions it
    matches the oracles that take one direction and build everything afresh.
    The batched paths get a randomly rotated kernel basis, on which the
    second fundamental form of a level set has off-diagonal terms."""

    @pytest.fixture(params=["perturbed_pb", "perturbed_quaternionic_pb",
                            "folded_quaternionic_pb"])
    def stack(self, request):
        pb = request.getfixturevalue(request.param)
        rng, x, p, kd = sample_config(pb, 13)
        k = kd.kernel_basis.shape[1]
        rotated = copy.copy(kd)
        rotated.kernel_basis = kd.kernel_basis @ np.linalg.qr(rng.standard_normal((k, k)))[0]
        pt = PointData(pb, x, p)
        object.__setattr__(pt, "kd", rotated)
        X = rng.standard_normal((3, k)) @ kd.kernel_basis.T
        return pt, kd, rng, X / np.linalg.norm(X, axis=1, keepdims=True)

    def test_obstruction_operator_matches_obstruction_vector(self, stack):
        pt, kd, rng, X = stack
        pb, x, p = pt.pb, pt.x, pt.p
        op = obstruction_operator(pt, X @ pt.kd.kernel_basis)
        vertical = splitting(pb.bundle, p).kernel_basis
        assert np.min(op.norm) > 1e-3
        for i, X_i in enumerate(X):
            Z = kd.coimage_basis @ rng.standard_normal(kd.rank)
            npt.assert_allclose(
                vertical @ (op.obstruction_matrix[i] @ (kd.coimage_basis.T @ Z)),
                obstruction_vector(pb, x, p, X_i, Z), atol=1e-6)
            npt.assert_allclose(op.norm[i] * op.best_u[i],
                                obstruction_vector(pb, x, p, X_i, op.best_z[i]), atol=1e-6)

    def test_flatness_matches_vertizontal_flat_check(self, stack):
        pt, _, _, X = stack
        vertical = splitting(pt.pb.bundle, pt.p).kernel_basis
        oracle = [max(vertizontal_flat_check(pt.pb, pt.x, pt.p, X_i, u) for u in vertical.T)
                  for X_i in X]
        npt.assert_allclose(flatness_sweep(pt, X @ pt.kd.kernel_basis), oracle,
                            rtol=0.0, atol=1e-14)

    def test_level_set_ii_matches_finite_difference(self, stack):
        pt, _, _, X = stack
        c = X @ pt.kd.kernel_basis
        ii = level_set_ii(pt, c)
        for i, X_i in enumerate(X):
            assert np.linalg.norm(ii[i] - fd_level_set_ii(pt.pb.f, pt.x, X_i)) <= 1e-7
        assert np.max(identity_residual(pt, c, ii)) <= 1e-12

    def test_d2f_matches_single_direction(self, stack):
        pt, _, _, X = stack
        c = X @ pt.kd.kernel_basis
        contracted = np.einsum("ri,rj,ijn->rn", c, c, pt.kernel_d2f)
        single = np.array([d2f(pt.pb.f, pt.x, X_i, X_i) for X_i in X])
        npt.assert_allclose(contracted, single, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# Rank bookkeeping
# ---------------------------------------------------------------------------

class TestXiMapRank:
    def test_pure_hopf_rank_zero(self, pure_pb):
        _, x, p, kd = sample_config(pure_pb, 10)
        op = operator_at(PointData(pure_pb, x, p), kd.kernel_basis[:, 0])
        assert op.xi_rank[0] == 0

    def test_perturbed_hopf_full_vertical_rank(self, perturbed_pb):
        ranks = []
        for seed in range(5):
            _, x, p, kd = sample_config(perturbed_pb, seed)
            op = operator_at(PointData(perturbed_pb, x, p), kd.kernel_basis[:, 0])
            ranks.append(op.xi_rank[0])
        assert max(ranks) == perturbed_pb.bundle.fiber_dim

    def test_rank_bounded_by_fiber_dim(self, perturbed_pb):
        _, x, p, kd = sample_config(perturbed_pb, 11)
        op = operator_at(PointData(perturbed_pb, x, p), kd.kernel_basis[:, 0])
        assert op.xi_rank[0] <= perturbed_pb.bundle.fiber_dim

    def test_biconditional_with_d2f(self, pure_pb, perturbed_pb):
        # on fat bundles: full vertical rank iff d2f(X, X) is nonzero
        for pb in (pure_pb, perturbed_pb):
            for seed in range(5):
                _, x, p, kd = sample_config(pb, seed)
                X = kd.kernel_basis[:, 0]
                rank = operator_at(PointData(pb, x, p), X).xi_rank[0]
                if np.linalg.norm(d2f(pb.f, x, X, X)) > 1e-6:
                    assert rank == pb.bundle.fiber_dim
                else:
                    assert rank < pb.bundle.fiber_dim

    def test_caller_splitting_gives_identical_operator(self, perturbed_pb):
        # a PointData already split at p and used for another kernel
        # direction gives the operator of a fresh one, bit for bit
        _, x, p, kd = sample_config(perturbed_pb, 3)
        X = kd.kernel_basis[:, 0]
        own = operator_at(PointData(perturbed_pb, x, p), X)
        pt = PointData(perturbed_pb, x, p)
        assert pt.split.kernel_basis.shape[1] == perturbed_pb.bundle.fiber_dim
        operator_at(pt, -X)
        shared = operator_at(pt, X)
        npt.assert_array_equal(own.xi_matrix, shared.xi_matrix)
        npt.assert_array_equal(own.obstruction_matrix, shared.obstruction_matrix)
        npt.assert_array_equal(own.norm, shared.norm)


def rank_histogram(frames):
    """{rank: number of points} of the frames of `KernelFrame.by_rank`."""
    return {frame.rank: len(index) for index, frame in frames}


class TestRankProfile:
    def test_two_fold_drops_rank_on_equator(self):
        rho2 = geodesic_k_fold(geometries.sphere(2), 2)
        equator = [np.array([0.0, np.cos(t), np.sin(t)])
                   for t in np.linspace(0, 2 * np.pi, 7)]
        rng = rng_for(12)
        generic = [draw_point(rho2.source, rng) for _ in range(20)]
        frames = KernelFrame.by_rank(rho2, np.array(equator + generic))
        histogram = rank_histogram(frames)
        assert min(histogram) == 1
        assert set(histogram) <= {1, 2}
        assert histogram[1] >= len(equator)
        # witness singular values are {2, 0} at the equator
        svals = next(frame for _, frame in frames if frame.rank == 1).singular_values[0]
        assert abs(svals[0] - 2.0) <= 1e-6
        assert svals[1] <= 1e-6

    def test_hopf_constant_rank_two(self, hopf):
        x = draw_block(hopf.total, 0, 40)
        assert rank_histogram(KernelFrame.by_rank(hopf.projection, x)) == {2: 40}

    def test_identity_full_rank(self):
        m = geometries.sphere(2)
        x = draw_block(m, 0, 20)
        assert rank_histogram(KernelFrame.by_rank(identity_map(m), x)) == {2: 20}


# ---------------------------------------------------------------------------
# Scenario reports
# ---------------------------------------------------------------------------

class TestTheoremReport:
    def test_pure_hopf_consistent(self, pure_pb):
        rep = theorem_report(pure_pb, samples=25, seed=0)
        assert rep.verdict == "CONSISTENT"
        assert rep.max_obstruction_norm <= 1e-6
        assert rep.max_level_set_ii <= 1e-6
        assert rep.max_flatness_residual <= 1e-4
        assert rep.fatness.is_fat
        assert rep.reason is None
        assert not rep.certificates

    def test_consistent_on_non_fat_bundle_gives_reason(self, hopf):
        # the Hopf projection pulled back along the trivial bundle over its
        # base: the level sets are geodesic, so the verdict is CONSISTENT,
        # but A = 0 and the theorem's fatness hypothesis fails
        trivial = geometries.trivial_bundle(hopf.base, geometries.sphere(1))
        rep = theorem_report(PullbackBundle(hopf.projection, trivial), samples=4, seed=0)
        assert rep.verdict == "CONSISTENT"
        assert not rep.fatness.is_fat
        assert rep.reason is not None
        assert f"min_sigma {rep.fatness.min_sigma:.3e}" in rep.reason
        assert "hypothesis fails" in rep.reason

    def test_perturbed_hopf_violated(self, perturbed_pb):
        rep = theorem_report(perturbed_pb, samples=25, seed=0)
        assert rep.verdict == "VIOLATED"
        assert rep.certificates
        best = rep.best_certificate
        assert best.sec_value < -1e-6
        assert best.relative_agreement <= 0.10

    def test_constant_map_inconclusive(self, constant_pb):
        # rank 0 everywhere: no regular sample, so the samples decide nothing
        rep = theorem_report(constant_pb, samples=10, seed=0)
        assert rep.verdict == "INCONCLUSIVE"
        assert rep.reason.startswith("no regular sample with a kernel direction")
        assert "10 singular" in rep.reason
        assert rep.singular_points == 10
        assert rep.max_obstruction_norm == 0.0

    def test_deterministic(self, perturbed_pb):
        r1 = theorem_report(perturbed_pb, samples=8, seed=3)
        r2 = theorem_report(perturbed_pb, samples=8, seed=3)
        assert r1.verdict == r2.verdict
        assert r1.max_obstruction_norm == r2.max_obstruction_norm
        assert len(r1.certificates) == len(r2.certificates)
        if r1.certificates:
            assert r1.best_certificate.sec_value == r2.best_certificate.sec_value

    def test_octonionic_pullback_consistent(self):
        # the 15-sphere bundle over the 8-sphere, pulled back along itself;
        # small sample count keeps the 32-dim ambient run quick
        bundle = hopf_fibration("octonionic")
        pb = PullbackBundle(bundle.projection, bundle)
        rep = theorem_report(pb, samples=1, seed=0)
        assert rep.verdict == "CONSISTENT"
        assert rep.max_obstruction_norm <= 1e-6
        assert rep.max_flatness_residual <= 1e-4
        assert rep.fatness.is_fat

    def test_obstruction_small_where_level_set_geodesic(self, pure_pb):
        # sampled direction of the main theorem: geodesic level sets come
        # with vanishing obstruction
        rep = theorem_report(pure_pb, samples=15, seed=1)
        for s in rep.regular_rows:
            if s.level_set_ii_norm <= 1e-8:
                assert s.obstruction_norm <= 1e-6
