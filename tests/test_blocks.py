"""Points in blocks: every routine that takes a leading point axis gives, at
each point of a block, what it gives at that point alone, and the sampled
loops give the same results whatever the block size."""

import dataclasses
import functools
import importlib
import json
import pkgutil
import types

import numpy as np
import numpy.testing as npt
import pytest

import submersion_lab
from submersion_lab import (cli, core, geometries, numerics, obstruction, pullback, scenarios,
                            submersion)
from submersion_lab.graph import (GraphOperators, KernelFrame, SmoothMapBetweenManifolds, d2f,
                                  kernel_splitting)
from submersion_lab.numerics import nullspace_basis, orthonormal_basis, rng_blocks
from submersion_lab.pullback import PointData

from conftest import draw_block, draw_tangent, rng_for

PERTURBED = "compose(hopf, perturbed(0.3, e1))"


def assert_same(block, singles, rtol=1e-12, atol=1e-14):
    """Row i of `block` equals singles[i]."""
    assert len(block) == len(singles)
    for got, want in zip(block, singles):
        npt.assert_allclose(got, want, rtol=rtol, atol=atol)


@pytest.fixture(scope="module")
def perturbed_pb():
    return scenarios.build_scenario(scenarios.ScenarioConfig.from_dict({
        "name": "blocks", "bundle": "hopf_quaternionic", "base_map": PERTURBED})).pullback


def block_of(pb, n, seed=3):
    return pb.split_point(draw_block(pb.total_manifold, seed, n))


def squared_map():
    """f(x) = x_0^2 / 2 on R^2: df has rank 1 off the line x_0 = 0, rank 0 on it."""
    flat2, flat1 = geometries.flat_space(2), geometries.flat_space(1)
    return SmoothMapBetweenManifolds(
        source=flat2, target=flat1,
        ambient_map=lambda x: 0.5 * x[..., :1] ** 2,
        jacobian=lambda x: np.stack([x[..., 0], np.zeros(x.shape[:-1])], -1)[..., None, :],
        jacobian_derivative=lambda x, u: np.stack(
            [u[..., 0], np.zeros(np.shape(u)[:-1])], -1)[..., None, :],
        name="squared")


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [1, 2, 3, 7, 10, 11, numerics.POINTS_PER_BLOCK])
def test_rng_blocks_hand_out_the_rows_of_one_draw(size, monkeypatch):
    monkeypatch.setattr(numerics, "POINTS_PER_BLOCK", size)
    blocks = list(rng_blocks(7, 10, 3))
    assert [b.shape for b in blocks] == [(min(size, 10 - i), 3) for i in range(0, 10, size)]
    npt.assert_array_equal(np.concatenate(blocks), rng_for(7).standard_normal((10, 3)))


def test_basis_routines_take_a_stack():
    rng = rng_for(8)
    mats = rng.standard_normal((5, 3, 2)) @ rng.standard_normal((5, 2, 6))   # rank 2
    vectors, s = nullspace_basis(mats)
    npt.assert_array_equal(numerics.kernel_rank(s), [2] * 5)
    rows = vectors[..., :2]   # the row space, of rank 2
    for i, a in enumerate(mats):
        want = nullspace_basis(a)
        npt.assert_array_equal(vectors[i], want[0])
        npt.assert_array_equal(s[i], want[1])
        # the nullspace is the orthogonal complement of the row space
        npt.assert_array_equal(np.eye(6) - rows[i] @ rows[i].T,
                               np.eye(6) - want[0][:, :2] @ want[0][:, :2].T)
    projectors = rows @ rows.swapaxes(-1, -2)
    npt.assert_array_equal(orthonormal_basis(projectors, dim=2),
                           [orthonormal_basis(p, dim=2) for p in projectors])


def test_basis_routines_refuse_a_stack_of_mixed_ranks():
    rng = rng_for(9)
    mats = rng.standard_normal((2, 3, 6))
    mats[1, 2] = 0.0   # rank 3, then rank 2
    # every right-singular vector of the full SVD, n of them; the rank is
    # the caller's (`KernelFrame`) to read
    vectors, s = nullspace_basis(mats)
    assert [v.shape[-1] for v in vectors] == [6, 6]
    npt.assert_array_equal(numerics.kernel_rank(s), [3, 2])
    projectors = np.stack([np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 0.0, 0.0])])
    with pytest.raises(ValueError, match="dimensions from 1 to 2"):
        orthonormal_basis(projectors, dim=3)


# ---------------------------------------------------------------------------
# core and geometries: one closure call per block, errors name the point
# ---------------------------------------------------------------------------

def test_membership_of_a_block_is_one_retraction_call(perturbed_pb):
    m = perturbed_pb.total_manifold
    z = np.concatenate(block_of(perturbed_pb, 5), axis=-1)
    calls = []
    counted = dataclasses.replace(m, retraction=lambda x, v: calls.append(x.shape) or
                                  m.retraction(x, v))
    npt.assert_array_equal(core.check_point(counted, z), z)
    assert calls == [z.shape]
    npt.assert_allclose(m.membership_residual(z), [m.membership_residual(q) for q in z],
                        rtol=0.0, atol=1e-15)
    z[3, 0] += 1e-3   # the farthest point off is named
    z[1, 0] += 1e-6
    with pytest.raises(core.PointOffManifoldError, match="point 3 of the block"):
        core.check_point(m, z)


def test_an_ambiguous_fiber_projection_names_its_point():
    bundle = geometries.hopf_fibration("quaternionic")
    p = draw_block(bundle.total, 6, 3)
    n = bundle.projection(p)
    p[2] = 0.0   # no nearest point on the fiber
    npt.assert_allclose(bundle.fiber_projector(p[:2], n[:2]), p[:2], atol=1e-14)
    with pytest.raises(core.GeometryError, match="ambiguous at point 2 of the block"):
        bundle.fiber_projector(p, n)


def test_a_lost_rank_names_its_point(perturbed_pb):
    hopf = perturbed_pb.bundle
    p = draw_block(hopf.total, 7, 3)
    flat = dataclasses.replace(hopf.projection, name="flattened", jacobian=lambda q: np.where(
        (np.arange(len(q)) == 1)[:, None, None], 0.0, hopf.projection.jacobian(q)))
    with pytest.raises(core.SingularConfigurationError, match="point 1 of the block"):
        KernelFrame(flat, p, hopf.base.intrinsic_dim)


def assert_mapped_alone(sampler, seed, width, n=None, size=11):
    """A sampler maps a block of `size` rows of `width` normals, bit for bit,
    to the points it maps the rows to one at a time; a fiber sampler takes the
    base points n."""
    args = () if n is None else (n,)
    z = rng_for(seed).standard_normal((size, width))
    block = sampler(*args, z)
    alone = [sampler(*(a[i] for a in args), row) for i, row in enumerate(z)]
    assert all(np.shape(a) == np.shape(block)[1:] for a in alone)
    npt.assert_array_equal(block, alone)
    return block


@pytest.mark.parametrize("manifold", [
    geometries.sphere(2), geometries.sphere(3, 0.5), geometries.flat_space(3),
    geometries.product_manifold(geometries.sphere(1), geometries.flat_space(2)),
], ids=["S2", "S3(r=0.5)", "R3", "S1xR2"])
def test_a_sampled_block_is_its_rows_mapped_alone(manifold):
    z = assert_mapped_alone(manifold.sampler, 8, manifold.ambient_dim)
    assert z.shape == (11, manifold.ambient_dim)
    npt.assert_allclose(manifold.membership_residual(z), 0.0, atol=1e-15)


@pytest.mark.parametrize("flavor", list(geometries.HOPF_FLAVORS))
def test_a_hopf_fiber_block_is_its_rows_mapped_alone(flavor):
    # s > 0 draws in the chart of a, s <= 0 in the chart of b, the equator
    # s = 0 included: one block holds points of both branches
    bundle = geometries.hopf_fibration(flavor)
    k = bundle.algebra_dim
    n = draw_block(bundle.base, 5, 11)
    n[0] = np.eye(k + 1)[0] / 2.0
    s = n[:, k]
    assert s[0] == 0.0 and (s > 0).any() and (s < 0).any()
    p = assert_mapped_alone(functools.partial(geometries.hopf_fiber_sampler, flavor), 9, 2 * k, n)
    npt.assert_allclose(bundle.total.membership_residual(p), 0.0, atol=1e-15)
    npt.assert_allclose(bundle.projection(p), n, atol=1e-15)


@pytest.mark.parametrize("bundle", [
    geometries.trivial_bundle(geometries.sphere(2), geometries.sphere(1)),
    geometries.identity_bundle(geometries.sphere(2)),
], ids=["trivial", "identity"])
def test_a_fiber_block_is_its_rows_mapped_alone(bundle):
    n = draw_block(bundle.base, 5, 11)
    p = assert_mapped_alone(bundle.fiber_sampler, 9, bundle.total.ambient_dim, n)
    npt.assert_allclose(bundle.projection(p), n, atol=1e-15)


@pytest.mark.parametrize("bundle", scenarios.BUNDLE_NAMES)
def test_an_f_star_p_block_is_its_rows_mapped_alone(bundle):
    base_map = "perturbed(0.3, e1)" if bundle == "trivial" else PERTURBED
    pb = scenarios.build_scenario(scenarios.ScenarioConfig.from_dict({
        "name": "blocks", "bundle": bundle, "base_map": base_map})).pullback
    z = assert_mapped_alone(pb.total_manifold.sampler, 10, pb.total_manifold.ambient_dim)
    npt.assert_allclose(pb.total_manifold.membership_residual(z), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["pullback", "vertical", "level_set"])
def test_kernel_frame_of_a_block_is_the_frame_of_each_point(perturbed_pb, kind):
    pb = perturbed_pb
    x, p = block_of(pb, 4)
    f, z, rank = {"pullback": (pb.constraint, np.concatenate([x, p], -1), pb.d_n - 1),
                  "vertical": (pb.bundle.projection, p, pb.bundle.base.intrinsic_dim),
                  "level_set": (pb.f, x, None)}[kind]
    frame = KernelFrame(f, z, rank)
    singles = [KernelFrame(f, point, rank) for point in z]
    assert frame.rank == singles[0].rank
    for name in ("coimage_basis", "singular_values", "projector", "kernel_basis", "c_pinv"):
        assert_same(getattr(frame, name), [getattr(s, name) for s in singles])
    u = rng_for(10).standard_normal((4, 3, z.shape[-1])) @ frame.source_projector
    assert_same(frame.derivative(u), [s.derivative(v) for s, v in zip(singles, u)])


def test_by_rank_splits_a_block_by_the_rank_rule():
    f = squared_map()
    x = np.array([[1.0, 0.5], [0.0, 0.3], [2.0, -1.0], [0.0, 0.0]])
    frames = KernelFrame.by_rank(f, x)
    assert [(index.tolist(), frame.rank) for index, frame in frames] == [([0, 2], 1), ([1, 3], 0)]
    for index, frame in frames:
        singles = [KernelFrame(f, point) for point in x[index]]
        assert [s.rank for s in singles] == [frame.rank] * len(index)
        assert_same(frame.kernel_basis, [s.kernel_basis for s in singles])
        u = np.ones((len(index), 2, 2))
        assert_same(frame.derivative(u), [s.derivative(v) for s, v in zip(singles, u)])
    with pytest.raises(core.SingularConfigurationError,
                       match="rank 1 at point 0 and rank 0 at point 1 of the block"):
        KernelFrame(f, x)


def test_kernel_splitting_refuses_a_block_of_mixed_ranks():
    # df has rank 1 at x_0 != 0 and rank 0 at x_0 = 0: an error of the
    # geometry, which `cli.main` reports as `error:`, not a ValueError
    f = squared_map()
    for x in ([[1.0, 0.5], [0.0, 0.3]], [[0.0, 0.3], [1.0, 0.5]]):
        with pytest.raises(core.SingularConfigurationError) as info:
            kernel_splitting(f, np.array(x))
        assert isinstance(info.value, core.GeometryError)
        assert "rank 0" in str(info.value) and "rank 1" in str(info.value)


def test_graph_operators_and_d2f_of_a_block(perturbed_pb):
    f = perturbed_pb.f
    x, _ = block_of(perturbed_pb, 3)
    ops = GraphOperators(f, x)
    singles = [GraphOperators(f, point) for point in x]
    assert_same(ops.c, [s.c for s in singles])
    w = rng_for(11).standard_normal((3, f.target.ambient_dim, 2))
    assert_same(ops.apply_o(w), [s.apply_o(v) for s, v in zip(singles, w)])
    k = KernelFrame(f, x).kernel_basis.swapaxes(-1, -2)
    assert_same(d2f(f, x, k[:, :, None], k[:, None]),
                [d2f(f, point, kp[:, None], kp[None]) for point, kp in zip(x, k)])


# ---------------------------------------------------------------------------
# submersion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flavor", ["complex", "quaternionic", "octonionic"])
def test_splitting_and_a_tensor_of_a_block(flavor):
    bundle = geometries.hopf_fibration(flavor)
    p = draw_block(bundle.total, 5, 3)
    sp = submersion.splitting(bundle, p)
    singles = [submersion.splitting(bundle, q) for q in p]
    assert_same(sp.kernel_basis, [s.kernel_basis for s in singles])
    assert_same(submersion.a_tensor_coefficients(sp),
                [submersion.a_tensor_coefficients(s) for s in singles])
    w = np.ones((3, bundle.base.ambient_dim, 1))
    assert_same(submersion.horizontal_lift(sp, w),
                [submersion.horizontal_lift(s, v) for s, v in zip(singles, w)])


@pytest.mark.parametrize("flavor", ["complex", "octonionic"])
def test_fatness_and_fiber_check_do_not_depend_on_the_block_size(flavor, monkeypatch):
    # each check alone, and both in the one loop of `hypotheses`, whose fiber
    # points are its first rows
    bundle = geometries.hopf_fibration(flavor)
    reports = []
    for size in (1, numerics.POINTS_PER_BLOCK, 12):
        monkeypatch.setattr(numerics, "POINTS_PER_BLOCK", size)
        reports.append((submersion.fatness(bundle, sample_count=12, seed=2),
                        submersion.totally_geodesic_fibers_check(bundle, samples=5, seed=2)))
        reports.append(submersion.hypotheses(bundle, sample_count=12, fiber_samples=5, seed=2))
    (fat, fiber), rest = reports[0], reports[1:]
    for other_fat, other_fiber in rest:
        assert other_fat.min_sigma == pytest.approx(fat.min_sigma, rel=1e-12)
        npt.assert_array_equal(other_fat.worst_point, fat.worst_point)
        assert other_fiber == pytest.approx(fiber, rel=1e-12, abs=1e-14)


def test_a_check_draws_and_splits_each_hypothesis_point_once(monkeypatch):
    # the octonionic-consistent workload at seed 1: the hypothesis loop draws
    # fatness's 50 rows once, and the fiber check's 10 points are its first 10,
    # so no point is split twice
    draws, split = [], []
    blocks, splitting = submersion.rng_blocks, submersion.splitting
    monkeypatch.setattr(submersion, "rng_blocks", lambda *a: draws.append(a) or blocks(*a))
    monkeypatch.setattr(submersion, "splitting",
                        lambda bundle, p: split.append(np.array(p)) or splitting(bundle, p))
    sc = scenarios.build_scenario(scenarios.ScenarioConfig.from_dict({
        "name": "once", "bundle": "hopf_octonionic", "base_map": "hopf", "epsilon": 0.1,
        "samples": 3, "kernel_directions": 20, "seed": 1}))
    body, code = cli.run_check(sc)
    assert (body["verdict"], code) == ("CONSISTENT", 0)
    assert draws == [(1, 50, 16)]   # (seed, rows, ambient dimension of S^15)
    points = np.concatenate(split)
    assert len(points) == len(np.unique(points, axis=0)) == 50


# ---------------------------------------------------------------------------
# pullback and obstruction
# ---------------------------------------------------------------------------

POINT_FIELDS = ("kernel_d2f", "coimage_lift", "coeff")


def test_point_data_of_a_block_is_the_data_of_each_point(perturbed_pb):
    x, p = block_of(perturbed_pb, 4)
    (index, pt), = PointData.blocks(perturbed_pb, x, p)
    npt.assert_array_equal(index, np.arange(4))
    singles = [PointData(perturbed_pb, a, b) for a, b in zip(x, p)]
    for name in POINT_FIELDS:
        assert_same(getattr(pt, name), [getattr(s, name) for s in singles])
    assert_same(pt.ops.c, [s.ops.c for s in singles])
    rows, ii, slices = pt.lifted_bases
    assert slices == singles[0].lifted_bases[2]
    assert_same(rows, [s.lifted_bases[0] for s in singles])
    assert_same(ii, [s.lifted_bases[1] for s in singles])


def test_a_block_of_one_point_takes_the_one_point_data(perturbed_pb):
    # a block of one point keeps its point axis, and its data are those of
    # the point alone
    x, p = block_of(perturbed_pb, 1)
    (index, pt), = PointData.blocks(perturbed_pb, x, p)
    assert index.tolist() == [0] and pt.x.shape == x.shape == (1, perturbed_pb.d_m)
    single = PointData(perturbed_pb, x[0], p[0])
    for name in POINT_FIELDS:
        assert_same(getattr(pt, name), [getattr(single, name)])
    assert_same(pt.ops.c, [single.ops.c])
    rows, ii, slices = pt.lifted_bases
    assert slices == single.lifted_bases[2]
    assert_same(rows, [single.lifted_bases[0]])
    assert_same(ii, [single.lifted_bases[1]])


def test_batched_paths_on_a_block(perturbed_pb):
    x, p = block_of(perturbed_pb, 3)
    (_, pt), = PointData.blocks(perturbed_pb, x, p)
    singles = [PointData(perturbed_pb, a, b) for a, b in zip(x, p)]
    k = pt.kd.kernel_basis.shape[-1]
    c = rng_for(12).standard_normal((3, 5, k))
    c /= np.linalg.norm(c, axis=-1, keepdims=True)
    assert_same(obstruction.flatness_sweep(pt, c),
                [obstruction.flatness_sweep(s, ci) for s, ci in zip(singles, c)])
    assert_same(obstruction.level_set_ii(pt, c),
                [obstruction.level_set_ii(s, ci) for s, ci in zip(singles, c)])
    op = obstruction.obstruction_operator(pt, c)
    ops = [obstruction.obstruction_operator(s, ci) for s, ci in zip(singles, c)]
    for name in ("norm", "best_z", "best_u", "xi_rank", "obstruction_matrix"):
        assert_same(getattr(op, name), [getattr(o, name) for o in ops])
    certs = obstruction.negative_plane_finder(pt, c, op)   # point by point, 5 each
    assert len(certs) == 15
    for j, (s, ci, o) in enumerate(zip(singles, c, ops)):
        got, want = certs[5 * j:5 * (j + 1)], obstruction.negative_plane_finder(s, ci, o)
        assert [g is None for g in got] == [w is None for w in want]
        for g, w in zip(got, want):
            if w is not None:
                assert g.sec_value == pytest.approx(w.sec_value, rel=1e-12)
                npt.assert_allclose(g.plane_w, w.plane_w, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("base_map", ["hopf", PERTURBED])
def test_theorem_report_does_not_depend_on_the_block_size(base_map, monkeypatch):
    pb = scenarios.build_scenario(scenarios.ScenarioConfig.from_dict({
        "name": "blocks", "bundle": "hopf_complex", "base_map": base_map})).pullback
    reports = []
    for size in (1, numerics.POINTS_PER_BLOCK, 11):
        monkeypatch.setattr(numerics, "POINTS_PER_BLOCK", size)
        reports.append(obstruction.theorem_report(pb, samples=11, kernel_directions=3, seed=4))
    one, *rest = reports
    for blocked in rest:
        assert (blocked.verdict, blocked.regular_points, blocked.singular_points,
                len(blocked.rows), len(blocked.certificates)) == (
            one.verdict, one.regular_points, one.singular_points, len(one.rows),
            len(one.certificates))
        for got, want in zip(blocked.rows, one.rows):
            npt.assert_array_equal(got.x, want.x)
            assert got.obstruction_norm == pytest.approx(want.obstruction_norm, rel=1e-12,
                                                         abs=1e-14)
        for got, want in zip(blocked.certificates, one.certificates):
            assert got.sec_value == pytest.approx(want.sec_value, rel=1e-12)


@pytest.mark.parametrize("command, bundle, base_map, samples, code, loops", [
    ("check", "hopf_octonionic", "hopf", 3, 0, 3),
    ("check", "hopf_complex", PERTURBED, 80, 2, 3),
    ("validate", "hopf_quaternionic", PERTURBED, 20, 0, 13),
    ("curvature", "hopf_complex", PERTURBED, 20, 0, 1),
], ids=["octonionic-consistent", "complex-violated", "quaternionic-validate", "curvature"])
def test_a_sampled_loop_reads_one_generator(command, bundle, base_map, samples, code, loops,
                                            tmp_path, monkeypatch, capsys):
    # the benchmark's workloads at seed 1, and a curvature run: each walk of
    # rng_blocks builds one generator, and nothing else builds one. A check
    # samples in 3 loops (admissibility, the hypotheses, fatness and fiber
    # geodesy in one, and the sample loop); validate in 13 (3 manifolds, 7
    # other sampled probes, the admissibility and level-set loops and the
    # fiber check)
    built, walks = [], []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or default_rng(*a))
    for info in pkgutil.iter_modules(submersion_lab.__path__):
        module = importlib.import_module(f"submersion_lab.{info.name}")
        if hasattr(module, "rng_blocks"):
            monkeypatch.setattr(module, "rng_blocks", lambda *a, blocks=module.rng_blocks:
                                walks.append(a) or blocks(*a))
    path = tmp_path / "loops.json"
    path.write_text(json.dumps({"name": "loops", "bundle": bundle, "base_map": base_map,
                                "samples": samples, "seed": 1}))
    assert cli.main([command, "--config", str(path)]) == code
    capsys.readouterr()
    assert len(built) == len(walks) == loops


def test_curvature_does_not_depend_on_the_block_size(monkeypatch):
    sc = scenarios.build_scenario(scenarios.ScenarioConfig.from_dict({
        "name": "blocks", "bundle": "hopf_quaternionic", "base_map": PERTURBED,
        "samples": 11, "seed": 4}))
    bodies = []
    for size in (1, numerics.POINTS_PER_BLOCK, 11):
        monkeypatch.setattr(numerics, "POINTS_PER_BLOCK", size)
        bodies.append(cli.run_curvature(sc))
    one, *rest = bodies
    for blocked in rest:
        assert blocked["planes_sampled"] == one["planes_sampled"] == 11
        npt.assert_array_equal(blocked["worst_plane"]["point"], one["worst_plane"]["point"])
        for key in ("min", "max"):
            assert blocked[key] == pytest.approx(one[key], rel=1e-12)


# ---------------------------------------------------------------------------
# the finite-difference and direct oracles of validate
# ---------------------------------------------------------------------------

def test_curvature_oracles_of_a_block(perturbed_pb):
    m = perturbed_pb.total_manifold
    x, p = block_of(perturbed_pb, 4)
    z = perturbed_pb.join(x, p)
    rng = rng_for(5)
    a, b = (draw_tangent(m, z, rng) for _ in range(2))
    assert_same(core.riemann(m, z, a, b, b, a),
                [core.riemann(m, *args) for args in zip(z, a, b, b, a)])
    assert_same(core.sectional_curvature(m, z, a, b),
                [core.sectional_curvature(m, *args) for args in zip(z, a, b)])
    assert_same(core.second_fundamental_form(m, z, a, b),
                [core.second_fundamental_form(m, *args) for args in zip(z, a, b)])


def test_a_degenerate_plane_names_its_point():
    s2 = geometries.sphere(2)
    x = draw_block(s2, 6, 3)
    a = draw_tangent(s2, x, rng_for(7))
    b = draw_tangent(s2, x, rng_for(8))
    b[1] = a[1]
    with pytest.raises(core.DegeneratePlaneError, match="at point 1 of the block"):
        core.sectional_curvature(s2, x, a, b)


def test_pullback_oracles_of_a_block(perturbed_pb):
    pb = perturbed_pb
    x, p = block_of(pb, 4)
    pt = PointData(pb, x, p)
    singles = [PointData(pb, a, b) for a, b in zip(x, p)]
    rng = rng_for(9)
    a, b = (draw_tangent(pb.total_manifold, pb.join(x, p), rng) for _ in range(2))
    assert_same(pullback.pullback_second_fundamental_form(pt, a, b),
                [pullback.pullback_second_fundamental_form(s, *v) for s, *v in zip(singles, a, b)])
    assert_same(pullback.pullback_second_fundamental_form_direct(pb, x, p, a, b),
                [pullback.pullback_second_fundamental_form_direct(pb, *args)
                 for args in zip(x, p, a, b)])
    assert_same(pullback.pullback_curvature(pb, x, p, a, b, b, a),
                [pullback.pullback_curvature(pb, *args) for args in zip(x, p, a, b, b, a)])
    y, y2 = a[:, pb.d_m:], b[:, pb.d_m:]
    assert_same(pullback.lambda_term(pt, y, y2),
                [pullback.lambda_term(s, *v) for s, *v in zip(singles, y, y2)])
    assert_same(pt.dpi_tilde(a), [s.dpi_tilde(v) for s, v in zip(singles, a)])
    assert_same(pt.horizontal_lift(x), [s.horizontal_lift(v) for s, v in zip(singles, x)])
    assert_same(pb.constraint_residual(x, p), [pb.constraint_residual(*v) for v in zip(x, p)])
    f = pb.f
    ops = GraphOperators(f, x)
    ops_singles = [GraphOperators(f, point) for point in x]
    v = draw_tangent(f.source, x, rng)
    w = draw_tangent(f.target, ops.fx, rng)
    for name, args in (("xi", (v, w)), ("xi_inverse", (v, w)), ("normal_projection", (v, w)),
                       ("xi_n", (w,))):
        got = getattr(ops, name)(*args)
        for part, want in zip(got, zip(*[getattr(s, name)(*point_args) for s, *point_args
                                         in zip(ops_singles, *args)])):
            assert_same(part, want)


def test_obstruction_and_submersion_oracles_of_a_block(perturbed_pb):
    # the A tensor is a central difference of the splitting at h = 1e-4: the
    # block's rounding moves it by that rounding over h
    pb = perturbed_pb
    x, p = block_of(pb, 3)
    (index, kd), = KernelFrame.by_rank(pb.f, x)
    sp = submersion.splitting(pb.bundle, p)
    X, Z, U = kd.kernel_basis[..., 0], kd.coimage_basis[..., 0], sp.kernel_basis[..., 0]
    assert_same(obstruction.obstruction_vector(pb, x, p, X, Z),
                [obstruction.obstruction_vector(pb, *args) for args in zip(x, p, X, Z)],
                atol=1e-10)
    assert_same(obstruction.vertizontal_flat_check(pb, x, p, X, U),
                [obstruction.vertizontal_flat_check(pb, *args) for args in zip(x, p, X, U)])
    for got, want in zip(obstruction.cross_term_check(pb, x, p, X, U, Z),
                         zip(*[obstruction.cross_term_check(pb, *args)
                               for args in zip(x, p, X, U, Z)])):
        assert_same(got, want, atol=1e-10)
    bundle, h, h2 = pb.bundle, sp.coimage_basis[..., 0], sp.coimage_basis[..., 1]
    assert_same(submersion.a_tensor(bundle, p, h, h2),
                [submersion.a_tensor(bundle, *args) for args in zip(p, h, h2)], atol=1e-10)
    assert_same(submersion.vertizontal_sec(bundle, p, h, U),
                [submersion.vertizontal_sec(bundle, *args) for args in zip(p, h, U)])
    assert_same(submersion.a_dagger(sp, submersion.a_tensor_coefficients(sp), h, U),
                [submersion.a_dagger(s, submersion.a_tensor_coefficients(s), *v)
                 for s, *v in zip((submersion.splitting(bundle, q) for q in p), h, U)])


def test_a_probe_splits_a_block_of_rows_by_rank():
    # the squared map's df has rank 0 on x_0 = 0, where the rows with a
    # negative second normal put their point, and rank 1 elsewhere: each part
    # of the block takes the columns of its own rows, so every row reads what
    # it reads alone
    f = squared_map()
    source = dataclasses.replace(f.source, sampler=lambda z: np.where(
        z[..., 1:] < 0.0, z * [0.0, 1.0], z))
    sc = types.SimpleNamespace(base_map=dataclasses.replace(f, source=source))
    doubled = lambda x: 2.0 * source.projector(x)   # agreement |<K_0, P z>|
    name = "pullback.metric_reduction_level_set_agreement"
    zx, zt = rng_for(4).standard_normal((2, 8, 2))
    ranks = [KernelFrame(sc.base_map, source.random_point(row)).rank for row in zx]
    assert set(ranks) == {0, 1}
    block = cli._level_set_sample(doubled, sc, zx, zt)[name]
    alone = [cli._level_set_sample(doubled, sc, zx[i:i + 1], zt[i:i + 1])[name][0]
             for i in range(8)]
    assert min(alone) > 0.0
    assert_same(block, alone)
