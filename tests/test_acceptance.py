"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and residuals. Tolerances are pinned here; timing bounds are asserted
with `time.perf_counter` around the relevant computation only.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from submersion_lab import cli, core, geometries, obstruction, pullback, submersion
from submersion_lab.geometries import (geodesic_k_fold, hopf_fibration,
                                       perturbation_diffeo, trivial_bundle)
from submersion_lab.graph import GraphOperators, compose
from submersion_lab.numerics import constant_field
from submersion_lab.pullback import (PointData, PullbackBundle,
                                     pullback_second_fundamental_form,
                                     pullback_second_fundamental_form_direct,
                                     reduce_connection_metric)

from conftest import draw_point, draw_tangent, linear_sphere_map, rng_for


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


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


def run_cli_check(tmp_path, name, base_map, seed=7):
    cfg = {"name": name, "bundle": "hopf_complex", "base_map": base_map,
           "samples": 200, "kernel_directions": 20, "seed": seed}
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / f"{name}_report.json"
    code = cli.main(["check", "--config", str(cfg_path), "--out", str(out)])
    data = json.loads(out.read_text())
    data.pop("timing", None)
    return code, data


def test_criterion_01_round_sphere_curvature():
    t0 = time.perf_counter()
    worst_analytic = worst_fd = 0.0
    radii = {2: 1.0, 3: 0.5, 7: 1.3}
    for dim, r in radii.items():
        analytic = geometries.sphere(dim, r)
        fd = dataclasses.replace(analytic, analytic_projector_derivative=None,
                                 analytic_second_fundamental_form=None)
        rng = rng_for(100 + dim)
        for _ in range(100):
            x = draw_point(analytic, rng)
            X = draw_tangent(analytic, x, rng)
            Y = draw_tangent(analytic, x, rng)
            expected = 1.0 / r ** 2
            worst_analytic = max(worst_analytic, abs(
                core.sectional_curvature(analytic, x, X, Y) - expected))
            worst_fd = max(worst_fd, abs(
                core.sectional_curvature(fd, x, X, Y) - expected))
    elapsed = time.perf_counter() - t0
    ok = worst_analytic <= 1e-8 and worst_fd <= 1e-4 and elapsed < 5.0
    report(1, ok, f"round-sphere curvature: analytic residual "
                  f"{worst_analytic:.2e} (<=1e-8), fd residual {worst_fd:.2e} "
                  f"(<=1e-4), {elapsed:.2f}s (<5s)")


def test_criterion_02_normal_projection_oracle():
    t0 = time.perf_counter()
    rng = rng_for(77)
    s2 = geometries.sphere(2)
    s3 = geometries.sphere(3)
    flat2 = geometries.flat_space(2)
    flat3 = geometries.flat_space(3)

    from submersion_lab.graph import SmoothMapBetweenManifolds

    def flat_map(mat):
        mat = np.asarray(mat, float)
        return SmoothMapBetweenManifolds(
            source=flat2 if mat.shape[1] == 2 else flat3,
            target=flat2 if mat.shape[0] == 2 else flat3,
            ambient_map=lambda x: x @ mat.T, jacobian=constant_field(mat))

    maps = ([flat_map(rng.standard_normal((3, 2))) for _ in range(3)]
            + [flat_map(rng.standard_normal((2, 3))) for _ in range(2)]
            + [linear_sphere_map(s3, s2, rng.standard_normal((3, 4))) for _ in range(3)]
            + [linear_sphere_map(s2, s3, rng.standard_normal((4, 3))) for _ in range(2)])
    worst = 0.0
    triples = 0
    while triples < 500:
        f = maps[triples % len(maps)]
        x = draw_point(f.source, rng)
        v = f.source.projector(x) @ rng.standard_normal(f.source.ambient_dim)
        w = f.target.projector(f(x)) @ rng.standard_normal(f.target.ambient_dim)
        basis_m = core.tangent_basis(f.source, x)
        cols = np.vstack([basis_m, f.jac(x) @ basis_m])
        q, _ = np.linalg.qr(cols)
        stacked = np.concatenate([v, w])
        oracle = stacked - q @ (q.T @ stacked)
        pv, pw = GraphOperators(f, x).normal_projection(v, w)
        worst = max(worst, float(np.linalg.norm(np.concatenate([pv, pw]) - oracle)))
        triples += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(2, ok, f"graph normal projection vs Gram-Schmidt oracle on "
                  f"{triples} triples: max residual {worst:.2e} (<=1e-8), "
                  f"{elapsed:.2f}s (<10s)")


def test_criterion_03_vertizontal_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for flavor in ("complex", "quaternionic"):
        bundle = hopf_fibration(flavor)
        rng = rng_for(300 + len(flavor))
        for _ in range(100):
            p = draw_point(bundle.total, rng)
            sp = submersion.splitting(bundle, p)
            c = rng.standard_normal(sp.coimage_basis.shape[1])
            x = sp.coimage_basis @ (c / np.linalg.norm(c))
            cu = rng.standard_normal(sp.kernel_basis.shape[1])
            u = sp.kernel_basis @ (cu / np.linalg.norm(cu))
            vsec = submersion.vertizontal_sec(bundle, p, x, u)
            isec = core.sectional_curvature(bundle.total, p, x, u)
            worst = max(worst, abs(vsec - 1.0), abs(isec - 1.0), abs(vsec - isec))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    report(3, ok, f"vertizontal curvature via the integrability tensor equals "
                  f"intrinsic curvature equals 1: max deviation {worst:.2e} "
                  f"(<=1e-4), {elapsed:.2f}s (<30s)")


def test_criterion_04_fatness(hopf, trivial_bundle_spheres):
    t0 = time.perf_counter()
    rep = submersion.fatness(hopf, sample_count=200, seed=0)
    trivial_rep = submersion.fatness(trivial_bundle_spheres,
                                     sample_count=50, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (abs(rep.min_sigma - 1.0) <= 1e-3 and rep.is_fat
          and trivial_rep.min_sigma <= 1e-10 and not trivial_rep.is_fat
          and elapsed < 30.0)
    report(4, ok, f"fatness: complex Hopf min sigma {rep.min_sigma:.6f} "
                  f"(=1+-1e-3, fat), trivial product {trivial_rep.min_sigma:.2e} "
                  f"(=0, not fat), {elapsed:.2f}s (<30s)")


def test_criterion_05_second_fundamental_form_oracle(pure_pb, perturbed_pb):
    t0 = time.perf_counter()
    worst = 0.0
    for pb, seed in ((pure_pb, 50), (perturbed_pb, 51)):
        rng = rng_for(seed)
        for _ in range(100):
            z = draw_point(pb.total_manifold, rng)
            x, p = pb.split_point(z)
            basis = pb.tangent_basis(x, p)
            c1 = rng.standard_normal(basis.shape[1])
            c2 = rng.standard_normal(basis.shape[1])
            xt = basis @ (c1 / np.linalg.norm(c1))
            xtp = basis @ (c2 / np.linalg.norm(c2))
            formula = pullback_second_fundamental_form(PointData(pb, x, p), xt, xtp)
            direct = pullback_second_fundamental_form_direct(pb, x, p, xt, xtp)
            worst = max(worst, float(np.linalg.norm(formula - direct)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    report(5, ok, f"pull-back second fundamental form, formula vs direct "
                  f"ambient oracle at 200 samples: max residual {worst:.2e} "
                  f"(<=1e-4), {elapsed:.2f}s (<60s)")


def test_criterion_06_curvature_identities(pure_pb, perturbed_pb):
    t0 = time.perf_counter()
    worst_flat = worst_cross = 0.0
    for pb, seed in ((pure_pb, 60), (perturbed_pb, 61)):
        rng = rng_for(seed)
        for _ in range(100):
            z = draw_point(pb.total_manifold, rng)
            x, p = pb.split_point(z)
            kd = obstruction.kernel_splitting(pb.f, x)
            X = kd.kernel_basis[:, 0]
            sp = submersion.splitting(pb.bundle, p)
            u = sp.kernel_basis[:, 0]
            worst_flat = max(worst_flat,
                           obstruction.vertizontal_flat_check(pb, x, p, X, u))
            zdir = kd.coimage_basis[:, int(rng.integers(kd.rank))]
            direct, formula = obstruction.cross_term_check(pb, x, p, X, u, zdir)
            worst_cross = max(worst_cross, abs(direct - formula))
    elapsed = time.perf_counter() - t0
    ok = worst_flat <= 1e-4 and worst_cross <= 1e-3 and elapsed < 60.0
    report(6, ok, f"vertical-plane flatness residual {worst_flat:.2e} (<=1e-4), "
                  f"cross-term direct vs formula {worst_cross:.2e} (<=1e-3) at "
                  f"200 samples, {elapsed:.2f}s (<60s)")


def test_criterion_07_metric_reduction(hopf):
    t0 = time.perf_counter()
    reduced = reduce_connection_metric(hopf.projection, epsilon=0.1,
                                       samples=25, seed=0)
    rng = rng_for(70)
    worst_tan = 0.0
    for _ in range(25):
        x = draw_point(hopf.total, rng)
        kd = obstruction.kernel_splitting(hopf.projection, x)
        kx = kd.kernel_basis[:, 0]
        z = draw_tangent(hopf.total, x, rng)
        g_amb = reduced.metric_field(x)
        worst_tan = max(worst_tan,
                        abs(float(kx @ g_amb @ z - kx @ hopf.total.projector_field(x) @ z)))
    elapsed = time.perf_counter() - t0
    ok = (reduced.reconstruction_residual <= 1e-10 and worst_tan <= 1e-12
          and elapsed < 1.0)
    report(7, ok, f"base-metric reduction: reconstruction residual "
                  f"{reduced.reconstruction_residual:.2e} (<=1e-10), level-set "
                  f"tangential agreement {worst_tan:.2e} (<=1e-12), "
                  f"{elapsed:.2f}s (<1s)")


@pytest.fixture(scope="module")
def positive_control(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("accept_pos")
    t0 = time.perf_counter()
    code, data = run_cli_check(tmp, "positive-control", "hopf")
    return code, data, time.perf_counter() - t0, tmp


@pytest.fixture(scope="module")
def negative_control(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("accept_neg")
    t0 = time.perf_counter()
    code, data = run_cli_check(tmp, "negative-control",
                               "compose(hopf, perturbed(0.3, e1))")
    return code, data, time.perf_counter() - t0, tmp


def test_criterion_08_positive_control(positive_control):
    code, data, elapsed, _ = positive_control
    summary = data["summary"]
    ok = (code == 0 and data["verdict"] == "CONSISTENT"
          and summary["max_obstruction_norm"] <= 1e-6
          and summary["max_level_set_ii"] <= 1e-6)
    report(8, ok, f"positive control (bundle projection as base map): verdict "
                  f"{data['verdict']}, exit {code}, max obstruction "
                  f"{summary['max_obstruction_norm']:.2e} (<=1e-6), max level-set "
                  f"II {summary['max_level_set_ii']:.2e} (<=1e-6), {elapsed:.1f}s")


def test_criterion_09_negative_control(negative_control):
    code, data, elapsed, _ = negative_control
    certs = data["certificates"]
    best = certs[0] if certs else None
    ok = (code == 2 and data["verdict"] == "VIOLATED" and best is not None
          and best["sec_value"] < -1e-6
          and best["relative_agreement"] <= 0.10
          and elapsed < 120.0)
    detail = "no certificate" if best is None else (
        f"sec {best['sec_value']:.4e} (<-1e-6), expansion agreement "
        f"{best['relative_agreement']:.2e} (<=0.1)")
    report(9, ok, f"negative control (perturbed base map): verdict "
                  f"{data['verdict']}, exit {code}, {detail}, "
                  f"{elapsed:.1f}s (<120s)")


def test_criterion_10_geodesic_k_fold():
    worst_form = 0.0
    pole = np.array([1.0, 0.0, 0.0])   # the folds' pole, the first axis
    m = geometries.sphere(2)
    rng = rng_for(10)
    for k in (2, 3, 4):
        rho = geodesic_k_fold(m, k)
        checked = 0
        while checked < 60:
            y = draw_point(m, rng)
            c = y @ pole
            if abs(c) >= 0.99:
                continue
            t = np.arccos(np.clip(c, -1, 1))
            x_dir = (y - c * pole) / np.linalg.norm(y - c * pole)
            angle = np.cos(k * t) * pole + np.sin(k * t) * x_dir
            worst_form = max(worst_form, float(np.linalg.norm(rho(y) - angle)))
            checked += 1
    rho2 = geodesic_k_fold(m, 2)
    y_eq = np.array([0.0, 1.0, 0.0])
    basis = core.tangent_basis(m, y_eq)
    jac = rho2.jac(y_eq)
    s = np.linalg.svd(jac @ basis, compute_uv=False)
    ok = worst_form <= 1e-9 and abs(s[0] - 2.0) <= 1e-6 and s[1] <= 1e-6
    report(10, ok, f"geodesic k-fold: polynomial vs angle form {worst_form:.2e} "
                   f"(<=1e-9 away from poles), equator singular values "
                   f"({s[0]:.8f}, {s[1]:.2e}) = (2+-1e-6, <=1e-6)")


def test_criterion_11_determinism(positive_control, negative_control, tmp_path):
    _, first_pos, _, _ = positive_control
    code, second_pos = run_cli_check(tmp_path, "positive-control", "hopf")
    _, first_neg, _, _ = negative_control
    code_n, second_neg = run_cli_check(tmp_path, "negative-control",
                                       "compose(hopf, perturbed(0.3, e1))")
    same_pos = json.dumps(first_pos, sort_keys=True) == json.dumps(second_pos, sort_keys=True)
    same_neg = json.dumps(first_neg, sort_keys=True) == json.dumps(second_neg, sort_keys=True)
    ok = same_pos and same_neg and code == 0 and code_n == 2
    report(11, ok, f"determinism: repeated runs with the same seed produce "
                   f"byte-identical reports modulo timing "
                   f"(positive {same_pos}, negative {same_neg})")
