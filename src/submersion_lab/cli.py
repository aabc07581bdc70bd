"""Batch front-end: scenario validation, obstruction checks, curvature
sampling, and report merging.

Exit codes: 0 all checks pass / verdict CONSISTENT, 2 verdict VIOLATED with a
re-verified certificate, 1 verdict INCONCLUSIVE (its cause in the report's
`reason`) or error (including inadmissible epsilon and failed validation).
Reports are deterministic for a fixed (config, seed) apart from the timing
block.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from . import __version__, core, obstruction, submersion
from .core import GeometryError
from .graph import GraphOperators, d2f
from .numerics import rng_streams
from .pullback import (InadmissibleEpsilonError, PointData, lambda_term,
                       pullback_curvature, pullback_second_fundamental_form,
                       pullback_second_fundamental_form_direct,
                       pullback_submersion_check, reduce_connection_metric)
from .scenarios import ConfigError, Scenario, ScenarioConfig, build_scenario
from .submersion import splitting

def to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj.ravel()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return to_jsonable(dataclasses.asdict(obj))
    return obj


@dataclasses.dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    witness: Optional[dict] = None

    @property
    def status(self) -> str:
        return "pass" if self.residual <= self.tolerance else "fail"

    def row(self) -> dict:
        out = {"check": self.name, "status": self.status,
               "residual": float(self.residual), "tolerance": float(self.tolerance)}
        if self.witness is not None:
            out["witness"] = to_jsonable(self.witness)
        return out


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def run_validation(sc: Scenario) -> list[CheckResult]:
    """Invariant suite over every layer of the scenario's geometry."""
    cfg = sc.config
    pb = sc.pullback
    f = sc.base_map
    bundle = sc.bundle
    n_small = min(cfg.samples, 8)
    n_mid = min(cfg.samples, 20)
    checks: list[CheckResult] = []

    manifolds = [f.source, bundle.base, bundle.total, pb.total_manifold]

    # projector algebra and retraction consistency
    worst_proj, worst_trace, worst_retr0, worst_retr2 = 0.0, 0.0, 0.0, 0.0
    witness = None
    for m in manifolds:
        for rng in rng_streams(cfg.seed, n_small):
            x = m.random_point(rng)
            p = m.projector_field(x)
            res = max(np.linalg.norm(p @ p - p), np.linalg.norm(p - p.T))
            if res > worst_proj:
                worst_proj, witness = res, {"manifold": m.name, "point": x}
            worst_trace = max(worst_trace, abs(np.trace(p) - m.intrinsic_dim))
            worst_retr0 = max(worst_retr0,
                              np.linalg.norm(m.retraction(x, np.zeros(m.ambient_dim)) - x))
            v = core.random_tangent(m, x, rng)
            step = 1e-3
            worst_retr2 = max(worst_retr2,
                              np.linalg.norm(m.retraction(x, step * v) - (x + step * v)) / step ** 2)
    checks.append(CheckResult("core.projector_idempotent_symmetric", worst_proj,
                              sc.tolerance("projector_identity"), witness))
    checks.append(CheckResult("core.projector_trace", worst_trace,
                              sc.tolerance("projector_trace")))
    checks.append(CheckResult("core.retraction_zero_step", worst_retr0, 1e-12))
    checks.append(CheckResult("core.retraction_second_order", worst_retr2, 10.0))

    # tangent-to-tangent Jacobian
    worst = 0.0
    for rng in rng_streams(cfg.seed + 1, n_small):
        x = f.source.random_point(rng)
        jac = f.jac(x)
        p_m = f.source.projector_field(x)
        p_n = f.target.projector_field(f(x))
        worst = max(worst, float(np.max(np.abs(p_n @ jac @ p_m - jac @ p_m))))
    checks.append(CheckResult("graph.jacobian_tangent_to_tangent", worst,
                              sc.tolerance("tangent_jacobian")))

    # graph splitting round trip, projection algebra, commute identity
    worst_xi, worst_pr, worst_comm, worst_sym = 0.0, 0.0, 0.0, 0.0
    for rng in rng_streams(cfg.seed + 2, n_small):
        x = f.source.random_point(rng)
        ops = GraphOperators(f, x)
        v = core.random_tangent(f.source, x, rng)
        w = core.random_tangent(f.target, f(x), rng)
        tv, nw = ops.xi_inverse(v, w)
        rv, rw = ops.xi(tv, nw)
        worst_xi = max(worst_xi, np.linalg.norm(rv - v), np.linalg.norm(rw - w))
        pv, pw = ops.normal_projection(v, w)
        ppv, ppw = ops.normal_projection(pv, pw)
        worst_pr = max(worst_pr, np.linalg.norm(ppv - pv), np.linalg.norm(ppw - pw))
        gv, gw = v, ops.apply_df(v)  # a graph tangent
        qv, qw = ops.normal_projection(gv, gw)
        worst_pr = max(worst_pr, np.linalg.norm(qv), np.linalg.norm(qw))
        d = ops.d
        m_n, m_m = d.shape
        lhs = d @ np.linalg.inv(np.eye(m_m) + d.T @ d)
        rhs = np.linalg.inv(np.eye(m_n) + d @ d.T) @ d
        worst_comm = max(worst_comm, float(np.max(np.abs(lhs - rhs))))
        xa = core.random_tangent(f.source, x, rng)
        xb = core.random_tangent(f.source, x, rng)
        worst_sym = max(worst_sym, float(np.linalg.norm(
            d2f(f, x, xa, xb) - d2f(f, x, xb, xa))))
    checks.append(CheckResult("graph.xi_roundtrip", worst_xi, sc.tolerance("xi_roundtrip")))
    checks.append(CheckResult("graph.normal_projection_idempotent_annihilates_tangents",
                              worst_pr, sc.tolerance("graph_projection")))
    checks.append(CheckResult("graph.commute_identity", worst_comm,
                              sc.tolerance("commute_identity")))
    checks.append(CheckResult("graph.d2f_symmetry", worst_sym, sc.tolerance("d2f_symmetry")))

    # submersion structure
    worst_riem, worst_av, worst_anti, worst_go = 0.0, 0.0, 0.0, 0.0
    for rng in rng_streams(cfg.seed + 3, n_small):
        p = bundle.total.random_point(rng)
        sp = splitting(bundle, p)
        hdim = sp.horizontal_basis.shape[1]
        c = rng.standard_normal(hdim)
        c /= np.linalg.norm(c)
        xh = sp.horizontal_basis @ c
        worst_riem = max(worst_riem, abs(np.linalg.norm(sp.jac @ xh) - 1.0))
        c2 = rng.standard_normal(hdim)
        c2 /= np.linalg.norm(c2)
        yh = sp.horizontal_basis @ c2
        a_xy = submersion.a_tensor(bundle, p, xh, yh, cfg.fd_step)
        a_yx = submersion.a_tensor(bundle, p, yh, xh, cfg.fd_step)
        worst_av = max(worst_av, float(np.linalg.norm(sp.jac @ a_xy)))
        worst_anti = max(worst_anti, float(np.linalg.norm(a_xy + a_yx)))
        if sp.vertical_basis.shape[1] > 0:
            u = sp.vertical_basis[:, 0]
            vsec = submersion.vertizontal_sec(bundle, p, xh, u)
            isec = core.sectional_curvature(bundle.total, p, xh, u)
            worst_go = max(worst_go, abs(vsec - isec))
    checks.append(CheckResult("submersion.riemannian_property", worst_riem,
                              sc.tolerance("riemannian_submersion")))
    checks.append(CheckResult("submersion.a_tensor_vertical", worst_av,
                              sc.tolerance("a_vertical")))
    checks.append(CheckResult("submersion.a_tensor_antisymmetric", worst_anti,
                              sc.tolerance("a_antisymmetry")))
    checks.append(CheckResult("submersion.vertizontal_matches_intrinsic", worst_go,
                              sc.tolerance("gray_oneill")))
    checks.append(CheckResult(
        "submersion.fibers_totally_geodesic",
        submersion.totally_geodesic_fibers_check(bundle, samples=n_small, seed=cfg.seed),
        sc.tolerance("fiber_geodesy")))

    # pull-back bundle
    worst_mem = 0.0
    for rng in rng_streams(cfg.seed + 4, n_small):
        z = pb.total_manifold.random_point(rng)
        v = core.random_tangent(pb.total_manifold, z, rng)
        z2 = pb.total_manifold.retraction(z, 1e-2 * v)
        x2, p2 = pb.split_point(z2)
        worst_mem = max(worst_mem, pb.constraint_residual(x2, p2))
    checks.append(CheckResult("pullback.membership_after_retraction", worst_mem,
                              sc.tolerance("membership")))

    rep = pullback_submersion_check(pb, samples=n_small, seed=cfg.seed)
    checks.append(CheckResult(
        "pullback.graph_submersion_isometries",
        max(rep.max_horizontal_norm_defect, rep.max_normal_isometry_defect,
            rep.max_normal_alignment_defect),
        sc.tolerance("graph_submersion_isometry")))

    try:
        reduced = reduce_connection_metric(f, cfg.epsilon, samples=n_mid, seed=cfg.seed)
        checks.append(CheckResult("pullback.metric_reduction_reconstruction",
                                  reduced.reconstruction_residual,
                                  sc.tolerance("metric_reduction_reconstruction"),
                                  {"min_eigenvalue": reduced.min_eigenvalue,
                                   "max_admissible_epsilon": reduced.max_admissible_epsilon}))
        worst_tan = 0.0
        for rng in rng_streams(cfg.seed + 5, n_small):
            x = f.source.random_point(rng)
            kd = obstruction.kernel_splitting(f, x)
            if kd.kernel_basis.shape[1] == 0:
                continue
            g_amb = reduced.metric_field.operator(x)
            p_m = f.source.projector_field(x)
            kx = kd.kernel_basis[:, 0]
            z = core.random_tangent(f.source, x, rng)
            worst_tan = max(worst_tan, abs(float(kx @ g_amb @ z - kx @ p_m @ z)))
        checks.append(CheckResult("pullback.metric_reduction_level_set_agreement",
                                  worst_tan, sc.tolerance("metric_reduction_tangential")))
    except InadmissibleEpsilonError as exc:
        checks.append(CheckResult(
            "pullback.metric_reduction_reconstruction", np.inf,
            sc.tolerance("metric_reduction_reconstruction"),
            {"error": str(exc), "min_eigenvalue": exc.min_eigenvalue,
             "max_admissible_epsilon": exc.max_admissible}))

    worst_ii, worst_lambda = 0.0, 0.0
    for rng in rng_streams(cfg.seed + 6, n_small):
        z = pb.total_manifold.random_point(rng)
        x, p = pb.split_point(z)
        pt = PointData(pb, x, p)
        basis = pb.tangent_basis(x, p)
        idx = rng.integers(0, basis.shape[1], size=2)
        xt, xtp = basis[:, idx[0]], basis[:, idx[1]]
        formula = pullback_second_fundamental_form(pt, xt, xtp)
        direct = pullback_second_fundamental_form_direct(pb, x, p, xt, xtp)
        worst_ii = max(worst_ii, float(np.linalg.norm(formula - direct)))
        sp = pt.split
        hdim = sp.horizontal_basis.shape[1]
        yh = sp.horizontal_basis @ _unit(rng.standard_normal(hdim))
        yh2 = sp.horizontal_basis @ _unit(rng.standard_normal(hdim))
        vdim = sp.vertical_basis.shape[1]
        uv = sp.vertical_basis @ _unit(rng.standard_normal(vdim))
        uv2 = sp.vertical_basis @ _unit(rng.standard_normal(vdim))
        worst_lambda = max(
            worst_lambda,
            float(np.linalg.norm(lambda_term(pt, yh, yh2))),
            float(np.linalg.norm(lambda_term(pt, uv, uv2))),
            float(np.linalg.norm(lambda_term(pt, yh, uv) - lambda_term(pt, uv, yh))))
    checks.append(CheckResult("pullback.second_fundamental_form_formula_vs_direct",
                              worst_ii, sc.tolerance("second_fundamental_form_formula")))
    checks.append(CheckResult("pullback.lambda_symmetry_and_vanishing",
                              worst_lambda, sc.tolerance("lambda_structure")))

    # curvature identities for kernel directions
    worst_r1, worst_r2 = 0.0, 0.0
    for rng in rng_streams(cfg.seed + 7, n_small):
        z = pb.total_manifold.random_point(rng)
        x, p = pb.split_point(z)
        pt = PointData(pb, x, p)
        kd = pt.kd
        if kd.kernel_basis.shape[1] == 0 or not kd.is_regular:
            continue
        X = kd.kernel_basis[:, 0]
        sp = pt.split
        u = sp.vertical_basis @ _unit(rng.standard_normal(sp.vertical_basis.shape[1]))
        worst_r1 = max(worst_r1,
                       obstruction.vertizontal_flat_check(pb, x, p, X, u))
        zdir = kd.coimage_basis[:, 0]
        direct, formula = obstruction.cross_term_check(pb, x, p, X, u, zdir,
                                                       cfg.fd_step)
        worst_r2 = max(worst_r2, abs(direct - formula))
    checks.append(CheckResult("obstruction.vertical_plane_flatness", worst_r1,
                              sc.tolerance("vertical_plane_flatness")))
    checks.append(CheckResult("obstruction.cross_term_direct_vs_formula", worst_r2,
                              sc.tolerance("cross_term_agreement")))
    return checks


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# check / curvature
# ---------------------------------------------------------------------------

def run_check(sc: Scenario) -> tuple[dict, int]:
    cfg = sc.config
    body: dict = {}
    try:
        reduced = reduce_connection_metric(sc.base_map, cfg.epsilon,
                                           samples=min(cfg.samples, 25), seed=cfg.seed)
        body["epsilon_admissibility"] = {
            "epsilon": cfg.epsilon,
            "min_eigenvalue": reduced.min_eigenvalue,
            "max_admissible_epsilon": reduced.max_admissible_epsilon,
            "reconstruction_residual": reduced.reconstruction_residual,
        }
    except InadmissibleEpsilonError as exc:
        body["epsilon_admissibility"] = {
            "epsilon": cfg.epsilon,
            "error": str(exc),
            "min_eigenvalue": exc.min_eigenvalue,
            "max_admissible_epsilon": exc.max_admissible,
            "witness_point": to_jsonable(exc.point),
        }
        body["verdict"] = "ERROR"
        return body, 1

    report = obstruction.theorem_report(
        sc.pullback, samples=cfg.samples,
        kernel_directions=cfg.kernel_directions, seed=cfg.seed,
        consistency_tolerance=sc.tolerance("consistency"),
        cross_tolerance=sc.tolerance("cross_term"))

    worst_sample = None
    if report.regular_samples:
        worst_sample = max(report.regular_samples, key=lambda s: s.obstruction_norm)
    body.update({
        "verdict": report.verdict,
        "reason": report.reason,
        "fatness": {
            "min_sigma": report.fatness.min_sigma,
            "is_fat": report.fatness.is_fat,
            "worst_point": to_jsonable(report.fatness.worst_point),
        },
        "fiber_geodesy": report.fiber_geodesy,
        "summary": {
            "samples": len(report.samples),
            "regular_samples": len(report.regular_samples),
            "singular_points": report.singular_points,
            "max_obstruction_norm": report.max_obstruction_norm,
            "max_level_set_ii": report.max_level_set_ii,
            "max_flatness_residual": report.max_flatness_residual,
            "unverified_candidates": report.unverified_candidates,
            "certificates": len(report.certificates),
        },
        "worst_witness": None if worst_sample is None else {
            "x": to_jsonable(worst_sample.x),
            "p": to_jsonable(worst_sample.p),
            "kernel_direction": to_jsonable(worst_sample.X),
            "obstruction_norm": worst_sample.obstruction_norm,
            "level_set_ii_norm": worst_sample.level_set_ii_norm,
            "xi_rank": worst_sample.xi_rank,
        },
        "certificates": [{
            "x": to_jsonable(c.x), "p": to_jsonable(c.p),
            "plane_x": to_jsonable(c.plane_x), "plane_w": to_jsonable(c.plane_w),
            "t": c.t, "cross_term": c.cross_term,
            "sec_value": c.sec_value, "predicted_value": c.predicted_value,
            "relative_agreement": c.relative_agreement,
        } for c in sorted(report.certificates, key=lambda c: c.sec_value)[:10]],
    })
    if report.verdict == "VIOLATED":
        return body, 2
    if report.verdict == "CONSISTENT":
        return body, 0
    return body, 1


def run_curvature(sc: Scenario) -> dict:
    cfg = sc.config
    pb = sc.pullback

    def one(rng: np.random.Generator):
        z = pb.total_manifold.random_point(rng)
        a = core.random_tangent(pb.total_manifold, z, rng)
        b = core.random_tangent(pb.total_manifold, z, rng)
        gram = (a @ a) * (b @ b) - (a @ b) ** 2
        if gram <= 1e-8:
            return None
        sec = pullback_curvature(pb, *pb.split_point(z), a, b, b, a,
                                 path="direct") / gram
        return float(sec), z, a, b

    rows = [r for r in map(one, rng_streams(cfg.seed, cfg.samples)) if r is not None]
    if not rows:
        raise GeometryError(
            f"all {cfg.samples} sampled planes are degenerate (Gram determinant "
            f"<= 1e-8); no curvature to report")
    secs = np.array([r[0] for r in rows])
    worst = rows[int(np.argmin(secs))]
    qs = [0.0, 0.25, 0.5, 0.75, 1.0]
    return {
        "planes_sampled": len(rows),
        "min": float(secs.min()),
        "max": float(secs.max()),
        "quantiles": {f"q{int(100 * q):02d}": float(np.quantile(secs, q)) for q in qs},
        "worst_plane": {
            "point": to_jsonable(worst[1]),
            "v1": to_jsonable(worst[2]),
            "v2": to_jsonable(worst[3]),
            "sec": worst[0],
        },
    }


# ---------------------------------------------------------------------------
# Report assembly and emission
# ---------------------------------------------------------------------------

def assemble_report(kind: str, config: ScenarioConfig, body: dict,
                    wall_clock: float) -> dict:
    return {
        "tool": "submersion-lab",
        "version": __version__,
        "kind": kind,
        "config": config.to_dict(),
        **body,
        "timing": {"wall_clock_s": wall_clock},
    }


def report_rows(report: dict) -> list[dict]:
    """Flatten a report into check rows for CSV/markdown."""
    if "kind" not in report:
        raise ConfigError("field 'kind': missing from report file")
    if "config" not in report or "name" not in report.get("config", {}):
        raise ConfigError("field 'config.name': missing from report file")
    scen = report["config"]["name"]
    kind = report["kind"]
    rows = []
    if kind == "validate":
        if "checks" not in report:
            raise ConfigError("field 'checks': missing from validate report")
        for c in report["checks"]:
            rows.append({"scenario": scen, "kind": kind, "check": c["check"],
                         "status": c["status"], "residual": c["residual"],
                         "tolerance": c["tolerance"]})
    elif kind == "check":
        if "verdict" not in report:
            raise ConfigError("field 'verdict': missing from check report")
        summary = report.get("summary", {})
        rows.append({"scenario": scen, "kind": kind, "check": "theorem_verdict",
                     "status": report["verdict"],
                     "residual": summary.get("max_obstruction_norm", ""),
                     "tolerance": ""})
        for key in ("max_level_set_ii", "max_flatness_residual", "certificates"):
            if key in summary:
                rows.append({"scenario": scen, "kind": kind, "check": key,
                             "status": "", "residual": summary[key], "tolerance": ""})
    elif kind == "curvature":
        if "min" not in report:
            raise ConfigError("field 'min': missing from curvature report")
        for key in ("min", "max"):
            rows.append({"scenario": scen, "kind": kind, "check": f"sec_{key}",
                         "status": "", "residual": report[key], "tolerance": ""})
    else:
        raise ConfigError(f"field 'kind': unknown report kind {kind!r}")
    return rows


def rows_to_markdown(rows: list[dict]) -> str:
    header = ["scenario", "kind", "check", "status", "residual", "tolerance"]
    out = ["| " + " | ".join(header) + " |",
           "| " + " | ".join("---" for _ in header) + " |"]
    for r in rows:
        out.append("| " + " | ".join(str(r.get(k, "")) for k in header) + " |")
    return "\n".join(out) + "\n"


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["scenario", "kind", "check",
                                             "status", "residual", "tolerance"])
    writer.writeheader()
    for r in rows:
        writer.writerow({k: r.get(k, "") for k in writer.fieldnames})
    return buf.getvalue()


def emit(report: dict, fmt: str, out: Optional[str], stream) -> None:
    if fmt == "json":
        text = json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = rows_to_csv(report_rows(report))
    elif fmt == "md":
        text = rows_to_markdown(report_rows(report))
    else:
        raise ConfigError(f"field 'format': unknown format {fmt!r}")
    stream.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        base = os.path.splitext(out)[0]
        with open(base + ".jsonl", "w") as fh:
            for row in report_rows(report):
                fh.write(json.dumps(to_jsonable(row), sort_keys=True) + "\n")
        with open(base + ".csv", "w") as fh:
            fh.write(rows_to_csv(report_rows(report)))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def load_config(path: str, overrides: argparse.Namespace) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"field 'config': no such file {path!r}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"field 'config': invalid JSON ({exc})")
    if isinstance(raw, dict):
        for key in ("seed", "samples", "fd_step"):
            if getattr(overrides, key) is not None:
                raw[key] = getattr(overrides, key)
    return ScenarioConfig.from_dict(raw)


def cmd_validate(args) -> int:
    config = load_config(args.config, args)
    sc = build_scenario(config)
    t0 = time.perf_counter()
    checks = run_validation(sc)
    body = {"checks": [c.row() for c in checks],
            "failed": sum(1 for c in checks if c.status == "fail")}
    report = assemble_report("validate", config, body, time.perf_counter() - t0)
    emit(report, args.format, args.out, sys.stdout)
    return 0 if body["failed"] == 0 else 1


def cmd_check(args) -> int:
    config = load_config(args.config, args)
    sc = build_scenario(config)
    t0 = time.perf_counter()
    body, code = run_check(sc)
    report = assemble_report("check", config, body, time.perf_counter() - t0)
    emit(report, args.format, args.out, sys.stdout)
    return code


def cmd_curvature(args) -> int:
    config = load_config(args.config, args)
    sc = build_scenario(config)
    t0 = time.perf_counter()
    body = run_curvature(sc)
    report = assemble_report("curvature", config, body, time.perf_counter() - t0)
    emit(report, args.format, args.out, sys.stdout)
    return 0


def cmd_report(args) -> int:
    rows: list[dict] = []
    for path in args.runs:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"field 'runs': cannot read {path!r} ({exc})")
        rows.extend(report_rows(data))
    rows.sort(key=lambda r: (str(r["scenario"]), str(r["kind"]), str(r["check"])))
    md = rows_to_markdown(rows)
    sys.stdout.write(md)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(md)
        with open(os.path.splitext(args.out)[0] + ".csv", "w") as fh:
            fh.write(rows_to_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submersion-lab",
        description="Curvature obstruction bench for pull-back bundles")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--samples", type=int, default=None, help="override sample count")
        p.add_argument("--fd-step", type=float, default=None, dest="fd_step",
                       help="override the step of validate's finite-difference "
                       "oracles (check and curvature do not read it)")
        p.add_argument("--out", default=None, help="write the report here "
                       "(plus .jsonl and .csv siblings)")
        p.add_argument("--format", choices=("json", "csv", "md"), default="json")

    p = sub.add_parser("validate", help="run the full invariant suite")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="run the totally-geodesic obstruction test")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("curvature", help="sample sectional curvatures of f*P")
    common(p)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("report", help="merge run reports into a summary table")
    p.add_argument("runs", nargs="+", help="report JSON files")
    p.add_argument("--out", default=None, help="write markdown here (plus .csv)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
