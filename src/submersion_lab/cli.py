"""Batch front-end: scenario validation, obstruction checks, curvature
sampling, and report merging.

Exit codes: 0 all checks pass / verdict CONSISTENT, 2 verdict VIOLATED with a
re-verified certificate, 1 verdict INCONCLUSIVE or ERROR (the cause in the
report's `reason`; ERROR for an inadmissible epsilon) or failed validation.
Reports are deterministic for a fixed (config, seed) apart from the timing
block.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from . import __version__, core, obstruction, submersion
from .core import GeometryError
from .graph import GraphOperators, KernelFrame, d2f
from .numerics import first_extreme, rng_blocks, row_norms
from .pullback import (InadmissibleEpsilonError, PointData, lambda_term, pullback_curvature,
                       pullback_second_fundamental_form,
                       pullback_second_fundamental_form_direct,
                       pullback_submersion_check, reduce_connection_metric)
from .scenarios import ConfigError, Scenario, ScenarioConfig, build_scenario
from .submersion import splitting


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
            out["witness"] = self.witness
        return out


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

SAMPLE_BUDGET = 8  # sampled points per sampled check
ADMISSIBILITY_SAMPLES = 25  # points over which check and validate judge epsilon


def _sampled(sc: Scenario, offset: int, sample, widths: tuple, worst: dict) -> dict:
    """The one sampling driver of `validate`: min(samples, SAMPLE_BUDGET) rows
    of normals of seed + offset, split into columns of the given widths, go
    through `sample(sc, *columns)` in the blocks of `numerics.rng_blocks`. The
    probe maps check names to residuals, or to (residuals, witnesses), one per
    row. The worst of each is kept in `worst`, replaced (0 at first) only by
    a strictly larger residual: the first row at the maximum stays."""
    n = min(sc.config.samples, SAMPLE_BUDGET)
    for z in rng_blocks(sc.config.seed + offset, n, sum(widths)):
        for name, value in sample(sc, *np.split(z, np.cumsum(widths)[:-1], axis=-1)).items():
            residuals, witnesses = value if isinstance(value, tuple) else (value, [None] * n)
            for residual, witness in zip(np.asarray(residuals, float).tolist(), witnesses):
                if residual > worst.setdefault(name, (0.0, None))[0]:
                    worst[name] = (residual, witness)
    return worst


_norm = functools.partial(np.linalg.norm, axis=-1)   # of each vector of a block


def _manifolds(sc: Scenario) -> dict:
    """Projector algebra and retractions of each distinct manifold, at offset 0."""
    worst: dict = {}
    for m in {id(m): m for m in (sc.base_map.source, sc.bundle.base, sc.bundle.total,
                                 sc.pullback.total_manifold)}.values():
        _sampled(sc, 0, functools.partial(_manifold_sample, m), (m.ambient_dim,) * 2, worst)
    return worst


def _manifold_sample(m, sc: Scenario, zx, zv) -> dict:
    x = m.random_point(zx)
    p = m.projector(x)
    step = 1e-3
    v = core.random_tangent(m, x, zv)
    return {
        "core.projector_idempotent_symmetric": (
            np.maximum(np.linalg.norm(p @ p - p, axis=(-2, -1)),
                       np.linalg.norm(p - p.swapaxes(-1, -2), axis=(-2, -1))),
            [{"manifold": m.name, "point": point} for point in x.tolist()]),
        "core.projector_trace": abs(np.trace(p, axis1=-2, axis2=-1) - m.intrinsic_dim),
        "core.retraction_zero_step": _norm(m.retraction(x, np.zeros_like(x)) - x),
        "core.retraction_second_order":
            _norm(m.retraction(x, step * v) - (x + step * v)) / step ** 2,
    }


def _jacobian_sample(sc: Scenario, zx) -> dict:
    f = sc.base_map
    x = f.source.random_point(zx)
    jac = f.jac(x)
    p_m = f.source.projector(x)
    p_n = f.target.projector(f(x))
    return {"graph.jacobian_tangent_to_tangent":
            np.max(np.abs(p_n @ jac @ p_m - jac @ p_m), axis=(-2, -1))}


def _graph_sample(sc: Scenario, zx, zv, zw, za, zb) -> dict:
    """Graph splitting round trip, projection algebra, d2f symmetry."""
    f = sc.base_map
    x = f.source.random_point(zx)
    ops = GraphOperators(f, x)
    v = core.random_tangent(f.source, x, zv)
    w = core.random_tangent(f.target, ops.fx, zw)
    rv, rw = ops.xi(*ops.xi_inverse(v, w))
    pv, pw = ops.normal_projection(v, w)
    ppv, ppw = ops.normal_projection(pv, pw)
    qv, qw = ops.normal_projection(v, np.matvec(ops.c, v))  # of a graph tangent
    xa, xb = (core.random_tangent(f.source, x, zt)[:, None] for zt in (za, zb))
    return {
        "graph.xi_roundtrip": np.maximum(_norm(rv - v), _norm(rw - w)),
        "graph.normal_projection_idempotent_annihilates_tangents": np.max(
            [_norm(ppv - pv), _norm(ppw - pw), _norm(qv), _norm(qw)], axis=0),
        "graph.d2f_symmetry": _norm(d2f(f, x, xa, xb, ops) - d2f(f, x, xb, xa, ops))[:, 0],
    }


def _submersion_sample(sc: Scenario, zp, zx, zy) -> dict:
    bundle = sc.bundle
    p = bundle.total.random_point(zp)
    sp = splitting(bundle, p)
    xh, yh = (_random_unit(sp.coimage_basis, zh) for zh in (zx, zy))
    a_xy = submersion.a_tensor(bundle, p, xh, yh, sc.config.fd_step)
    gray_oneill = np.zeros(len(p))
    if sp.kernel_basis.shape[-1] > 0:
        u = sp.kernel_basis[..., 0]
        gray_oneill = abs(submersion.vertizontal_sec(bundle, p, xh, u)
                          - core.sectional_curvature(bundle.total, p, xh, u))
    return {
        "submersion.riemannian_property": abs(_norm(np.matvec(sp.jac, xh)) - 1.0),
        "submersion.a_tensor_vertical": _norm(np.matvec(sp.jac, a_xy)),
        "submersion.vertizontal_matches_intrinsic": gray_oneill,
    }


def _fiber_geodesy(sc: Scenario) -> dict:
    return {"submersion.fibers_totally_geodesic": (submersion.totally_geodesic_fibers_check(
        sc.bundle, samples=min(sc.config.samples, SAMPLE_BUDGET), seed=sc.config.seed), None)}


def _membership_sample(sc: Scenario, zp, zv) -> dict:
    pb = sc.pullback
    z = pb.total_manifold.random_point(zp)
    v = core.random_tangent(pb.total_manifold, z, zv)
    x2, p2 = pb.split_point(pb.total_manifold.retraction(z, 1e-2 * v))
    return {"pullback.membership_after_retraction": pb.constraint_residual(x2, p2)}


def _graph_submersion(sc: Scenario, zp) -> dict:
    pb = sc.pullback
    return {"pullback.graph_submersion_isometries": np.max(
        pullback_submersion_check(pb, pb.total_manifold.random_point(zp)), axis=0)}


def _metric_reduction(sc: Scenario) -> dict:
    """The reduced metric's reconstruction residual (inf when epsilon is
    inadmissible) and, if admissible, its agreement with g on level sets."""
    reduced, block = _admissibility(sc)
    witness = {k: block[k] for k in ("error", "min_eigenvalue", "max_admissible_epsilon")
               if k in block}
    worst = {"pullback.metric_reduction_reconstruction":
             (block.get("reconstruction_residual", np.inf), witness)}
    if reduced is None:
        return worst
    return _sampled(sc, 5, functools.partial(_level_set_sample, reduced.metric_field),
                    (sc.base_map.source.ambient_dim,) * 2, worst)


def _level_set_sample(metric_field, sc: Scenario, zx, zt) -> dict:
    f = sc.base_map
    x = f.source.random_point(zx)
    t = core.random_tangent(f.source, x, zt)
    agreement = np.zeros(len(x))
    for index, kd in KernelFrame.by_rank(f, core.check_point(f.source, x)):
        if kd.kernel_basis.shape[-1] == 0:
            continue
        kx = kd.kernel_basis[..., 0]
        agreement[index] = abs(np.vecdot(np.vecmat(kx, metric_field(x[index])), t[index])
                               - np.vecdot(np.vecmat(kx, kd.source_projector), t[index]))
    return {"pullback.metric_reduction_level_set_agreement": agreement}


def _second_order_sample(sc: Scenario, zp, zi, zj, zh, zh2, zu, zu2) -> dict:
    """The second fundamental form of f*P by formula and directly along two
    tangent basis vectors (each index the argmax of its normals, so uniform),
    and the symmetry and vanishing of Lambda."""
    pb = sc.pullback
    x, p = pb.split_point(pb.total_manifold.random_point(zp))
    pt = PointData(pb, x, p)
    basis = pb.tangent_basis(x, p)
    xt, xtp = (basis[np.arange(len(x)), :, np.argmax(zk, axis=-1)] for zk in (zi, zj))
    formula = pullback_second_fundamental_form(pt, xt, xtp)
    direct = pullback_second_fundamental_form_direct(pb, x, p, xt, xtp)
    sp = pt.split
    yh, yh2 = (_random_unit(sp.coimage_basis, zk) for zk in (zh, zh2))
    uv, uv2 = (_random_unit(sp.kernel_basis, zk) for zk in (zu, zu2))
    return {
        "pullback.second_fundamental_form_formula_vs_direct": _norm(formula - direct),
        "pullback.lambda_symmetry_and_vanishing": np.max([
            _norm(lambda_term(pt, yh, yh2)), _norm(lambda_term(pt, uv, uv2)),
            _norm(lambda_term(pt, yh, uv) - lambda_term(pt, uv, yh))], axis=0),
    }


def _kernel_sample(sc: Scenario, zp, zu) -> dict:
    """Curvature identities for kernel directions."""
    pb = sc.pullback
    x, p = pb.split_point(pb.total_manifold.random_point(zp))
    flatness, cross_term = np.zeros((2, len(x)))
    for index, kd in KernelFrame.by_rank(pb.f, core.check_point(pb.f.source, x)):
        if kd.kernel_basis.shape[-1] == 0 or not kd.is_regular:
            continue
        X = kd.kernel_basis[..., 0]
        u = _random_unit(splitting(pb.bundle, p[index]).kernel_basis, zu[index])
        flatness[index] = obstruction.vertizontal_flat_check(pb, x[index], p[index], X, u)
        direct, formula = obstruction.cross_term_check(
            pb, x[index], p[index], X, u, kd.coimage_basis[..., 0], sc.config.fd_step)
        cross_term[index] = abs(direct - formula)
    return {"obstruction.vertical_plane_flatness": flatness,
            "obstruction.cross_term_direct_vs_formula": cross_term}


def _random_unit(basis: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A random unit vector in the span of the orthonormal columns of each
    basis of a block (b, n, k): the basis along the normalised normals z (b, k)."""
    return np.matvec(basis, z / row_norms(z))


def _draws(sc: Scenario) -> dict:
    """The column widths of each sampled probe of `CHECKS`, in its argument
    order: a point or a tangent takes its ambient dimension, a random unit of
    a basis or a random index into it one normal per basis vector."""
    m, pb = sc.base_map.source.ambient_dim, sc.pullback.total_manifold.ambient_dim
    h, v, n = sc.bundle.base.intrinsic_dim, sc.bundle.fiber_dim, sc.pullback.intrinsic_dim
    return {_jacobian_sample: (m,), _graph_sample: (m, m, sc.base_map.target.ambient_dim, m, m),
            _submersion_sample: (sc.bundle.total.ambient_dim, h, h),
            _membership_sample: (pb, pb), _graph_submersion: (pb,),
            _second_order_sample: (pb, n, n, h, h, v, v), _kernel_sample: (pb, v)}


# The checks of `validate`, in report order: name -> (tolerance; seed offset;
# probe). A probe measures one or more checks and runs once, at its first
# row: with an offset, through `_sampled` (its columns those of `_draws`),
# with a leading point axis through every oracle it calls; without (None),
# on the whole run as `probe(sc)` -> {name: (residual, witness)}, where every
# sampled loop is `_sampled` too (`_manifolds` at offset 0, once per
# manifold; `_metric_reduction` at offset 5) or a block walk of its own
# module (`_fiber_geodesy`). A name its probe leaves out (the level-set row
# when epsilon is inadmissible) is not reported.
CHECKS = {
    "core.projector_idempotent_symmetric": (1e-10, None, _manifolds),
    "core.projector_trace": (1e-8, None, _manifolds),
    "core.retraction_zero_step": (1e-12, None, _manifolds),
    "core.retraction_second_order": (10.0, None, _manifolds),
    "graph.jacobian_tangent_to_tangent": (1e-8, 1, _jacobian_sample),
    "graph.xi_roundtrip": (1e-9, 2, _graph_sample),
    "graph.normal_projection_idempotent_annihilates_tangents": (1e-8, 2, _graph_sample),
    "graph.d2f_symmetry": (1e-4, 2, _graph_sample),
    "submersion.riemannian_property": (1e-6, 3, _submersion_sample),
    "submersion.a_tensor_vertical": (1e-8, 3, _submersion_sample),
    "submersion.vertizontal_matches_intrinsic": (1e-4, 3, _submersion_sample),
    "submersion.fibers_totally_geodesic": (1e-6, None, _fiber_geodesy),
    "pullback.membership_after_retraction": (1e-8, 4, _membership_sample),
    "pullback.graph_submersion_isometries": (1e-6, 0, _graph_submersion),
    "pullback.metric_reduction_reconstruction": (1e-10, None, _metric_reduction),
    "pullback.metric_reduction_level_set_agreement": (1e-12, None, _metric_reduction),
    "pullback.second_fundamental_form_formula_vs_direct": (1e-4, 6, _second_order_sample),
    "pullback.lambda_symmetry_and_vanishing": (1e-6, 6, _second_order_sample),
    "obstruction.vertical_plane_flatness": (1e-4, 7, _kernel_sample),
    "obstruction.cross_term_direct_vs_formula": (1e-3, 7, _kernel_sample),
}


def run_validation(sc: Scenario, timing: Optional[dict] = None) -> list[CheckResult]:
    """Invariant suite over every layer of the scenario's geometry: each
    check of `CHECKS` with its worst residual. Given a `timing` dict, the
    seconds of each probe go into it, as `kernel_sample_s` for `_kernel_sample`."""
    measured, draws = {}, _draws(sc)
    for offset, probe in dict.fromkeys(row[1:] for row in CHECKS.values()):
        start = time.perf_counter()
        measured.update(probe(sc) if offset is None else
                        _sampled(sc, offset, probe, draws[probe], {}))
        if timing is not None:
            timing[f"{probe.__name__.lstrip('_')}_s"] = time.perf_counter() - start
    return [CheckResult(name, measured[name][0], tolerance, measured[name][1])
            for name, (tolerance, *_) in CHECKS.items() if name in measured]


# ---------------------------------------------------------------------------
# check / curvature
# ---------------------------------------------------------------------------

def _admissibility(sc: Scenario) -> tuple:
    """The connection metric reduced at the config's epsilon over
    min(config samples, ADMISSIBILITY_SAMPLES) points, or None when epsilon
    is inadmissible; and the `epsilon_admissibility` block of a `check` report."""
    cfg = sc.config
    try:
        reduced = reduce_connection_metric(
            sc.base_map, cfg.epsilon, samples=min(cfg.samples, ADMISSIBILITY_SAMPLES),
            seed=cfg.seed)
    except InadmissibleEpsilonError as exc:
        return None, {"epsilon": cfg.epsilon, "error": str(exc),
                      "min_eigenvalue": exc.min_eigenvalue,
                      "max_admissible_epsilon": exc.max_admissible,
                      "witness_point": exc.point.tolist()}
    return reduced, {"epsilon": cfg.epsilon, "min_eigenvalue": reduced.min_eigenvalue,
                     "max_admissible_epsilon": reduced.max_admissible_epsilon,
                     "reconstruction_residual": reduced.reconstruction_residual}


def run_check(sc: Scenario, timing: Optional[dict] = None) -> tuple[dict, int]:
    """The `check` body and exit code. Given a `timing` dict, the seconds of
    each stage go into it: `admissibility_s` and those of `theorem_report`."""
    cfg = sc.config
    start = time.perf_counter()
    reduced, admissibility = _admissibility(sc)
    if timing is not None:
        timing["admissibility_s"] = time.perf_counter() - start
    body: dict = {"epsilon_admissibility": admissibility}
    if reduced is None:
        body.update({"verdict": "ERROR", "reason": admissibility["error"]})
        return body, 1

    report = obstruction.theorem_report(
        sc.pullback, samples=cfg.samples,
        kernel_directions=cfg.kernel_directions, seed=cfg.seed, timing=timing)

    regular = report.regular_rows
    worst_sample = regular[first_extreme([s.obstruction_norm for s in regular],
                                         largest=True)] if regular else None
    body.update({
        "verdict": report.verdict,
        "reason": report.reason,
        "fatness": {
            "min_sigma": report.fatness.min_sigma,
            "is_fat": report.fatness.is_fat,
            "worst_point": report.fatness.worst_point.tolist(),
        },
        "fiber_geodesy": report.fiber_geodesy,
        "summary": {
            "samples": cfg.samples,
            "regular_samples": report.regular_points,
            "singular_points": report.singular_points,
            "max_obstruction_norm": report.max_obstruction_norm,
            "max_level_set_ii": report.max_level_set_ii,
            "max_flatness_residual": report.max_flatness_residual,
            "unverified_candidates": report.unverified_candidates,
            "certificates": len(report.certificates),
        },
        "worst_witness": None if worst_sample is None else {
            "x": worst_sample.x.tolist(),
            "p": worst_sample.p.tolist(),
            "kernel_direction": worst_sample.X.tolist(),
            "obstruction_norm": worst_sample.obstruction_norm,
            "level_set_ii_norm": worst_sample.level_set_ii_norm,
            "xi_rank": worst_sample.xi_rank,
        },
        "certificates": [{
            "x": c.x.tolist(), "p": c.p.tolist(),
            "plane_x": c.plane_x.tolist(), "plane_w": c.plane_w.tolist(),
            "t": c.t, "cross_term": c.cross_term,
            "sec_value": c.sec_value, "predicted_value": c.predicted_value,
            "relative_agreement": c.relative_agreement,
        } for c in sorted(report.certificates, key=lambda c: c.sec_value)[:10]],
    })
    return body, {"VIOLATED": 2, "CONSISTENT": 0}.get(report.verdict, 1)


def run_curvature(sc: Scenario) -> dict:
    """Sectional curvatures of random planes of f*P: a row of normals holds a
    point, then two tangents at it, and a block of rows evaluates its planes
    above the Gram floor in one `pullback_curvature` call."""
    cfg = sc.config
    pb = sc.pullback
    m = pb.total_manifold
    rows = []
    for draws in rng_blocks(cfg.seed, cfg.samples, 3 * m.ambient_dim):
        zp, za, zb = np.split(draws, 3, axis=-1)
        z = m.random_point(zp)
        a, b = (core.random_tangent(m, z, zt) for zt in (za, zb))
        gram = np.vecdot(a, a) * np.vecdot(b, b) - np.vecdot(a, b) ** 2
        keep = gram > core.SAMPLED_PLANE_GRAM_FLOOR
        if keep.any():
            z, a, b = z[keep], a[keep], b[keep]
            secs = pullback_curvature(pb, *pb.split_point(z), a, b, b, a) / gram[keep]
            rows += zip(secs.tolist(), z, a, b)
    if not rows:
        raise GeometryError(
            f"all {cfg.samples} sampled planes are degenerate (Gram determinant "
            f"<= {core.SAMPLED_PLANE_GRAM_FLOOR:g}); no curvature to report")
    secs = np.array([r[0] for r in rows])
    worst = rows[first_extreme(secs)]
    return {
        "planes_sampled": len(rows),
        "min": float(secs.min()),
        "max": float(secs.max()),
        "quantiles": {f"q{int(100 * q):02d}": float(np.quantile(secs, q))
                      for q in (0.0, 0.25, 0.5, 0.75, 1.0)},
        "worst_plane": {
            "point": worst[1].tolist(),
            "v1": worst[2].tolist(),
            "v2": worst[3].tolist(),
            "sec": worst[0],
        },
    }


# ---------------------------------------------------------------------------
# Report assembly and emission
# ---------------------------------------------------------------------------

def assemble_report(kind: str, config: ScenarioConfig, body: dict,
                    wall_clock: float, stages: Optional[dict] = None) -> dict:
    return {
        "tool": "submersion-lab",
        "version": __version__,
        "kind": kind,
        "config": config.to_dict(),
        **body,
        "timing": {"wall_clock_s": wall_clock, **(stages or {})},
    }


ROW_FIELDS = ("scenario", "kind", "check", "status", "residual", "tolerance")


def report_rows(report: dict) -> list[dict]:
    """Flatten a report into check rows for CSV/markdown."""
    if "kind" not in report:
        raise ConfigError("field 'kind': missing from report file")
    if "config" not in report or "name" not in report.get("config", {}):
        raise ConfigError("field 'config.name': missing from report file")
    kind = report["kind"]

    def row(check, status="", residual="", tolerance=""):
        return dict(zip(ROW_FIELDS, (report["config"]["name"], kind, check, status,
                                     residual, tolerance)))

    if kind == "validate":
        if "checks" not in report:
            raise ConfigError("field 'checks': missing from validate report")
        return [row(c["check"], c["status"], c["residual"], c["tolerance"])
                for c in report["checks"]]
    if kind == "check":
        if "verdict" not in report:
            raise ConfigError("field 'verdict': missing from check report")
        summary = report.get("summary", {})
        return [row("theorem_verdict", report["verdict"],
                    summary.get("max_obstruction_norm", ""))] + [
            row(key, residual=summary[key])
            for key in ("max_level_set_ii", "max_flatness_residual", "certificates")
            if key in summary]
    if kind == "curvature":
        if "min" not in report:
            raise ConfigError("field 'min': missing from curvature report")
        return [row(f"sec_{key}", residual=report[key]) for key in ("min", "max")]
    raise ConfigError(f"field 'kind': unknown report kind {kind!r}")


def rows_to_markdown(rows: list[dict]) -> str:
    out = ["| " + " | ".join(ROW_FIELDS) + " |",
           "| " + " | ".join("---" for _ in ROW_FIELDS) + " |"]
    for r in rows:
        out.append("| " + " | ".join(str(r.get(k, "")) for k in ROW_FIELDS) + " |")
    return "\n".join(out) + "\n"


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=ROW_FIELDS)
    writer.writeheader()
    for r in rows:
        writer.writerow({k: r.get(k, "") for k in ROW_FIELDS})
    return buf.getvalue()


def emit(report: dict, fmt: str, out: Optional[str], stream) -> None:
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
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
                fh.write(json.dumps(row, sort_keys=True) + "\n")
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


def check_out_path(out: Optional[str], siblings: tuple) -> None:
    """Reject an `--out` path that one of the sibling files written next to
    it (the same path with each extension of `siblings`) would overwrite."""
    ext = os.path.splitext(out or "")[1]
    if ext in siblings:
        raise ConfigError(f"field 'out': {out!r} would be overwritten by its own "
                          f"{ext} sibling; give it another extension")


def cmd_run(args) -> int:
    """validate, check and curvature: build, run, emit. The runners are looked
    up when called, so a tracer that rebinds them sees every call."""
    check_out_path(args.out, (".jsonl", ".csv"))
    config = load_config(args.config, args)
    sc = build_scenario(config)
    t0 = time.perf_counter()
    stages: dict = {}
    if args.command == "validate":
        checks = run_validation(sc, stages)
        failed = sum(1 for c in checks if c.status == "fail")
        body, code = {"checks": [c.row() for c in checks], "failed": failed}, int(failed > 0)
    elif args.command == "check":
        body, code = run_check(sc, stages)
    else:
        body, code = run_curvature(sc), 0
    report = assemble_report(args.command, config, body, time.perf_counter() - t0, stages)
    emit(report, args.format, args.out, sys.stdout)
    return code


def cmd_report(args) -> int:
    check_out_path(args.out, (".csv",))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submersion-lab",
        description="Curvature obstruction bench for pull-back bundles")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, text in (("validate", "run the full invariant suite"),
                          ("check", "run the totally-geodesic obstruction test"),
                          ("curvature", "sample sectional curvatures of f*P")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", required=True, help="scenario config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--samples", type=int, default=None, help="override sample count")
        p.add_argument("--fd-step", type=float, default=None, dest="fd_step",
                       help="override the step of validate's finite-difference "
                       "oracles (check and curvature do not read it)")
        p.add_argument("--out", default=None, help="write the report here "
                       "(plus .jsonl and .csv siblings)")
        p.add_argument("--format", choices=("json", "csv", "md"), default="json")
        p.set_defaults(func=cmd_run)

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
    except (ConfigError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
