"""Scenario configs, the expression parser, CLI subcommands, determinism."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submersion_lab import (cli, core, geometries, graph, numerics, obstruction, pullback,
                            scenarios, submersion)
from submersion_lab.core import GeometryError
from submersion_lab.scenarios import (ConfigError, ScenarioConfig,
                                      build_scenario,
                                      parse_base_map_expression)

from conftest import draw_point, kernel_frames_built, loop_rows, scaled_fiber_bundle

# Base maps the parser or the head table must refuse with a named field.
BAD_BASE_MAPS = [
    pytest.param("compose(" * 2000, id="compose-unclosed-2000-deep"),
    pytest.param("compose(" * 2000 + "hopf" + ", identity)" * 2000,
                 id="compose-2000-deep"),
    "geodesic_fold(2.5)", "geodesic_fold(1e30)", "identity(hopf, 3)",
    "perturbed(0.3, axis=e1)", "hopf.x", "'hopf'", "True",
]

# Strings over the grammar's token alphabet: well-nested calls of any arity,
# and free sequences of the tokens.
ATOMS = st.sampled_from(scenarios.BASE_MAP_HEADS + (
    "e1", "e2", "e9", "0", "3", "0.3", "-0.5", "2.5", "1e30"))
CALL_STRINGS = st.recursive(ATOMS, lambda inner: st.tuples(ATOMS, st.lists(inner, max_size=3)).map(
    lambda call: f"{call[0]}({', '.join(call[1])})"), max_leaves=8)
TOKEN_STRINGS = st.lists(st.one_of(ATOMS, st.sampled_from("(),=. ")), max_size=14).map("".join)


def write_config(tmp_path, name="scenario", **overrides):
    cfg = {"name": name, "bundle": "hopf_complex", "base_map": "hopf",
           "samples": 8, "seed": 5}
    cfg.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def load_stripped(path):
    data = json.loads(open(path).read())
    data.pop("timing", None)
    return data


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

class TestScenarioConfig:
    def test_minimal_round_trip(self):
        cfg = ScenarioConfig.from_dict(
            {"name": "a", "bundle": "trivial", "base_map": "identity"})
        assert cfg.epsilon == 0.1
        assert cfg.samples == 200
        assert cfg.fd_step == 1e-4

    @pytest.mark.parametrize("broken,field", [
        ({"bundle": "hopf_complex", "base_map": "hopf"}, "name"),
        ({"name": "x", "base_map": "hopf"}, "bundle"),
        ({"name": "x", "bundle": "nope", "base_map": "hopf"}, "bundle"),
        ({"name": "x", "bundle": "trivial", "base_map": "identity",
          "epsilon": -1.0}, "epsilon"),
        ({"name": "x", "bundle": "trivial", "base_map": "identity",
          "samples": "many"}, "samples"),
        ({"name": "x", "bundle": "trivial", "base_map": "identity",
          "tolerances": {"consistency": 1.0}}, "tolerances"),
        ({"name": "x", "bundle": "trivial", "base_map": "identity",
          "extra_field": 1}, "extra_field"),
        ({"name": "x", "bundle": "trivial", "base_map": "identity",
          "seed": -1}, "seed"),
        ({"name": "x", "bundle": "trivial", "base_map": "identity",
          "samples": 2.7}, "samples"),
        ({"name": "x", "bundle": "trivial", "base_map": "identity",
          "seed": 1.9}, "seed"),
        ({"name": "x", "bundle": "trivial", "base_map": "identity",
          "fd_step": float("nan")}, "fd_step"),
        ({"name": "x", "bundle": "trivial", "base_map": "identity",
          "epsilon": float("nan")}, "epsilon"),
        ({"name": "x", "bundle": "trivial", "base_map": "identity",
          "epsilon": float("inf")}, "epsilon"),
        ({"name": "x", "bundle": "trivial", "base_map": "identity",
          "samples": float("inf")}, "samples"),
        ({"name": "x", "bundle": "trivial", "base_map": "identity",
          "seed": float("nan")}, "seed"),
        ({"name": "x", "bundle": "trivial", "base_map": "identity",
          "epsilon": 10 ** 400}, "epsilon"),
    ])
    def test_errors_name_the_field(self, broken, field):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig.from_dict(broken)

    def test_whole_floats_accepted_as_integers(self):
        cfg = ScenarioConfig.from_dict(
            {"name": "a", "bundle": "trivial", "base_map": "identity",
             "samples": 200.0, "seed": 3.0})
        assert cfg.samples == 200 and isinstance(cfg.samples, int)
        assert cfg.seed == 3 and isinstance(cfg.seed, int)

    def test_expression_parser(self):
        tree = parse_base_map_expression("compose(hopf, perturbed(0.3, e1))")
        assert tree == ("compose", [("hopf", None),
                                    ("perturbed", [("0.3", None), ("e1", None)])])

    @pytest.mark.parametrize("expr", [
        "compose(hopf", "perturbed(0.3)", "unknown_map", "hopf)(",
        "geodesic_fold(zero)", "perturbed(0.3, e9)", *BAD_BASE_MAPS,
        "geodesic_fold", "compose(hopf, hopf, hopf)", "perturbed(inf, e1)",
        "perturbed(-0.3, e1)", "perturbed(0.3, e1)(hopf)", "hopf + identity", "",
    ])
    def test_bad_expressions_rejected(self, expr):
        cfg = ScenarioConfig.from_dict(
            {"name": "x", "bundle": "hopf_complex", "base_map": expr})
        with pytest.raises(ConfigError, match="base_map"):
            build_scenario(cfg)

    @pytest.mark.parametrize("k", ["2.5", "0", "1e30", str(scenarios.MAX_FOLD + 1)])
    def test_fold_degree_rejected_before_the_map_is_built(self, k, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("geodesic_k_fold called")
        monkeypatch.setattr(geometries, "geodesic_k_fold", refuse)
        cfg = ScenarioConfig.from_dict(
            {"name": "x", "bundle": "hopf_complex", "base_map": f"geodesic_fold({k})"})
        with pytest.raises(ConfigError, match="whole number"):
            build_scenario(cfg)

    def test_largest_fold_builds(self):
        sc = build_scenario(ScenarioConfig.from_dict(
            {"name": "x", "bundle": "hopf_complex", "epsilon": 1e-4,
             "base_map": f"geodesic_fold({scenarios.MAX_FOLD})"}))
        assert sc.base_map.name == f"fold{scenarios.MAX_FOLD}_S2"

    @pytest.mark.parametrize("k, epsilon", [(4, 0.1), (2, 0.25), (1, 1.0), (8, 1 / 64)])
    def test_fold_at_or_above_its_epsilon_bound_rejected(self, k, epsilon):
        # the fold stretches the polar direction by k everywhere, so
        # sup |df|^2 = k^2 and the reduced metric is indefinite from
        # epsilon = 1/k^2 on: validate failed on geodesic_fold(4) at 0.1
        cfg = ScenarioConfig.from_dict({"name": "x", "bundle": "hopf_complex",
                                        "base_map": f"geodesic_fold({k})", "epsilon": epsilon})
        with pytest.raises(ConfigError, match=rf"field 'epsilon'.* 1/k\^2 = {1 / k ** 2:g}$"):
            build_scenario(cfg)
        below = dataclasses.replace(cfg, epsilon=np.nextafter(1 / k ** 2, 0.0))
        assert build_scenario(below).base_map.name == f"fold{k}_S2"

    @pytest.mark.parametrize("delta", [0.3, 0.9, 0.99])
    def test_perturbation_at_or_above_its_epsilon_bound_rejected(self, delta):
        # sup |df| = 1 / (1 - delta), at x = -r axis, so the reduced metric
        # is indefinite from epsilon = (1 - delta)^2 on
        bound = (1.0 - delta) ** 2
        cfg = ScenarioConfig.from_dict({"name": "x", "bundle": "hopf_complex",
                                        "base_map": f"perturbed({delta}, e1)", "epsilon": bound})
        with pytest.raises(ConfigError,
                           match=rf"field 'epsilon'.* \(1 - delta\)\^2 = {bound:g}$"):
            build_scenario(cfg)
        below = dataclasses.replace(cfg, epsilon=np.nextafter(bound, 0.0))
        assert build_scenario(below).base_map.name == f"perturbed({delta:g})"

    @pytest.mark.parametrize("expr", [
        f"geodesic_fold({scenarios.MAX_FOLD + 1})",
        "compose(geodesic_fold(4), geodesic_fold(4))",
        f"compose(geodesic_fold(2), compose(hopf, geodesic_fold({scenarios.MAX_FOLD})))",
    ])
    def test_fold_product_above_the_bound_rejected(self, expr):
        # validate's retraction check fails on geodesic_fold(9) over
        # hopf_complex at seed 1 and on the 16-fold compose at seeds 1-3,
        # so the parser bounds the product of the folds along the expression
        cfg = ScenarioConfig.from_dict({"name": "x", "bundle": "hopf_quaternionic",
                                        "base_map": expr})
        with pytest.raises(ConfigError, match="field 'base_map'"):
            build_scenario(cfg)
        assert scenarios.MAX_FOLD == 8

    @pytest.mark.parametrize("expr, seeds", [
        (f"geodesic_fold({scenarios.MAX_FOLD})", range(5)),
        ("compose(geodesic_fold(2), geodesic_fold(4))", [1]),
    ])
    def test_validate_passes_at_the_fold_bound(self, expr, seeds):
        for seed in seeds:
            sc = build_scenario(ScenarioConfig.from_dict({
                "name": "x", "bundle": "hopf_complex", "base_map": expr, "epsilon": 1e-4,
                "samples": 8, "seed": seed}))
            assert scenarios.fold_count(scenarios.parse_base_map_expression(expr)) == \
                scenarios.MAX_FOLD
            failed = [c.name for c in cli.run_validation(sc) if c.status != "pass"]
            assert failed == [], (seed, failed)

    @pytest.mark.parametrize("fd_step", [scenarios.MIN_FD_STEP, scenarios.MAX_FD_STEP])
    def test_fd_step_bounds_accepted(self, fd_step):
        cfg = ScenarioConfig.from_dict({"name": "x", "bundle": "hopf_complex",
                                        "base_map": "hopf", "fd_step": fd_step})
        assert cfg.fd_step == fd_step

    @pytest.mark.parametrize("fd_step", [
        np.nextafter(scenarios.MIN_FD_STEP, 0.0), np.nextafter(scenarios.MAX_FD_STEP, 1.0),
        1e-300, 0.3, 1.0])
    def test_fd_step_outside_the_bounds_rejected(self, fd_step, tmp_path, capsys):
        with pytest.raises(ConfigError, match="field 'fd_step'"):
            ScenarioConfig.from_dict({"name": "x", "bundle": "hopf_complex",
                                      "base_map": "hopf", "fd_step": fd_step})
        path = write_config(tmp_path, "fd_step_flag")
        assert cli.main(["validate", "--config", path, "--fd-step", repr(float(fd_step))]) == 1
        err = capsys.readouterr().err
        assert "error: field 'fd_step'" in err and "Traceback" not in err

    @pytest.mark.parametrize("bundle", ["hopf_complex", "hopf_quaternionic"])
    @pytest.mark.parametrize("fd_step", [scenarios.MIN_FD_STEP, scenarios.MAX_FD_STEP])
    def test_validate_passes_at_the_fd_step_bounds(self, bundle, fd_step):
        # the cross-term row fails on this map at steps 0.3 and 1e-14
        for seed in (1, 2, 3):
            sc = build_scenario(ScenarioConfig.from_dict({
                "name": "x", "bundle": bundle, "base_map": "compose(hopf, perturbed(0.3, e1))",
                "samples": 8, "seed": seed, "fd_step": fd_step}))
            failed = [c.name for c in cli.run_validation(sc) if c.status != "pass"]
            assert failed == [], (seed, failed)

    @pytest.mark.parametrize("expr,same_as", [
        ("hopf()", "hopf"), (" compose( hopf ,perturbed(+0.3,e1) ) ",
                             "compose(hopf, perturbed(0.3, e1))"),
    ])
    def test_equivalent_spellings_build_one_map(self, expr, same_as):
        def base_map(text):
            return build_scenario(ScenarioConfig.from_dict(
                {"name": "x", "bundle": "hopf_complex", "base_map": text})).base_map
        x = draw_point(base_map(same_as).source, np.random.default_rng(0))
        assert np.array_equal(base_map(expr).jac(x), base_map(same_as).jac(x))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(scenarios.BUNDLE_NAMES), st.one_of(CALL_STRINGS, TOKEN_STRINGS))
    def test_any_token_string_builds_or_names_an_error(self, bundle, text):
        # ConfigError and GeometryError are the errors cli.main turns into exit 1
        cfg = ScenarioConfig.from_dict({"name": "x", "bundle": bundle, "base_map": text})
        try:
            assert isinstance(build_scenario(cfg), scenarios.Scenario)
        except (ConfigError, GeometryError):
            pass

    def test_scenario_shapes(self):
        cases = {
            "hopf": (4, 3),
            "identity": (3, 3),
            "constant": (3, 3),
            "geodesic_fold(2)": (3, 3),
            "perturbed(0.2, e1)": (3, 3),
            "compose(hopf, perturbed(0.3, e1))": (4, 3),
            "compose(geodesic_fold(2), perturbed(0.1, e2))": (3, 3),
        }
        for expr, (d_src, d_dst) in cases.items():
            sc = build_scenario(ScenarioConfig.from_dict(
                {"name": "x", "bundle": "hopf_complex", "base_map": expr}))
            assert sc.base_map.source.ambient_dim == d_src
            assert sc.base_map.target.ambient_dim == d_dst

    def test_base_map_target_must_match_bundle(self):
        cfg = ScenarioConfig.from_dict(
            {"name": "x", "bundle": "trivial", "base_map": "hopf"})
        with pytest.raises(ConfigError, match="base_map"):
            build_scenario(cfg)


# ---------------------------------------------------------------------------
# Subcommands and exit codes
# ---------------------------------------------------------------------------

VALIDATE_CHECKS = [
    "core.projector_idempotent_symmetric", "core.projector_trace",
    "core.retraction_zero_step", "core.retraction_second_order",
    "graph.jacobian_tangent_to_tangent", "graph.xi_roundtrip",
    "graph.normal_projection_idempotent_annihilates_tangents",
    "graph.d2f_symmetry",
    "submersion.riemannian_property", "submersion.a_tensor_vertical",
    "submersion.vertizontal_matches_intrinsic",
    "submersion.fibers_totally_geodesic", "pullback.membership_after_retraction",
    "pullback.graph_submersion_isometries", "pullback.metric_reduction_reconstruction",
    "pullback.metric_reduction_level_set_agreement",
    "pullback.second_fundamental_form_formula_vs_direct",
    "pullback.lambda_symmetry_and_vanishing", "obstruction.vertical_plane_flatness",
    "obstruction.cross_term_direct_vs_formula",
]
LEVEL_SET = "pullback.metric_reduction_level_set_agreement"


class TestCommands:
    def test_check_pure_hopf_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, "pure")
        out = str(tmp_path / "pure_report.json")
        assert cli.main(["check", "--config", path, "--out", out]) == 0
        capsys.readouterr()
        report = load_stripped(out)
        assert report["verdict"] == "CONSISTENT"
        assert report["reason"] is None
        assert report["summary"]["max_obstruction_norm"] <= 1e-6

    def test_check_perturbed_exit_two_with_certificate(self, tmp_path, capsys):
        path = write_config(tmp_path, "perturbed",
                            base_map="compose(hopf, perturbed(0.3, e1))",
                            samples=12)
        out = str(tmp_path / "perturbed_report.json")
        assert cli.main(["check", "--config", path, "--out", out]) == 2
        capsys.readouterr()
        report = load_stripped(out)
        assert report["verdict"] == "VIOLATED"
        certs = report["certificates"]
        assert certs
        assert certs[0]["sec_value"] < -1e-6
        assert certs[0]["relative_agreement"] <= 0.10

    def test_check_rejects_a_tolerances_field(self, tmp_path, capsys):
        # thresholds are constants: raising them cannot turn VIOLATED into
        # CONSISTENT
        path = write_config(tmp_path, "loose",
                            base_map="compose(hopf, perturbed(0.3, e1))",
                            samples=10, kernel_directions=3, seed=1,
                            tolerances={"consistency": 1e9, "cross_term": 1e9})
        assert cli.main(["check", "--config", path]) == 1
        captured = capsys.readouterr()
        assert "error: field 'tolerances'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("expr", BAD_BASE_MAPS)
    def test_check_rejects_a_bad_base_map_naming_the_field(self, tmp_path, capsys, expr):
        assert cli.main(["check", "--config", write_config(tmp_path, base_map=expr)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: field 'base_map': ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_check_fatness_is_a_json_boolean(self, tmp_path, capsys):
        path = write_config(tmp_path, "fat", samples=2)
        assert cli.main(["check", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fatness"]["is_fat"] is True

    @pytest.mark.parametrize("seed", [1, 11])
    def test_worst_witness_is_the_first_tied_direction(self, monkeypatch, seed):
        # the quaternionic-validate config: every kernel direction of the worst
        # sample has the same obstruction norm to the last bits, so the
        # witness is the lowest index within SINGULAR_CLUSTER_RTOL of the max
        reports = []
        original = obstruction.theorem_report

        def captured(*args, **kwargs):
            reports.append(original(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(obstruction, "theorem_report", captured)
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "quaternionic-validate", "bundle": "hopf_quaternionic",
            "base_map": "compose(hopf, perturbed(0.3, e1))", "epsilon": 0.1,
            "samples": 20, "kernel_directions": 20, "seed": seed}))
        body, _ = cli.run_check(sc)
        regular = reports[0].regular_rows
        norms = np.array([s.obstruction_norm for s in regular])
        tied = np.flatnonzero(norms >= norms.max() * (1.0 - numerics.SINGULAR_CLUSTER_RTOL))
        assert len(tied) > 1
        assert body["worst_witness"]["kernel_direction"] == regular[tied[0]].X.tolist()

    def test_admissibility_witness_is_the_first_tied_sample(self):
        # pure Hopf over the octonionic bundle: s_1^2 is 1 at every sample to
        # within 1.3e-15, so the tie rule, not rounding, names the witness
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "tie", "bundle": "hopf_octonionic", "base_map": "hopf",
            "epsilon": 1.5, "samples": 25, "kernel_directions": 3, "seed": 1}))
        body, code = cli.run_check(sc)
        assert (body["verdict"], code) == ("ERROR", 1)
        assert body["reason"] == body["epsilon_admissibility"]["error"]
        assert body["reason"].startswith("epsilon=1.5 makes the reduced metric indefinite")
        source = sc.base_map.source
        points = source.random_point(loop_rows(1, 25, source.ambient_dim))   # the reduction's
        s1_sq = [np.linalg.norm(graph.GraphOperators(sc.base_map, x).c, 2) ** 2 for x in points]
        assert max(s1_sq) - min(s1_sq) <= 1e-14
        assert int(np.argmax(s1_sq)) != 0   # what rounding alone would pick
        assert body["epsilon_admissibility"]["witness_point"] == points[0].tolist()

    def test_curvature_worst_plane_is_the_first_tied_plane(self, monkeypatch):
        # every plane curves by -1 up to rounding, so the tie rule names the
        # first plane as the worst
        def minus_one(pb, x, p, a, b, c, d):   # each plane of a block
            gram = np.vecdot(a, a) * np.vecdot(b, b) - np.vecdot(a, b) ** 2
            return -gram * (1.0 + 1e-15 * np.sin(1e3 * a[..., 0]))

        monkeypatch.setattr(cli, "pullback_curvature", minus_one)
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "tie", "bundle": "hopf_complex", "base_map": "hopf", "samples": 12,
            "seed": 2}))
        body = cli.run_curvature(sc)
        assert body["max"] - body["min"] <= 1e-14
        m = sc.pullback.total_manifold   # a row holds the point, then two tangents
        first = m.random_point(loop_rows(2, 12, 3 * m.ambient_dim)[0, :m.ambient_dim])
        assert body["worst_plane"]["point"] == first.tolist()

    def test_check_timing_names_its_stages(self, tmp_path, capsys):
        path = write_config(tmp_path, "timed", base_map="compose(hopf, perturbed(0.3, e1))",
                            samples=4, seed=1)
        assert cli.main(["check", "--config", path]) == 2
        timing = json.loads(capsys.readouterr().out)["timing"]
        stages = ("admissibility_s", "hypotheses_s", "sample_loop_s", "certificate_search_s")
        assert set(timing) == {"wall_clock_s", *stages}
        assert all(timing[s] >= 0.0 for s in stages)
        assert sum(timing[s] for s in stages) <= timing["wall_clock_s"]

    def test_validate_timing_names_its_probes(self, tmp_path, capsys):
        path = write_config(tmp_path, "timed", samples=4, seed=1)
        assert cli.main(["validate", "--config", path]) == 0
        timing = json.loads(capsys.readouterr().out)["timing"]
        probes = ("manifolds_s", "jacobian_sample_s", "graph_sample_s", "submersion_sample_s",
                  "fiber_geodesy_s", "membership_sample_s", "graph_submersion_s",
                  "metric_reduction_s", "second_order_sample_s", "kernel_sample_s")
        assert set(timing) == {"wall_clock_s", *probes}
        assert all(timing[s] >= 0.0 for s in probes)
        assert sum(timing[s] for s in probes) <= timing["wall_clock_s"]

    def test_check_without_kernel_directions_exit_one(self, tmp_path, capsys):
        # the fold is a local diffeomorphism: no sample has a kernel
        # direction, so the check cannot call the map CONSISTENT
        path = write_config(tmp_path, "fold", base_map="geodesic_fold(2)",
                            samples=3, seed=1)
        out = str(tmp_path / "fold_report.json")
        assert cli.main(["check", "--config", path, "--out", out]) == 1
        capsys.readouterr()
        report = load_stripped(out)
        assert report["verdict"] == "INCONCLUSIVE"
        assert report["summary"]["samples"] == 3
        assert report["summary"]["regular_samples"] == 0
        assert report["reason"] == (
            "no regular sample with a kernel direction among 3 sampled points "
            "(0 singular, 3 with an injective differential)")

    def test_check_inadmissible_epsilon_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, "bad_eps", epsilon=1.5, samples=5)
        out = str(tmp_path / "bad_eps.json")
        assert cli.main(["check", "--config", path, "--out", out]) == 1
        capsys.readouterr()
        report = load_stripped(out)
        adm = report["epsilon_admissibility"]
        assert adm["min_eigenvalue"] <= 0.0
        assert abs(adm["max_admissible_epsilon"] - 1.0) <= 1e-6

    def test_validate_passes_and_fails(self, tmp_path, capsys):
        good = write_config(tmp_path, "good", samples=6)
        assert cli.main(["validate", "--config", good]) == 0
        capsys.readouterr()

    def test_validate_trivial_bundle_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, "trivial_ok", bundle="trivial",
                            base_map="constant", samples=5)
        out = str(tmp_path / "trivial_ok_report.json")
        assert cli.main(["validate", "--config", path, "--out", out]) == 0
        capsys.readouterr()
        report = load_stripped(out)
        assert report["failed"] == 0

    @pytest.mark.parametrize("overrides, code, skipped", [
        pytest.param({"samples": 6}, 0, [], id="hopf"),
        # no kernel direction anywhere: every sample of these checks skips
        pytest.param({"bundle": "trivial", "base_map": "identity", "seed": 1}, 0,
                     [LEVEL_SET, "obstruction.vertical_plane_flatness",
                      "obstruction.cross_term_direct_vs_formula"], id="identity"),
        pytest.param({"bundle": "trivial", "base_map": "constant", "seed": 1}, 0, [],
                     id="constant"),
        pytest.param({"base_map": "compose(hopf, perturbed(0.3, e1))", "epsilon": 50,
                      "samples": 20, "seed": 1}, 1, [], id="inadmissible-epsilon"),
    ])
    def test_validate_report_shape(self, tmp_path, capsys, overrides, code, skipped):
        path = write_config(tmp_path, "shape", **overrides)
        out = str(tmp_path / "shape_report.json")
        assert cli.main(["validate", "--config", path, "--out", out]) == code
        capsys.readouterr()
        checks = {c["check"]: c for c in load_stripped(out)["checks"]}
        reconstruction = checks["pullback.metric_reduction_reconstruction"]
        assert list(cli.CHECKS) == VALIDATE_CHECKS
        if code == 0:
            assert list(checks) == VALIDATE_CHECKS
            assert set(reconstruction["witness"]) == {"min_eigenvalue",
                                                      "max_admissible_epsilon"}
        else:
            # an inadmissible epsilon drops the level-set row, and only it
            assert list(checks) == [n for n in VALIDATE_CHECKS if n != LEVEL_SET]
            assert len(checks) == 19
            assert reconstruction["residual"] == np.inf
            assert reconstruction["status"] == "fail"
            assert set(reconstruction["witness"]) == {"error", "min_eigenvalue",
                                                      "max_admissible_epsilon"}
        for name in skipped:
            assert checks[name]["residual"] == 0.0

    def test_curvature_deterministic(self, tmp_path, capsys):
        path = write_config(tmp_path, "curv_det", samples=25)
        out1 = str(tmp_path / "c1.json")
        out2 = str(tmp_path / "c2.json")
        assert cli.main(["curvature", "--config", path, "--out", out1]) == 0
        assert cli.main(["curvature", "--config", path, "--out", out2]) == 0
        capsys.readouterr()
        assert json.dumps(load_stripped(out1), sort_keys=True) == \
            json.dumps(load_stripped(out2), sort_keys=True)

    def test_curvature_trivial_bundle_nonnegative(self, tmp_path, capsys):
        path = write_config(tmp_path, "curv", bundle="trivial",
                            base_map="identity", samples=40)
        out = str(tmp_path / "curv.json")
        assert cli.main(["curvature", "--config", path, "--out", out]) == 0
        capsys.readouterr()
        report = load_stripped(out)
        assert report["min"] >= -1e-4
        assert "worst_plane" in report

    def test_curvature_all_planes_degenerate(self, tmp_path, capsys, monkeypatch):
        # both tangent draws at a point return one vector: no plane is usable
        draw = core.random_tangent
        drawn = {}

        def repeated_tangent(manifold, x, z):   # at a block of points
            key = x.tobytes()
            if key not in drawn:
                drawn[key] = draw(manifold, x, z)
            return drawn[key]

        monkeypatch.setattr(core, "random_tangent", repeated_tangent)
        path = write_config(tmp_path, "curv_degenerate", samples=3)
        assert cli.main(["curvature", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error: all 3 sampled planes are degenerate" in err
        assert "Traceback" not in err
        assert sum(len(tangents) for tangents in drawn.values()) == 3

    def test_curvature_drops_a_plane_below_its_gram_floor(self, monkeypatch):
        # point 0 draws b = a + 1e-5 t for unit tangents a, t with t
        # orthogonal to a: Gram determinant 1e-10, above
        # core.GRAM_DEGENERACY_TOL, where core.sectional_curvature takes the
        # plane, but at most core.SAMPLED_PLANE_GRAM_FLOOR, so `curvature`
        # drops it and reports the other planes
        draw = core.random_tangent
        drawn = []

        def thin_first_plane(manifold, z, normals):
            v = draw(manifold, z, normals)
            if len(drawn) % 2:   # the second draw of a block
                a = drawn[-1][0]
                t = v[0] - (v[0] @ a) * a
                v[0] = a + 1e-5 * t / np.linalg.norm(t)
            drawn.append(v)
            return v

        monkeypatch.setattr(core, "random_tangent", thin_first_plane)
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "thin", "bundle": "hopf_complex", "base_map": "hopf", "samples": 6,
            "seed": 2}))
        body = cli.run_curvature(sc)
        assert len(drawn) == 2   # one block
        a, b = drawn[0][0], drawn[1][0]
        gram = (a @ a) * (b @ b) - (a @ b) ** 2
        assert core.GRAM_DEGENERACY_TOL < gram <= core.SAMPLED_PLANE_GRAM_FLOOR
        m = sc.pullback.total_manifold
        z = m.random_point(loop_rows(2, 6, 3 * m.ambient_dim)[0, :m.ambient_dim])
        assert np.isfinite(core.sectional_curvature(sc.pullback.total_manifold, z, a, b))
        assert body["planes_sampled"] == 5
        assert body["worst_plane"]["point"] != z.tolist()

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["check", "--config", str(tmp_path / "nope.json")]) == 1
        assert "config" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path, capsys):
        path = write_config(tmp_path, "override")
        out = str(tmp_path / "override.json")
        assert cli.main(["check", "--config", path, "--seed", "9",
                         "--samples", "5", "--fd-step", "5e-5",
                         "--out", out]) == 0
        capsys.readouterr()
        report = load_stripped(out)
        assert report["config"]["seed"] == 9
        assert report["config"]["samples"] == 5
        assert report["config"]["fd_step"] == 5e-5

    @pytest.mark.parametrize("command", ["check", "curvature"])
    @pytest.mark.parametrize("flag,value,field", [
        ("--samples", "0", "samples"),
        ("--fd-step", "0", "fd_step"),
        ("--seed", "-1", "seed"),
    ])
    def test_bad_flag_overrides_name_the_field(self, tmp_path, capsys,
                                               command, flag, value, field):
        path = write_config(tmp_path, "bad_override")
        assert cli.main([command, "--config", path, flag, value]) == 1
        err = capsys.readouterr().err
        assert f"error: field '{field}'" in err
        assert "Traceback" not in err


class TestDeterminism:
    def test_identical_reports_modulo_timing(self, tmp_path, capsys):
        path = write_config(tmp_path, "det", samples=6)
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        assert cli.main(["check", "--config", path, "--out", out1]) == 0
        assert cli.main(["check", "--config", path, "--out", out2]) == 0
        capsys.readouterr()
        assert json.dumps(load_stripped(out1), sort_keys=True) == \
            json.dumps(load_stripped(out2), sort_keys=True)


class TestReportMerging:
    def test_merge_sorted_by_scenario(self, tmp_path, capsys):
        p1 = write_config(tmp_path, "zeta")
        p2 = write_config(tmp_path, "alpha",
                          base_map="compose(hopf, perturbed(0.3, e1))",
                          samples=8)
        out1 = str(tmp_path / "zeta_run.json")
        out2 = str(tmp_path / "alpha_run.json")
        cli.main(["check", "--config", p1, "--out", out1])
        cli.main(["check", "--config", p2, "--out", out2])
        merged = str(tmp_path / "merged.md")
        assert cli.main(["report", out1, out2, "--out", merged]) == 0
        capsys.readouterr()
        text = open(merged).read()
        assert text.index("alpha") < text.index("zeta")
        assert os.path.exists(str(tmp_path / "merged.csv"))

    def test_single_run_rows(self, tmp_path, capsys):
        p1 = write_config(tmp_path, "single", samples=5)
        out1 = str(tmp_path / "single_run.json")
        cli.main(["check", "--config", p1, "--out", out1])
        assert cli.main(["report", out1]) == 0
        stdout = capsys.readouterr().out
        assert "theorem_verdict" in stdout

    def test_malformed_file_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "check", "config": {"name": "x"}}))
        assert cli.main(["report", str(bad)]) == 1
        assert "verdict" in capsys.readouterr().err

    def test_sidecar_records_written(self, tmp_path, capsys):
        path = write_config(tmp_path, "sidecar", samples=5)
        out = str(tmp_path / "sidecar_run.json")
        cli.main(["check", "--config", path, "--out", out])
        capsys.readouterr()
        jsonl = str(tmp_path / "sidecar_run.jsonl")
        csv_path = str(tmp_path / "sidecar_run.csv")
        assert os.path.exists(jsonl)
        assert os.path.exists(csv_path)
        lines = [json.loads(line) for line in open(jsonl)]
        assert any(row["check"] == "theorem_verdict" for row in lines)

    @pytest.mark.parametrize("argv,out", [
        (["check", "--config", "{config}", "--out", "{dir}/r.csv"], "r.csv"),
        (["check", "--config", "{config}", "--out", "{dir}/r.jsonl"], "r.jsonl"),
        (["report", "{dir}/run.json", "--out", "{dir}/s.csv"], "s.csv"),
    ], ids=["run-csv", "run-jsonl", "report-csv"])
    def test_out_that_its_sibling_would_overwrite_is_refused(self, tmp_path, capsys,
                                                             monkeypatch, argv, out):
        config = write_config(tmp_path, "sibling", samples=2)
        (tmp_path / "run.json").write_text(json.dumps(
            {"kind": "check", "config": {"name": "x"}, "verdict": "CONSISTENT"}))
        built = []
        monkeypatch.setattr(cli, "build_scenario", lambda *a: built.append(a))
        argv = [a.format(config=config, dir=tmp_path) for a in argv]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field 'out': ") and "Traceback" not in err
        assert built == [] and not (tmp_path / out).exists()


class TestValidateOnFixture:
    def test_broken_fixture_fails_fiber_geodesy(self):
        # drive the validation machinery directly on the fixture bundle
        from submersion_lab.graph import constant_map
        from submersion_lab.pullback import PullbackBundle
        from submersion_lab.scenarios import Scenario, ScenarioConfig

        bundle = scaled_fiber_bundle(0.5)
        f = constant_map(bundle.base, bundle.base, np.array([0.0, 1.0]))
        pb = PullbackBundle(f, bundle)
        cfg = ScenarioConfig(name="fixture", bundle="trivial",
                             base_map="constant", samples=6, seed=0)
        sc = Scenario(config=cfg, bundle=bundle, base_map=f, pullback=pb)
        checks = cli.run_validation(sc)
        by_name = {c.name: c for c in checks}
        fiber = by_name["submersion.fibers_totally_geodesic"]
        assert fiber.status == "fail"
        assert fiber.residual > 0.1


class TestPerPointReuse:
    @pytest.mark.parametrize("bundle, base_map", [
        ("hopf_complex", "hopf"),
        ("hopf_quaternionic", "compose(hopf, perturbed(0.3, e1))"),
        ("hopf_octonionic", "geodesic_fold(2)"),
        ("trivial", "identity"),
    ])
    def test_validate_checks_each_distinct_manifold_once(self, monkeypatch, bundle, base_map):
        # the base map's source is the bundle's total space or its base, so
        # the four manifolds of a scenario are three, each passed over once,
        # in order; 4 points make one block a pass
        passes = []
        original = cli._manifold_sample
        monkeypatch.setattr(cli, "_manifold_sample",
                            lambda m, *args: passes.append(m) or original(m, *args))
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "manifolds", "bundle": bundle, "base_map": base_map, "samples": 4,
            "seed": 1}))
        worst = cli._manifolds(sc)
        source_first = sc.base_map.source is sc.bundle.total
        assert source_first or sc.base_map.source is sc.bundle.base
        expected = ([sc.bundle.total, sc.bundle.base] if source_first
                    else [sc.bundle.base, sc.bundle.total])
        assert len(passes) == 3
        assert all(m is e for m, e in zip(passes, expected + [sc.pullback.total_manifold]))
        assert len(worst) == 4

    def test_validate_builds_a_tensor_once_per_point(self, monkeypatch):
        # the perturbed quaternionic validate workload of the benchmark at
        # seed 1: 8 points for vertizontal_sec and 8 for the second
        # fundamental form and Lambda checks, one A-tensor build each, from
        # one block call per probe
        blocks, points = [], []
        original = submersion.a_tensor_coefficients

        def counted(sp, *args, **kwargs):
            blocks.append(sp.x)
            points.extend(point.tobytes() for point in sp.x)
            return original(sp, *args, **kwargs)

        for module in (submersion, pullback):
            monkeypatch.setattr(module, "a_tensor_coefficients", counted)
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "quaternionic-validate", "bundle": "hopf_quaternionic",
            "base_map": "compose(hopf, perturbed(0.3, e1))", "epsilon": 0.1,
            "samples": 20, "kernel_directions": 20, "seed": 1}))
        checks = cli.run_validation(sc)
        assert all(c.status == "pass" for c in checks)
        assert [block.shape for block in blocks] == [(8, 8), (8, 8)]
        assert len(points) == len(set(points)) == 16

    def test_validate_work_does_not_grow_with_the_streams(self, monkeypatch):
        # every probe takes its points as one block of the perturbed
        # quaternionic pull-back, so 4 and 8 points make the same calls of the
        # f*P closures and of the splitting: a per-point loop would double them
        original = submersion.splitting

        def calls_of_one_validate(samples):
            calls = dict.fromkeys(("dp", "retraction", "splitting"), 0)

            def counting(key, fn):
                def counted(*args):
                    calls[key] += 1
                    return fn(*args)
                return counted

            sc = build_scenario(ScenarioConfig.from_dict({
                "name": "streams", "bundle": "hopf_quaternionic",
                "base_map": "compose(hopf, perturbed(0.3, e1))", "epsilon": 0.1,
                "samples": samples, "seed": 1}))
            m = sc.pullback.total_manifold
            monkeypatch.setattr(sc.pullback, "total_manifold", dataclasses.replace(
                m, analytic_projector_derivative=counting("dp", m.analytic_projector_derivative),
                retraction=counting("retraction", m.retraction)))
            for module in (submersion, pullback, obstruction, cli):
                monkeypatch.setattr(module, "splitting", counting("splitting", original))
            assert numerics.POINTS_PER_BLOCK >= 8
            assert all(c.status == "pass" for c in cli.run_validation(sc))
            return calls

        four, eight = calls_of_one_validate(4), calls_of_one_validate(8)
        assert four == eight
        assert min(four.values()) > 0

    def test_validate_builds_31_frames(self, monkeypatch):
        # the quaternionic-validate benchmark workload at seed 5: 23 frames of
        # dpi and 8 of the f*P constraint, of which each direct curvature side
        # (the flatness and cross-term rows) builds one, as core.riemann reads
        # II along both directions in one call
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "quaternionic-validate", "bundle": "hopf_quaternionic",
            "base_map": "compose(hopf, perturbed(0.3, e1))", "epsilon": 0.1,
            "samples": 20, "kernel_directions": 20, "seed": 5}))
        built = kernel_frames_built(monkeypatch)
        assert all(c.status == "pass" for c in cli.run_validation(sc))
        assert len(built) == 31
        assert sum(f is sc.pullback.constraint for f in built) == 8
        assert sum(f is sc.bundle.projection for f in built) == 23

    def test_curvature_builds_3_frames_per_block(self, monkeypatch):
        # 64 planes of the perturbed quaternionic pull-back at seed 1, in 4
        # blocks: each block's two tangent draws take a projector each, and its
        # curvature values one projector derivative, one constraint frame each
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "curvature", "bundle": "hopf_quaternionic",
            "base_map": "compose(hopf, perturbed(0.3, e1))", "samples": 64, "seed": 1}))
        built = kernel_frames_built(monkeypatch)
        assert cli.run_curvature(sc)["planes_sampled"] == 64
        assert -(-64 // numerics.POINTS_PER_BLOCK) == 4
        assert len(built) == 12
        assert all(f is sc.pullback.constraint for f in built)

    def test_check_builds_no_tangent_basis_per_certificate(self, monkeypatch):
        # the certificate search reads the f*P normal projector and its
        # derivatives from the sample's PointData, not from core.riemann
        calls = {"tangent_basis": 0, "riemann": 0}
        tangent_basis, riemann = pullback.PullbackBundle.tangent_basis, core.riemann

        def counted_basis(*args, **kwargs):
            calls["tangent_basis"] += 1
            return tangent_basis(*args, **kwargs)

        def counted_riemann(*args, **kwargs):
            calls["riemann"] += 1
            return riemann(*args, **kwargs)

        monkeypatch.setattr(pullback.PullbackBundle, "tangent_basis", counted_basis)
        monkeypatch.setattr(core, "riemann", counted_riemann)
        samples = 6
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "complex-violated", "bundle": "hopf_complex",
            "base_map": "compose(hopf, perturbed(0.3, e1))", "samples": samples,
            "kernel_directions": 5, "seed": 1}))
        body, code = cli.run_check(sc)
        assert code == 2 and body["summary"]["certificates"] > 0
        assert calls["tangent_basis"] <= samples
        assert calls["riemann"] == 0

    def test_octonionic_check_takes_no_finite_difference(self, monkeypatch):
        # the octonionic-consistent benchmark workload at seed 1: fatness,
        # fiber geodesy, the flatness sweep and the level-set second
        # fundamental form are all closed form
        calls = 0
        original = numerics.central_difference

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("submersion_lab.") and \
                    getattr(module, "central_difference", None) is original:
                monkeypatch.setattr(module, "central_difference", counted)
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "octonionic-consistent", "bundle": "hopf_octonionic",
            "base_map": "hopf", "epsilon": 0.1, "samples": 3,
            "kernel_directions": 20, "seed": 1}))
        body, code = cli.run_check(sc)
        assert (body["verdict"], code) == ("CONSISTENT", 0)
        assert body["summary"]["samples"] == body["summary"]["regular_samples"] == 3
        assert calls == 0


    @pytest.mark.parametrize("bundle, base_map, samples", [
        ("hopf_octonionic", "hopf", 3),
        ("hopf_complex", "compose(hopf, perturbed(0.3, e1))", 80),
        ("hopf_quaternionic", "compose(hopf, perturbed(0.3, e1))", 20),
    ], ids=["octonionic-consistent", "complex-violated", "quaternionic-validate"])
    def test_check_builds_no_eigh_tangent_basis(self, monkeypatch, bundle, base_map,
                                                samples):
        # the benchmark's workload configs at seed 1: every per-point operator
        # of check reads df from an ambient matrix or a kernel frame
        calls = 0
        original = core.tangent_basis

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("submersion_lab") and \
                    getattr(module, "tangent_basis", None) is original:
                monkeypatch.setattr(module, "tangent_basis", counted)
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "workload", "bundle": bundle, "base_map": base_map,
            "epsilon": 0.1, "samples": samples, "kernel_directions": 20, "seed": 1}))
        body, code = cli.run_check(sc)
        assert (body["verdict"], code) in {("CONSISTENT", 0), ("VIOLATED", 2)}
        assert body["summary"]["samples"] > 0
        assert calls == 0

    def test_check_draws_a_block_in_one_fiber_sampler_call(self, monkeypatch):
        # the complex-violated benchmark workload at seed 1: the sample loop
        # draws its 80 points (x, p) in 5 blocks, one Hopf fiber sampler call
        # each, and no other stage samples a fiber
        calls = 0
        original = geometries.hopf_fiber_sampler

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(geometries, "hopf_fiber_sampler", counted)
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "complex-violated", "bundle": "hopf_complex",
            "base_map": "compose(hopf, perturbed(0.3, e1))", "epsilon": 0.1, "samples": 80,
            "kernel_directions": 20, "seed": 1}))
        body, code = cli.run_check(sc)
        assert (body["verdict"], code) == ("VIOLATED", 2)
        assert numerics.POINTS_PER_BLOCK == 16
        assert calls == 5

    @pytest.mark.parametrize("bundle, base_map, samples", [
        ("hopf_octonionic", "hopf", 3),
        ("hopf_complex", "compose(hopf, perturbed(0.3, e1))", 80),
    ], ids=["octonionic-consistent", "complex-violated"])
    def test_check_builds_no_full_projector_derivative(self, monkeypatch, bundle, base_map,
                                                       samples):
        # the benchmark's check workloads at seed 1: fatness, the fiber check
        # and the sample loop read kernel frames on their kernels alone, and
        # d2f reads the second fundamental form of M, so no (n, n) derivative
        # of a kernel projector or of a tangent projector is built
        def refusing(name):
            def refuse(*args, **kwargs):
                raise AssertionError(f"{name} called by check")
            return refuse

        monkeypatch.setattr(graph.KernelFrame, "derivative", refusing("KernelFrame.derivative"))
        monkeypatch.setattr(core, "projector_derivative", refusing("core.projector_derivative"))
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "workload", "bundle": bundle, "base_map": base_map,
            "epsilon": 0.1, "samples": samples, "kernel_directions": 20, "seed": 1}))
        body, code = cli.run_check(sc)
        assert (body["verdict"], code) in {("CONSISTENT", 0), ("VIOLATED", 2)}
        assert body["summary"]["regular_samples"] == samples

    @pytest.mark.parametrize("bundle, base_map, samples", [
        ("hopf_octonionic", "hopf", 3),
        ("hopf_complex", "compose(hopf, perturbed(0.3, e1))", 80),
    ], ids=["octonionic-consistent", "complex-violated"])
    def test_check_makes_no_kernel_membership_product(self, monkeypatch, bundle, base_map,
                                                      samples):
        # the benchmark's check workloads at seed 1: the batched paths take
        # coefficients on the kernel basis, so no direction is re-checked
        # against df; only the ambient oracles of validate check membership
        calls = 0
        original = obstruction._require_kernel_direction

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(obstruction, "_require_kernel_direction", counted)
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "workload", "bundle": bundle, "base_map": base_map,
            "epsilon": 0.1, "samples": samples, "kernel_directions": 20, "seed": 1}))
        body, code = cli.run_check(sc)
        assert (body["verdict"], code) in {("CONSISTENT", 0), ("VIOLATED", 2)}
        assert calls == 0

    @pytest.mark.parametrize("bundle, base_map, samples", [
        ("hopf_octonionic", "hopf", 3),
        ("hopf_complex", "compose(hopf, perturbed(0.3, e1))", 80),
        ("hopf_quaternionic", "compose(hopf, perturbed(0.3, e1))", 20),
    ], ids=["octonionic-consistent", "complex-violated", "quaternionic-validate"])
    def test_check_decomposes_no_kernel_projector(self, monkeypatch, bundle, base_map,
                                                  samples):
        # the benchmark's workload configs at seed 1: each kernel basis is an
        # eigh of the compression of P onto the nullspace of C, (n - rank)
        # square, never of an n-square kernel projector
        sides, nullities = [], []
        eigh, set_frame = np.linalg.eigh, graph.KernelFrame._set

        def recorded_eigh(a, *args, **kwargs):
            sides.append(a.shape[-1])
            return eigh(a, *args, **kwargs)

        def recorded_set(frame, *args):
            set_frame(frame, *args)
            nullities.append(frame.source_projector.shape[-1] - frame.rank)

        monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
        monkeypatch.setattr(graph.KernelFrame, "_set", recorded_set)
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "workload", "bundle": bundle, "base_map": base_map,
            "epsilon": 0.1, "samples": samples, "kernel_directions": 20, "seed": 1}))
        body, code = cli.run_check(sc)
        assert (body["verdict"], code) in {("CONSISTENT", 0), ("VIOLATED", 2)}
        assert sides and max(sides) <= min(nullities)

    def test_octonionic_check_counts_second_order_work(self, monkeypatch):
        # the octonionic-consistent benchmark workload at seed 1: the Hopf
        # Jacobian is a constant tensor, each A tensor and each block of the
        # hypothesis loop with fiber-check points takes one stacked kernel form
        # of the vertical frame, and d2f is taken once per block of samples, on
        # the kernel basis, for all 20 directions of each
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "octonionic-consistent", "bundle": "hopf_octonionic",
            "base_map": "hopf", "epsilon": 0.1, "samples": 3,
            "kernel_directions": 20, "seed": 1}))
        calls = {"hopf_jacobian": 0, "kernel_derivative": 0, "d2f": 0}
        per_a_tensor, per_hypotheses = [], []

        def counting(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        def measuring(log, fn):
            def measured(*args, **kwargs):
                before = calls["kernel_derivative"]
                out = fn(*args, **kwargs)
                log.append(calls["kernel_derivative"] - before)
                return out
            return measured

        monkeypatch.setattr(geometries, "_hopf_jacobian",
                            counting("hopf_jacobian", geometries._hopf_jacobian))
        monkeypatch.setattr(graph.KernelFrame, "kernel_derivative",
                            counting("kernel_derivative", graph.KernelFrame.kernel_derivative))
        d2f = counting("d2f", graph.d2f)
        for module in (graph, obstruction, pullback):
            monkeypatch.setattr(module, "d2f", d2f)
        a_tensor = measuring(per_a_tensor, submersion.a_tensor_coefficients)
        for module in (submersion, pullback):
            monkeypatch.setattr(module, "a_tensor_coefficients", a_tensor)
        monkeypatch.setattr(submersion, "hypotheses", measuring(
            per_hypotheses, submersion.hypotheses))
        body, code = cli.run_check(sc)
        assert (body["verdict"], code) == ("CONSISTENT", 0)
        assert calls["hopf_jacobian"] == 0
        # one A tensor per block: the 50 fatness samples in 4 blocks, and the
        # 3 check samples in one
        fatness_blocks = -(-50 // numerics.POINTS_PER_BLOCK)
        assert fatness_blocks == 4
        assert per_a_tensor == [1] * (fatness_blocks + -(-3 // numerics.POINTS_PER_BLOCK))
        # theorem_report's one hypothesis loop: its 4 A tensors, and one kernel
        # form for the 10 fiber-check samples, which lie in its first block
        assert per_hypotheses == [fatness_blocks + -(-10 // numerics.POINTS_PER_BLOCK)] == [5]
        assert body["summary"]["samples"] == 3
        assert calls["d2f"] == -(-3 // numerics.POINTS_PER_BLOCK) == 1

    def test_octonionic_sample_loop_keeps_the_point_axis(self, monkeypatch):
        # the octonionic-consistent benchmark workload at seed 1 in one-point
        # blocks: each block's PointData keeps the point axis, so one-point
        # blocks take the path of larger ones
        parts = []
        blocks = pullback.PointData.blocks

        def spied(cls, *args, **kwargs):
            out = blocks(*args, **kwargs)
            parts.extend(pt for _, pt in out)
            return out

        monkeypatch.setattr(pullback.PointData, "blocks", classmethod(spied))
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "octonionic-consistent", "bundle": "hopf_octonionic",
            "base_map": "hopf", "epsilon": 0.1, "samples": 3,
            "kernel_directions": 20, "seed": 1}))
        monkeypatch.setattr(numerics, "POINTS_PER_BLOCK", 1)
        body, code = cli.run_check(sc)
        assert (body["verdict"], code) == ("CONSISTENT", 0)
        assert [pt.x.ndim for pt in parts] == [2, 2, 2]

    def test_kernel_work_per_sample_does_not_grow_with_directions(self, monkeypatch):
        # perturbed octonionic Hopf, 2 samples at seed 1: the second-order
        # inputs of every direction are contractions of per-sample tensors on
        # the kernel basis, so 1, 20 and 40 directions make the same calls
        calls = {}

        def counting(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(graph.KernelFrame, "kernel_derivative", counting(
            "kernel_derivative", graph.KernelFrame.kernel_derivative))
        monkeypatch.setattr(graph.SmoothMapBetweenManifolds, "jac_derivative", counting(
            "jac_derivative", graph.SmoothMapBetweenManifolds.jac_derivative))
        d2f = counting("d2f", graph.d2f)
        for module in (graph, obstruction, pullback):
            monkeypatch.setattr(module, "d2f", d2f)
        counts = []
        for n_dirs in (1, 20, 40):
            calls.update(kernel_derivative=0, jac_derivative=0, d2f=0)
            sc = build_scenario(ScenarioConfig.from_dict({
                "name": "octonionic-violated", "bundle": "hopf_octonionic",
                "base_map": "compose(hopf, perturbed(0.3, e1))", "epsilon": 0.1,
                "samples": 2, "kernel_directions": n_dirs, "seed": 1}))
            body, code = cli.run_check(sc)
            assert (body["verdict"], code) == ("VIOLATED", 2)
            assert body["summary"]["samples"] == 2
            assert body["summary"]["certificates"] == 2 * n_dirs
            counts.append(dict(calls))
        assert counts[0] == counts[1] == counts[2]
        assert counts[0]["d2f"] == -(-2 // numerics.POINTS_PER_BLOCK) == 1

    def test_check_work_is_per_block(self, monkeypatch):
        # the complex-violated config at seed 1: the sample loop's frame
        # derivatives, SVDs and splittings are made once per block of points,
        # so 3 and 8 samples, which both fit one block, make the same calls
        calls = {}

        def counting(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(graph.KernelFrame, "kernel_derivative", counting(
            "kernel_derivative", graph.KernelFrame.kernel_derivative))
        nullspace_basis = counting("nullspace_basis", numerics.nullspace_basis)
        splitting = counting("splitting", submersion.splitting)
        for module in (numerics, graph):
            monkeypatch.setattr(module, "nullspace_basis", nullspace_basis)
        for module in (submersion, pullback):
            monkeypatch.setattr(module, "splitting", splitting)
        counts = []
        for samples in (3, 8):
            calls.update(kernel_derivative=0, nullspace_basis=0, splitting=0)
            sc = build_scenario(ScenarioConfig.from_dict({
                "name": "complex-violated", "bundle": "hopf_complex",
                "base_map": "compose(hopf, perturbed(0.3, e1))", "epsilon": 0.1,
                "samples": samples, "kernel_directions": 20, "seed": 1}))
            assert numerics.POINTS_PER_BLOCK >= samples
            body, code = cli.run_check(sc)
            assert (body["verdict"], code) == ("VIOLATED", 2)
            assert body["summary"]["regular_samples"] == samples
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        # the hypotheses (50 fatness samples in 4 blocks, whose first 10 are the
        # fiber check's) and the sample loop (one block): each block's vertical
        # frame takes one splitting, and the sample loop adds the frames of df
        # and the constraint
        fatness_blocks = -(-50 // numerics.POINTS_PER_BLOCK)
        assert counts[0]["splitting"] == fatness_blocks + 1 == 5
        assert counts[0]["nullspace_basis"] == fatness_blocks + 3 == 7

    def test_sample_loop_calls_each_closure_once_per_block(self, monkeypatch):
        # the complex-violated config at seed 1, whose 8 points fit one block:
        # the kernel frame of df evaluates J once for the block, and the graph
        # operators, d2f and the f*P frame read it from there; d2f takes one
        # Jacobian derivative along the kernel basis, and the kernel form of
        # the f*P frame one more along all its rows; the
        # f*P manifold checks the block's membership with one retraction and
        # is never asked for its projector (the frame is built directly)
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "complex-violated", "bundle": "hopf_complex",
            "base_map": "compose(hopf, perturbed(0.3, e1))", "epsilon": 0.1,
            "samples": 8, "kernel_directions": 20, "seed": 1}))
        pb = sc.pullback
        assert numerics.POINTS_PER_BLOCK >= 8
        f = pb.f
        calls = {"jac": [], "jac_derivative": [], "projector_field": [], "retraction": []}

        def counting(key):
            original = getattr(graph.SmoothMapBetweenManifolds, key)

            def counted(self, x, *args, **kwargs):
                if self is f:
                    calls[key].append(np.shape(x))
                return original(self, x, *args, **kwargs)
            return counted

        def recording(key, closure):
            def recorded(x, *args):
                calls[key].append(np.shape(x))
                return closure(x, *args)
            return recorded

        for key in ("jac", "jac_derivative"):
            monkeypatch.setattr(graph.SmoothMapBetweenManifolds, key, counting(key))
        m = pb.total_manifold
        monkeypatch.setattr(pb, "total_manifold", dataclasses.replace(
            m, projector_field=recording("projector_field", m.projector_field),
            retraction=recording("retraction", m.retraction)))
        report = obstruction.theorem_report(pb, samples=8, kernel_directions=20, seed=1)
        assert report.verdict == "VIOLATED" and report.regular_points == 8
        block = (8, f.source.ambient_dim)
        assert calls == {"jac": [block], "jac_derivative": [block, block],
                         "projector_field": [], "retraction": [(8, m.ambient_dim)]}


def assert_reports_agree(got, want, path="body"):
    """Equal verdicts, exit codes, counts and strings; every float within
    1e-12 relative or 1e-14 absolute."""
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            assert_reports_agree(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_reports_agree(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14), path
    else:
        assert got == want, path


class TestWorkloadRegression:
    """The benchmark's three workload configs at reduced sample counts give
    the verdicts, exit codes, certificate counts and best certificate
    values recorded before the second-order data became stacked tensors."""

    CONFIGS = {
        "octonionic-consistent": ("hopf_octonionic", "hopf", 2, 4),
        "complex-violated": ("hopf_complex", "compose(hopf, perturbed(0.3, e1))", 8, 4),
        "quaternionic-validate": ("hopf_quaternionic",
                                  "compose(hopf, perturbed(0.3, e1))", 3, 3),
    }
    # (workload, seed) -> verdict, exit code, certificates, best sec_value of
    # `check`; `validate` passes all 20 checks on every one. The best values
    # were re-recorded when each sampled loop came to read one generator
    # (every sampled point moved; the verdicts and counts did not), and each
    # agrees with `pullback_curvature_expansion` to 4.5e-15 relative.
    RECORDED = {
        ("octonionic-consistent", 1): ("CONSISTENT", 0, 0, None),
        ("octonionic-consistent", 11): ("CONSISTENT", 0, 0, None),
        ("complex-violated", 1): ("VIOLATED", 2, 8, -0.04947753214340834),
        ("complex-violated", 11): ("VIOLATED", 2, 8, -0.04162661024464031),
        ("quaternionic-validate", 1): ("VIOLATED", 2, 9, -0.035439893117011165),
        ("quaternionic-validate", 11): ("VIOLATED", 2, 9, -0.010567082710386306),
    }

    @pytest.mark.parametrize("workload, seed", sorted(RECORDED))
    def test_check_and_validate_match_the_record(self, workload, seed):
        bundle, base_map, samples, directions = self.CONFIGS[workload]
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": workload, "bundle": bundle, "base_map": base_map,
            "epsilon": 0.1, "samples": samples, "kernel_directions": directions,
            "seed": seed}))
        verdict, exit_code, certificates, best = self.RECORDED[workload, seed]
        body, code = cli.run_check(sc)
        assert (body["verdict"], code, body["summary"]["certificates"]) == \
            (verdict, exit_code, certificates)
        if best is None:
            assert body["certificates"] == []
        else:
            assert body["certificates"][0]["sec_value"] == pytest.approx(
                best, rel=1e-12, abs=0.0)
        checks = cli.run_validation(sc)
        assert len(checks) == 20
        assert [c.name for c in checks if c.status != "pass"] == []


class TestBlockSize:
    """`check` reports do not depend on how many points a block holds: the
    worker-count invariance of ROADMAP aim 3, for the block size."""

    CONFIGS = [
        *TestWorkloadRegression.CONFIGS.values(),
        ("hopf_quaternionic", "compose(hopf, geodesic_fold(3))", 5, 6),
        # the fold's points drop rank, so a block can mix ranks
        ("hopf_complex", "geodesic_fold(2)", 9, 3),
        ("trivial", "identity", 6, 3),
    ]

    @pytest.mark.parametrize("seed", [1, 11])
    @pytest.mark.parametrize("bundle, base_map, samples, directions", CONFIGS,
                             ids=[f"{c[0]}-{c[1]}" for c in CONFIGS])
    def test_one_point_blocks_give_the_same_report(self, monkeypatch, bundle, base_map,
                                                   samples, directions, seed):
        # every sampled loop one point a block
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "blocks", "bundle": bundle, "base_map": base_map, "epsilon": 0.1,
            "samples": samples, "kernel_directions": directions, "seed": seed}))
        blocked = cli.run_check(sc)
        assert numerics.POINTS_PER_BLOCK >= samples
        monkeypatch.setattr(numerics, "POINTS_PER_BLOCK", 1)
        one_point = cli.run_check(sc)
        assert blocked[1] == one_point[1]
        assert one_point[0]["fatness"] == blocked[0]["fatness"]
        assert_reports_agree(blocked[0], one_point[0])

    VALIDATE_CONFIGS = [(bundle, base_map)
                        for bundle in ("hopf_complex", "hopf_quaternionic", "hopf_octonionic")
                        for base_map in ("hopf", "compose(hopf, perturbed(0.3, e1))")]

    @pytest.mark.parametrize("seed", [1, 11])
    @pytest.mark.parametrize("bundle, base_map", VALIDATE_CONFIGS,
                             ids=[f"{b}-{m}" for b, m in VALIDATE_CONFIGS])
    def test_one_stream_blocks_give_the_same_validate_report(self, monkeypatch, bundle,
                                                             base_map, seed):
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "blocks", "bundle": bundle, "base_map": base_map, "epsilon": 0.1,
            "samples": cli.SAMPLE_BUDGET, "seed": seed}))
        blocked = cli.run_validation(sc)
        assert numerics.POINTS_PER_BLOCK >= cli.SAMPLE_BUDGET
        monkeypatch.setattr(numerics, "POINTS_PER_BLOCK", 1)
        assert_validate_reports_agree(cli.run_validation(sc), blocked)


def assert_validate_reports_agree(got, want):
    """Equal names, order and statuses (hence exit codes); each residual
    within 1e-12 relative, or both below 1e-3 x the row's tolerance (rows at
    rounding level), or, on core.retraction_second_order, within 1e-9 absolute
    (a retraction's rounding, magnified by 1/h^2 = 1e6); equal witnesses on
    rows not at rounding level."""
    assert [(c.name, c.status, c.tolerance) for c in got] == \
        [(c.name, c.status, c.tolerance) for c in want]
    for g, w in zip(got, want):
        rounding = max(g.residual, w.residual) < 1e-3 * w.tolerance
        if w.name == "core.retraction_second_order":
            assert abs(g.residual - w.residual) <= 1e-9, w.name
        elif not rounding:
            assert g.residual == pytest.approx(w.residual, rel=1e-12, abs=0.0), w.name
        if not rounding:
            assert g.witness == w.witness, w.name


class TestMemoryGuard:
    """The traced peak of one warm `check` (seed 1) on the benchmark's check
    workloads and on the perturbed octonionic Hopf pull-back, whose blocks
    hold the most. `measured` is the peak in KB at POINTS_PER_BLOCK = 16,
    with numpy 2.4.6; the margin is a quarter of it."""

    @pytest.mark.parametrize("bundle, base_map, samples, measured", [
        ("hopf_complex", "compose(hopf, perturbed(0.3, e1))", 80, 291),
        ("hopf_octonionic", "hopf", 3, 1485),
        ("hopf_octonionic", "compose(hopf, perturbed(0.3, e1))", 20, 7864),
    ], ids=["complex-violated", "octonionic-consistent", "octonionic-perturbed"])
    def test_check_peak_stays_within_the_margin(self, bundle, base_map, samples, measured):
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "memory", "bundle": bundle, "base_map": base_map, "epsilon": 0.1,
            "samples": samples, "kernel_directions": 20, "seed": 1}))
        cli.run_check(sc)   # caches, first-use allocations
        tracemalloc.start()
        try:
            cli.run_check(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * measured * 1024


FD_STEPS = [1e-3, 1e-4, 1e-5, 1e-6]


class TestFdStepRobustness:
    """Verdicts, exit codes and validate statuses do not depend on fd_step."""

    @pytest.mark.parametrize("fd_step", FD_STEPS)
    @pytest.mark.parametrize("bundle", ["hopf_complex", "trivial"])
    def test_validate_strongly_perturbed_map(self, bundle, fd_step):
        # sup |df|^2 = 1 / (1 - 0.99)^2 = 1e4, so epsilon 5e-5 is admissible
        # everywhere, not only at the sampled points (build_scenario refuses
        # epsilon >= 1e-4 for this map)
        for seed in range(8):
            sc = build_scenario(ScenarioConfig.from_dict({
                "name": "perturbed-0.99", "bundle": bundle,
                "base_map": "perturbed(0.99, e1)", "epsilon": 5e-5, "samples": 8,
                "seed": seed, "fd_step": fd_step}))
            failing = [(c.name, c.residual) for c in cli.run_validation(sc)
                       if c.status != "pass"]
            assert failing == [], seed

    @pytest.mark.parametrize("base_map, verdict, exit_code", [
        ("hopf", "CONSISTENT", 0),
        ("compose(hopf, perturbed(0.3, e1))", "VIOLATED", 2),
        # no verdict: the curvature subcommand
        pytest.param("compose(hopf, perturbed(0.3, e1))", None, 0, id="curvature"),
    ])
    @pytest.mark.parametrize("bundle", ["hopf_complex", "hopf_quaternionic",
                                        "hopf_octonionic"])
    def test_check_verdict(self, bundle, base_map, verdict, exit_code):
        # check and curvature read no step: every figure of the body, not
        # only the verdict, is the same at every step
        bodies = []
        for fd_step in FD_STEPS:
            sc = build_scenario(ScenarioConfig.from_dict({
                "name": "sweep", "bundle": bundle, "base_map": base_map,
                "samples": 3, "kernel_directions": 3, "seed": 1,
                "fd_step": fd_step}))
            if verdict is None:
                body = cli.run_curvature(sc)
            else:
                body, code = cli.run_check(sc)
                assert (body["verdict"], code) == (verdict, exit_code), fd_step
            bodies.append(json.dumps(body, sort_keys=True))
        assert bodies == bodies[:1] * len(FD_STEPS)

    @pytest.mark.parametrize("bundle", ["hopf_complex", "hopf_quaternionic",
                                        "hopf_octonionic"])
    def test_check_fatness_and_fiber_geodesy(self, bundle):
        # the A and T tensors are closed form on the Hopf bundles, so their
        # figures in the report, the fatness witness included, do not move
        reports = []
        for fd_step in FD_STEPS:
            sc = build_scenario(ScenarioConfig.from_dict({
                "name": "sweep", "bundle": bundle, "base_map": "hopf",
                "samples": 1, "kernel_directions": 1, "seed": 1,
                "fd_step": fd_step}))
            reports.append(cli.run_check(sc)[0])
        first = reports[0]
        for body in reports[1:]:
            assert body["fatness"]["min_sigma"] == pytest.approx(
                first["fatness"]["min_sigma"], rel=1e-12, abs=0.0)
            assert body["fatness"]["worst_point"] == first["fatness"]["worst_point"]
            assert abs(body["fiber_geodesy"] - first["fiber_geodesy"]) <= 1e-12


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    result = subprocess.run(
        [sys.executable, "-c",
         "import submersion_lab.cli, sys; assert 'scipy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("bundle, base_map", [
    ("hopf_complex", "hopf"),
    ("hopf_quaternionic", "compose(hopf, perturbed(0.3, e1))"),
    ("trivial", "perturbed(0.5, e1)"),
    ("trivial", "geodesic_fold(2)"),
])
def test_scenario_is_freed_without_the_cycle_collector(bundle, base_map):
    # no closure of the pull-back reads the bundle itself, so reference
    # counting alone frees a scenario, also after a check ran on it
    gc.disable()
    try:
        sc = build_scenario(ScenarioConfig.from_dict({
            "name": "cycle", "bundle": bundle, "base_map": base_map,
            "samples": 2, "kernel_directions": 2, "seed": 1}))
        cli.run_check(sc)
        ref = weakref.ref(sc.pullback)
        del sc
        assert ref() is None
    finally:
        gc.enable()


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()
