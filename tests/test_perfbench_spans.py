"""The per-layer tracer of the benchmark (perfbench/spans.py) patches
functions and methods of the package by name; each name must resolve, or
`perfbench/run.py --trace 1` breaks when a refactor moves it."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import submersion_lab
from submersion_lab import cli

ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module, attr", spans.FUNCTIONS,
                         ids=[f"{m}.{a}" for m, a in spans.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    fn = getattr(importlib.import_module(f"submersion_lab.{module}"), attr, None)
    assert callable(fn), f"submersion_lab.{module}.{attr}"


@pytest.mark.parametrize("module, cls, method, name", spans.METHODS,
                         ids=[name for *_, name in spans.METHODS])
def test_traced_method_resolves(module, cls, method, name):
    owner = getattr(importlib.import_module(f"submersion_lab.{module}"), cls, None)
    assert owner is not None, f"submersion_lab.{module}.{cls}"
    # the tracer patches the method on the class itself
    assert callable(vars(owner).get(method)), f"{cls}.{method}"


def test_runners_traced_once_per_operation(tmp_path, capsys):
    # the tracer rebinds cli.run_validation and cli.run_check; a dispatcher
    # that held the runners from import time would count 0 calls, silently
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"name": "traced", "bundle": "hopf_complex",
                                  "base_map": "hopf", "samples": 2,
                                  "kernel_directions": 1, "seed": 1}))
    tracer = spans.Tracer()
    with spans.Instrumentation(submersion_lab, tracer):
        assert cli.main(["validate", "--config", str(config)]) == 0
        assert cli.main(["check", "--config", str(config)]) == 0
    capsys.readouterr()
    assert tracer.calls["cli.run_validation"] == 1
    assert tracer.calls["cli.run_check"] == 1
    assert tracer.calls["cli.main"] == 2


@pytest.mark.parametrize("workload", ["octonionic-consistent", "complex-violated",
                                      "quaternionic-validate"])
def test_traced_benchmark_run_succeeds(workload):
    # one traced operation of each workload through the benchmark's own entry
    # point: on octonionic-consistent the tracer wraps `submersion.fatness`
    # and `submersion.totally_geodesic_fibers_check` by name, around a check
    # that answers both in the one loop of `submersion.hypotheses`, and
    # quaternionic-validate runs the traced `core.riemann`,
    # `pullback.pullback_curvature` and `submersion.a_tensor`
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
