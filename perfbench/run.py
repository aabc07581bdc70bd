"""obstruction-bench: time to verdict of submersion-lab on the ROADMAP matrix.

Run from the root of a checkout:

    python3 perfbench/run.py --workload complex-violated --seed 1 --seconds 20 --trace 0

One closed-loop client in one process: each operation is one in-process
call of ``submersion_lab.cli.main`` (``check`` or ``validate``), and the next
starts only when the previous one has returned and its report has been
checked. No worker threads; ``SUBMERSION_LAB_THREADS`` is unset and the BLAS
thread counts are pinned to 1 before numpy is imported.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

* ``wall_s``      median seconds per operation, call to return;
* ``setup_s``     median, over several fresh processes, of the one-off cost
                  before the first operation: package import,
                  ``ScenarioConfig.from_dict``, ``build_scenario`` and one
                  untimed warm-up operation (a 2-sample ``curvature`` on the
                  workload's own scenario);
* ``peak_rss_mb`` peak resident memory of the benchmark process.

``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of BENCHMARK.json (see spans.py); ``trace.overhead_s`` is
the traced minus the untraced median ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
the same figures for people, plus ``ops_failed``, the configuration and the
environment. An operation fails when it raises, returns the wrong exit code
or verdict, reports a VIOLATED verdict without certificates or with a
``sec_value`` >= -1e-6, has its best certificate plane re-evaluate to a
non-negative curvature, or, for ``validate``, has any failing check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 3          # fresh processes timed for setup_s, besides this one
PROBE_TIMEOUT_S = 120
WARMUP_SAMPLES = 2

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, report_problems  # noqa: E402


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package, wrong package)."""


def pin_environment() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SUBMERSION_LAB_THREADS", None)


class Session:
    """The package, one workload's config file and its scenario, set up."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        t0 = time.perf_counter()
        if not (SRC / "submersion_lab" / "__init__.py").is_file():
            raise SetupError(f"no submersion_lab package under {SRC}")
        sys.path.insert(0, str(SRC))
        import submersion_lab
        from submersion_lab import cli, pullback, scenarios
        if not Path(submersion_lab.__file__).resolve().is_relative_to(SRC.resolve()):
            raise SetupError(f"imported submersion_lab from {submersion_lab.__file__}")
        self.package, self.cli, self.pullback = submersion_lab, cli, pullback
        t1 = time.perf_counter()
        self.config = scenarios.ScenarioConfig.from_dict(workload.config(seed))
        self.scenario = scenarios.build_scenario(self.config)
        t2 = time.perf_counter()
        WORK_DIR.mkdir(exist_ok=True)
        self.config_path = WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}.json"
        self.config_path.write_text(json.dumps(self.config.to_dict()))
        try:
            code, report = self.call("curvature", "--samples", str(WARMUP_SAMPLES))
            if code != 0 or "min" not in report:
                raise SetupError(f"warm-up curvature run exited {code}")
        except BaseException:
            self.close()
            raise
        t3 = time.perf_counter()
        self.timings = {"import_s": t1 - t0, "build_s": t2 - t1, "warmup_s": t3 - t2,
                        "setup_s": t3 - t0}

    def close(self) -> None:
        self.config_path.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # left in place while another run uses it

    def call(self, subcommand: str, *extra: str) -> tuple[int, dict]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main([subcommand, "--config", str(self.config_path), *extra])
        return code, json.loads(out.getvalue())

    def recheck_plane(self, x, p, plane_x, plane_w) -> float:
        import numpy as np
        return self.pullback.pullback_sectional_curvature(
            self.scenario.pullback, np.array(x), np.array(p), np.array(plane_x),
            np.array(plane_w), self.config.fd_step)

    def operation(self, tracer=None) -> tuple[float, list[str]]:
        """One timed operation and the problems found in its result."""
        ctx = contextlib.nullcontext()
        if tracer is not None:
            from spans import Instrumentation
            ctx = Instrumentation(self.package, tracer)
        start = time.perf_counter()
        elapsed = None
        try:
            with ctx:
                code, report = self.call(self.workload.subcommand)
            elapsed = time.perf_counter() - start
            return elapsed, report_problems(self.workload, code, report, self.recheck_plane)
        except Exception:
            if elapsed is None:
                elapsed = time.perf_counter() - start
            return elapsed, ["raised:\n" + traceback.format_exc()]


def probe_setup_times(workload_name: str, seed: int) -> list[float]:
    """setup_s of fresh processes: import and first use can be timed only once
    per interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload_name, "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


class Outcome:
    """Timings and failures collected over a run's operations."""

    def __init__(self):
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.layers: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, walls: list, elapsed: float, problems: list[str]) -> None:
        walls.append(elapsed)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append("; ".join(problems))


def measure(session: Session, seconds: float) -> Outcome:
    out = Outcome()
    begin = time.perf_counter()
    while not out.walls or time.perf_counter() - begin < seconds:
        out.record(out.walls, *session.operation())
    return out


def measure_traced(session: Session, seconds: float) -> Outcome:
    from spans import Tracer
    out = Outcome()
    tracers = []
    begin = time.perf_counter()
    while not tracers or time.perf_counter() - begin < seconds:
        out.record(out.walls, *session.operation())
        tracers.append(Tracer())
        out.record(out.traced_walls, *session.operation(tracers[-1]))
    if any(t.calls != tracers[0].calls for t in tracers):
        out.problems.append("call counts differ between traced operations of one config")
    for name, calls in tracers[0].calls.items():
        out.layers[f"{name}.calls"] = calls
        out.layers[f"{name}.self_s"] = statistics.median(t.self_s[name] for t in tracers)
        out.layers[f"{name}.total_s"] = statistics.median(t.total_s[name] for t in tracers)
    out.layers["trace.overhead_s"] = (statistics.median(out.traced_walls)
                                      - statistics.median(out.walls))
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_environment()
    workload = WORKLOADS[args.workload]

    try:
        session = Session(workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.probe_setup:
            print(json.dumps(session.timings))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        setups = [session.timings["setup_s"]]
        if not args.trace:
            setups += probe_setup_times(args.workload, args.seed)
        out = (measure_traced if args.trace else measure)(session, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        session.close()

    import numpy
    import scipy
    values = dict(out.layers)
    values["wall_s"] = statistics.median(out.walls)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"obstruction-bench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"environment: commit={git_commit()} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__}")
    print(f"config: {workload.subcommand} {json.dumps(session.config.to_dict(), sort_keys=True)}")
    q1, q2, q3 = quartiles(out.walls)
    print(f"wall_s        {q2:.4f} s   median of {len(out.walls)} untraced ops "
          f"(quartiles {q1:.4f} .. {q3:.4f}; in order: "
          f"{' '.join(f'{w:.3f}' for w in out.walls)})")
    print(f"setup_s       {values['setup_s']:.4f} s   median of {len(setups)} set-ups "
          f"(this process: import {session.timings['import_s']:.3f} s, build "
          f"{session.timings['build_s']:.4f} s, warm-up {session.timings['warmup_s']:.3f} s)")
    print(f"peak_rss_mb   {values['peak_rss_mb']:.1f} MB")
    print(f"ops_failed    {out.failed}/{out.attempted} ops (failed/attempted)")
    for problem in out.problems:
        print(f"  FAILED: {problem}")
    if args.trace:
        print(f"traced wall_s {statistics.median(out.traced_walls):.4f} s "
              f"over {len(out.traced_walls)} traced ops")
        print(f"{'span':<46}{'calls':>10}{'self_s':>12}{'total_s':>12}")
        names = sorted({k.rsplit('.', 1)[0] for k in values if k.endswith(".calls")},
                       key=lambda n: -values[f"{n}.total_s"])
        for n in names:
            print(f"{n:<46}{values[n + '.calls']:>10}{values[n + '.self_s']:>12.4f}"
                  f"{values[n + '.total_s']:>12.4f}")

    metrics = {}
    for m in wanted:
        if m["name"] not in values or unit_of(m["name"]) != m["unit"]:
            print(f"error: cannot report metric {m['name']} [{m['unit']}]", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": not out.problems, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
