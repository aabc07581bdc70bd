"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/runs/set-a.json
    python3 perfbench/record.py --seeds 1,2 --trace 1 --workloads complex-violated

Runs are sequential, one ``run.py`` process at a time, with the run length
of BENCHMARK.json. For every workload and metric the summary gives the
values, their median and quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
        if out["median"]:
            out["spread"] = (q3 - q1) / out["median"]
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {"seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if not args.trace or k in ("trace.overhead_s",)),
                  flush=True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs],
                                   bounds.get(name))
                   for name in runs[0]["metrics"]}
        summary["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "reports": {str(r["seed"]): r["report"] for r in runs},
        }
        for name, m in metrics.items():
            if m.get("bound") is not None:
                print(f"  {name}: median {m['median']:.6g} spread {m.get('spread', 0):.4f} "
                      f"(bound {m['bound']}, a third {m['bound'] / 3:.4f})", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
