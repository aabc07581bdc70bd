"""Config-driven runs through the command-line front-end.

Scenarios are JSON files naming a bundle, a base-map expression, a fiber
scale, sample counts and a seed. The same (config, seed) always produces
the same report apart from the timing block. Exit codes: 0 consistent,
2 violated with a certificate, 1 error. The demo itself exits 1 when a
subcommand's exit code is not the one it expects.
"""

import json
import pathlib
import sys
import tempfile

from submersion_lab import cli

mismatches = []


def expect(what: str, code: int, expected: int) -> None:
    print(f"{what}: exit {code} (expected {expected})")
    if code != expected:
        mismatches.append(what)


with tempfile.TemporaryDirectory(prefix="submersion_lab_demo_") as tmp:
    workdir = pathlib.Path(tmp)
    print("working in", workdir)

    configs = {
        "pure-hopf": {
            "name": "pure-hopf", "bundle": "hopf_complex", "base_map": "hopf",
            "samples": 30, "seed": 11,
        },
        "perturbed-hopf": {
            "name": "perturbed-hopf", "bundle": "hopf_complex",
            "base_map": "compose(hopf, perturbed(0.3, e1))",
            "samples": 30, "seed": 11,
        },
        "bad-epsilon": {
            "name": "bad-epsilon", "bundle": "hopf_complex", "base_map": "hopf",
            "samples": 10, "seed": 11, "epsilon": 1.5,
        },
    }
    for name, cfg in configs.items():
        (workdir / f"{name}.json").write_text(json.dumps(cfg, indent=2))

    # invariant suite
    code = cli.main(["validate", "--config", str(workdir / "pure-hopf.json"),
                     "--out", str(workdir / "validate.md"), "--format", "md"])
    expect("validate pure-hopf", code, 0)

    # obstruction checks: consistent (0), violated (2), inadmissible epsilon (1)
    runs = []
    for name, expected in (("pure-hopf", 0), ("perturbed-hopf", 2), ("bad-epsilon", 1)):
        out = workdir / f"{name}_check.json"
        code = cli.main(["check", "--config", str(workdir / f"{name}.json"),
                         "--out", str(out)])
        expect(f"check {name}", code, expected)
        if code in (0, 2):
            runs.append(str(out))
            verdict = json.loads(out.read_text())["verdict"]
            print("   verdict:", verdict)

    # curvature sampling table
    code = cli.main(["curvature", "--config", str(workdir / "pure-hopf.json"),
                     "--samples", "60", "--out", str(workdir / "curvature.json")])
    expect("curvature pure-hopf", code, 0)
    table = json.loads((workdir / "curvature.json").read_text())
    print("curvature quantiles:", table["quantiles"])

    # merge everything into one table
    code = cli.main(["report", *runs, str(workdir / "curvature.json"),
                     "--out", str(workdir / "summary.md")])
    expect("report", code, 0)

if mismatches:
    print("unexpected exit codes:", ", ".join(mismatches))
    sys.exit(1)
