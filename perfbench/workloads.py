"""The benchmark's workloads and the checks every operation must pass.

Each workload is one scenario of the ROADMAP matrix, run through one
subcommand of the CLI. The configs depend only on the seed; the program
receives nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

NEGATIVE_SEC_TOLERANCE = -1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str      # "check" or "validate"
    bundle: str
    base_map: str
    samples: int
    kernel_directions: int
    expected_exit: int
    expected_verdict: str | None  # None for validate

    def config(self, seed: int) -> dict:
        return {
            "name": self.name,
            "bundle": self.bundle,
            "base_map": self.base_map,
            "epsilon": 0.1,
            "samples": self.samples,
            "kernel_directions": self.kernel_directions,
            "seed": seed,
        }


WORKLOADS = {w.name: w for w in (
    Workload(
        name="octonionic-consistent", subcommand="check",
        bundle="hopf_octonionic", base_map="hopf",
        samples=3, kernel_directions=20,
        expected_exit=0, expected_verdict="CONSISTENT"),
    Workload(
        name="complex-violated", subcommand="check",
        bundle="hopf_complex", base_map="compose(hopf, perturbed(0.3, e1))",
        samples=80, kernel_directions=20,
        expected_exit=2, expected_verdict="VIOLATED"),
    Workload(
        name="quaternionic-validate", subcommand="validate",
        bundle="hopf_quaternionic", base_map="compose(hopf, perturbed(0.3, e1))",
        samples=20, kernel_directions=20,
        expected_exit=0, expected_verdict=None),
)}


def report_problems(workload: Workload, exit_code: int, report: dict,
                    recheck_plane) -> list[str]:
    """Why an operation's result is wrong; empty when it is right.

    `recheck_plane(x, p, plane_x, plane_w)` re-evaluates the sectional
    curvature of a certificate plane by direct computation.
    """
    problems = []
    if exit_code != workload.expected_exit:
        problems.append(f"exit code {exit_code}, expected {workload.expected_exit}")
    if workload.subcommand == "validate":
        failing = [c["check"] for c in report.get("checks", []) if c["status"] != "pass"]
        if not report.get("checks"):
            problems.append("validate report has no checks")
        if failing:
            problems.append(f"failing checks: {', '.join(failing)}")
        return problems

    verdict = report.get("verdict")
    if verdict != workload.expected_verdict:
        problems.append(f"verdict {verdict}, expected {workload.expected_verdict}")
    if verdict == "VIOLATED":
        certs = report.get("certificates", [])
        if report.get("summary", {}).get("certificates", 0) <= 0 or not certs:
            problems.append("VIOLATED without certificates")
        bad = [c["sec_value"] for c in certs
               if not c["sec_value"] < NEGATIVE_SEC_TOLERANCE]
        if bad:
            problems.append(f"certificate sec_value not negative: {bad}")
        if certs:
            best = min(certs, key=lambda c: c["sec_value"])
            sec = recheck_plane(best["x"], best["p"], best["plane_x"], best["plane_w"])
            if not sec < NEGATIVE_SEC_TOLERANCE:
                problems.append(f"best certificate re-evaluates to {sec!r}, not negative")
    return problems
