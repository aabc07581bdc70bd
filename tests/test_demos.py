"""Every demo script runs to completion with exit code 0, and every
scenario the README and the demos write down builds."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from submersion_lab.scenarios import ScenarioConfig, build_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# a config's bundle and the base map written after it, in JSON or in a dict
BUNDLE_AND_BASE_MAP = re.compile(r'"bundle":\s*"(\w+)".*?"base_map":\s*"([^"]*)"', re.S)
DOCUMENTED = [(doc.name, bundle, base_map) for doc in (ROOT / "README.md", *DEMOS)
              for bundle, base_map in BUNDLE_AND_BASE_MAP.findall(doc.read_text())]


def test_docs_write_down_scenarios():
    assert {doc for doc, *_ in DOCUMENTED} >= {"README.md", "06_scenario_cli.py"}


@pytest.mark.parametrize("doc,bundle,base_map", DOCUMENTED,
                         ids=[f"{doc}:{base_map}" for doc, _, base_map in DOCUMENTED])
def test_documented_base_map_builds(doc, bundle, base_map):
    build_scenario(ScenarioConfig.from_dict(
        {"name": doc, "bundle": bundle, "base_map": base_map}))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
