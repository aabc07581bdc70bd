"""Every demo script and every python block of the README runs to completion
with exit code 0, and every scenario the README and the demos write down
builds."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from submersion_lab.scenarios import ScenarioConfig, build_scenario

from conftest import readme_python_blocks

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = readme_python_blocks()

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


def run_python(args, cwd):
    """Run the interpreter on `args` with the package's source on its path;
    fail with the tail of its output unless it exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_readme_has_a_python_block():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    run_python(["-c", block], tmp_path)
