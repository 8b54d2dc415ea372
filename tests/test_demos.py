"""Smoke tests of the demos and of the README quick start: each runs to the
end and prints its summary.  The README's CLI lines must parse."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from setint.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, summary", [
    pytest.param(demo, summary, id=demo) for demo, summary in (
        ("convergence_rate", "log-log slope: "),
        ("convexification", "the finite defect (distance to the averaged set) decays like 1/n"),
        ("divergence_vs_hull", "  brute force : "),
    )
])
def test_demo_runs_to_its_summary(demo, summary):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(summary)


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["converged", "[0.0, 0.0, 0.0]"]


def _readme_cli_lines():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("setint ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_lines_parse(line):
    # parsed only: a removed or renamed command or option fails here
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert args.command == line.split()[1]
