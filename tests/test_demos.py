"""Smoke test: every narrative script in demos/ and the README's examples
run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from robust_stability import harness

ROOT = Path(__file__).resolve().parents[1]


def run_python(args):
    """python args from the repo root with src/ on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def readme_blocks(lang):
    """The README's fenced code blocks of one language, in order."""
    text = (ROOT / "README.md").read_text()
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


@pytest.mark.parametrize(
    "script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs(script):
    proc = run_python([str(script)])
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs():
    (example,) = readme_blocks("python")
    proc = run_python(["-c", example])
    assert proc.returncode == 0, proc.stderr


def test_readme_problem_file_gives_constants(tmp_path, capsys):
    (problem,) = [b for b in readme_blocks("json") if '"constraints"' in b]
    path = tmp_path / "problem.json"
    path.write_text(problem)
    assert harness.cli(["constants", str(path)]) == 0, capsys.readouterr().out
