"""Every demo script runs to completion against the installed sources."""

import os
import shlex
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs_as_python_m_priorcase(tmp_path):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```\n", 2)[1]
    commands = block.replace("\\\n", " ").replace("/tmp/", f"{tmp_path}/").splitlines()
    assert [shlex.split(c)[:2] for c in commands] == [
        ["priorcase", "index"], ["priorcase", "search"], ["priorcase", "eval"],
        ["priorcase", "compare"]]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    for command in commands:
        done = subprocess.run([sys.executable, "-m", *shlex.split(command)], cwd=REPO_ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (command, done.stderr)
    assert (tmp_path / "fused.run").is_file()
