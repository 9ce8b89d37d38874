"""Smoke runs of the runner scripts under scripts/, started as a user would."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, rows", [
    # a header and five branch rows per s
    ("run_dispersion_sweep.py",
     ["--degree", "3", "--eps", "0.1", "--s-min", "0.2", "--s-max", "0.6", "--count", "2"], 11),
    # a slope row and a sup row per data preparation
    ("run_convergence.py",
     ["--degree", "3", "--shells", "4", "--eps", "0.2", "0.1", "0.05", "--t-max", "1"], 6),
], ids=["run_dispersion_sweep", "run_convergence"])
def test_runner_script_runs_on_a_tiny_synthetic_config(script, args, rows, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           "--backend", "synthetic", *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "backend=synthetic degree=3" in proc.stdout
    assert len([line for line in proc.stdout.splitlines() if not line.startswith("#")]) == rows
