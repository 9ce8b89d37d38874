"""Smoke run of the bench script under scripts/, started as a user would."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_script_writes_its_schema(tmp_path):
    # the tiny mode runs every layer and every end-to-end job once on
    # degree-3 problems; the file is standard JSON with finite timings
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), str(out),
                           "--tiny", "--src", f"change={ROOT / 'src'}"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["schema"] == 1
    machine = report["machine"]
    assert {"python", "numpy", "scipy", "nproc", "cpu_model", "writes_bytecode",
            "openblas"} <= set(machine)
    assert all(lib["threads"] >= 1 for lib in machine["openblas"])
    tree = report["trees"]["change"]
    assert set(tree["layers"]) == {
        "build_basis_d3", "assemble_hard_sphere_d3", "sector_blocks", "eigen_blocks",
        "hydrodynamic_sweep", "propagate_kinetic", "propagate_axis_modes", "fluid_limit",
        "gamma_evaluator", "transport_levels", "basis_frames_d3", "sector_blocks_d3"}
    assert set(tree["end_to_end"]) == {"criterion_08_study", "check", "converge-generic-d6",
                                       "dispersion-hs-d8", "transport-hs-d6"}
    for part in ("layers", "end_to_end"):
        for fig in tree[part].values():
            assert fig["q1_s"] <= fig["median_s"] <= fig["q3_s"]
            assert all(math.isfinite(v) and v > 0 for v in fig["runs_s"])
