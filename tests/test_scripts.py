"""Smoke runs of what ships beside the package: the bench script under
scripts/, started as a user would, the imports of the other scripts that
read the test oracles, and README's quick start."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _src_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


def test_bench_script_writes_its_schema(tmp_path):
    # the tiny mode runs every layer and every end-to-end job once on
    # degree-3 problems; the file is standard JSON with finite timings
    env = _src_env()
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
        "import_cli", "build_basis_d3", "assemble_hard_sphere_d3", "assemble_hard_sphere_d4",
        "sector_blocks", "eigen_blocks",
        "hydrodynamic_sweep", "propagate_axis_modes", "fluid_limit",
        "gamma_evaluator", "transport_levels", "basis_frames_d3", "sector_blocks_d3"}
    assert set(tree["layer_rss"]) == {"import_cli"}
    fresh = {"import_cli", "check", "converge-generic-d6", "dispersion-hs-d8",
             "dispersion-hs-d14", "transport-hs-d6"}
    assert set(tree["end_to_end"]) == fresh | {"criterion_08_study"}
    # each fresh process's peak RSS, in MB, beside its wall time
    assert set(tree["peak_rss"]) == fresh
    for part, unit in (("layers", "s"), ("layer_rss", "mb"), ("end_to_end", "s"),
                       ("peak_rss", "mb")):
        for fig in tree[part].values():
            assert fig[f"q1_{unit}"] <= fig[f"median_{unit}"] <= fig[f"q3_{unit}"]
            assert all(math.isfinite(v) and v > 0 for v in fig[f"runs_{unit}"])
    # a job holds the interpreter, numpy and the package: more than a bare import
    assert all(1.0 < tree["peak_rss"]["import_cli"]["median_mb"] < fig["median_mb"]
               for name, fig in tree["peak_rss"].items() if name != "import_cli")


def test_oracle_scripts_imports_resolve():
    # Tier-1 runs none of these scripts: each one's imports and sys.path
    # lines run here, in a fresh process from the checkout's root with the
    # script's own __file__, so a moved module cannot break them unseen
    for name in ("measure_acceptance.py", "oracle_semigroup.py", "oracle_transport.py"):
        path = ROOT / "scripts" / name
        body = [node for node in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                or (isinstance(node, ast.Expr) and ast.unparse(node).startswith("sys.path"))]
        head = f"__file__ = {str(path)!r}\n" + ast.unparse(ast.Module(body=body, type_ignores=[]))
        proc = subprocess.run([sys.executable, "-c", head], cwd=ROOT, env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"{name}: {proc.stderr}"


def test_readme_quick_start_runs_as_written(capsys):
    # the python block of README.md, executed as it stands: five branch
    # points of one axis mode, each printed with its label
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = [b.split("\n", 1)[1] for b in text.split("```")[1::2] if b.startswith("python\n")]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [int(line.split()[0]) for line in lines] == [-1, 0, 1, 2, 3]
    assert all(complex(line.split()[1]).real < 0.0 for line in lines)
