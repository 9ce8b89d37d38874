"""Time the package layer by layer and end to end, and write BENCH_<n>.json.

    python3 scripts/bench.py BENCH_29.json
    python3 scripts/bench.py BENCH_29.json --src parent=../old/src --src change=src
    python3 scripts/bench.py smoke.json --tiny

Run from the root of a source checkout.  Each --src tree (default: this
checkout's src, labelled "change") is timed in fresh processes:

- layers, in one process per round, under one_blas_thread() as the jobs run:
  `import vpb_spectral.cli` (import_cli), each call a fresh interpreter that
  writes no bytecode and has imported numpy untimed, with the growth of its
  peak RSS over the import in the layer_rss part (VmHWM, the peak of the
  process image: ru_maxrss would start at the peak of the process that
  launched it, which it keeps across exec); build_basis and hard-sphere
  assembly (into an empty cache) at degrees 6 and 8, hard-sphere assembly
  alone at degree 14 (its Dirichlet sums are the assembly's largest cost),
  build_basis with its Burnett frames
  (axis_sectors) at degree 12,
  the transport job's kappas_with_error at degree 6 (into an empty
  cache), sector_blocks of the hard-sphere operator at degree 8 and of a
  synthetic one at degree 12 (each with its frames built beforehand), one
  axis mode's sector blocks formed and decomposed (axis_eigen_blocks),
  hydrodynamic_sweep over the dispersion workload's modes,
  propagate_axis_modes over one stack of 8 converge shells, the
  fluid limit of the converge workload (its 32 shells in stacks, generic data,
  five branches, four eps values, 36 times), and the GammaEvaluator build
  (from the tree's tests/oracles.py, or its package's oracles module);
  each the median of --repeats calls;
- end to end: the criterion-08 convergence study in that process, and
  `vpb-spectral check`, the three perfbench configurations, the perfbench
  dispersion configuration at degree 14 (dispersion-hs-d14) and
  `python -c "import vpb_spectral.cli"` (import_cli) as fresh processes
  (wall time, interpreter start included, and peak RSS from os.wait4); each
  dispersion job reads its own cache, filled once beforehand by perfbench's
  filling config at its degree, the others start from an empty one;
- with --tier1, the Tier-1 suite of the tree's checkout.

Every round times each tree in turn, each tree leading in turn, so the
trees share the host's drift; a figure is the median over --rounds rounds,
with its quartiles.  The file
records Python, numpy, scipy, nproc, the CPU model, each loaded OpenBLAS
with its thread count, and whether bytecode is written.  --tiny runs every
step on degree-3 problems (the degree-14 assembly at degree 4), once, in a few
seconds.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EPS4 = [0.2, 0.1, 0.05, 0.025]
# each part's figures and their unit
UNITS = {"layers": "s", "layer_rss": "mb", "end_to_end": "s", "peak_rss": "mb"}
# one fresh interpreter's wall time of the package's import and its peak RSS growth (MB)
IMPORT_CLI = "\n".join([
    "import time",
    "import numpy",
    "def peak_kb():",
    "    with open('/proc/self/status', encoding='utf-8') as fh:",
    "        return next(int(ln.split()[1]) for ln in fh if ln.startswith('VmHWM:'))",
    "rss = peak_kb()",
    "t0 = time.perf_counter()",
    "import vpb_spectral.cli",
    "wall = time.perf_counter() - t0",
    "print(wall, (peak_kb() - rss) / 1024.0)"])


def _perfbench_workloads() -> dict:
    """perfbench's workloads, and its dispersion workload at degree 14, each as
    (subcommand, config, the config that fills its warm cache or None for an
    empty cache); read from perfbench/run.py without writing bytecode into
    perfbench/."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    jobs = {name: (wl.subcommand, wl.config, run.FILL_CONFIG if wl.warm_cache else None)
            for name, wl in run.WORKLOADS.items()}
    sub, config, fill = jobs["dispersion-hs-d8"]
    jobs["dispersion-hs-d14"] = (sub, dict(config, max_degree="14"),
                                 dict(fill, max_degree="14"))
    return jobs


def _median(fn, repeats: int, setup=lambda: None) -> float:
    """Median wall time of fn(setup()) over repeats calls; setup is not timed."""
    times = []
    for _ in range(repeats):
        arg = setup()
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ------------------------------------------------------------ in process

def _import_cli(repeats: int) -> tuple[float, float]:
    """Medians over repeats fresh interpreters, each writing no bytecode, of
    the wall time (s) of `import vpb_spectral.cli` after numpy and of the
    growth of peak RSS (MB) over it."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    runs = [subprocess.run([sys.executable, "-c", IMPORT_CLI], env=env, capture_output=True,
                           text=True, check=True).stdout.split() for _ in range(repeats)]
    return (statistics.median(float(wall) for wall, _ in runs),
            statistics.median(float(rss) for _, rss in runs))


def _gamma_evaluator():
    """GammaEvaluator of the tree on sys.path: from its checkout's tests/, or
    from the package in a tree that still ships vpb_spectral.oracles."""
    import vpb_spectral

    tests = Path(vpb_spectral.__file__).resolve().parents[2] / "tests"
    if not (tests / "oracles.py").exists():
        from vpb_spectral.oracles import GammaEvaluator
        return GammaEvaluator
    sys.path.insert(0, str(tests))
    from oracles import GammaEvaluator
    return GammaEvaluator


def child(tiny: bool, repeats: int) -> dict:
    """The in-process figures of the tree on sys.path, and its environment."""
    import numpy as np

    from vpb_spectral import blas, limit_lab
    from vpb_spectral.collision import assemble_collision, synthetic_collision
    from vpb_spectral.dispersion import R0_DEFAULT, hydrodynamic_sweep, shell_coefficients
    from vpb_spectral.limit_lab import (layer_time_grid, make_initial_data, radial_grid,
                                        run_convergence_study)
    from vpb_spectral.mode_operator import axis_eigen_blocks
    from vpb_spectral.semigroup import propagate_axis_modes
    from vpb_spectral.transport import compute_kappas, kappas_with_error
    from vpb_spectral.velocity_space import build_basis

    GammaEvaluator = _gamma_evaluator()
    small, large = (3, 3) if tiny else (6, 8)
    shells = 6 if tiny else 32
    out = {}
    out["import_cli"], import_rss = _import_cli(repeats)

    def empty_cache():
        os.environ["VPB_SPECTRAL_CACHE"] = tempfile.mkdtemp(dir=scratch)

    with tempfile.TemporaryDirectory() as scratch, blas.one_blas_thread():
        for deg in sorted({small, large}):
            out[f"build_basis_d{deg}"] = _median(lambda _: build_basis(deg), repeats)
            basis = build_basis(deg)
            out[f"assemble_hard_sphere_d{deg}"] = _median(
                lambda _: assemble_collision(basis), repeats, empty_cache)
        sums_deg = 4 if tiny else 14
        sums_basis = build_basis(sums_deg)
        out[f"assemble_hard_sphere_d{sums_deg}"] = _median(
            lambda _: assemble_collision(sums_basis), repeats, empty_cache)
        frames_deg = 3 if tiny else 12
        out[f"basis_frames_d{frames_deg}"] = _median(
            lambda _: build_basis(frames_deg).axis_sectors, repeats)
        out["transport_levels"] = _median(lambda _: kappas_with_error(3 if tiny else 6),
                                          repeats, empty_cache)
        hard = assemble_collision(build_basis(large))  # the cache now holds it

        def framed(op):
            op.basis.axis_sectors  # the frames, which basis_frames times, stay untimed
            return op
        out["sector_blocks"] = _median(
            lambda op: op.sector_blocks, repeats,
            lambda: framed(assemble_collision(build_basis(large))))
        blocks_deg = 3 if tiny else 12
        out[f"sector_blocks_d{blocks_deg}"] = _median(
            lambda op: op.sector_blocks, repeats,
            lambda: framed(synthetic_collision(build_basis(blocks_deg))))
        out["eigen_blocks"] = _median(
            lambda _: [(b.vecs, b.cond)
                       for b in axis_eigen_blocks(hard, 0.03, 0.3, [True] * (large + 1))],
            repeats)
        pairs = [(eps, float(s)) for eps in (0.2, 0.1, 0.05)
                 for s in radial_grid(0.05, 0.6, 8).nodes if eps * s <= R0_DEFAULT]
        out["hydrodynamic_sweep"] = _median(lambda _: hydrodynamic_sweep(hard, pairs), repeats)

        syn = synthetic_collision(build_basis(small))
        coeffs = compute_kappas(syn)
        grid = radial_grid(0.05, 0.6, shells)
        profile = lambda s: math.exp(-s * s / 0.08)
        generic = make_initial_data("generic", profile, syn.basis, grid)
        times = layer_time_grid(max(EPS4), 20.0, 12, 24)
        stack = slice(0, min(8, shells))
        f0 = syn.basis.macro_project(generic.profile[stack])
        s, g = grid.nodes[stack].tolist(), syn.basis.axis_sectors.coordinates(f0)
        out["propagate_axis_modes"] = _median(
            lambda _: propagate_axis_modes(syn, EPS4, s, g, times), repeats)
        u, branches = syn.basis.macro_project(generic.profile), (0, 2, 3, -1, 1)
        size = limit_lab.SHELLS_PER_STACK
        out["fluid_limit"] = _median(lambda _: [shell_coefficients(
            syn.basis, grid.nodes[k:k + size], coeffs).evolve(
            syn.basis, u[k:k + size], times, branches, EPS4) for k in range(0, shells, size)],
            repeats)
        gamma_basis = build_basis(3 if tiny else 4)
        out["gamma_evaluator"] = _median(lambda _: GammaEvaluator(gamma_basis, 1.0, 1.0),
                                         repeats)

        prepared = make_initial_data("well_prepared", profile, syn.basis, grid)
        study = _median(lambda _: run_convergence_study(syn, prepared, EPS4, times, coeffs),
                        repeats)

    import scipy
    import scipy.linalg  # loads scipy's own OpenBLAS, recorded below with numpy's

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "writes_bytecode": not sys.dont_write_bytecode,
           "openblas": [{"library": os.path.basename(lib.path), "threads": lib.get_threads()}
                        for lib in blas.loaded_openblas()]}
    return {"layers": out, "layer_rss": {"import_cli": import_rss},
            "criterion_08_study": study, "env": env}


# ------------------------------------------------------------ processes

def _fresh(src: Path, argv: list, cache: Path, cwd: Path) -> tuple[float, float]:
    """Wall time (s) and peak RSS (MB, the child's ru_maxrss from os.wait4)
    of `python argv` as a fresh process on src."""
    env = dict(os.environ, PYTHONPATH=str(src), VPB_SPECTRAL_CACHE=str(cache))
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        if proc.returncode != 0:
            err.seek(0)
            tail = err.read().decode(errors="replace").strip()[-300:]
            raise SystemExit(f"{' '.join(argv[:3])} failed on {src}: {tail}")
    return wall, usage.ru_maxrss / 1024.0


def _cli(src: Path, args: list, cache: Path, cwd: Path) -> tuple[float, float]:
    return _fresh(src, ["-m", "vpb_spectral", *args], cache, cwd)


def _tiny(config: dict) -> dict:
    return dict(config, max_degree="3", **({"s_count": "6"} if "s_count" in config else {}))


def end_to_end(src: Path, work: Path, tiny: bool, workloads, warm: Path) -> dict:
    """(wall time, peak RSS) of each command-line job on src and of the bare
    import of its command line, as fresh processes.  A job with a filling
    config reads warm/<job>, filled by a spectrum run the first time."""
    def config(name: str, values: dict) -> Path:
        path = work / f"{name}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        return path

    out = {"import_cli": _fresh(src, ["-c", "import vpb_spectral.cli"], work, work)}
    check = ["check"] + (["--config", str(config("check", _tiny({})))] if tiny else [])
    out["check"] = _cli(src, check, Path(tempfile.mkdtemp(dir=work)), work)
    for name, (sub, values, fill) in workloads.items():
        cfg = config(name, _tiny(values) if tiny else values)
        cache = warm / name if fill else Path(tempfile.mkdtemp(dir=work))
        if fill and not cache.exists():
            cache.mkdir()
            fill_cfg = config(f"{name}-fill", _tiny(fill) if tiny else fill)
            _cli(src, ["spectrum", "--config", str(fill_cfg), "--out", "fill"], cache, work)
        out[name] = _cli(src, [sub, "--config", str(cfg), "--out", "out"], cache, work)
    return out


def _quartiles(runs: list, unit: str = "s") -> dict:
    q1, med, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                   if len(runs) > 1 else runs * 3)
    return {f"median_{unit}": med, f"q1_{unit}": q1, f"q3_{unit}": q3, f"runs_{unit}": runs}


def _revision(src: Path):
    """The git revision of src's checkout, with "+changes" when its tree differs."""
    git = ["git", "-C", str(src)]
    head = subprocess.run(git + ["rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return None
    dirty = subprocess.run(git + ["status", "--porcelain", "--", "."], capture_output=True,
                           text=True).stdout.strip()
    return head.stdout.strip() + ("+changes" if dirty else "")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="the JSON file to write, e.g. BENCH_29.json")
    ap.add_argument("--src", action="append", metavar="LABEL=DIR",
                    help="a source tree to time (repeatable); default change=src")
    ap.add_argument("--repeats", type=int, default=5, help="calls per layer and round")
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--tiny", action="store_true", help="degree-3 problems, one call each")
    ap.add_argument("--tier1", action="store_true", help="also time each tree's Tier-1 suite")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.tiny:
        args.repeats = args.rounds = 1
    if args.child:
        print(json.dumps(child(args.tiny, args.repeats)))
        return 0

    trees = {}
    for spec in args.src or ["change=src"]:
        label, _, path = spec.rpartition("=")
        trees[label or path] = Path(path).resolve()
    workloads = _perfbench_workloads()
    runs = {label: {part: {} for part in UNITS} for label in trees}
    env = None
    with tempfile.TemporaryDirectory() as tmp:
        warm = {label: Path(tmp) / f"warm-{i}" for i, label in enumerate(trees)}
        for path in warm.values():
            path.mkdir()
        for r in range(args.rounds):
            turn = list(trees.items())  # each tree leads a round in turn
            for label, src in turn[r % len(turn):] + turn[:r % len(turn)]:
                proc = subprocess.run(
                    [sys.executable, __file__, str(args.out), "--child",
                     "--repeats", str(args.repeats)] + (["--tiny"] if args.tiny else []),
                    env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
                if proc.returncode != 0:
                    raise SystemExit(f"in-process layers failed on {src}: {proc.stderr[-500:]}")
                got = json.loads(proc.stdout)
                env = env or got["env"]
                for part in ("layers", "layer_rss"):
                    for name, value in got[part].items():
                        runs[label][part].setdefault(name, []).append(value)
                runs[label]["end_to_end"].setdefault("criterion_08_study", []).append(
                    got["criterion_08_study"])
                with tempfile.TemporaryDirectory(dir=tmp) as work:
                    jobs = end_to_end(src, Path(work), args.tiny, workloads, warm[label])
                for name, (wall, rss) in jobs.items():
                    runs[label]["end_to_end"].setdefault(name, []).append(wall)
                    runs[label]["peak_rss"].setdefault(name, []).append(rss)
        for label, src in trees.items():
            if args.tier1:
                t0 = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                                       "no:cacheprovider"], cwd=src.parent,
                                      env=dict(os.environ, PYTHONPATH=str(src)),
                                      capture_output=True, text=True)
                if proc.returncode != 0:
                    raise SystemExit(f"Tier-1 failed on {src}: {proc.stdout[-500:]}")
                runs[label]["end_to_end"]["tier1_suite"] = [time.perf_counter() - t0]

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    report = {
        "schema": 1,
        "machine": dict(env, nproc=len(os.sched_getaffinity(0)), cpu_model=model,
                        blas_threads_in_jobs=1),
        "settings": {"repeats": args.repeats, "rounds": args.rounds, "tiny": args.tiny},
        "trees": {label: {"revision": _revision(trees[label]),
                          **{part: {name: _quartiles(values, UNITS[part])
                                    for name, values in figures.items()}
                             for part, figures in runs[label].items()}}
                  for label in trees},
    }
    args.out.write_text(json.dumps(report, indent=1, allow_nan=False) + "\n", encoding="utf-8")
    for label, tree in report["trees"].items():
        for part, unit in UNITS.items():
            scale, shown = (1e3, "ms") if unit == "s" else (1.0, "MB")
            for name, fig in tree[part].items():
                print(f"{label:>8} {part:<10} {name:<28} {fig[f'median_{unit}'] * scale:9.2f} "
                      f"{shown} [{fig[f'q1_{unit}'] * scale:.2f}, {fig[f'q3_{unit}'] * scale:.2f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
