"""Time the package layer by layer and end to end, and write BENCH_<n>.json.

    python3 scripts/bench.py BENCH_29.json
    python3 scripts/bench.py BENCH_29.json --src parent=../old/src --src change=src
    python3 scripts/bench.py smoke.json --tiny

Run from the root of a source checkout.  Each --src tree (default: this
checkout's src, labelled "change") is timed in fresh processes:

- layers, in one process per round, under one_blas_thread() as the jobs run:
  build_basis and hard-sphere assembly (into an empty cache) at degrees 6
  and 8, build_basis with its Burnett frames (axis_sectors) at degree 12,
  the transport job's kappas_with_error at degree 6 (into an empty
  cache), sector_blocks of the hard-sphere operator at degree 8 and of a
  synthetic one at degree 12 (each with its frames built beforehand), one
  axis mode's eigen_blocks decomposed,
  hydrodynamic_sweep over the dispersion workload's modes, propagate_kinetic
  on one mode, propagate_axis_modes over one stack of 8 converge shells, the
  fluid limit of the converge workload (its 32 shells in stacks, generic data,
  five branches, four eps values, 36 times), and the GammaEvaluator build;
  each the median of --repeats calls;
- end to end: the criterion-08 convergence study in that process, and
  `vpb-spectral check` and the three perfbench configurations as fresh
  command-line processes (wall time, interpreter start included); the
  dispersion job reads a cache filled once beforehand, the others start
  from an empty one;
- with --tier1, the Tier-1 suite of the tree's checkout.

Every round times each tree in turn, each tree leading in turn, so the
trees share the host's drift; a figure is the median over --rounds rounds,
with its quartiles.  The file
records Python, numpy, scipy, nproc, the CPU model, each loaded OpenBLAS
with its thread count, and whether bytecode is written.  --tiny runs every
step on degree-3 problems, once, in a few seconds.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
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


def _perfbench_workloads():
    """perfbench's workload configs and its cache-filling config, read from
    perfbench/run.py without writing bytecode into perfbench/."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return {name: (wl.subcommand, wl.config, wl.warm_cache)
            for name, wl in run.WORKLOADS.items()}, run.FILL_CONFIG


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

def child(tiny: bool, repeats: int) -> dict:
    """The in-process figures of the tree on sys.path, and its environment."""
    import numpy as np

    from vpb_spectral import blas, dispersion, limit_lab
    from vpb_spectral.collision import assemble_collision, synthetic_collision
    try:
        from vpb_spectral.oracles import GammaEvaluator
    except ImportError:  # a tree from before the oracles module
        from vpb_spectral.collision import GammaEvaluator
    from vpb_spectral.dispersion import R0_DEFAULT, hydrodynamic_sweep
    from vpb_spectral.limit_lab import (layer_time_grid, make_initial_data, radial_grid,
                                        run_convergence_study)
    from vpb_spectral.mode_operator import mode_operator
    from vpb_spectral.semigroup import propagate_axis_modes, propagate_kinetic
    from vpb_spectral.transport import compute_kappas, kappas_with_error
    from vpb_spectral.velocity_space import build_basis

    small, large = (3, 3) if tiny else (6, 8)
    shells = 6 if tiny else 32
    out = {}

    def empty_cache():
        os.environ["VPB_SPECTRAL_CACHE"] = tempfile.mkdtemp(dir=scratch)

    with tempfile.TemporaryDirectory() as scratch, blas.one_blas_thread():
        for deg in sorted({small, large}):
            out[f"build_basis_d{deg}"] = _median(lambda _: build_basis(deg), repeats)
            basis = build_basis(deg)
            out[f"assemble_hard_sphere_d{deg}"] = _median(
                lambda _: assemble_collision(basis), repeats, empty_cache)
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
            lambda mode: [(b.vecs, b.cond) for b in mode.eigen_blocks()], repeats,
            lambda: mode_operator(hard, 0.1, np.array([0.3, 0.0, 0.0])))
        pairs = [(eps, float(s)) for eps in (0.2, 0.1, 0.05)
                 for s in radial_grid(0.05, 0.6, 8).nodes if eps * s <= R0_DEFAULT]
        out["hydrodynamic_sweep"] = _median(lambda _: hydrodynamic_sweep(hard, pairs), repeats)

        syn = synthetic_collision(build_basis(small))
        coeffs = compute_kappas(syn)
        grid = radial_grid(0.05, 0.6, shells)
        profile = lambda s: math.exp(-s * s / 0.08)
        generic = make_initial_data("generic", profile, syn.basis, grid)
        times = layer_time_grid(max(EPS4), 20.0, 12, 24)
        out["propagate_kinetic"] = _median(
            lambda mode: propagate_kinetic(mode, generic.profile[3], times), repeats,
            lambda: mode_operator(syn, 0.1, np.array([float(grid.nodes[3]), 0.0, 0.0])))
        stack = slice(0, min(8, shells))
        f0 = syn.basis.macro_project(generic.profile[stack])
        s = grid.nodes[stack].tolist()
        params = inspect.signature(propagate_axis_modes).parameters
        if "g" in params:
            g = syn.basis.axis_sectors.coordinates(f0)
            # a tree that integrates refused members takes their data f0 too
            data = (f0, g) if "f0" in params else (g,)
            axis = lambda _: propagate_axis_modes(syn, EPS4, s, *data, times)
        else:  # a tree that takes one shell per call
            axis = lambda _: [propagate_axis_modes(syn, EPS4, sk, fk, times)
                              for sk, fk in zip(s, f0)]
        out["propagate_axis_modes"] = _median(axis, repeats)
        u, branches = syn.basis.macro_project(generic.profile), (0, 2, 3, -1, 1)
        if hasattr(dispersion, "shell_coefficients"):
            size = limit_lab.SHELLS_PER_STACK
            # a tree whose library modes may lie off the axis takes their direction
            axis = ([1.0, 0.0, 0.0],) if "direction" in inspect.signature(
                dispersion.shell_coefficients).parameters else ()
            fluid = lambda _: [dispersion.shell_coefficients(
                syn.basis, grid.nodes[k:k + size], *axis, coeffs).evolve(
                syn.basis, u[k:k + size], times, branches, EPS4) for k in range(0, shells, size)]
        else:  # a tree that evolves one shell per call
            fluid = lambda _: [dispersion.asymptotic_coefficients(
                syn.basis, float(sk), coeffs).evolve(syn.basis, uk, times, branches, EPS4)
                for sk, uk in zip(grid.nodes, u)]
        out["fluid_limit"] = _median(fluid, repeats)
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
    return {"layers": out, "criterion_08_study": study, "env": env}


# ------------------------------------------------------------ processes

def _cli(src: Path, args: list, cache: Path, cwd: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(src), VPB_SPECTRAL_CACHE=str(cache))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "vpb_spectral", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args[:1])} failed on {src}: {proc.stderr.strip()[-300:]}")
    return wall


def _tiny(config: dict) -> dict:
    return dict(config, max_degree="3", **({"s_count": "6"} if "s_count" in config else {}))


def end_to_end(src: Path, work: Path, tiny: bool, workloads, fill, warm: Path) -> dict:
    """Wall time of each command-line job on src, as fresh processes."""
    def config(name: str, values: dict) -> Path:
        path = work / f"{name}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        return path

    out = {}
    check = ["check"] + (["--config", str(config("check", _tiny({})))] if tiny else [])
    out["check"] = _cli(src, check, Path(tempfile.mkdtemp(dir=work)), work)
    for name, (sub, values, warm_cache) in workloads.items():
        cfg = config(name, _tiny(values) if tiny else values)
        if warm_cache and not any(warm.iterdir()):
            fill_cfg = config("fill", _tiny(fill) if tiny else fill)
            _cli(src, ["spectrum", "--config", str(fill_cfg), "--out", "fill"], warm, work)
        cache = warm if warm_cache else Path(tempfile.mkdtemp(dir=work))
        out[name] = _cli(src, [sub, "--config", str(cfg), "--out", "out"], cache, work)
    return out


def _quartiles(runs: list) -> dict:
    q1, med, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                   if len(runs) > 1 else runs * 3)
    return {"median_s": med, "q1_s": q1, "q3_s": q3, "runs_s": runs}


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
    workloads, fill = _perfbench_workloads()
    runs = {label: {"layers": {}, "end_to_end": {}} for label in trees}
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
                for name, value in got["layers"].items():
                    runs[label]["layers"].setdefault(name, []).append(value)
                jobs = {"criterion_08_study": got["criterion_08_study"]}
                with tempfile.TemporaryDirectory(dir=tmp) as work:
                    jobs.update(end_to_end(src, Path(work), args.tiny, workloads, fill,
                                           warm[label]))
                for name, value in jobs.items():
                    runs[label]["end_to_end"].setdefault(name, []).append(value)
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
                          **{part: {name: _quartiles(values) for name, values in figures.items()}
                             for part, figures in runs[label].items()}}
                  for label in trees},
    }
    args.out.write_text(json.dumps(report, indent=1, allow_nan=False) + "\n", encoding="utf-8")
    for label, tree in report["trees"].items():
        for part in ("layers", "end_to_end"):
            for name, fig in tree[part].items():
                print(f"{label:>8} {part:<10} {name:<28} {fig['median_s'] * 1e3:9.2f} ms "
                      f"[{fig['q1_s'] * 1e3:.2f}, {fig['q3_s'] * 1e3:.2f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
