"""End-to-end benchmark of the vpb-spectral command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each measured job is one fresh
process (child.py) that calls ``vpb_spectral.cli.main`` for one subcommand
on a fixed config, so the package's module-level caches start empty as they
do for a command-line user.  Jobs run one at a time.  The BLAS environment
is passed through as the user has it; the library and the thread count it
actually uses are recorded instead.

--trace 0 repeats the job as often as fits in S seconds, and at least three
times, and reports the end-to-end metrics as medians over the jobs.  --trace 1 runs the job once untraced, once
traced and once traced with one BLAS thread, and reports per-layer metrics
from the spans (spans.py); the one-thread figures carry a ``1t.`` prefix.

Every job's artifacts are checked; their sha256 digests must agree between
all jobs at one BLAS thread count, within this run and with earlier runs in
the same checkout (kept in .perfbench/digests.json).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 1 when an output check failed, 2 when nothing could run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spans import layer_metrics

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
DEADLINE_S = 170.0         # the whole run must end within 180 s
MIN_JOBS = 3               # a median needs three samples, whatever --seconds says
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
KAPPA0_README = 0.0896     # README's hard-sphere shear coefficient


class BenchError(Exception):
    """The benchmark could not run the program at all."""


# ------------------------------------------------------------------ checks

def _rows(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def check_converge(files: dict) -> list[str]:
    problems = []
    header, rows = _rows(files["csv"])
    if len(rows) != 4 * 36:
        problems.append(f"converge CSV has {len(rows)} rows, expected 144")
    if not all(len(r) == len(header) and all(map(math.isfinite, r)) for r in rows):
        problems.append("converge CSV has a short or non-finite row")
    slope = json.loads(files["json"].read_text(encoding="utf-8")).get("eps_slope")
    if not isinstance(slope, float) or abs(slope - 1.0) > 0.15:
        problems.append(f"eps_slope {slope} outside 1 +- 0.15")
    return problems


def check_dispersion(files: dict) -> list[str]:
    problems = []
    header, rows = _rows(files["csv"])
    if len(rows) != 24 * 5:
        problems.append(f"dispersion CSV has {len(rows)} rows, expected 120")
    det, eig = header.index("det_residual"), header.index("eig_residual")
    if not all(all(map(math.isfinite, r)) for r in rows):
        problems.append("dispersion CSV has a non-finite value")
    worst_det = max((r[det] for r in rows), default=math.inf)
    worst_eig = max((r[eig] for r in rows), default=math.inf)
    if not worst_det <= 1e-8:
        problems.append(f"det_residual {worst_det:.3g} above tol 1e-8")
    if not worst_eig <= 1e-6:
        problems.append(f"eig_residual {worst_eig:.3g} above 1e-6")
    return problems


def check_transport(files: dict) -> list[str]:
    problems = []
    d = json.loads(files["json"].read_text(encoding="utf-8"))
    k0, k1, k0l, bar = d["kappa0"], d["kappa1"], d["kappa0_long"], d["error_bar"]
    if not (k0 > 0.0 and k1 > 0.0):
        problems.append(f"nonpositive coefficient kappa0={k0} kappa1={k1}")
    if not abs(k0l - 4.0 / 3.0 * k0) <= 1e-10 * abs(k0):
        problems.append(f"kappa0_long {k0l} is not 4/3 kappa0")
    if not abs(k0 - KAPPA0_README) <= bar:
        problems.append(f"kappa0 {k0} not within error_bar {bar} of {KAPPA0_README}")
    return problems


# --------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    subcommand: str
    config: dict
    artifacts: tuple        # artifact extensions the subcommand writes
    check: Callable[[dict], list]   # artifacts by extension -> problems
    warm_cache: bool        # fill the operator cache once before timing


DISPERSION_CONFIG = {
    "backend": "hard_sphere", "max_degree": "8", "s_min": "0.05", "s_max": "0.6",
    "s_count": "8", "s_spacing": "legendre", "eps_list": "0.2, 0.1, 0.05",
    "tol": "1e-8", "jobs": "1",
}

WORKLOADS = {
    # dense per-mode eig and propagate_kinetic; no root finding, no assembly
    "converge-generic-d6": Workload(
        "converge",
        {"backend": "synthetic", "max_degree": "6", "s_min": "0.05", "s_max": "0.6",
         "s_count": "32", "s_spacing": "legendre", "eps_list": "0.2, 0.1, 0.05, 0.025",
         "t_max": "20", "n_layer": "12", "n_bulk": "24", "kind": "generic",
         "subtract_layer": "true", "jobs": "1"},
        ("csv", "json"), check_converge, warm_cache=False),
    # certified root finding on deg-8 matrices; the operator comes from the cache
    "dispersion-hs-d8": Workload(
        "dispersion", DISPERSION_CONFIG, ("csv",), check_dispersion, warm_cache=True),
    # hard-sphere assembly at deg 6 and deg 8 into an empty cache
    "transport-hs-d6": Workload(
        "transport", {"backend": "hard_sphere", "max_degree": "6", "jobs": "1"},
        ("json",), check_transport, warm_cache=False),
}
# writes exactly the operator the dispersion workload reads, with two modes
FILL_CONFIG = dict(DISPERSION_CONFIG, s_count="2", eps_list="0.2")


def write_config(path: Path, config: dict, seed: int) -> None:
    """The seed permutes the lines; the parsed config, and so every artifact
    byte, is the same for every seed."""
    lines = [f"{k} = {v}" for k, v in config.items()]
    random.Random(seed).shuffle(lines)
    path.write_text(f"# seed {seed}\n" + "\n".join(lines) + "\n", encoding="utf-8")


# ------------------------------------------------------------------ running

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dir_digests(path: Path) -> dict:
    return {p.name: sha256(p) for p in sorted(path.iterdir())}


class Runner:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.src = root / "src"
        self.work = work
        self.deadline = deadline
        self.count = 0

    def launch(self, cli_args, cwd: Path, cache: Path, trace=False,
               env_extra=None) -> dict:
        """Run one child process; returns its report plus ``setup_s``.

        Raises BenchError with the reason when it fails or times out.
        """
        self.count += 1
        tag = self.work / f"p{self.count}"
        cmd = [sys.executable, str(CHILD), "--src", str(self.src),
               "--result", f"{tag}.json"]
        cmd += ["--trace"] if trace else []
        cmd += ["--", *cli_args]
        env = dict(os.environ)
        env["VPB_SPECTRAL_CACHE"] = str(cache)
        env.update(env_extra or {})
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before launch")
        with open(f"{tag}.log", "wb") as log:
            launched = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, cwd=cwd)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if rc != 0:
            tail = Path(f"{tag}.log").read_text(errors="replace").strip()[-600:]
            raise BenchError(f"{'timed out' if rc is None else f'exit {rc}'}: {tail}")
        report = json.loads(Path(f"{tag}.json").read_text(encoding="utf-8"))
        report["setup_s"] = report["main_at"] - launched
        return report

    def job(self, wl: Workload, config: Path, cache: Path | None,
            trace=False, env_extra=None) -> dict:
        """One measured job and its output check; never raises for a failed job.

    ``checked`` says the process ran to the end; ``ok`` that it also passed.
    """
        # the out directory is part of the config digest, which the artifacts
        # carry, so every job writes to the same relative "out"
        cwd = self.work / f"job{self.count + 1}"
        cwd.mkdir()
        out = cwd / "out"
        args = [wl.subcommand, "--config", str(config), "--out", "out"]
        try:
            rep = self.launch(args, cwd, cache=cache or cwd / "cache", trace=trace,
                              env_extra=env_extra)
        except BenchError as exc:
            return {"ok": False, "checked": False, "problems": [str(exc)]}
        files = {ext: sorted(out.glob(f"{wl.subcommand}-*.{ext}")) for ext in wl.artifacts}
        problems = [f"expected one .{ext} artifact, found {len(found)}"
                    for ext, found in files.items() if len(found) != 1]
        if not problems:
            files = {ext: found[0] for ext, found in files.items()}
            problems = wl.check(files)
            rep["digests"] = {ext: sha256(p) for ext, p in files.items()}
        shutil.rmtree(cwd, ignore_errors=True)
        rep.update(ok=not problems, checked=True, problems=problems)
        return rep


def blas_key(rep: dict) -> str:
    libs = rep["env"]["blas"]
    return "threads=" + ",".join(str(b.get("threads")) for b in libs) + \
        " core=" + ",".join(str(b.get("core")) for b in libs)


def source_hash(src: Path) -> str:
    """Digest of the package sources: runs of one code version share state."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(key: str, jobs: list, store: Path) -> list[str]:
    """Digests must agree per (workload, code, BLAS threads) in this run and
    across runs in this checkout."""
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    problems = []
    for rep in jobs:
        if "digests" not in rep:
            continue
        full = f"{key} {blas_key(rep)}"
        ref = known.setdefault(full, rep["digests"])
        if ref != rep["digests"]:
            problems.append(f"artifact digests {rep['digests']} differ from {ref} ({full})")
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store)
    return problems


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model}


# ----------------------------------------------------------------- metrics

def summary(values) -> str:
    vals = sorted(values)
    return (f"median {statistics.median(vals):.4f} min {vals[0]:.4f} "
            f"max {vals[-1]:.4f} n={len(vals)}")


def end_to_end(runner: Runner, wl: Workload, config: Path, cache, seconds: float):
    jobs, walls = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        jobs.append(runner.job(wl, config, cache))
        now = time.monotonic()
        walls.append(now - t0)
        if now + 1.5 * max(walls) > runner.deadline - 15.0:
            break
        # stop before a job that would end past --seconds
        if len(jobs) >= MIN_JOBS and now - start + statistics.median(walls) > seconds:
            break
    ran = [j for j in jobs if j["checked"]]
    metrics = {}
    if ran:
        setups = [j["setup_s"] for j in ran]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "job_s": (statistics.median(j["job_s"] for j in ran), "s"),
            "peak_rss_mb": (statistics.median(j["peak_rss_mb"] for j in ran), "MB"),
        }
        print(f"setup_s: {summary(setups)}")
        print(f"job_s: {summary(j['job_s'] for j in ran)}")
    return jobs, metrics


def traced(runner: Runner, wl: Workload, config: Path, cache):
    base = runner.job(wl, config, cache)
    main = runner.job(wl, config, cache, trace=True)
    single = runner.job(wl, config, cache, trace=True, env_extra=ONE_THREAD)
    jobs = [base, main, single]
    metrics = {}
    if main["checked"]:
        metrics = layer_metrics(main["spans"])
        metrics["trace.job_s"] = (main["job_s"], "s")
        metrics["trace.overhead_s"] = (
            main["job_s"] - base["job_s"] if base["checked"] else 0.0, "s")
        metrics["env.blas_threads"] = (
            max(b.get("threads", 0) for b in main["env"]["blas"]), "count")
        if main["untraced"]:
            print(f"warning: not traced (missing): {main['untraced']}", file=sys.stderr)
    if main["checked"] and single["checked"]:
        one = layer_metrics(single["spans"])
        metrics["1t.job_s"] = (single["job_s"], "s")
        for name, (value, unit) in one.items():
            if unit == "s":
                metrics[f"1t.{name}"] = (value, unit)
    return jobs, metrics


def warm_cache(runner: Runner, cache: Path, seed: int) -> Path:
    """The operator cache the dispersion workload reads, filled once per code
    version by a two-mode ``spectrum`` run of the same operator."""
    if not cache.is_dir():
        tmp = runner.work / "warm-cache"
        fill = runner.work / "fill.cfg"
        write_config(fill, FILL_CONFIG, seed)
        runner.launch(["spectrum", "--config", str(fill), "--out", "fill-out"],
                      runner.work, cache=tmp)
        os.replace(tmp, cache)
    return cache


# --------------------------------------------------------------------- main

def run(args, root: Path, work: Path) -> int:
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    runner = Runner(root, work, deadline)
    state = root / ".perfbench"
    code = source_hash(runner.src)
    config = work / "workload.cfg"
    write_config(config, wl.config, args.seed)

    cache = None
    snapshot = None
    if wl.warm_cache:
        cache = warm_cache(runner, state / f"warm-cache-{code}", args.seed)
        snapshot = dir_digests(cache)

    if args.trace:
        jobs, metrics = traced(runner, wl, config, cache)
    else:
        jobs, metrics = end_to_end(runner, wl, config, cache, args.seconds)
    if not metrics:
        reasons = "; ".join(p for j in jobs for p in j["problems"])
        raise BenchError(f"no successful job: {reasons}")

    problems = [p for j in jobs if j["checked"] for p in j["problems"]]
    problems += check_digests(f"{args.workload} code={code}", jobs, state / "digests.json")
    if snapshot is not None and dir_digests(cache) != snapshot:
        problems.append("the warm operator cache changed during the run")
    failed = sum(not j["ok"] for j in jobs)
    for p in (p for j in jobs if not j["checked"] for p in j["problems"]):
        print(f"job failed: {p}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    env = dict(next(j for j in jobs if j["checked"])["env"], **machine())
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "jobs": [{k: v for k, v in j.items() if k not in ("spans", "env")} for j in jobs],
        "metrics": reported,
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(jobs)} attempted, {failed} failed, failed_ratio {failed / len(jobs):.4f}")
    print("env: " + json.dumps(env, sort_keys=True))
    for j in jobs:
        if "digests" in j:
            print(f"digests [{blas_key(j)}]: {json.dumps(j['digests'], sort_keys=True)}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({"correct": not problems, "attempted": len(jobs),
                      "failed": failed, "metrics": reported}))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "vpb_spectral" / "cli.py").is_file():
        print("error: run from the root of a vpb-spectral checkout "
              "(src/vpb_spectral/cli.py not found)", file=sys.stderr)
        return 2
    # a terminated benchmark still kills and reaps its current child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=state))
    try:
        return run(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
