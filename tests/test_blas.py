"""Scoped BLAS thread policy: pin, restore, no-op fallback, artifact bytes."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vpb_spectral
from vpb_spectral import blas
from vpb_spectral.blas import OpenBLAS, describe_policy, loaded_openblas, one_blas_thread

needs_openblas = pytest.mark.skipif(not loaded_openblas(),
                                    reason="no OpenBLAS loaded in this process")


@pytest.fixture
def two_threads():
    """Every loaded OpenBLAS at two threads, so a restore is observable."""
    libs = loaded_openblas()
    before = [lib.get_threads() for lib in libs]
    for lib in libs:
        lib.set_threads(2)
    yield libs
    for lib, threads in zip(libs, before):
        lib.set_threads(threads)


@needs_openblas
def test_every_copy_runs_one_thread_inside(two_threads):
    with one_blas_thread():
        assert [lib.get_threads() for lib in loaded_openblas()] == [1] * len(two_threads)


@needs_openblas
def test_counts_restored_on_normal_exit(two_threads):
    with one_blas_thread():
        pass
    assert [lib.get_threads() for lib in two_threads] == [2] * len(two_threads)


@needs_openblas
def test_counts_restored_after_exception(two_threads):
    with pytest.raises(RuntimeError, match="boom"):
        with one_blas_thread():
            raise RuntimeError("boom")
    assert [lib.get_threads() for lib in two_threads] == [2] * len(two_threads)


def test_fake_libraries_pinned_and_restored(monkeypatch):
    counts = {"a": 3, "b": 5}
    fakes = [OpenBLAS(path=f"/lib/lib{k}openblas.so",
                      get_threads=lambda k=k: counts[k],
                      set_threads=lambda n, k=k: counts.__setitem__(k, n))
             for k in counts]
    monkeypatch.setattr(blas, "loaded_openblas", lambda: fakes)
    with one_blas_thread():
        assert counts == {"a": 1, "b": 1}
    assert counts == {"a": 3, "b": 5}
    assert describe_policy() == ("BLAS: libaopenblas.so (3 threads), libbopenblas.so "
                                 "(5 threads); every job runs at 1 thread")


def test_nothing_found_is_a_silent_noop(monkeypatch, capsys):
    monkeypatch.setattr(blas, "loaded_openblas", lambda: [])
    with one_blas_thread():
        value = sum(range(10))
    assert value == 45
    assert capsys.readouterr() == ("", "")
    assert describe_policy() == "no OpenBLAS found; BLAS threads not managed"


SWEEP = "\n".join([
    "backend = synthetic",
    "max_degree = 6",
    "s_count = 4",
    "eps_list = 0.2, 0.1, 0.05",
    "t_max = 4.0",
    "n_layer = 3",
    "n_bulk = 6",
    "kind = generic",
    "subtract_layer = true",
    "",
])


def _artifacts(cfg, out, extra_env, subcommands=("converge", "spectrum")):
    """Bytes of every artifact the subcommands write; out is removed after."""
    src = str(Path(vpb_spectral.__file__).resolve().parents[1])
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for sub in subcommands:
        proc = subprocess.run(
            [sys.executable, "-m", "vpb_spectral", sub, "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    shutil.rmtree(out)
    return files


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # the out dir is part of the config digest, so both runs share one
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP, encoding="utf-8")
    out = tmp_path / "out"
    inherited = _artifacts(cfg, out, {})
    pinned = _artifacts(cfg, out, {"OPENBLAS_NUM_THREADS": "1"})
    assert len(inherited) == 3
    assert inherited == pinned


HARD_SPHERE = "backend = hard_sphere\nmax_degree = 8\ns_count = 3\neps_list = 0.2, 0.1\n"


def test_cold_and_warm_cache_runs_write_the_same_bytes(tmp_path):
    # the run that assembles into an empty cache and the run that reads the
    # entry back write one CSV, at two BLAS threads
    cfg = tmp_path / "hs.cfg"
    cfg.write_text(HARD_SPHERE, encoding="utf-8")
    env = {"OPENBLAS_NUM_THREADS": "2", "VPB_SPECTRAL_CACHE": str(tmp_path / "cache")}
    cold = _artifacts(cfg, tmp_path / "out", env, ("dispersion",))
    warm = _artifacts(cfg, tmp_path / "out", env, ("dispersion",))
    assert len(cold) == 1
    assert cold == warm


def test_hard_sphere_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # each thread count assembles into its own empty cache; the CSV, the
    # transport JSON and the cached operators agree byte for byte
    cfg = tmp_path / "hs.cfg"
    cfg.write_text(HARD_SPHERE, encoding="utf-8")
    runs = []
    for threads in ("1", "2"):
        cache = tmp_path / f"cache-{threads}"
        env = {"OPENBLAS_NUM_THREADS": threads, "VPB_SPECTRAL_CACHE": str(cache)}
        files = _artifacts(cfg, tmp_path / "out", env, ("dispersion", "transport"))
        files.update((p.name, p.read_bytes()) for p in cache.iterdir())
        runs.append(files)
    assert sorted(Path(name).suffix for name in runs[0]) == [".csv", ".json", ".vpbc",
                                                             ".vpbc"]
    assert runs[0] == runs[1]


REFUSED_JOB = """
import sys
import numpy as np
from vpb_spectral import build_basis, semigroup
from vpb_spectral.blas import loaded_openblas
from vpb_spectral.cli import main
from vpb_spectral.collision import synthetic_collision
from vpb_spectral.mode_operator import mode_operator

semigroup.COND_LIMIT = 0.0
before = len(loaded_openblas())
mode = mode_operator(synthetic_collision(build_basis(2)), 0.2, 0.5)
traj = semigroup.propagate_kinetic(mode, np.ones(mode.basis.dim, dtype=complex),
                                   np.linspace(0.0, 1.0, 3))
rc = main(sys.argv[1:])
print(traj.method, len(loaded_openblas()) - before,
      sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
sys.exit(rc)
"""


def test_refused_members_load_no_scipy(tmp_path):
    # the block exponential runs on numpy alone: a mode and a converge job
    # whose every member the eig path refuses load no scipy module, and so
    # no second OpenBLAS that a one_blas_thread() block would have to pin
    cfg = tmp_path / "job.cfg"
    cfg.write_text("backend = synthetic\nmax_degree = 3\ns_count = 4\n"
                   "eps_list = 0.2, 0.1, 0.05\nt_max = 4.0\nn_layer = 3\nn_bulk = 6\n"
                   "kind = generic\nsubtract_layer = true\n", encoding="utf-8")
    src = str(Path(vpb_spectral.__file__).resolve().parents[1])
    env = dict(os.environ, VPB_SPECTRAL_CACHE=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", REFUSED_JOB, "converge", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "expm 0 []"
