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
                                 "(5 threads); per-mode stages run at 1 thread")


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


def _artifacts(cfg, out, extra_env):
    """Bytes of every converge and spectrum artifact; out is removed after."""
    src = str(Path(vpb_spectral.__file__).resolve().parents[1])
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for sub in ("converge", "spectrum"):
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


ODE_THREADS = """
import sys
import numpy as np
from vpb_spectral import build_basis, semigroup
from vpb_spectral.blas import loaded_openblas, one_blas_thread
from vpb_spectral.collision import synthetic_collision
from vpb_spectral.mode_operator import mode_operator

seen = []

def spy(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "rhs" and not seen:
        seen.append([lib.get_threads() for lib in loaded_openblas()])

semigroup.COND_LIMIT = 0.0
mode = mode_operator(synthetic_collision(build_basis(2)), 0.2, 0.5)
f0 = np.ones(mode.basis.dim, dtype=complex)
with one_blas_thread():
    sys.setprofile(spy)
    traj = semigroup.propagate_kinetic(mode, f0, np.linspace(0.0, 1.0, 3))
    sys.setprofile(None)
print(traj.method, seen)
"""


@needs_openblas
def test_ode_fallback_pins_the_openblas_scipy_loads():
    # the block starts with numpy's OpenBLAS alone; scipy's copy is loaded
    # by the fallback's import, at the two threads the environment asks for
    src = str(Path(vpb_spectral.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", ODE_THREADS], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    method, seen = proc.stdout.strip().split(" ", 1)
    assert method == "ode"
    assert seen == "[[1, 1]]"
