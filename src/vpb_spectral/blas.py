"""Scoped BLAS thread policy: every job runs on one thread.

Per-mode matrices have a few dozen to a few hundred rows; at that size
OpenBLAS threads cost far more in synchronisation than they save, and on 2
vCPUs hard-sphere assembly is no faster on two threads than on one.  The
one_blas_thread() block pins every loaded OpenBLAS to one thread and gives
each its previous count back on exit.  Each command-line job runs inside it,
operator assembly included, so an operator and every artifact computed from
it do not depend on the thread count or the cache state.  Libraries are
found in /proc/self/maps and driven through ctypes; where none is found
(another BLAS vendor, a system without /proc) the block runs unchanged.  Every
job runs on numpy alone and loads only numpy's OpenBLAS: no path in the package
that does BLAS work imports scipy, whose own copy a block entered earlier
would leave unpinned.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class OpenBLAS:
    """One loaded OpenBLAS copy and its thread-count entry points."""

    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _entry(lib: ctypes.CDLL, base: str):
    # scipy-openblas wheels prefix (and, for ILP64, suffix) every symbol
    for name in (f"{pre}openblas_{base}{suf}"
                 for pre in ("scipy_", "") for suf in ("64_", "")):
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def loaded_openblas() -> list[OpenBLAS]:
    """Every OpenBLAS mapped into this process, sorted by path."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            mapped = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return []
    found = []
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get, put = _entry(lib, "get_num_threads"), _entry(lib, "set_num_threads")
        if get is None or put is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        found.append(OpenBLAS(path=path, get_threads=get, set_threads=put))
    return found


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS at one thread; restore after."""
    saved = [(lib, lib.get_threads()) for lib in loaded_openblas()]
    for lib, _ in saved:
        lib.set_threads(1)
    try:
        yield
    finally:
        for lib, threads in saved:
            lib.set_threads(threads)


def describe_policy() -> str:
    """One line naming each OpenBLAS found, its thread count, and the policy."""
    libs = loaded_openblas()
    if not libs:
        return "no OpenBLAS found; BLAS threads not managed"
    found = ", ".join(f"{os.path.basename(lib.path)} ({lib.get_threads()} threads)"
                      for lib in libs)
    return f"BLAS: {found}; every job runs at 1 thread"
