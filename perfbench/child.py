"""One measured process: enter ``vpb_spectral.cli.main`` once and report.

    python3 child.py --src SRC --result FILE [--trace] -- CLI-ARGS

The parent (run.py) reads its clock just before launching this process, so
``main_at`` (taken immediately before ``cli.main`` is entered) measures
interpreter start plus imports.  ``--trace`` first wraps the package's
public functions (see spans.py).  The BLAS library and thread count are
read from the loaded OpenBLAS copies after the job, so reading them costs
the job nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time


def blas_libraries() -> list[dict]:
    """Each loaded OpenBLAS: file, build config and the threads it uses."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in os.path.basename(line.split()[-1]).lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"file": os.path.basename(path)}
        for key, base, restype in (("threads", "get_num_threads", ctypes.c_int),
                                   ("config", "get_config", ctypes.c_char_p),
                                   ("core", "get_corename", ctypes.c_char_p)):
            for name in (f"{pre}openblas_{base}{suf}"
                         for pre in ("", "scipy_") for suf in ("", "64_")):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    value = fn()
                    info[key] = value.decode() if isinstance(value, bytes) else value
                    break
        found.append(info)
    return found


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    from vpb_spectral import cli

    out: dict = {}
    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    out["main_at"] = time.monotonic()
    t0 = time.perf_counter()
    if recorder is None:
        rc = cli.main(cli_args)
    else:
        rc = recorder.call_root(cli.main, cli_args)
    out["job_s"] = time.perf_counter() - t0
    if recorder is not None:
        out["spans"] = recorder.spans
        out["untraced"] = recorder.missing

    import numpy
    import scipy

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
