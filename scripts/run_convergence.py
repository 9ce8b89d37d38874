"""Kinetic-to-fluid convergence rates for both data preparations.

Runs the weighted-sup convergence study for well-prepared data, generic
data, and generic data with the oscillation part removed, then prints the
fitted eps-slopes side by side.

Example:
    python3 scripts/run_convergence.py --degree 6 --shells 32 \
        --eps 0.2 0.1 0.05 0.025
"""

import argparse
import math
import time

from vpb_spectral.blas import describe_policy, one_blas_thread
from vpb_spectral.collision import assemble_collision, synthetic_collision
from vpb_spectral.limit_lab import (
    layer_time_grid,
    make_initial_data,
    radial_grid,
    run_convergence_study,
)
from vpb_spectral.transport import compute_kappas
from vpb_spectral.velocity_space import build_basis


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--backend", default="synthetic",
                    choices=("synthetic", "hard_sphere"))
    ap.add_argument("--degree", type=int, default=6)
    ap.add_argument("--shells", type=int, default=32)
    ap.add_argument("--eps", type=float, nargs="+",
                    default=[0.2, 0.1, 0.05, 0.025])
    ap.add_argument("--t-max", type=float, default=20.0)
    ap.add_argument("--sigma", type=float, default=0.2,
                    help="Gaussian width of the radial profile")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    basis = build_basis(args.degree)
    op = synthetic_collision(basis) if args.backend == "synthetic" \
        else assemble_collision(basis)
    coeffs = compute_kappas(op)
    grid = radial_grid(0.05, 0.6, args.shells)
    times = layer_time_grid(max(args.eps), args.t_max)
    sig2 = 2.0 * args.sigma ** 2
    profile = lambda s: math.exp(-s * s / sig2)

    runs = (
        ("well_prepared", "well_prepared", False),
        ("generic", "generic", False),
        ("generic - oscillation", "generic", True),
    )
    print(f"# backend={args.backend} degree={args.degree} shells={args.shells} "
          f"eps={args.eps}")
    print(f"# {describe_policy()}")
    for label, kind, subtract in runs:
        t0 = time.perf_counter()
        data = make_initial_data(kind, profile, basis, grid)
        with one_blas_thread():
            table = run_convergence_study(op, data, list(args.eps), times, coeffs,
                                          subtract_layer=subtract, jobs=args.jobs)
        meta = table.metadata
        sups = ", ".join(f"{float(k):.3g}: {v:.4e}"
                         for k, v in meta["weighted_sup"].items())
        print(f"{label:>22}: slope={meta['eps_slope']:.4f} "
              f"weight=(1+t)^{meta['weight_exponent']} "
              f"[{time.perf_counter() - t0:.1f}s]")
        print(f"{'':>22}  sup {sups}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
