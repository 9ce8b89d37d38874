"""Sweep the hydrodynamic branches in s and print asymptotic residuals.

Example:
    python3 scripts/run_dispersion_sweep.py --backend synthetic --degree 4 \
        --eps 0.1 0.05 --s-max 1.0 --count 12
"""

import argparse

import numpy as np

from vpb_spectral.blas import describe_policy, one_blas_thread
from vpb_spectral.collision import assemble_collision, synthetic_collision
from vpb_spectral.dispersion import R0_DEFAULT, hydrodynamic_sweep
from vpb_spectral.transport import asymptotic_eigenvalue, compute_kappas
from vpb_spectral.velocity_space import build_basis


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--backend", default="synthetic",
                    choices=("synthetic", "hard_sphere"))
    ap.add_argument("--degree", type=int, default=4)
    ap.add_argument("--eps", type=float, nargs="+", default=[0.1, 0.05])
    ap.add_argument("--s-min", type=float, default=0.1)
    ap.add_argument("--s-max", type=float, default=1.0)
    ap.add_argument("--count", type=int, default=10)
    args = ap.parse_args()

    basis = build_basis(args.degree)
    op = synthetic_collision(basis) if args.backend == "synthetic" \
        else assemble_collision(basis)
    coeffs = compute_kappas(op)
    print(f"# backend={args.backend} degree={args.degree} "
          f"kappa0={coeffs.kappa0:.6f} kappa1={coeffs.kappa1:.6f}")
    print(f"# {describe_policy()}")
    print(f"{'s':>8} {'eps':>6} {'branch':>6} {'re(lambda)':>14} "
          f"{'im(lambda)':>14} {'model gap':>11}")
    # the modes outside the certified branch ball are left out
    modes = [(eps, s) for eps in args.eps for s in np.linspace(args.s_min, args.s_max, args.count)
             if eps * s <= R0_DEFAULT]
    with one_blas_thread():
        sweep = hydrodynamic_sweep(op, modes)
    for (eps, s), points in zip(modes, sweep):
        for bp in points:
            model = asymptotic_eigenvalue(bp.branch, s, eps, coeffs)
            print(f"{s:8.4f} {eps:6.3f} {bp.branch:+6d} "
                  f"{bp.lam.real:14.6e} {bp.lam.imag:14.6e} "
                  f"{abs(bp.lam - model):11.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
