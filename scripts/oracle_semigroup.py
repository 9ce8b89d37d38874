"""Frozen-rate oracle for the kinetic packet-decay experiments.

Propagates Fourier modes by raw dense eigendecomposition -- deliberately
bypassing the semigroup module -- over a radial wavenumber grid, synthesizes
spatial norms by spherical quadrature, and fits the algebraic decay rates
and the eps-prefactor slope whose values the test suite freezes.

Run:  python3 scripts/oracle_semigroup.py
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))  # the oracles

from oracles import mode_operator
from vpb_spectral.collision import synthetic_collision
from vpb_spectral.velocity_space import build_basis, weighted_inner

BASIS = build_basis(3)
OP = synthetic_collision(BASIS)


def radial_grid(s_max: float = 0.6, n: int = 64):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * s_max * (x + 1.0), 0.5 * s_max * w


def propagate(mode, f0, times):
    vals, vecs = np.linalg.eig(mode.matrix)
    c = np.linalg.solve(vecs, f0)
    return [vecs @ (c * np.exp(vals * t / mode.eps ** 2)) for t in times]


def packet_norms(data_vec, eps, times, micro: bool):
    """4pi sum w_k s_k^2 ||.||^2 over the grid; weighted norm for the macro
    part, plain L2 for the micro part."""
    nodes, weights = radial_grid()
    acc = np.zeros(len(times))
    for s_k, w_k in zip(nodes, weights):
        mode = mode_operator(OP, eps, np.array([s_k, 0.0, 0.0]))
        for i, f in enumerate(propagate(mode, data_vec.astype(complex), times)):
            part = BASIS.micro_project(f) if micro else BASIS.macro_project(f)
            if micro:
                val = float(np.real(np.sum(part * np.conj(part))))
            else:
                val = float(np.real(weighted_inner(BASIS, part, part, s_k)))
            acc[i] += 4.0 * np.pi * w_k * s_k ** 2 * val
    return np.sqrt(acc)


def poly_rate(times, values):
    xs = np.log1p(times)
    ys = np.log(values)
    return -np.polyfit(xs, ys, 1)[0]


def main():
    times = np.expm1(np.linspace(np.log(31.0), np.log(401.0), 10))

    chi0 = BASIS.chi(0)
    dens_norms = packet_norms(chi0, 0.1, times, micro=False)
    r_dens = poly_rate(times, dens_norms)
    print(f"density-carrying packet macro rate : {r_dens:.4f}   (1/4 expected)")

    pdfree = (BASIS.chi(2) + BASIS.chi(4)) / np.sqrt(2.0)
    free_norms = packet_norms(pdfree, 0.1, times, micro=False)
    r_free = poly_rate(times, free_norms)
    print(f"density-free packet macro rate     : {r_free:.4f}   (3/4 expected)")

    t_star = np.array([20.0])
    eps_list = np.array([0.1, 0.05, 0.025])
    micro_vals = np.array([packet_norms(pdfree, e, t_star, micro=True)[0]
                           for e in eps_list])
    slope = np.polyfit(np.log(eps_list), np.log(micro_vals), 1)[0]
    print(f"micro eps-prefactor slope          : {slope:.4f}   (1 expected)")
    print("micro values:", " ".join(f"{v:.6e}" for v in micro_vals))


if __name__ == "__main__":
    main()
