"""Pre-measure every acceptance quantity at the acceptance configurations.

Run this before freezing tolerances in tests/test_acceptance.py; it prints
the raw numbers the assertions pin down.
"""

import time

import numpy as np

from vpb_spectral.collision import synthetic_collision
from vpb_spectral.limit_lab import (
    layer_time_grid,
    make_initial_data,
    radial_grid,
    run_convergence_study,
)
from vpb_spectral.mode_operator import mode_operator
from vpb_spectral.oracles import classify_strip, fit_decay, layer_frequency, strip_eigensystem
from vpb_spectral.semigroup import propagate_kinetic, split_S1_S2
from vpb_spectral.transport import asymptotic_eigenvalue, branch_frequency, compute_kappas
from vpb_spectral.velocity_space import build_basis, macro_vector, weighted_norm

EPS4 = [0.2, 0.1, 0.05, 0.025]


def c3_slopes():
    basis = build_basis(4)
    op = synthetic_collision(basis)
    coeffs = compute_kappas(op)
    print("== criterion 3: residual slopes per branch ==")
    for s in (0.2, 0.5):
        lam = {}
        for eps in EPS4:
            mode = mode_operator(op, eps, np.array([s, 0.0, 0.0]))
            vals, _ = strip_eigensystem(mode)
            pos = classify_strip(vals, eps)
            for j, i in pos.items():
                lam.setdefault(j, []).append(complex(vals[i]))
        for j in sorted(lam):
            resid = [abs(lam[j][k] - asymptotic_eigenvalue(j, s, eps, coeffs))
                     for k, eps in enumerate(EPS4)]
            slope = np.polyfit(np.log(EPS4), np.log(resid), 1)[0]
            even = branch_frequency(j, s) == 0.0
            imag = (f"  max|Im|/|lam|={max(abs(v.imag) / abs(v) for v in lam[j]):.1e}"
                    if even else "")
            print(f"  s={s} branch={j:+d}: slope={slope:.4f} expected={4 if even else 3}"
                  f"  resid={resid[0]:.3e}..{resid[-1]:.3e}{imag}")


def c6_margins():
    print("== criterion 6: S2 slope and tail rate ==")
    basis = build_basis(4)
    op = synthetic_collision(basis)
    gap = op.spectral_gap()
    s = 0.5
    f0 = macro_vector(basis, 0.3, [0.2, -0.5, 0.1], -0.7).astype(complex)
    norms0 = []
    for eps in EPS4:
        mode = mode_operator(op, eps, np.array([s, 0.0, 0.0]))
        _, s2 = split_S1_S2(mode, f0, np.array([0.0]))
        norms0.append(weighted_norm(basis, s2[0], s) / weighted_norm(basis, f0, s))
    slope = np.polyfit(np.log(EPS4), np.log(norms0), 1)[0]
    print(f"  S2(0) ratio slope = {slope:.4f}  ratios={['%.3e' % r for r in norms0]}")
    eps = 0.3
    mode = mode_operator(op, eps, np.array([s, 0.0, 0.0]))
    vals = np.linalg.eigvals(np.asarray(mode.matrix))
    hydro, _ = strip_eigensystem(mode)
    rest = [v for v in vals if min(abs(v - h) for h in hydro) > 1e-10]
    d_op = -max(v.real for v in rest)
    times = np.linspace(0.08, 0.22, 10)
    _, s2 = split_S1_S2(mode, f0, times)
    track = np.array([weighted_norm(basis, s2[i], s) for i in range(times.size)])
    fit = fit_decay((times, track), model="exp")
    print(f"  collision gap={gap:.6f} d_op={d_op:.6f} d_op/eps^2={d_op/eps**2:.4f}")
    print(f"  fitted rate={fit.rate:.4f} R^2={fit.r_squared:.6f} "
          f"rate/(gap/eps^2)={fit.rate*eps**2/gap:.4f} rate/(d_op/eps^2)={fit.rate*eps**2/d_op:.4f}")


def packet_norms(op, data_vec, eps, times, micro):
    from vpb_spectral.velocity_space import weighted_inner
    basis = op.basis
    x, w = np.polynomial.legendre.leggauss(64)
    nodes, weights = 0.3 * (x + 1.0), 0.3 * w
    acc = np.zeros(len(times))
    for s_k, w_k in zip(nodes, weights):
        mode = mode_operator(op, eps, np.array([s_k, 0.0, 0.0]))
        traj = propagate_kinetic(mode, data_vec.astype(complex), np.asarray(times))
        for i in range(len(times)):
            part = basis.micro_project(traj.states[i]) if micro \
                else basis.macro_project(traj.states[i])
            if micro:
                val = float(np.real(np.sum(part * np.conj(part))))
            else:
                val = float(np.real(weighted_inner(basis, part, part, s_k)))
            acc[i] += 4.0 * np.pi * w_k * s_k ** 2 * val
    return np.sqrt(acc)


def c7_rates():
    print("== criterion 7: packet decay exponents ==")
    basis = build_basis(3)
    op = synthetic_collision(basis)
    data = (basis.chi(2) + basis.chi(4)) / np.sqrt(2.0)
    times = np.expm1(np.linspace(np.log(31.0), np.log(401.0), 10))
    fit = fit_decay((times, packet_norms(op, data, 0.1, times, micro=False)),
                    model="poly")
    print(f"  density-free macro poly rate = {fit.rate:.4f} (R2={fit.r_squared:.5f})")
    eps_list = np.array([0.1, 0.05, 0.025])
    vals = np.array([packet_norms(op, data, e, [20.0], micro=True)[0]
                     for e in eps_list])
    slope = np.polyfit(np.log(eps_list), np.log(vals), 1)[0]
    print(f"  micro eps-prefactor slope at t=20: {slope:.4f}")


def c8_c9():
    print("== criteria 8/9: convergence studies at degree 6, 32 shells ==")
    t0 = time.perf_counter()
    basis = build_basis(6)
    op = synthetic_collision(basis)
    coeffs = compute_kappas(op)
    grid = radial_grid(0.05, 0.6, 32)
    sig2 = 2.0 * 0.2 ** 2
    prof = lambda s: np.exp(-s * s / sig2)
    times = layer_time_grid(max(EPS4), 20.0, 12, 24)
    wp = make_initial_data("well_prepared", prof, basis, grid)
    table = run_convergence_study(op, wp, EPS4, times, coeffs)
    print(f"  wp slope = {table.metadata['eps_slope']:.4f}")
    gen = make_initial_data("generic", prof, basis, grid)
    tg = run_convergence_study(op, gen, EPS4, times, coeffs)
    errs = []
    for e in EPS4:
        d = tg.for_eps(e)
        errs.append(float(d["err_Linf_P"][np.argmin(d["t"])]))
    print(f"  generic err(0): {['%.4e' % v for v in errs]} ratio={max(errs)/min(errs):.6f}")
    ts = run_convergence_study(op, gen, EPS4, times, coeffs, subtract_layer=True)
    print(f"  subtracted slope = {ts.metadata['eps_slope']:.4f}")
    freq = layer_frequency(op, 0.05, 0.3)
    pred = np.sqrt(1.0 + 5.0 / 3.0 * 0.3 ** 2) / 0.05
    print(f"  layer freq measured={freq:.4f} predicted={pred:.4f} rel={abs(freq-pred)/pred:.5f}")
    print(f"  [c8/c9 total {time.perf_counter() - t0:.1f}s]")


if __name__ == "__main__":
    c3_slopes()
    c6_margins()
    c7_rates()
    c8_c9()
