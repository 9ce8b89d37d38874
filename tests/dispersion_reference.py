"""One-mode root solvers and the dense checks of the dispersion branches.

The library finds every branch point of a sweep at once
(vpb_spectral.dispersion.hydrodynamic_sweep).  The helpers here are the
tests' second routes to the same quantities: the resolvent entries through
solves with the whole micro block, the shear and coupled roots of one mode,
the match against the dense spectrum, finite-difference derivatives of the
roots and the convergence of one eigenfunction to its limit expansion.
"""

import math
from functools import partial

import numpy as np
import scipy.optimize
from collision_reference import micro_blocks, micro_solve
from oracles import FourierMode, eigensystem

from vpb_spectral import dispersion
from vpb_spectral.collision import CollisionOperator
from vpb_spectral.dispersion import (FLUX_INDICES, R1_DEFAULT, BranchPoint, _coupled_det,
                                     _Family, _require_regime, _shear_det, hydrodynamic_sweep,
                                     limit_vectors)
from vpb_spectral.errors import RegimeError
from vpb_spectral.mode_operator import EigenBlock
from vpb_spectral.transport import branch_frequency
from vpb_spectral.velocity_space import weighted_norm


def _guarded_solve(a: np.ndarray, beta: complex, g: np.ndarray) -> np.ndarray:
    """(a - beta)^-1 g, refused as the certification solve of a family
    refuses: RegimeError when the Bauer-Fike bound cond / min|mu - beta|
    exceeds RESOLVENT_BOUND_LIMIT (inf on an eigenvalue), the solve fails,
    or a column's relative residual is not finite or above _SOLVE_TOL."""
    block = EigenBlock(a, ())
    dist = np.min(np.abs(block.vals - beta))
    bound = block.cond / dist if dist > 0.0 else math.inf
    if not bound <= dispersion.RESOLVENT_BOUND_LIMIT:
        raise RegimeError(f"micro resolvent is near-singular at beta = {beta:.6g}: its "
                          f"Bauer-Fike bound {bound:.3g} exceeds RESOLVENT_BOUND_LIMIT")
    shifted = a - beta * np.eye(len(a))
    try:
        x = np.linalg.solve(shifted, g)
    except np.linalg.LinAlgError:
        raise RegimeError(f"micro resolvent is singular at beta = {beta:.6g}") from None
    resid = np.linalg.norm(shifted @ x - g, axis=0)
    if not np.all(resid <= dispersion._SOLVE_TOL * np.linalg.norm(g, axis=0)):
        raise RegimeError(f"micro resolvent solve has relative residual above "
                          f"{dispersion._SOLVE_TOL:.0e}")
    return x


def _entries(op: CollisionOperator, beta: complex, y: float,
             derivative: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Every R_jk at one (beta, y), and d/dbeta when asked, as (3, 3) arrays
    over FLUX_INDICES (row j, column k), through solves with the whole micro
    block: the reference the pole sums are tested against.  d/dbeta of the
    resolvent is its square, so the derivative entries solve once more, with
    the first solutions as right-hand sides."""
    blocks = micro_blocks(op)
    a = blocks.L.astype(complex) - 1j * y * blocks.V
    f = op.basis.fluxes[[j - 1 for j in FLUX_INDICES]][:, blocks.micro].T
    x = _guarded_solve(a, beta, f)
    return x.T @ f, (_guarded_solve(a, beta, x).T @ f if derivative else None)


def family_entries(ref: np.ndarray, m: int) -> np.ndarray:
    """The (3, 3) reference entries in the columns of the sector-m family:
    (j, k) in j-major order over its fluxes."""
    pos = [FLUX_INDICES.index(j) for j in _Family._FLUXES[m]]
    return ref[np.ix_(pos, pos)].ravel()


def resolvent_entry(op: CollisionOperator, j: int, k: int,
                    beta: complex, y: float) -> complex:
    """Micro-resolvent matrix element between flux vectors j and k, at
    y = eps*s: f_k . (L - beta - i y V1)^-1 f_j."""
    if j not in FLUX_INDICES or k not in FLUX_INDICES:
        raise ValueError(f"resolvent entries are defined for indices {FLUX_INDICES}")
    return complex(_entries(op, beta, y)[0][FLUX_INDICES.index(j), FLUX_INDICES.index(k)])


def solve_D0(op: CollisionOperator, s: float, eps: float) -> complex:
    """Root of the shear determinant; equals the shear eigenvalue itself.

    The sweep's shear root of one mode, which need not be an axis mode
    (s < 0 is allowed): damped Newton from 0 on pole sums (_Family.roots),
    in the basin |z| <= R1_DEFAULT.  The root is real and even in s; it is
    returned only once |D| <= 1e-10 through one solve at the root, inside
    the basin and on the real axis, else RegimeError.
    """
    w = eps * s
    _require_regime(w)
    if w == 0.0:
        return 0.0j
    z = _Family(op, eps, s, 1).roots(partial(_shear_det, np.array([w])), 1.0,
                                     np.zeros(1, dtype=complex), np.array([R1_DEFAULT]), 1e-10,
                                     np.array([True]), [f"shear root at eps = {eps:.6g}, "
                                                        f"s = {s:.6g}"])[0]
    return complex(z[0])


def coupled_roots(op: CollisionOperator, eps, s) -> np.ndarray:
    """The roots of branches -1, 0, 1 of every mode (eps, s), one row per
    mode, as the sweep finds them: seeds eta_j, basins growing with s and
    kappa_bar, |D| <= 1e-9, branch 0 real (_Family.roots).  eps may be
    negative, as the finite differences need."""
    eps3, s3 = np.repeat(eps, 3), np.repeat(s, 3)
    basins = np.maximum(np.maximum(R1_DEFAULT * np.abs(s3),
                                   3.0 * eps3 * s3 * s3 * op.kappa_bar), 1e-12)
    seeds = np.array([branch_frequency(j, x) for x in s3[::3] for j in (-1, 0, 1)])
    z = _Family(op, eps, s, 0).roots(
        partial(_coupled_det, s3, eps3), eps3, seeds, basins, 1e-9,
        np.tile([False, True, False], len(s3) // 3),
        [f"branch {j} root at eps = {e:.6g}, s = {x:.6g}" for e, x in zip(eps3[::3], s3[::3])
         for j in (-1, 0, 1)])[0]
    return z.reshape(-1, 3)


def solve_D1(op: CollisionOperator, s: float, eps: float) -> dict:
    """The three coupled-family roots, keyed by branch index -1, 0, 1.

    Damped Newton from each analytic seed eta_j on pole sums
    (coupled_roots).  Each root is returned only once |D| <= 1e-9 through
    one solve at the root, it lies inside its basin and, for the thermal
    branch 0, on the real axis, else RegimeError.
    """
    _require_regime(eps * s)
    if eps == 0.0:
        return {j: branch_frequency(j, s) for j in (-1, 0, 1)}
    return dict(zip((-1, 0, 1), (complex(z) for z in coupled_roots(op, [eps], [s])[0])))


def dense_comparison(mode: FourierMode, points: list[BranchPoint],
                     fraction: float = 0.3) -> dict:
    """Match branch points against the dense spectrum of the same matrix.

    Assignment is optimal (rectangular Hungarian); the report also carries
    the largest real part outside the strip, which must stay below the
    negative threshold for the splitting to make sense.
    """
    vals = eigensystem(mode)[0]
    gap = mode.collision.spectral_gap()
    keep = np.where(vals.real > -fraction * gap)[0]
    if keep.size != 5:
        raise RegimeError(f"{keep.size} dense eigenvalues in the strip, expected 5")
    strip = vals[keep]
    rest = np.delete(vals, keep)
    cost = np.abs(np.array([[p.lam for _ in strip] for p in points])
                  - strip[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    per_branch = {points[r].branch: float(cost[r, c]) for r, c in zip(rows, cols)}
    return {
        "per_branch": per_branch,
        "max_mismatch": max(per_branch.values()),
        "max_other_real": float(rest.real.max()) if rest.size else -math.inf,
    }


def fd_branch_derivatives(op: CollisionOperator, s: float,
                          h: float = 1e-3) -> dict:
    """Finite-difference checks of the leading asymptotic derivatives.

    Returns the curvature of the shear root at zero wavenumber (expected
    -2*kappa0) and the eps-derivative of each coupled root at eps = 0
    (expected -b_j(s)), Richardson-extrapolated central differences.
    """
    # five-point second derivative; the root function is even with f(0) = 0
    curv = (32.0 * solve_D0(op, h, 1.0).real - 2.0 * solve_D0(op, 2.0 * h, 1.0).real) \
        / (12.0 * h * h)
    # central differences in eps at hs and hs / 2, all four modes in one stack
    hs = h * max(s, 1e-6)
    steps = [hs, -hs, 0.5 * hs, -0.5 * hs]
    z = coupled_roots(op, steps, [s] * 4)
    d1, d2 = (z[0] - z[1]) / (2.0 * hs), (z[2] - z[3]) / hs
    return {"shear_curvature": curv,
            "eps_slope": {j: complex(d) for j, d in zip((-1, 0, 1), (4.0 * d2 - d1) / 3.0)}}


def eigenfunction_expansion_check(op: CollisionOperator, bp: BranchPoint,
                                  levels: int = 4) -> dict:
    """Convergence of one branch eigenfunction to its limit expansion.

    Halves eps from the anchor point and measures, in the weighted norm,
    the distance of the macro part from the limit vector (first order) and
    of the micro part from its explicit leading term (second order); also
    tracks the quadratic normalization of the macro coefficients.
    """
    basis = op.basis
    s, j = bp.s, bp.branch
    hs = limit_vectors(basis, s)
    v1 = basis.v1
    lead_micro = micro_solve(op, basis.micro_project(v1 @ hs[j].astype(float)))
    i0, i1, _, _, i4 = basis.invariant_indices

    eps_levels = [bp.eps / 2.0 ** k for k in range(levels)]
    macro_res, micro_res, quad_norms = [], [], []
    for eps_k, points in zip(eps_levels, hydrodynamic_sweep(op, [(e, s) for e in eps_levels])):
        psi = next(p for p in points if p.branch == j).psi
        macro = basis.macro_project(psi)
        micro = psi - macro
        macro_res.append(weighted_norm(basis, macro - hs[j], s))
        micro_res.append(weighted_norm(basis, micro - 1j * eps_k * s * lead_micro, s))
        if j in (-1, 0, 1):
            a, b, c = psi[i0], psi[i1], psi[i4]
            quad = a * a * (1.0 + 1.0 / (s * s)) + b * b + c * c
        else:
            quad = psi[basis.invariant_indices[j]] ** 2
        quad_norms.append(complex(quad))

    def fitted_slope(res: list[float]) -> float:
        xs = np.log(eps_levels)
        ys = np.log(np.maximum(res, 1e-300))
        return float(np.polyfit(xs, ys, 1)[0])

    return {
        "branch": j,
        "s": s,
        "eps_levels": eps_levels,
        "macro_residuals": macro_res,
        "micro_residuals": micro_res,
        "macro_slope": fitted_slope(macro_res),
        "micro_slope": fitted_slope(micro_res),
        "quad_norms": quad_norms,
    }
