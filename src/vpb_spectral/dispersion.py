"""Dispersion determinants and the five hydrodynamic eigenvalue branches.

Eliminating the microscopic part of the eigenvalue problem at wavenumber
s = |xi| leaves scalar conditions on the macroscopic components: a scalar
determinant for the doubly degenerate shear family (_shear_det) and a 3x3
determinant coupling density, longitudinal momentum and temperature
(_coupled_det, with the electrostatic term entering through the 1/s factor).
Roots are tracked from their analytic eps -> 0 seeds and converted into
eigenpairs of the full mode operator; the tests cross-validate them against
dense spectra.  Everything is computed on the axis xi = s e1, which carries
the whole spectrum: the operator is rotation invariant.

Scaling conventions: the shear root variable equals the eigenvalue itself,
lam_{2,3} = z(eps*s); the coupled-family roots are rescaled, lam_j = eps*z_j
for j in {-1, 0, 1}.

Both determinants are built from the micro resolvent entries
R_jk(beta) = f_k . (L - beta - i y V1)^-1 f_j, y = eps*s, f_j the flux
vectors.  Scaled by i^(a1 mod 2), the micro block of L - i y V1 is real and
block-diagonal in the azimuthal sectors about e1 (CollisionOperator.
sector_blocks), and each flux lies in one sector: the coupled determinant
needs R_11, R_14, R_41 and R_44 from the micro m = 0 block, the shear one
R_22 from the cos copy of the micro m = 1 block.  hydrodynamic_sweep takes
every axis mode (eps, s) at once, one _Family per determinant: one eig of
its stacked block, one damped Newton (_newton) over all its roots on the
pole sums, and one guarded, stacked np.linalg.solve that certifies every
root and gives det_residual and the micro parts of the eigenfunctions.
Entries are (roots, J*J) arrays, column (j, k) in j-major order over the
family's J fluxes.  No job solves with the whole micro block; that solve is
the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .collision import CollisionOperator
from .errors import AssemblyError, RegimeError
from .mode_operator import EigenBlock, _checked_times, check_eps
from .transport import BRANCHES, TransportCoefficients, branch_decay, branch_frequency
from .velocity_space import (MacroState, VelocityBasis, axis_wavenumber, bilinear_pair,
                             wavenumber_squares, weighted_inner)

R0_DEFAULT = 0.3  # admissible eps*|xi| ball for the five-branch construction
R1_DEFAULT = 0.1  # root basin radius (scaled by |s| for the coupled family)

_SOLVE_TOL = 1e-8  # relative residual allowed in a micro-space resolvent solve
_SPAN_TOL = 1e-12  # relative part of a flux allowed outside its family's frame
_ROOT_TOL = 1e-13  # Newton step size at which a root counts as converged
_MAX_ITER = 60     # Newton steps before a root solver gives up
# eigenvector condition (1-norm) of a sector block at which its pole sums are
# refused; pole sums lose about log10(cond) digits
POLE_COND_LIMIT = 1e4
# Bauer-Fike bound cond / min|mu - beta| on the norm of a micro resolvent at
# which a certification solve is refused
RESOLVENT_BOUND_LIMIT = 1e6

FLUX_INDICES = (1, 2, 4)
# the non-oscillatory branches: their limit vectors span the fluid state
FLUID_BRANCHES = (0, 2, 3)


@dataclass(frozen=True, eq=False)
class BranchPoint:
    """One labeled point of a hydrodynamic branch, with its eigenpair."""

    branch: int
    s: float
    eps: float
    lam: complex
    z: complex
    psi: np.ndarray
    det_residual: float
    eig_residual: float


@dataclass(frozen=True, eq=False)
class AsymptoticCoefficients:
    """Closed-form leading frequencies, decay rates and limit vectors at one s or K shells."""

    s: float | np.ndarray
    eta: dict
    b: dict
    h: dict

    def evolve(self, basis: VelocityBasis, u: np.ndarray, times, branches,
               eps=1.0) -> np.ndarray:
        """sum_j exp(eta_j t / eps - b_j t) <u, h_j> h_j over the given branches.

        One row per time, the times checked as for the kinetic flow; the
        pairings <u, h_j> are one bilinear_pair of u against every h_j.  Every
        h_j vanishes off basis.invariant_indices, so the sum holds only those
        five slots, in that order (embed_invariants places them).  Branches 0,
        2, 3 do not oscillate, so eps only matters for -1 and 1.  E eps values
        give (E, T, 5), each pairing formed once for all; at K shells, u (K, dim)
        gives (K, E, T, 5), bit for bit.
        """
        times = _checked_times(times)
        eps = np.asarray(eps, dtype=float)[..., None]
        lead = np.shape(self.s) + (1,) * eps.ndim  # the shells against (eps, time)
        slots = list(basis.invariant_indices)
        coefs = bilinear_pair(basis, np.expand_dims(u, -2),
                              np.stack([self.h[j] for j in branches], axis=-2),
                              np.expand_dims(self.s, -1))
        acc = np.zeros(np.shape(self.s) + eps.shape[:-1] + (times.size, 5), dtype=complex)
        for i, j in enumerate(branches):
            coef = coefs[..., i, None]
            eta, b = (np.reshape(x[j], lead) for x in (self.eta, self.b))
            phases = np.exp(eta * times / eps - b * times)
            acc += phases[..., None] * (coef * self.h[j][..., slots]).reshape(lead + (5,))
        return acc


class _Family:
    """The roots of one determinant at a stack of axis modes (eps, s):
    found, certified and embedded at once.

    The determinant's fluxes (_FLUXES) lie in the micro block of one
    azimuthal sector m: block, one stack member per mode on the sector's
    micro frames, decomposed by one eig as B = X diag(mu) X^-1.  On the cos
    frame F (parity scale included) g holds the coordinates F^H f_j and l
    the forms F^T f_j, so f_k . embed(x) = l_k . x and no basis-length
    solution is formed.  Pole sums: R_jk(beta) = sum_m (X^T l_k)_m
    (X^-1 g_j)_m / (mu_m - beta), and d/dbeta over (mu_m - beta)^2.
    RegimeError names the first mode whose block is too ill-conditioned for
    them (cond >= POLE_COND_LIMIT); then AssemblyError if a flux leaves the
    span of the cos frame.
    """

    _FLUXES = {0: (1, 4), 1: (2,)}  # coupled fluxes in m = 0, the shear flux in m = 1

    def __init__(self, op: CollisionOperator, eps, s, m: int):
        eps, s = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (eps, s))
        lm, wm, frames = op.sector_blocks.micro[m]
        self.block = EigenBlock(lm + (eps * s)[:, None, None] * wm, frames)
        for e, x, cond in zip(eps, s, self.block.cond):
            if not cond < POLE_COND_LIMIT:
                raise RegimeError(f"micro m = {m} sector block at eps = {e:.6g}, s = {x:.6g} "
                                  f"has eigenvector cond {cond:.3g}, not below "
                                  f"POLE_COND_LIMIT = {POLE_COND_LIMIT:.0e}; its pole sums "
                                  "would lose too many digits")
        frame, self.size = frames[0], op.basis.dim
        fluxes = op.basis.fluxes[[j - 1 for j in self._FLUXES[m]]]
        self.g = np.stack([frame.coords(f) for f in fluxes], axis=1)
        for j, f, g in zip(self._FLUXES[m], fluxes, self.g.T):
            if not np.linalg.norm(f - frame.embed(g, self.size)) <= _SPAN_TOL * np.linalg.norm(f):
                raise AssemblyError(f"flux f_{j} leaves the span of its micro m = {m} frame")
        self.l = frame.basis.T @ (frame.scale[:, None] * fluxes[:, frame.index].T)
        # (member, (j, k), pole) weights of the pole sums
        self._weights = np.einsum("imj,imk->ijkm", self.block.coefficients(self.g),
                                  self.block.vecs.swapaxes(-1, -2) @ self.l
                                  ).reshape(eps.size, -1, self.g.shape[0])

    def pole_sums(self, members: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Member members[r]'s entries at beta[r] and their d/dbeta, a row per r."""
        w = 1.0 / (self.block.vals[members] - beta[:, None])
        weights = self._weights[members]
        return (weights @ w[..., None])[..., 0], (weights @ (w * w)[..., None])[..., 0]

    def solve(self, members: np.ndarray, betas: np.ndarray) -> np.ndarray:
        """Member members[r]'s entries at betas[r], a row per r, from one
        stacked np.linalg.solve (B_r - beta_r) x = g, kept as coords.
        RegimeError when a Bauer-Fike bound cond / min|mu - beta_r| on the
        resolvent norm exceeds RESOLVENT_BOUND_LIMIT (inf on an eigenvalue),
        or a relative residual is not finite or above _SOLVE_TOL."""
        dist = np.min(np.abs(self.block.vals[members] - betas[:, None]), axis=-1)
        bound = np.divide(self.block.cond[members], dist, out=np.full(dist.shape, math.inf),
                          where=dist > 0.0)
        for beta, b in zip(betas, bound):
            if not b <= RESOLVENT_BOUND_LIMIT:
                raise RegimeError(f"micro resolvent is near-singular at beta = {beta:.6g}: its "
                                  f"Bauer-Fike bound {b:.3g} exceeds RESOLVENT_BOUND_LIMIT = "
                                  f"{RESOLVENT_BOUND_LIMIT:.0e}")
        a = self.block.matrix[members].astype(complex)
        diag = np.arange(a.shape[-1])
        a[:, diag, diag] -= betas[:, None]
        try:
            x = np.linalg.solve(a, self.g)
        except np.linalg.LinAlgError:
            raise RegimeError(f"micro resolvent is singular at one of beta = {betas}; "
                              "parameter on an eigenvalue of the micro block") from None
        self._a = a
        self.coords = self._guarded(x, self.g)
        return (self.l.T @ x).swapaxes(-1, -2).reshape(len(betas), -1)

    def combine(self, coef: np.ndarray) -> np.ndarray:
        """sum_j coef[r, j] (B_r - beta_r)^-1 f_j in frame coordinates for every
        root r of the last solve, residual-guarded as one vector per r."""
        coef = coef[..., None]
        return self._guarded(self.coords @ coef, self.g @ coef)[..., 0]

    def _guarded(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The solution columns x, once each relative residual against g is
        finite and at most _SOLVE_TOL."""
        scale = np.linalg.norm(g, axis=-2)
        resid = np.linalg.norm(self._a @ x - g, axis=-2)
        bad = ~np.isfinite(resid) | (resid > _SOLVE_TOL * scale)
        if np.any(bad):
            worst = float(np.max((resid / scale)[bad]))
            raise RegimeError(f"micro resolvent solve has relative residual {worst:.2e}, "
                              f"above the bound {_SOLVE_TOL:.0e}, although beta passed the "
                              "spectral-distance guard")
        return x

    def embed(self, x: np.ndarray, copy: int) -> np.ndarray:
        """The basis-length rows of the coordinate rows x on frame copy
        (Frame.embed)."""
        return self.block.frames[copy].embed(x, self.size)

    def roots(self, det, scale, seeds: np.ndarray, basins: np.ndarray, tol: float,
              real: np.ndarray, names: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The root of det (z, R, R' -> D, D', a row per root) near each seed,
        the seeds of each member in turn, at beta = scale * z: _newton, then
        each real root within 1e-10 of the real axis put on it.  One solve at
        every root then certifies each: |D| at most tol, within its basin of
        the seed and, if real, on the real axis, else RegimeError naming the
        root and the check.  Returns the roots, their |D| and their entries."""
        members = np.repeat(np.arange(len(self.block.vals)), len(seeds) // len(self.block.vals))
        z = _newton(lambda z: det(z, *self.pole_sums(members, scale * z)), seeds, basins, names)
        snap = real & (np.abs(z.imag) <= 1e-10 * np.maximum(1.0, np.abs(z)))
        z[snap] = z[snap].real  # certify the root that is returned
        entries = self.solve(members, scale * z)
        resid = np.abs(det(z, entries)[0])
        for r in np.flatnonzero(~(resid <= tol)):
            raise RegimeError(f"{names[r]} fails its certificate: |D| = {resid[r]:.2e} > "
                              f"{tol:.0e}")
        for r in np.flatnonzero(np.abs(z - seeds) > np.maximum(basins, 1e-9)):
            raise RegimeError(f"{names[r]} left its basin: |z - seed| = "
                              f"{abs(z[r] - seeds[r]):.3e} > {basins[r]:.3e}")
        for r in np.flatnonzero(real & (z.imag != 0.0)):
            raise RegimeError(f"{names[r]} drifted off the real axis: {z[r]:.3e}")
        return z, resid, entries


def _require_regime(w: float) -> None:
    if abs(w) > R0_DEFAULT:
        raise RegimeError(f"eps*|xi| = {abs(w):.3f} outside the hydrodynamic ball "
                          f"(r0 = {R0_DEFAULT}); branch construction not valid there")


def _shear_det(w: np.ndarray, z: np.ndarray, vals: np.ndarray,
               ders: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """The shear determinant of every root z at w = eps*s, from its R_22."""
    val = z - w * w * vals[:, 0]
    der = None if ders is None else 1.0 - w * w * ders[:, 0]
    return val, der


def _coupled_det(s: np.ndarray, eps: np.ndarray, z: np.ndarray, vals: np.ndarray,
                 ders: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Cubic determinant of the density/momentum/temperature block of every
    root z, from its entries R_11, R_14, R_41, R_44 at beta = eps*z (and
    their beta-derivatives, for d/dz)."""
    r11, r14, r41, r44 = vals.T
    s2 = s * s
    root23 = math.sqrt(2.0 / 3.0)
    lin = 1.0 + 5.0 / 3.0 * s2 + 1j * eps * root23 * s2 * s * (r41 + r14) \
        + eps * eps * s2 * s2 * (r44 * r11 - r14 * r41)
    val = z ** 3 - z * z * eps * s2 * (r11 + r44) + z * lin - eps * (s2 + s2 * s2) * r44
    if ders is None:
        return val, None
    d11, d14, d41, d44 = ders.T
    # chain rule: the entries are evaluated at beta = eps*z
    dlin = 1j * eps * eps * root23 * s2 * s * (d41 + d14) \
        + eps ** 3 * s2 * s2 * (d44 * r11 + r44 * d11 - d14 * r41 - r14 * d41)
    der = 3.0 * z * z - 2.0 * z * eps * s2 * (r11 + r44) - z * z * eps * eps * s2 * (d11 + d44) \
        + lin + z * dlin - eps * eps * (s2 + s2 * s2) * d44
    return val, der


def _newton(det, seeds: np.ndarray, basins: np.ndarray, names: list) -> np.ndarray:
    """Damped Newton on det (z -> (D(z), D'(z)), a row per root) from every
    seed at once.  A root's step that would land more than 1.5 basins from
    its seed is halved, down to 1/64 of itself; a root whose step falls
    below _ROOT_TOL has converged and is held.  RegimeError naming the root
    if an iterate leaves two basins, D is not finite, D' vanishes, or
    _MAX_ITER steps do not converge."""
    z = np.array(seeds, dtype=complex)
    active = np.ones(z.size, dtype=bool)
    for _ in range(_MAX_ITER):
        val, der = det(z)
        for r in np.flatnonzero(active & (~np.isfinite(val) | ~(np.abs(der) >= 1e-14))):
            raise RegimeError(f"{names[r]} not found: Newton met D = {val[r]:.3e}, "
                              f"D' = {der[r]:.3e} at z = {z[r]:.6g}")
        step = np.divide(val, der, out=np.zeros_like(z), where=active)
        t = np.ones(z.size)
        for _ in range(6):
            t[np.abs(z - t * step - seeds) > 1.5 * basins] *= 0.5
        z = z - t * step
        for r in np.flatnonzero(np.abs(z - seeds) > 2.0 * basins):
            raise RegimeError(f"{names[r]} not found: Newton left two basins of the seed: "
                              f"|z - seed| = {abs(z[r] - seeds[r]):.3e}, basin {basins[r]:.3e}")
        active &= ~(t * np.abs(step) < _ROOT_TOL)
        if not active.any():
            return z
    raise RegimeError(f"{names[np.flatnonzero(active)[0]]} not found: Newton did not "
                      f"converge in {_MAX_ITER} steps")


def limit_vectors(basis: VelocityBasis, s) -> dict:
    """Leading-order macroscopic limit vectors h_j at s e1.

    They are orthonormal in the weighted pairing and free of transport
    coefficients.  The acoustic velocity component carries sign -j, which is
    what the defining 5x5 drift eigenproblem forces; the transverse pair is
    chi_2, chi_3.  s is a float, or K shells, which give each h_j a leading
    shell axis.
    """
    s = np.asarray(s, dtype=float)[..., None]  # shells, if any, lead the five slots
    chi = np.eye(5)  # chi_0..chi_4 on the slots, which basis.embed_invariants places
    den = np.sqrt(3.0 + 5.0 * s * s)
    a0 = math.sqrt(2.0) * s * s / (den * np.sqrt(1.0 + s * s))
    c0 = np.sqrt(3.0 + 3.0 * s * s) / den
    h = {0: a0 * chi[0] - c0 * chi[4]}
    q = math.sqrt(1.5) * s / den
    u = s / den
    for j in (-1, 1):
        h[j] = q * chi[0] - (j / math.sqrt(2.0)) * chi[1] + u * chi[4]
    h[2] = chi[2]
    h[3] = chi[3]
    return {j: basis.embed_invariants(np.broadcast_to(v, h[0].shape)) for j, v in h.items()}


def fluid_constraints(state: MacroState, s) -> tuple[np.ndarray, np.ndarray]:
    """The residuals (|s m_1|, |n + n / s^2 + sqrt(2/3) q|) of the two
    constraints whose solutions at s e1 are the span of h_0, h_2, h_3
    (limit_vectors): divergence-free momentum and the density-potential
    relation.  state holds one shell's moments, or a stack with s one shell
    per row; s^2 from wavenumber_squares (BasisError for a bad s)."""
    div = np.abs(s * state.m[..., 0])
    bous = np.abs(state.n + state.n / wavenumber_squares(s) + math.sqrt(2.0 / 3.0) * state.q)
    return div, bous


def asymptotic_coefficients(basis: VelocityBasis, xi,
                            coeffs: TransportCoefficients) -> AsymptoticCoefficients:
    """Frequencies eta_j, decay rates b_j and limit vectors h_j at xi, parsed
    by axis_wavenumber; shell_coefficients takes K shells."""
    return shell_coefficients(basis, axis_wavenumber(xi), coeffs)


def shell_coefficients(basis: VelocityBasis, s,
                       coeffs: TransportCoefficients) -> AsymptoticCoefficients:
    """asymptotic_coefficients at s e1, s a float or K shells."""
    return AsymptoticCoefficients(s=s,
                                  eta={j: branch_frequency(j, s) for j in BRANCHES},
                                  b={j: branch_decay(j, s, coeffs) for j in BRANCHES},
                                  h=limit_vectors(basis, s))


def _eig_residuals(basis: VelocityBasis, eps: list, s: np.ndarray, r: np.ndarray,
                   psi: np.ndarray) -> np.ndarray:
    """||r|| / ||psi|| per mode (eps, s) and branch in the weighted norm,
    r = B psi - lam psi, rows (modes, 5, dim) and s (modes, 1); RegimeError
    above 1e-6."""
    res = np.sqrt(weighted_inner(basis, r, r, s).real / weighted_inner(basis, psi, psi, s).real)
    for i, k in zip(*np.nonzero(~(res <= 1e-6))):
        raise RegimeError(f"branch {BRANCHES[k]} eigenpair residual {res[i, k]:.2e} at "
                          f"eps = {eps[i]:.6g}, s = {s[i, 0]:.6g}; determinant root "
                          "does not match the mode operator")
    return res


def hydrodynamic_sweep(op: CollisionOperator, modes) -> list[list[BranchPoint]]:
    """The five labeled branch points of every axis mode (eps, s) in modes.

    Labels come from continuation: each root is solved from its own analytic
    seed.  Eigenfunctions are normalized in the weighted pairing and
    sign-aligned against the limit vectors.  eig_residual applies the mode
    matrix through the dense L and V1, not through the sector blocks.  Each
    mode's eps is parsed by check_eps (RegimeError) and its s by
    axis_wavenumber (BasisError)."""
    if not modes:
        return []
    eps = [float(e) for e, _ in modes]
    s = [axis_wavenumber(x) for _, x in modes]
    for e, x in zip(eps, s):
        check_eps(e)
        _require_regime(e * x)
    basis = op.basis
    y = np.multiply(eps, s)
    # the shear root: seed 0, basin R1_DEFAULT, |D| <= 1e-10, real
    shear = _Family(op, eps, s, 1)
    shear_z, shear_det, _ = shear.roots(
        partial(_shear_det, y), 1.0, np.zeros(len(s), dtype=complex), np.full(len(s), R1_DEFAULT),
        1e-10, np.ones(len(s), dtype=bool),
        [f"shear root at eps = {e:.6g}, s = {x:.6g}" for e, x in zip(eps, s)])
    # the roots of branches -1, 0, 1: seeds eta_j, |D| <= 1e-9, branch 0 real
    coupled = _Family(op, eps, s, 0)
    eps3, s3 = np.repeat(eps, 3), np.repeat(s, 3)
    # the root sits within ~eps*b_j(s) <= C eps s^2 kappa of its seed, so
    # the certification radius must scale with the backend's coefficient
    # size or large-coefficient backends get rejected inside the ball
    basins = np.maximum(np.maximum(R1_DEFAULT * s3, 3.0 * eps3 * s3 * s3 * op.kappa_bar), 1e-12)
    coupled_z, coupled_det, v = coupled.roots(
        partial(_coupled_det, s3, eps3), eps3,
        np.array([branch_frequency(j, x) for x in s for j in (-1, 0, 1)], dtype=complex),
        basins, 1e-9, np.tile([False, True, False], len(s)),
        [f"branch {j} root at eps = {e:.6g}, s = {x:.6g}" for e, x in zip(eps, s)
         for j in (-1, 0, 1)])
    # colliding roots mean the regime assumption failed
    z3 = coupled_z.reshape(-1, 3)
    a, b = z3[:, [0, 0, 1]], z3[:, [1, 2, 2]]
    for i in np.flatnonzero((np.abs(a - b) < 1e-8 * np.maximum(1.0, np.abs(a))).any(axis=1)):
        raise RegimeError(f"coupled-family roots collided at eps = {eps[i]:.6g}, s = {s[i]:.6g}; "
                          "outside the regime")

    # coupled eigenfunctions: the null vector (a, b, c) of the macro system on
    # chi_0, chi_1, chi_4, and the micro part of V1 @ macro, b f_1 + c f_4
    # (V1 chi_0 = chi_1 is macro), through the certifying solve
    es2, cross = eps3 * s3 ** 2, 1j * s3 * math.sqrt(2.0 / 3.0)
    r11, r14, r41, r44 = v.T
    zero = np.zeros(len(s3))
    mats = np.array([[coupled_z, 1j * s3, zero],
                     [1j * (s3 + 1.0 / s3), coupled_z - es2 * r11, cross - es2 * r41],
                     [zero, cross - es2 * r14, coupled_z - es2 * r44]]).transpose(2, 0, 1)
    _, sing, vh = np.linalg.svd(mats)
    for r in np.flatnonzero(sing[:, -1] > 1e-6 * sing[:, 0]):
        raise AssemblyError(f"macro system at branch {r % 3 - 1}, eps = {eps[r // 3]:.6g}, "
                            f"s = {s[r // 3]:.6g} is not singular: sigma_min/sigma_max = "
                            f"{sing[r, -1] / sing[r, 0]:.2e}")
    abc = np.conj(vh[:, -1])
    coupled_psi = abc @ np.stack([basis.chi(0), basis.chi(1), basis.chi(4)]) \
        + 1j * np.repeat(y, 3)[:, None] * coupled.embed(coupled.combine(abc[:, 1:]), 0)
    # f_3 is the quarter-turn image of f_2, so its solution is f_2's
    # coordinates embedded in the sin copy of m = 1; psi holds one row per
    # (mode, branch)
    psi = np.concatenate([coupled_psi.reshape(-1, 3, basis.dim)]
                         + [(basis.chi(2 + c) + 1j * y[:, None]
                             * shear.embed(shear.coords[..., 0], c))[:, None] for c in (0, 1)],
                         axis=1)
    s_mode = np.array(s)[:, None]
    pair = bilinear_pair(basis, psi, psi, s_mode)
    for i, k in zip(*np.nonzero(np.abs(pair) < 1e-6)):
        raise AssemblyError(f"branch {BRANCHES[k]} eigenfunction at eps = {eps[i]:.6g}, "
                            f"s = {s[i]:.6g} is nearly isotropic-null; cannot normalize "
                            "in the weighted pairing")
    psi = psi / np.sqrt(pair)[..., None]
    hs = limit_vectors(basis, s)
    h = np.stack([hs[j] for j in BRANCHES], axis=1)
    psi = psi * np.where(bilinear_pair(basis, psi, h, s_mode).real < 0, -1.0, 1.0)[..., None]

    z = np.column_stack([np.reshape(coupled_z, (-1, 3)), shear_z, shear_z])
    lam = z * np.array([[e, e, e, 1.0, 1.0] for e in eps])
    dets = np.column_stack([np.reshape(coupled_det, (-1, 3)), shear_det, shear_det])
    # one product per mode, as a sweep of that mode alone forms it
    v1_psi, l_psi = (psi.real @ a.T + 1j * (psi.imag @ a.T) for a in (basis.v1, op.matrix))
    i0 = basis.density_index
    v1_psi += (psi[..., i0] / wavenumber_squares(s_mode))[..., None] * basis.v1[:, i0]
    eig = _eig_residuals(basis, eps, s_mode,
                         l_psi - 1j * y[:, None, None] * v1_psi - psi * lam[..., None], psi)
    return [[BranchPoint(branch=j, s=s[i], eps=eps[i], lam=complex(lam[i, k]), z=complex(z[i, k]),
                         psi=psi[i, k], det_residual=float(dets[i, k]),
                         eig_residual=float(eig[i, k])) for k, j in enumerate(BRANCHES)]
            for i in range(len(s))]
