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
every axis mode (eps, s) at once: each of those blocks is one stack over
the modes, decomposed by one eig (_Family), on whose pole sums one damped
Newton (_newton) finds every root; one guarded, stacked np.linalg.solve
per block (_Resolvent) certifies all its roots (_certified_roots) and gives
det_residual and the micro parts of the eigenfunctions.  No job solves with
the whole micro block; that solve is the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .collision import CollisionOperator
from .errors import AssemblyError, RegimeError
from .mode_operator import EigenBlock, FourierMode, _checked_times, axis_wavenumber, check_eps
from .transport import BRANCHES, TransportCoefficients, branch_decay, branch_frequency
from .velocity_space import Frame, VelocityBasis

R0_DEFAULT = 0.3  # admissible eps*|xi| ball for the five-branch construction
R1_DEFAULT = 0.1  # root basin radius (scaled by |s| for the coupled family)

_SOLVE_TOL = 1e-8  # relative residual allowed in a micro-space resolvent solve
_SPAN_TOL = 1e-12  # relative part of a right-hand side allowed outside its block's span
_ROOT_TOL = 1e-13  # Newton step size at which a root counts as converged
_MAX_ITER = 60     # Newton steps before a root solver gives up
# eigenvector condition (1-norm) of a sector block at which its pole sums are
# refused; pole sums lose about log10(cond) digits
POLE_COND_LIMIT = 1e4
# Bauer-Fike bound cond / min|mu - beta| on the norm of a micro resolvent at
# which a certification solve is refused
RESOLVENT_BOUND_LIMIT = 1e6

FLUX_INDICES = (1, 2, 4)


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

        One row per time, the times checked as for the kinetic flow; the pairing
        is bilinear_pair's, bit for bit: each row is summed over its whole length,
        and s ** 2 taken on Python floats.  Every h_j vanishes off
        basis.invariant_indices, so the sum holds only those five slots, in that
        order (embed_invariants places them).  Branches 0, 2, 3 do not oscillate,
        so eps only matters for -1 and 1.  E eps values give (E, T, 5), each pairing
        formed once for all; at K shells, u (K, dim) gives (K, E, T, 5), bit for bit.
        """
        times = _checked_times(times)
        eps = np.asarray(eps, dtype=float)[..., None]
        lead = np.shape(self.s) + (1,) * eps.ndim  # the shells against (eps, time)
        s2 = np.reshape([x ** 2 for x in np.ravel(self.s).tolist()], np.shape(self.s))
        i0, slots = basis.density_index, list(basis.invariant_indices)
        acc = np.zeros(np.shape(self.s) + eps.shape[:-1] + (times.size, 5), dtype=complex)
        for j in branches:
            coef = ((u * self.h[j]).sum(axis=-1) + u[..., i0] * self.h[j][..., i0] / s2)[..., None]
            eta, b = (np.reshape(x[j], lead) for x in (self.eta, self.b))
            phases = np.exp(eta * times / eps - b * times)
            acc += phases[..., None] * (coef * self.h[j][..., slots]).reshape(lead + (5,))
        return acc


class _Resolvent:
    """(A_r - beta_r)^-1 applied to the right-hand sides rhs (basis-length
    vectors in the span of the frame), A_r member members[r] of a stack of
    micro EigenBlocks on its first frame: one np.linalg.solve for every r.

    RegimeError when a Bauer-Fike bound cond / min|vals - beta_r| on the
    resolvent norm exceeds RESOLVENT_BOUND_LIMIT (inf on an eigenvalue), or a
    solution's relative residual is not finite or above _SOLVE_TOL.
    coords[r] and solutions[r] hold the solutions' frame coordinates and
    basis-length vectors as columns in rhs order; entries[r] maps (j, k) to
    rhs[k] . (the solution for rhs[j]).
    """

    def __init__(self, block: EigenBlock, members, betas, rhs: dict):
        frame = block.frames[0]
        self.size = len(next(iter(rhs.values())))
        for f in rhs.values():
            lost = np.linalg.norm(f - frame.embed(frame.coords(f), self.size))
            if not lost <= _SPAN_TOL * np.linalg.norm(f):
                raise ValueError("right-hand side leaves the span of the micro block")
        betas = np.asarray(betas, dtype=complex)
        dist = np.min(np.abs(block.vals[members] - betas[:, None]), axis=-1)
        bound = np.divide(block.cond[members], dist, out=np.full(dist.shape, math.inf),
                          where=dist > 0.0)
        for beta, b in zip(betas, bound):
            if not b <= RESOLVENT_BOUND_LIMIT:
                raise RegimeError(f"micro resolvent is near-singular at beta = {beta:.6g}: its "
                                  f"Bauer-Fike bound {b:.3g} exceeds RESOLVENT_BOUND_LIMIT = "
                                  f"{RESOLVENT_BOUND_LIMIT:.0e}")
        a = block.matrix[members].astype(complex)
        diag = np.arange(a.shape[-1])
        a[:, diag, diag] -= betas[:, None]
        g = np.stack([frame.coords(f) for f in rhs.values()], axis=1)
        try:
            x = np.linalg.solve(a, g)
        except np.linalg.LinAlgError:
            raise RegimeError(f"micro resolvent is singular at one of beta = {betas}; "
                              "parameter on an eigenvalue of the micro block") from None
        self.frame, self._a, self._g, self.coords = frame, a, g, x
        self.solutions = self._guarded(x, g)
        self.entries = [_pairings(sols, rhs) for sols in self.solutions]

    def combine(self, coef: np.ndarray) -> np.ndarray:
        """sum_j coef[r, j] (A_r - beta_r)^-1 rhs[j] for every r, j in rhs
        order, residual-guarded as one vector per r: (R, size)."""
        coef = coef[..., None]
        return self._guarded(self.coords @ coef, self._g @ coef)[..., 0]

    def _guarded(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The basis-length vectors of the solution columns x, once each
        relative residual against g is finite and at most _SOLVE_TOL."""
        scale = np.linalg.norm(g, axis=-2)
        resid = np.linalg.norm(self._a @ x - g, axis=-2)
        bad = ~np.isfinite(resid) | (resid > _SOLVE_TOL * scale)
        if np.any(bad):
            worst = float(np.max((resid / scale)[bad]))
            raise RegimeError(f"micro resolvent solve has relative residual {worst:.2e}, "
                              f"above the bound {_SOLVE_TOL:.0e}, although beta passed the "
                              "spectral-distance guard")
        return self.embed(x, self.frame)

    def embed(self, x: np.ndarray, frame: Frame) -> np.ndarray:
        """The basis-length vectors of the coordinate columns x on frame."""
        out = np.zeros(x.shape[:-2] + (self.size, x.shape[-1]), dtype=complex)
        out[..., frame.index, :] = frame.scale[:, None] * (frame.basis @ x)
        return out


def _pairings(sols: np.ndarray, fluxes: dict) -> dict:
    """(j, k) -> fluxes[k] . sols[:, a], column a the solution for fluxes[j]."""
    return {(j, k): complex(sols[:, a] @ fk)
            for a, j in enumerate(fluxes) for k, fk in fluxes.items()}


class _Family:
    """The resolvent entries one determinant needs, for a stack of y = eps*s.

    They come from the real micro block of the azimuthal sector m that holds
    the determinant's fluxes (_FLUXES): block, one stack member per y on the
    sector's micro frames, decomposed by one eig as B = X diag(mu) X^-1.
    Every Newton step evaluates member i's R_jk(beta) = sum_m l_km r_jm /
    (mu_m - beta), with l_k = X^T F^T f_k and r_j = X^-1 F^H f_j for the cos
    frame F (parity scale included), and d/dbeta (over (mu_m - beta)^2), in O(n).
    """

    _FLUXES = {0: (1, 4), 1: (2,)}  # coupled fluxes in m = 0, the shear flux in m = 1

    def __init__(self, op: CollisionOperator, y, m: int):
        self.y, self.m = np.atleast_1d(np.asarray(y, dtype=float)), m
        lm, wm, frames = op.sector_blocks.micro[m]
        self.block = EigenBlock(lm + self.y[:, None, None] * wm, frames)
        self.fluxes = {j: op.basis.fluxes[j - 1] for j in self._FLUXES[m]}
        self._keys = [(j, k) for j in self.fluxes for k in self.fluxes]

    def built_for(self, eps, s, m: int) -> _Family:
        """self, when built at y = eps*s for sector m, else ValueError;
        RegimeError naming the first mode (eps, s) whose block's eigenvectors
        are too ill-conditioned for pole sums (cond >= POLE_COND_LIMIT)."""
        y = np.multiply(eps, s)
        if self.m != m or not np.array_equal(self.y, y):
            raise ValueError(f"family built for eps*s = {self.y.tolist()} and sector "
                             f"m = {self.m}, not {y.tolist()} and m = {m}")
        for e, x, cond in zip(eps, s, self.block.cond):
            if not cond < POLE_COND_LIMIT:
                raise RegimeError(f"micro m = {m} sector block at eps = {e:.6g}, s = {x:.6g} "
                                  f"has eigenvector cond {cond:.3g}, not below "
                                  f"POLE_COND_LIMIT = {POLE_COND_LIMIT:.0e}; its pole sums "
                                  "would lose too many digits")
        return self

    @cached_property
    def _weights(self) -> np.ndarray:
        """(member, (j, k), pole) weights r_jm l_km of the pole sums."""
        frame = self.block.frames[0]
        vecs_t = self.block.vecs.swapaxes(-1, -2)
        left = {k: vecs_t @ (frame.basis.T @ (frame.scale * f[frame.index]))
                for k, f in self.fluxes.items()}
        right = {j: self.block.coefficients(frame.coords(f)) for j, f in self.fluxes.items()}
        return np.stack([right[j] * left[k] for j, k in self._keys], axis=1)

    def entries(self, i: int, beta: complex) -> tuple[dict, dict]:
        """Member i's R_jk(beta) and d/dbeta, for one Newton step."""
        w = 1.0 / (self.block.vals[i] - beta)
        return (dict(zip(self._keys, (self._weights[i] @ w).tolist())),
                dict(zip(self._keys, (self._weights[i] @ (w * w)).tolist())))


def _require_regime(w: float) -> None:
    if abs(w) > R0_DEFAULT:
        raise RegimeError(f"eps*|xi| = {abs(w):.3f} outside the hydrodynamic ball "
                          f"(r0 = {R0_DEFAULT}); branch construction not valid there")


def _shear_det(w: float, z: complex, vals: dict,
               ders: dict | None = None) -> tuple[complex, complex | None]:
    val = z - w * w * vals[(2, 2)]
    der = None if ders is None else 1.0 - w * w * ders[(2, 2)]
    return val, der


def _coupled_det(s: float, eps: float, z: complex, vals: dict,
                 ders: dict | None = None) -> tuple[complex, complex | None]:
    """Cubic determinant of the density/momentum/temperature block, from the
    entries at beta = eps*z (and their beta-derivatives, for d/dz)."""
    r11, r44 = vals[(1, 1)], vals[(4, 4)]
    r14, r41 = vals[(1, 4)], vals[(4, 1)]
    s2 = s * s
    root23 = math.sqrt(2.0 / 3.0)
    lin = 1.0 + 5.0 / 3.0 * s2 + 1j * eps * root23 * s2 * s * (r41 + r14) \
        + eps * eps * s2 * s2 * (r44 * r11 - r14 * r41)
    val = z ** 3 - z * z * eps * s2 * (r11 + r44) + z * lin - eps * (s2 + s2 * s2) * r44
    if ders is None:
        return val, None
    d11, d44 = ders[(1, 1)], ders[(4, 4)]
    d14, d41 = ders[(1, 4)], ders[(4, 1)]
    # chain rule: the entries are evaluated at beta = eps*z
    dlin = 1j * eps * eps * root23 * s2 * s * (d41 + d14) \
        + eps ** 3 * s2 * s2 * (d44 * r11 + r44 * d11 - d14 * r41 - r14 * d41)
    der = 3.0 * z * z - 2.0 * z * eps * s2 * (r11 + r44) - z * z * eps * eps * s2 * (d11 + d44) \
        + lin + z * dlin - eps * eps * (s2 + s2 * s2) * d44
    return val, der


def _newton(det, seed: complex, basin: float) -> complex:
    """Damped Newton on det (z -> (D(z), D'(z))) from seed.

    A step that would land more than 1.5 basins from the seed is halved,
    down to 1/64 of itself.  RegimeError if an iterate leaves two basins, D
    is not finite, D' vanishes, or _MAX_ITER steps do not converge.
    """
    z = seed
    for _ in range(_MAX_ITER):
        val, der = det(z)
        if not np.isfinite(val) or abs(der) < 1e-14:
            raise RegimeError(f"Newton met D = {val:.3e}, D' = {der:.3e} at z = {z:.6g}")
        step = val / der
        t = 1.0
        while t > 1.0 / 64.0 and abs(z - t * step - seed) > 1.5 * basin:
            t *= 0.5
        z = z - t * step
        if abs(z - seed) > 2.0 * basin:
            raise RegimeError(f"Newton left two basins of the seed: |z - seed| = "
                              f"{abs(z - seed):.3e}, basin {basin:.3e}")
        if t * abs(step) < _ROOT_TOL:
            return z
    raise RegimeError(f"Newton did not converge in {_MAX_ITER} steps")


def _certified_roots(fam: _Family, specs: list) -> tuple[list, list, _Resolvent]:
    """The root of each spec (i, det, scale, seed, basin, tol, real, name):
    _newton from seed on det(z, R, R') -> (D, D'), member i's pole sums at
    beta = scale * z, put on the real axis if real and within 1e-10 of it.
    One _Resolvent at every root then certifies each: |D| at most tol, within
    basin of the seed and, if real, on the real axis, else RegimeError naming
    the root and the check.  Returns the roots, their |D| and the solve."""
    roots = []
    for i, det, scale, seed, basin, _, real, name in specs:
        try:
            z = _newton(lambda z: det(z, *fam.entries(i, scale * z)), seed, basin)
        except RegimeError as exc:
            raise RegimeError(f"{name} not found: {exc}") from None
        if real and abs(z.imag) <= 1e-10 * max(1.0, abs(z)):
            z = complex(z.real)  # certify the root that is returned
        roots.append(z)
    res = _Resolvent(fam.block, [sp[0] for sp in specs],
                     [sp[2] * z for sp, z in zip(specs, roots)], fam.fluxes)
    dets = []
    for (_, det, _, seed, basin, tol, real, name), z, vals in zip(specs, roots, res.entries):
        resid = abs(det(z, vals)[0])
        if not resid <= tol:
            raise RegimeError(f"{name} fails its certificate: |D| = {resid:.2e} > {tol:.0e}")
        if abs(z - seed) > max(basin, 1e-9):
            raise RegimeError(f"{name} left its basin: |z - seed| = "
                              f"{abs(z - seed):.3e} > {basin:.3e}")
        if real and z.imag != 0.0:
            raise RegimeError(f"{name} drifted off the real axis: {z:.3e}")
        dets.append(resid)
    return roots, dets, res


def _shear_roots(fam: _Family, eps: list, s: list) -> tuple[list, list, _Resolvent]:
    """The shear root of every mode (eps, s) from the m = 1 family: seed 0,
    basin R1_DEFAULT, |D| <= 1e-10, real (_certified_roots)."""
    fam.built_for(eps, s, 1)
    return _certified_roots(fam, [
        (i, partial(_shear_det, e * x), 1.0, 0.0j, R1_DEFAULT, 1e-10, True,
         f"shear root at eps = {e:.6g}, s = {x:.6g}") for i, (e, x) in enumerate(zip(eps, s))])


def _coupled_roots(fam: _Family, eps: list, s: list,
                   kappa_bar: float) -> tuple[list, list, _Resolvent]:
    """The roots of branches -1, 0, 1 of every mode (eps, s) from the m = 0
    family: seeds eta_j, |D| <= 1e-9, branch 0 real (_certified_roots).
    Colliding roots mean the regime assumption failed: RegimeError."""
    fam.built_for(eps, s, 0)
    specs = []
    for i, (e, x) in enumerate(zip(eps, s)):
        # the root sits within ~eps*b_j(s) <= C eps s^2 kappa of its seed, so
        # the certification radius must scale with the backend's coefficient
        # size or large-coefficient backends get rejected inside the ball
        basin = max(R1_DEFAULT * abs(x), 3.0 * e * x * x * kappa_bar, 1e-12)
        specs += [(i, partial(_coupled_det, x, e), e, branch_frequency(j, x), basin, 1e-9,
                   j == 0, f"branch {j} root at eps = {e:.6g}, s = {x:.6g}") for j in (-1, 0, 1)]
    roots, dets, res = _certified_roots(fam, specs)
    for i, (e, x) in enumerate(zip(eps, s)):
        z = roots[3 * i:3 * i + 3]
        if any(abs(z[a] - z[b]) < 1e-8 * max(1.0, abs(z[a])) for a, b in ((0, 1), (0, 2), (1, 2))):
            raise RegimeError(f"coupled-family roots collided at eps = {e:.6g}, s = {x:.6g}; "
                              "outside the regime")
    return roots, dets, res


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


def asymptotic_coefficients(basis: VelocityBasis, xi,
                            coeffs: TransportCoefficients) -> AsymptoticCoefficients:
    """Frequencies eta_j, decay rates b_j and limit vectors h_j at xi, parsed
    as for mode_operator (axis_wavenumber); shell_coefficients takes K shells."""
    return shell_coefficients(basis, axis_wavenumber(xi), coeffs)


def shell_coefficients(basis: VelocityBasis, s,
                       coeffs: TransportCoefficients) -> AsymptoticCoefficients:
    """asymptotic_coefficients at s e1, s a float or K shells."""
    return AsymptoticCoefficients(s=s,
                                  eta={j: branch_frequency(j, s) for j in BRANCHES},
                                  b={j: branch_decay(j, s, coeffs) for j in BRANCHES},
                                  h=limit_vectors(basis, s))


def _axis_pairs(basis: VelocityBasis, s: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The weighted bilinear pairing of the columns of f and g, at s per column."""
    i0 = basis.density_index
    return (f * g).sum(0) + f[i0] * g[i0] / (s * s)


def _eig_residuals(basis: VelocityBasis, eps: list, s: list, r: np.ndarray,
                   psi: np.ndarray) -> np.ndarray:
    """||r|| / ||psi|| per column in the weighted norm, r = B psi - lam psi,
    five columns (branches) per mode (eps, s); RegimeError above 1e-6."""
    s_col = np.repeat(s, 5)
    res = np.sqrt(_axis_pairs(basis, s_col, r, r.conj()).real
                  / _axis_pairs(basis, s_col, psi, psi.conj()).real)
    for c in np.flatnonzero(~(res <= 1e-6)):
        raise RegimeError(f"branch {BRANCHES[c % 5]} eigenpair residual {res[c]:.2e} at "
                          f"eps = {eps[c // 5]:.6g}, s = {s[c // 5]:.6g}; determinant root "
                          "does not match the mode operator")
    return res


def hydrodynamic_sweep(op: CollisionOperator, modes) -> list[list[BranchPoint]]:
    """The five labeled branch points of every axis mode (eps, s) in modes.

    Labels come from continuation: each root is solved from its own analytic
    seed.  Eigenfunctions are normalized in the weighted pairing and
    sign-aligned against the limit vectors.  eig_residual applies the mode
    matrix through the dense L and V1, not through the sector blocks.  Each
    mode is parsed as mode_operator parses it: eps by check_eps (RegimeError)
    and s by axis_wavenumber (BasisError)."""
    if not modes:
        return []
    eps = [float(e) for e, _ in modes]
    s = [axis_wavenumber(x) for _, x in modes]
    for e, x in zip(eps, s):
        check_eps(e)
        _require_regime(e * x)
    basis = op.basis
    y = np.multiply(eps, s)
    shear, coupled = _Family(op, y, 1), _Family(op, y, 0)
    shear_z, shear_det, shear_res = _shear_roots(shear, eps, s)
    coupled_z, coupled_det, coupled_res = _coupled_roots(coupled, eps, s, op.kappa_bar)

    # coupled eigenfunctions: the null vector (a, b, c) of the macro system on
    # chi_0, chi_1, chi_4, and the micro part of V1 @ macro, b f_1 + c f_4
    # (V1 chi_0 = chi_1 is macro), through the certifying solve
    root23 = math.sqrt(2.0 / 3.0)
    mats = []
    for r, (z, v) in enumerate(zip(coupled_z, coupled_res.entries)):
        x, es2 = s[r // 3], eps[r // 3] * s[r // 3] ** 2
        mats.append([[z, 1j * x, 0.0],
                     [1j * (x + 1.0 / x), z - es2 * v[(1, 1)], 1j * x * root23 - es2 * v[(4, 1)]],
                     [0.0, 1j * x * root23 - es2 * v[(1, 4)], z - es2 * v[(4, 4)]]])
    _, sing, vh = np.linalg.svd(np.array(mats, dtype=complex))
    for r in np.flatnonzero(sing[:, -1] > 1e-6 * sing[:, 0]):
        raise AssemblyError(f"macro system at branch {r % 3 - 1}, eps = {eps[r // 3]:.6g}, "
                            f"s = {s[r // 3]:.6g} is not singular: sigma_min/sigma_max = "
                            f"{sing[r, -1] / sing[r, 0]:.2e}")
    abc = np.conj(vh[:, -1])
    coupled_psi = np.stack([basis.chi(0), basis.chi(1), basis.chi(4)], axis=1) @ abc.T \
        + 1j * np.repeat(y, 3) * coupled_res.combine(abc[:, 1:]).T
    # f_3 is the quarter-turn image of f_2, so its solution is f_2's
    # coordinates embedded in the sin copy of m = 1
    shear_3 = shear_res.embed(shear_res.coords, shear.block.frames[1])[:, :, 0].T
    psi = np.dstack([coupled_psi.reshape(basis.dim, -1, 3),
                     basis.chi(2)[:, None] + 1j * y * shear_res.solutions[:, :, 0].T,
                     basis.chi(3)[:, None] + 1j * y * shear_3]).reshape(basis.dim, -1)
    s_col = np.repeat(s, 5)
    pair = _axis_pairs(basis, s_col, psi, psi)
    for c in np.flatnonzero(np.abs(pair) < 1e-6):
        raise AssemblyError(f"branch {BRANCHES[c % 5]} eigenfunction at eps = {eps[c // 5]:.6g}, "
                            f"s = {s[c // 5]:.6g} is nearly isotropic-null; cannot normalize "
                            "in the weighted pairing")
    psi = psi / np.sqrt(pair)
    hs = limit_vectors(basis, s)
    h = np.stack([hs[j] for j in BRANCHES], axis=1).reshape(-1, basis.dim).T
    psi = psi * np.where(_axis_pairs(basis, s_col, psi, h).real < 0, -1.0, 1.0)

    z = np.column_stack([np.reshape(coupled_z, (-1, 3)), shear_z, shear_z])
    lam = z * np.array([[e, e, e, 1.0, 1.0] for e in eps])
    dets = np.column_stack([np.reshape(coupled_det, (-1, 3)), shear_det, shear_det])
    v1_psi, l_psi = (a @ psi.real + 1j * (a @ psi.imag) for a in (basis.v1, op.matrix))
    i0 = basis.density_index
    v1_psi += np.outer(basis.v1[:, i0], psi[i0] / (s_col * s_col))
    eig = _eig_residuals(basis, eps, s, l_psi - 1j * np.repeat(y, 5) * v1_psi - psi * lam.ravel(),
                         psi).reshape(-1, 5)
    return [[BranchPoint(branch=j, s=s[i], eps=eps[i], lam=complex(lam[i, k]), z=complex(z[i, k]),
                         psi=psi[:, 5 * i + k], det_residual=float(dets[i, k]),
                         eig_residual=float(eig[i, k])) for k, j in enumerate(BRANCHES)]
            for i in range(len(s))]


def hydrodynamic_spectrum(mode: FourierMode) -> list[BranchPoint]:
    """The five labeled branch points of one mode: hydrodynamic_sweep's stack of one."""
    return hydrodynamic_sweep(mode.collision, [(mode.eps, mode.s)])[0]
