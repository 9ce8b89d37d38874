"""Dispersion determinants and the five hydrodynamic eigenvalue branches.

Eliminating the microscopic part of the eigenvalue problem at wavenumber
s = |xi| leaves scalar conditions on the macroscopic components: a scalar
determinant for the doubly degenerate shear family (solve_D0) and a 3x3
determinant coupling density, longitudinal momentum and temperature
(solve_D1, with the electrostatic term entering through the 1/s factor).
Roots are tracked from their analytic eps -> 0 seeds, converted into
eigenpairs of the full mode operator, and cross-validated against dense
spectra.  Everything is computed on the axis xi = s e1 and pushed forward
by a velocity rotation for general directions.

Scaling conventions: the shear root variable equals the eigenvalue itself,
lam_{2,3} = z(eps*s); the coupled-family roots are rescaled, lam_j = eps*z_j
for j in {-1, 0, 1}.

Both determinants are built from the micro resolvent entries
R_jk(beta) = f_k . (L - beta - i y V1)^-1 f_j, y = eps*s, f_j the flux
vectors.  Scaled by i^(a1 mod 2), the micro block of L - i y V1 is real and
block-diagonal in the azimuthal sectors about e1 (CollisionOperator.
sector_blocks), and each flux lies in one sector: the coupled determinant
needs R_11, R_14, R_41 and R_44 from the micro m = 0 block, the shear one
R_22 from the cos copy of the micro m = 1 block.  Each micro block is an
EigenBlock on frames in basis slot numbering, and every micro-space vector
has basis length.  Per mode each of those two blocks is decomposed once
(_Family), so every step of the one damped Newton both determinants share
(_newton) evaluates its entries as pole sums in O(n).  A root is returned
only once one guarded np.linalg.solve with its block (_Resolvent, which
refuses a beta too near the block's spectrum) certifies |D|, and it lies in
its basin around the analytic seed and, for a real branch, on the real
axis; else RegimeError names the failed check.  That solve takes every flux
as a right-hand side and also yields det_residual and the micro part of the
branch eigenfunction; f_3's solution is the sin-copy image of f_2's (a
quarter turn) and costs no solve.  An operator without the sector structure
raises AssemblyError, and a block whose eigenvectors are too ill-conditioned
for pole sums (POLE_COND_LIMIT) RegimeError.  The solve with the whole micro
block (_entries) is only the reference for resolvent_entry and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import CollisionOperator
from .errors import AssemblyError, RegimeError
from .mode_operator import (EigenBlock, FourierMode, _normalize_xi, pushforward_from_axis,
                            rotation_to_axis)
from .transport import TransportCoefficients, branch_decay, branch_frequency
from .velocity_space import Frame, VelocityBasis, bilinear_pair

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
AXIS = np.array([1.0, 0.0, 0.0])


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
    """Closed-form leading frequencies, decay rates and limit vectors at one xi."""

    s: float
    direction: np.ndarray
    eta: dict
    b: dict
    h: dict

    def evolve(self, basis: VelocityBasis, u: np.ndarray, times, branches,
               eps=1.0) -> np.ndarray:
        """sum_j exp(eta_j t / eps - b_j t) <u, h_j> h_j over the given branches.

        One row per time; the pairing is the weighted bilinear one.  Every h_j
        vanishes off basis.invariant_indices, so the sum runs on those five
        slots.  The pairing keeps the whole length: summed over five slots it
        would round differently.  The fluid branches 0, 2, 3 do not
        oscillate, so eps only matters for -1 and 1.  For an array of E eps
        values the result is (E, T, dim), one slice per eps, and each pairing
        is formed once for all of them.
        """
        times = np.asarray(times, dtype=float)
        eps = np.asarray(eps, dtype=float)[..., None]
        slots = list(basis.invariant_indices)
        acc = np.zeros(eps.shape[:-1] + (times.size, len(slots)), dtype=complex)
        for j in branches:
            coef = bilinear_pair(basis, u, self.h[j], self.s)
            phases = np.exp(self.eta[j] * times / eps - self.b[j] * times)
            acc += phases[..., None] * (coef * self.h[j][slots])
        out = np.zeros(acc.shape[:-1] + (basis.dim,), dtype=complex)
        out[..., slots] = acc
        return out


class _Resolvent:
    """(A - beta)^-1 applied to one stack of right-hand sides, A the matrix of
    one micro EigenBlock on its first frame: one np.linalg.solve.

    RegimeError when the Bauer-Fike bound cond / min|vals - beta| on its norm
    exceeds RESOLVENT_BOUND_LIMIT (inf on an eigenvalue), or a column's
    relative residual is not finite or above _SOLVE_TOL.  rhs maps keys to
    basis-length vectors in the span of the frame; solutions maps them to the
    basis-length solutions, coords to their coordinates in the frame, and
    entries maps (j, k) to rhs[k] . solutions[j].
    """

    def __init__(self, block: EigenBlock, beta: complex, rhs: dict):
        frame = block.frames[0]
        self.size = len(next(iter(rhs.values())))
        for f in rhs.values():
            lost = np.linalg.norm(f - frame.embed(frame.coords(f), self.size))
            if not lost <= _SPAN_TOL * np.linalg.norm(f):
                raise ValueError("right-hand side leaves the span of the micro block")
        dist = float(np.min(np.abs(block.vals - beta)))
        bound = block.cond / dist if dist > 0.0 else math.inf
        if not bound <= RESOLVENT_BOUND_LIMIT:
            raise RegimeError(f"micro resolvent is near-singular at beta = {beta:.6g}: its "
                              f"Bauer-Fike bound {bound:.3g} exceeds RESOLVENT_BOUND_LIMIT = "
                              f"{RESOLVENT_BOUND_LIMIT:.0e}")
        a = block.matrix.astype(complex)
        a[np.diag_indices_from(a)] -= beta
        g = np.stack([frame.coords(f) for f in rhs.values()], axis=1)
        try:
            x = np.linalg.solve(a, g)
        except np.linalg.LinAlgError:
            raise RegimeError(f"micro resolvent is singular at beta = {beta:.6g}; "
                              "parameter on an eigenvalue of the micro block") from None
        self.frame = frame
        self._a = a
        self._g = dict(zip(rhs, g.T))
        self.coords = dict(zip(rhs, x.T))
        self.solutions = dict(zip(rhs, self._guarded(x, g).T))
        self.entries = _pairings(self.solutions, rhs)

    def combine(self, coef: dict) -> np.ndarray:
        """sum_j coef[j] (A - beta)^-1 rhs[j], residual-guarded as one vector."""
        x = sum(c * self.coords[j] for j, c in coef.items())
        g = sum(c * self._g[j] for j, c in coef.items())
        return self._guarded(x[:, None], g[:, None])[:, 0]

    def _guarded(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The basis-length vectors of the solution columns x, once each
        relative residual against g is finite and at most _SOLVE_TOL."""
        scale = np.linalg.norm(g, axis=0)
        resid = np.linalg.norm(self._a @ x - g, axis=0)
        bad = ~np.isfinite(resid) | (resid > _SOLVE_TOL * scale)
        if np.any(bad):
            worst = float(np.max(resid[bad] / scale[bad]))
            raise RegimeError(f"micro resolvent solve has relative residual {worst:.2e}, "
                              f"above the bound {_SOLVE_TOL:.0e}, although beta passed the "
                              "spectral-distance guard")
        out = np.zeros((self.size, x.shape[1]), dtype=complex)
        out[self.frame.index] = self.frame.scale[:, None] * (self.frame.basis @ x)
        return out


def _pairings(sols: dict, fluxes: dict) -> dict:
    return {(j, k): complex(sols[j] @ fk) for j in fluxes for k, fk in fluxes.items()}


def _entries(op: CollisionOperator, beta: complex, y: float,
             derivative: bool = False) -> tuple[dict, dict | None]:
    """All R_(jk) at one (beta, y) point, and d/dbeta when asked, through
    solves with the whole micro block (an EigenBlock on a unit frame over
    the micro slots): the reference the pole sums are tested against.
    d/dbeta of the resolvent is its square, so the derivative entries solve
    once more, with the first solutions as right-hand sides."""
    blocks = op.micro_blocks
    n = blocks.micro.size
    block = EigenBlock(blocks.L.astype(complex) - 1j * y * blocks.V,
                       (Frame(blocks.micro, np.ones(n), np.eye(n)),))
    fluxes = {j: op.basis.fluxes[j - 1] for j in FLUX_INDICES}
    res = _Resolvent(block, beta, fluxes)
    ders = None
    if derivative:
        ders = _pairings(_Resolvent(block, beta, res.solutions).solutions, fluxes)
    return res.entries, ders


def resolvent_entry(op: CollisionOperator, j: int, k: int,
                    beta: complex, y: float) -> complex:
    """Micro-resolvent matrix element between flux vectors j and k, at
    y = eps*s: f_k . (L - beta - i y V1)^-1 f_j."""
    if j not in FLUX_INDICES or k not in FLUX_INDICES:
        raise ValueError(f"resolvent entries are defined for indices {FLUX_INDICES}")
    return _entries(op, beta, y)[0][(j, k)]


class _Family:
    """The resolvent entries one determinant needs, at one y = eps*s.

    They come from the real micro block of the azimuthal sector m that holds
    the determinant's fluxes (_FLUXES).  block is its EigenBlock on the
    sector's micro frames, decomposed once as B = X diag(mu) X^-1.  Every
    Newton step evaluates R_jk(beta) = sum_m l_km r_jm / (mu_m - beta), with
    l_k = X^T F^T f_k and r_j = X^-1 F^H f_j for the cos frame F (parity
    scale included), and its beta-derivative (the same sum over
    (mu_m - beta)^2) in O(n).  A block whose eigenvectors are too
    ill-conditioned for pole sums (EigenBlock.cond at POLE_COND_LIMIT or
    more) is refused with RegimeError.  certified() evaluates the entries
    through one _Resolvent per root, with every flux as a right-hand side;
    the branch eigenfunctions read the same solutions, and _shear_solution
    reads the one for f_3 off f_2's.
    """

    _FLUXES = {0: (1, 4), 1: (2,)}  # coupled fluxes in m = 0, the shear flux in m = 1

    def __init__(self, op: CollisionOperator, y: float, m: int):
        self.y, self.m = y, m
        lm, wm, frames = op.sector_blocks.micro[m]
        self.block = EigenBlock(lm + y * wm, frames)
        if not self.block.cond < POLE_COND_LIMIT:
            raise RegimeError(f"micro m = {m} sector block has eigenvector cond "
                              f"{self.block.cond:.3g}, not below POLE_COND_LIMIT = "
                              f"{POLE_COND_LIMIT:.0e}; its pole sums would lose too "
                              "many digits")
        frame = frames[0]
        self.fluxes = {j: op.basis.fluxes[j - 1] for j in self._FLUXES[m]}
        left = {k: self.block.vecs.T @ (frame.basis.T @ (frame.scale * f[frame.index]))
                for k, f in self.fluxes.items()}
        right = {j: self.block.coefficients(frame.coords(f)) for j, f in self.fluxes.items()}
        self._keys = [(j, k) for j in self.fluxes for k in self.fluxes]
        self._weights = np.array([right[j] * left[k] for j, k in self._keys])
        self._solves: dict = {}

    def built_for(self, y: float, m: int) -> _Family:
        """self, when it was built at y for sector m; else ValueError."""
        if (self.y, self.m) != (y, m):
            raise ValueError(f"family built for eps*s = {self.y} and sector m = {self.m}, "
                             f"not {y} and m = {m}")
        return self

    def entries(self, beta: complex) -> tuple[dict, dict]:
        """R_jk(beta) and d/dbeta, for one Newton step."""
        w = 1.0 / (self.block.vals - beta)
        return (dict(zip(self._keys, (self._weights @ w).tolist())),
                dict(zip(self._keys, (self._weights @ (w * w)).tolist())))

    def resolvent(self, beta: complex) -> _Resolvent:
        """The guarded solve at beta, made once per beta."""
        if beta not in self._solves:
            self._solves[beta] = _Resolvent(self.block, beta, self.fluxes)
        return self._solves[beta]

    def certified(self, beta: complex) -> dict:
        """R_jk(beta) through the solve at beta."""
        return self.resolvent(beta).entries


def _require_regime(w: float) -> None:
    if abs(w) > R0_DEFAULT:
        raise RegimeError(f"eps*|xi| = {abs(w):.3f} outside the hydrodynamic ball "
                          f"(r0 = {R0_DEFAULT}); branch construction not valid there")


def _shear_det(z: complex, w: float, vals: dict,
               ders: dict | None = None) -> tuple[complex, complex | None]:
    val = z - w * w * vals[(2, 2)]
    der = None if ders is None else 1.0 - w * w * ders[(2, 2)]
    return val, der


def _coupled_det(z: complex, s: float, eps: float, vals: dict,
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


def _root(det, certify, seed: complex, basin: float, tol: float, real: bool,
          name: str) -> complex:
    """The root _newton finds from seed, once it passes every check.

    certify(z) is D(z) through the certification solve at z, and must be at
    most tol; the root must lie within basin of the seed, and on the real
    axis if real (then it is returned real).  A failed check raises
    RegimeError naming the root and the check.
    """
    try:
        z = _newton(det, seed, basin)
    except RegimeError as exc:
        raise RegimeError(f"{name} not found: {exc}") from None
    if real and abs(z.imag) <= 1e-10 * max(1.0, abs(z)):
        z = complex(z.real)  # certify the root that is returned
    resid = abs(certify(z))
    if not resid <= tol:
        raise RegimeError(f"{name} fails its certificate: |D| = {resid:.2e} > {tol:.0e}")
    if abs(z - seed) > max(basin, 1e-9):
        raise RegimeError(f"{name} left its basin: |z - seed| = "
                          f"{abs(z - seed):.3e} > {basin:.3e}")
    if real and z.imag != 0.0:
        raise RegimeError(f"{name} drifted off the real axis: {z:.3e}")
    return z


def solve_D0(op: CollisionOperator, s: float, eps: float,
             fam: _Family | None = None) -> complex:
    """Root of the shear determinant; equals the shear eigenvalue itself.

    _newton from 0 on pole sums (_Family), in the basin |z| <= R1_DEFAULT.
    The root is real and even in s; it is returned only once |D| <= 1e-10
    through one solve at the root, inside the basin and on the real axis,
    else RegimeError.  fam, the m = 1 _Family at eps*s, lets
    hydrodynamic_spectrum share the decomposition and that solve; the root
    does not depend on it, and a family built for another eps*s or sector
    is a ValueError.
    """
    w = eps * s
    _require_regime(w)
    if w == 0.0:
        return 0.0j
    fam = _Family(op, w, 1) if fam is None else fam.built_for(w, 1)
    return _root(lambda z: _shear_det(z, w, *fam.entries(z)),
                 lambda z: _shear_det(z, w, fam.certified(z))[0],
                 0.0j, R1_DEFAULT, 1e-10, True, "shear root")


def solve_D1(op: CollisionOperator, s: float, eps: float,
             fam: _Family | None = None) -> dict:
    """The three coupled-family roots, keyed by branch index -1, 0, 1.

    _newton from each analytic seed eta_j on pole sums (_Family).  Each
    root is returned only once |D| <= 1e-9 through one solve at the root,
    it lies inside its basin and, for the thermal branch 0, on the real
    axis, else RegimeError.  Root collision means the regime assumption
    failed, not that the solver did.  fam is as in solve_D0, for m = 0.
    """
    _require_regime(eps * s)
    if eps == 0.0:
        return {j: branch_frequency(j, s) for j in (-1, 0, 1)}
    fam = _Family(op, eps * s, 0) if fam is None else fam.built_for(eps * s, 0)
    roots = {}
    for j in (-1, 0, 1):
        eta = branch_frequency(j, s)
        # the root sits within ~eps*b_j(s) <= C eps s^2 kappa of its seed, so
        # the certification radius must scale with the backend's coefficient
        # size or large-coefficient backends get rejected inside the ball
        basin = max(R1_DEFAULT * abs(s), 3.0 * eps * s * s * op.kappa_bar, 1e-12)
        roots[j] = _root(lambda z: _coupled_det(z, s, eps, *fam.entries(eps * z)),
                         lambda z: _coupled_det(z, s, eps, fam.certified(eps * z))[0],
                         eta, basin, 1e-9, j == 0, f"branch {j} root")
    vals = list(roots.values())
    for a in range(3):
        for b in range(a + 1, 3):
            if abs(vals[a] - vals[b]) < 1e-8 * max(1.0, abs(vals[a])):
                raise RegimeError("coupled-family roots collided; outside the regime")
    return roots


def limit_vectors(basis: VelocityBasis, s: float, direction: np.ndarray) -> dict:
    """Leading-order macroscopic limit vectors h_j at s * direction.

    They are orthonormal in the weighted pairing and free of transport
    coefficients.  The acoustic velocity component carries sign -j, which is
    what the defining 5x5 drift eigenproblem forces.  The transverse pair
    uses the frame of the axis rotation, which is the identity on the axis.
    """
    rot = rotation_to_axis(direction)
    chi_vec = [basis.chi(1), basis.chi(2), basis.chi(3)]

    def along(w3: np.ndarray) -> np.ndarray:
        return sum(w3[i] * chi_vec[i] for i in range(3))

    den = math.sqrt(3.0 + 5.0 * s * s)
    a0 = math.sqrt(2.0) * s * s / (den * math.sqrt(1.0 + s * s))
    c0 = math.sqrt(3.0 + 3.0 * s * s) / den
    h = {0: a0 * basis.chi(0) - c0 * basis.chi(4)}
    q = math.sqrt(1.5) * s / den
    u = s / den
    for j in (-1, 1):
        h[j] = q * basis.chi(0) - (j / math.sqrt(2.0)) * along(direction) + u * basis.chi(4)
    h[2] = along(rot[1])
    h[3] = along(rot[2])
    return h


def asymptotic_coefficients(basis: VelocityBasis, xi,
                            coeffs: TransportCoefficients) -> AsymptoticCoefficients:
    """Frequencies eta_j, decay rates b_j and limit vectors h_j at xi.

    For off-axis xi the transverse pair uses the orthonormal frame
    perpendicular to xi delivered by the axis rotation; any frame choice
    spans the same degenerate subspace.  xi is parsed as for mode_operator:
    a positive magnitude on the axis or a nonzero 3-vector, else BasisError.
    """
    s, direction = _normalize_xi(xi)
    eta = {j: branch_frequency(j, s) for j in (-1, 0, 1, 2, 3)}
    b = {j: branch_decay(j, s, coeffs) for j in (-1, 0, 1, 2, 3)}
    return AsymptoticCoefficients(s=s, direction=direction, eta=eta, b=b,
                                  h=limit_vectors(basis, s, direction))


def _axis_pair(basis: VelocityBasis, s: float, f: np.ndarray, g: np.ndarray) -> complex:
    i0 = basis.invariant_indices[0]
    return complex(f @ g + (f[i0] * g[i0]) / (s * s))


def _shear_solution(fam: _Family, z: complex, j: int) -> np.ndarray:
    """The solution for flux j in (2, 3) from the solve at z.  f_3 is the
    quarter-turn image of f_2, so its solution is f_2's coordinates
    embedded in the sin copy of the m = 1 sector, block.frames[1]."""
    res = fam.resolvent(z)
    if j == 2:
        return res.solutions[2]
    return fam.block.frames[1].embed(res.coords[2], res.size)


def _branch_eigenfunction(op: CollisionOperator, fam: _Family, j: int, z: complex,
                          s: float, eps: float, h_axis: dict) -> np.ndarray:
    """Assemble, normalize and sign-align one axis eigenfunction; the micro
    parts are read from the solve that certified the root."""
    basis = op.basis
    if j in (2, 3):
        micro = _shear_solution(fam, z, j)
        psi = basis.chi(j).astype(complex) + 1j * eps * s * micro
    else:
        beta = eps * z
        vals = fam.certified(beta)
        root23 = math.sqrt(2.0 / 3.0)
        es2 = eps * s * s
        m = np.array([
            [z, 1j * s, 0.0],
            [1j * (s + 1.0 / s), z - es2 * vals[(1, 1)], 1j * s * root23 - es2 * vals[(4, 1)]],
            [0.0, 1j * s * root23 - es2 * vals[(1, 4)], z - es2 * vals[(4, 4)]],
        ], dtype=complex)
        _, sing, vh = np.linalg.svd(m)
        if sing[-1] > 1e-6 * sing[0]:
            raise AssemblyError(f"macro system at branch {j} is not singular: "
                                f"sigma_min/sigma_max = {sing[-1] / sing[0]:.2e}")
        a, b, c = np.conj(vh[-1])
        macro = a * basis.chi(0) + b * basis.chi(1) + c * basis.chi(4)
        # the micro part of V1 @ macro is b f_1 + c f_4: V1 chi_0 = chi_1 is macro
        micro = fam.resolvent(beta).combine({1: b, 4: c})
        psi = macro + 1j * eps * s * micro
    pair = _axis_pair(basis, s, psi, psi)
    if abs(pair) < 1e-6:
        raise AssemblyError(f"branch {j} eigenfunction is nearly isotropic-null; "
                            "cannot normalize in the weighted pairing")
    psi = psi / np.sqrt(pair)
    if _axis_pair(basis, s, psi, h_axis[j]).real < 0:
        psi = -psi
    return psi


def hydrodynamic_spectrum(mode: FourierMode) -> list[BranchPoint]:
    """The five labeled branch points of one mode, from the determinants.

    Labels come from continuation: each root is solved from its own
    analytic seed.  Eigenfunctions are built on the axis, sign-aligned
    against the limit vectors, then rotated to the actual direction.
    """
    op = mode.collision
    s, eps = mode.s, mode.eps
    _require_regime(eps * s)
    basis = op.basis
    h_axis = limit_vectors(basis, s, AXIS)

    shear = _Family(op, eps * s, 1)
    shear_z = solve_D0(op, s, eps, shear)
    coupled = _Family(op, eps * s, 0)
    coupled_z = solve_D1(op, s, eps, coupled)

    on_axis = abs(mode.direction @ AXIS - 1.0) < 1e-14
    push = None if on_axis else pushforward_from_axis(basis, mode.direction)

    points = []
    for j in (-1, 0, 1, 2, 3):
        if j in (2, 3):
            fam = shear
            z = shear_z
            lam = complex(z)
            det_res = abs(_shear_det(z, eps * s, fam.certified(z))[0])
        else:
            fam = coupled
            z = coupled_z[j]
            lam = eps * z
            det_res = abs(_coupled_det(z, s, eps, fam.certified(eps * z))[0])
        psi = _branch_eigenfunction(op, fam, j, z, s, eps, h_axis)
        if push is not None:
            psi = push @ psi
        scale = mode.norm(psi)
        eig_res = mode.norm(mode.apply(psi) - lam * psi) / scale
        if eig_res > 1e-6:
            raise RegimeError(f"branch {j} eigenpair residual {eig_res:.2e}; "
                              "determinant root does not match the mode operator")
        points.append(BranchPoint(branch=j, s=s, eps=eps, lam=lam, z=complex(z),
                                  psi=psi, det_residual=det_res, eig_residual=eig_res))
    return points


def dense_comparison(mode: FourierMode, points: list[BranchPoint],
                     fraction: float = 0.3) -> dict:
    """Match branch points against the dense spectrum of the same matrix.

    Assignment is optimal (rectangular Hungarian); the report also carries
    the largest real part outside the strip, which must stay below the
    negative threshold for the splitting to make sense.
    """
    import scipy.optimize  # only this check needs it

    vals = mode.eigensystem()[0]
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
    def shear_root(w: float) -> float:
        return solve_D0(op, w, 1.0).real

    # five-point second derivative; the root function is even with f(0) = 0
    curv = (32.0 * shear_root(h) - 2.0 * shear_root(2.0 * h)) / (12.0 * h * h)

    hs = h * max(s, 1e-6)

    def coupled_slope(j: int, step: float) -> complex:
        zp = solve_D1(op, s, step)[j]
        zm = solve_D1(op, s, -step)[j]
        return (zp - zm) / (2.0 * step)

    slopes = {}
    for j in (-1, 0, 1):
        d1 = coupled_slope(j, hs)
        d2 = coupled_slope(j, 0.5 * hs)
        slopes[j] = (4.0 * d2 - d1) / 3.0
    return {"shear_curvature": curv, "eps_slope": slopes}


def eigenfunction_expansion_check(op: CollisionOperator, bp: BranchPoint,
                                  levels: int = 4) -> dict:
    """Convergence of one branch eigenfunction to its limit expansion.

    Halves eps from the anchor point and measures, in the weighted norm,
    the distance of the macro part from the limit vector (first order) and
    of the micro part from its explicit leading term (second order); also
    tracks the quadratic normalization of the macro coefficients.
    """
    from .mode_operator import mode_operator

    basis = op.basis
    s, j = bp.s, bp.branch
    h_axis = limit_vectors(basis, s, AXIS)
    v1 = basis.v_matrices[0]
    lead_micro = op.micro_solve(basis.micro_project(v1 @ h_axis[j].astype(float)))
    i0, i1, i4 = (basis.invariant_indices[0], basis.invariant_indices[1],
                  basis.invariant_indices[4])

    eps_levels, macro_res, micro_res, quad_norms = [], [], [], []
    for k in range(levels):
        eps_k = bp.eps / 2.0 ** k
        mode = mode_operator(op, eps_k, np.array([s, 0.0, 0.0]))
        point = next(p for p in hydrodynamic_spectrum(mode) if p.branch == j)
        psi = point.psi
        macro = basis.macro_project(psi)
        micro = psi - macro
        macro_res.append(mode.norm(macro - h_axis[j]))
        micro_res.append(mode.norm(micro - 1j * eps_k * s * lead_micro))
        if j in (-1, 0, 1):
            a, b, c = psi[i0], psi[i1], psi[i4]
            quad = a * a * (1.0 + 1.0 / (s * s)) + b * b + c * c
        else:
            quad = psi[basis.invariant_indices[j]] ** 2
        quad_norms.append(complex(quad))
        eps_levels.append(eps_k)

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
