"""Independent checks that the tests and the measurement scripts share.

No subcommand imports this module, and it lives beside the tests'
*_reference modules: each definition here recomputes by a second route what
a job computes by its first, or measures a quantity the acceptance criteria
pin down.  The scripts that read it put this directory on sys.path.

- FourierMode and mode_operator: one axis mode as an object, its dense
  matrix (checks.mode_matrix) and its weighted inner product and
  pairing; mode_blocks gives its sector blocks, and propagate_kinetic and
  split_S1_S2 propagate and split it through the jobs' kernel
  (semigroup.propagate_axis_modes, hydrodynamic_part).
- eigensystem and strip_eigensystem: the dense eigensystem of one mode,
  every copy of every sector block embedded back into the basis, and its
  five-eigenvalue hydrodynamic strip; classify_strip labels the strip by
  branch.
- layer_frequency: the initial-layer oscillation frequency, read off the
  propagated mode by a windowed FFT.
- fit_decay: a least-squares decay rate of a trajectory's norm track.
- GammaEvaluator: the weak form of the bilinear collision product on the
  Cartesian center-of-mass rule, sized for the degree-3N integrand.
- evaluate and coeffs_from_callable: a coefficient vector's pointwise
  values, and the coefficients of a pointwise function on exact_rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from vpb_spectral.checks import ModeTrajectory, mode_matrix
from vpb_spectral.collision import (CollisionOperator, CollisionQuadrature, _chunk_blocks,
                                    _CollisionGrid, _pair_points, _point_weights)
from vpb_spectral.dispersion import R0_DEFAULT, BranchPoint, hydrodynamic_sweep
from vpb_spectral.errors import BasisError, FitError, RegimeError
from vpb_spectral.mode_operator import EigenBlock, _checked_times, axis_eigen_blocks, check_eps
from vpb_spectral.semigroup import hydrodynamic_part, member_states, propagate_axis_modes
from vpb_spectral.velocity_space import (VelocityBasis, _gauss_product_rule, axis_wavenumber,
                                         bilinear_pair, macro_vector, weighted_inner)


@dataclass(frozen=True)
class FourierMode:
    """The linearized operator restricted to the axis mode xi = s e1."""

    collision: CollisionOperator
    eps: float
    s: float

    @property
    def basis(self) -> VelocityBasis:
        return self.collision.basis

    @property
    def xi(self) -> np.ndarray:
        return np.array([self.s, 0.0, 0.0])

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense complex mode matrix B, formed on first use; read-only."""
        mat = mode_matrix(self.collision, self.eps, self.s)
        mat.setflags(write=False)
        return mat

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        return weighted_inner(self.basis, f, g, self.s)

    def pair(self, f: np.ndarray, g: np.ndarray) -> complex:
        return bilinear_pair(self.basis, f, g, self.s)

    def dissipation(self, f: np.ndarray) -> float:
        """Re (B f, f) in the mode metric; equals the collision form exactly."""
        return float(np.real(self.inner(self.matrix @ f, f)))


def mode_operator(collision: CollisionOperator, eps: float, xi) -> FourierMode:
    """The mode at eps and the axis wavevector xi, parsed by axis_wavenumber."""
    check_eps(eps)
    return FourierMode(collision=collision, eps=eps, s=axis_wavenumber(xi))


def mode_blocks(mode: FourierMode) -> list[EigenBlock]:
    """The mode's sector EigenBlocks, in the order of basis.axis_sectors,
    every sector formed (axis_eigen_blocks)."""
    return list(axis_eigen_blocks(mode.collision, mode.eps * mode.s, mode.s,
                                  [True] * (mode.basis.max_degree + 1)))


def propagate_kinetic(mode: FourierMode, f0: np.ndarray, times) -> ModeTrajectory:
    """Evolve one mode under the scaled kinetic flow: propagate_axis_modes for
    one shell and one eps, embedded by member_states.  method is "expm" if
    some block was refused the eig path and took the block exponential, else
    "eig"."""
    times = _checked_times(times)
    f0 = np.asarray(f0, dtype=complex)
    coords, refused = propagate_axis_modes(mode.collision, [mode.eps], [mode.s],
                                           mode.basis.axis_sectors.coordinates(f0[None]), times)
    return ModeTrajectory(xi=mode.xi, eps=mode.eps, times=times,
                          states=member_states(mode.basis, coords, (0, 0), times),
                          basis=mode.basis, method="expm" if refused.any() else "eig")


def split_S1_S2(mode: FourierMode, f0: np.ndarray, t,
                points: list[BranchPoint] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Hydrodynamic part S1 (semigroup.hydrodynamic_part, at the mode's own
    hydrodynamic_sweep unless points are given) and remainder S2 of the
    propagated mode at time(s) t; S2 is the full propagation minus S1."""
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    full = propagate_kinetic(mode, f0, tarr).states
    if points is None:
        points = hydrodynamic_sweep(mode.collision, [(mode.eps, mode.s)])[0] \
            if mode.eps * mode.s <= R0_DEFAULT else []
    s1 = hydrodynamic_part(mode.basis, mode.eps, mode.s, f0, tarr, points)
    s2 = full - s1
    return (s1[0], s2[0]) if np.ndim(t) == 0 else (s1, s2)


def eigensystem(mode: FourierMode) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors of the mode matrix.

    Assembled from mode_blocks(mode): every copy of every block embedded back
    into the basis (Frame.embed), each eigenvector zero outside its copy's slots.  Both
    arrays are computed once per mode, kept on the mode as a cached property
    would be, shared between callers and read-only.
    """
    held = vars(mode)
    if "_dense_eigensystem" not in held:
        blocks = mode_blocks(mode)
        vals = np.concatenate([b.vals for b in blocks for _ in b.frames])
        vecs = np.concatenate([fr.embed(b.vecs.T, mode.basis.dim)
                               for b in blocks for fr in b.frames]).T
        vals.setflags(write=False)
        vecs.setflags(write=False)
        held["_dense_eigensystem"] = vals, vecs
    return held["_dense_eigensystem"]


def strip_eigensystem(mode: FourierMode, fraction: float = 0.3):
    """Eigenpairs with Re above -fraction * gap: the hydrodynamic cluster.

    Raises RegimeError unless exactly five eigenvalues sit in the strip,
    which is the operational definition of being inside the regime.
    """
    if not 0.0 < fraction < 1.0:
        raise BasisError("strip fraction must lie in (0, 1)")
    gap = mode.collision.spectral_gap()
    vals, vecs = eigensystem(mode)
    keep = np.where(vals.real > -fraction * gap)[0]
    if keep.size != 5:
        raise RegimeError(
            f"{keep.size} eigenvalues above -{fraction:.2f}*gap at eps*s="
            f"{mode.eps * mode.s:.4g}; mode outside the hydrodynamic regime")
    order = np.argsort(-vals[keep].real)
    keep = keep[order]
    return vals[keep], vecs[:, keep]


def classify_strip(vals: np.ndarray, eps: float) -> dict[int, int]:
    """Map branch index -> position among five strip eigenvalues.

    The acoustic pair is the conjugate pair with nonzero imaginary part;
    among the three real branches the exactly degenerate pair is shear and
    the singleton thermal.  Degenerate shear gets indices 2, 3 arbitrarily.
    """
    if vals.shape != (5,):
        raise RegimeError(f"expected five strip eigenvalues, got {vals.shape}")
    im_tol = max(1e-12, 0.2 * eps)
    osc = [i for i in range(5) if abs(vals[i].imag) > im_tol]
    real = [i for i in range(5) if i not in osc]
    if len(osc) != 2:
        raise RegimeError("could not isolate the oscillatory pair in the strip")
    plus = max(osc, key=lambda i: vals[i].imag)
    minus = min(osc, key=lambda i: vals[i].imag)
    pairs = [(abs(vals[a] - vals[b]), a, b)
             for k, a in enumerate(real) for b in real[k + 1:]]
    _, sa, sb = min(pairs)
    thermal = next(i for i in real if i not in (sa, sb))
    return {1: plus, -1: minus, 0: thermal, 2: sa, 3: sb}


def layer_frequency(op: CollisionOperator, eps: float, s_probe: float,
                    f0: np.ndarray | None = None) -> float:
    """Measured angular frequency of the initial-layer oscillation.

    Propagates one shell over the window T = 100*eps sampled at eps/4 and
    locates the dominant positive-frequency peak of the parallel-momentum
    signal, Hann-windowed with parabolic interpolation of the peak bin.
    """
    basis = op.basis
    if f0 is None:
        f0 = macro_vector(basis, 0.3, [1.0, 0.0, 0.0], -0.2).astype(complex)
    dt = eps / 4.0
    times = np.arange(0.0, 100.0 * eps, dt)
    mode = mode_operator(op, eps, np.array([s_probe, 0.0, 0.0]))
    traj = propagate_kinetic(mode, f0, times)
    signal = traj.states[:, basis.invariant_indices[1]]
    window = np.hanning(signal.size)
    spectrum = np.fft.fft(signal * window)
    freqs = np.fft.fftfreq(signal.size, d=dt)
    pos = freqs > 0
    mag = np.abs(spectrum[pos])
    fpos = freqs[pos]
    peak = int(np.argmax(mag))
    if 0 < peak < mag.size - 1:
        lm, l0, lp = np.log(mag[peak - 1:peak + 2])
        shift = 0.5 * (lm - lp) / (lm - 2 * l0 + lp)
    else:
        shift = 0.0
    return float(2.0 * math.pi * (fpos[peak] + shift * (fpos[1] - fpos[0])))


class DecayFit(NamedTuple):
    rate: float
    r_squared: float
    model: str
    n_samples: int


def fit_decay(trajectory, model: str = "exp", transient: float = 0.0,
              slack: float = 0.02) -> DecayFit:
    """Least-squares decay-rate fit in log coordinates.

    model "exp" fits log v = c - r t; model "poly" fits log v = c - r log(1+t).
    Requires at least eight samples past the transient window and a
    monotone (within `slack` relative wiggle) positive tail.
    """
    if isinstance(trajectory, ModeTrajectory):
        times, values = trajectory.times, trajectory.norm_track
    else:
        times, values = trajectory
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = times >= transient
    times, values = times[keep], values[keep]
    if times.size < 8:
        raise FitError(f"need at least 8 samples past the transient, have {times.size}")
    if np.any(values <= 0.0):
        raise FitError("decay fit requires strictly positive values")
    if np.any(np.diff(values) > slack * values[:-1]):
        worst = float(np.max(np.diff(values) / values[:-1]))
        raise FitError(f"tail is not monotone (relative increase {worst:.2e}); "
                       "widen the transient window or inspect the trajectory")
    if model == "exp":
        xs = times
    elif model == "poly":
        xs = np.log1p(times)
    else:
        raise ValueError(f"unknown decay model {model!r}")
    ys = np.log(values)
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(rate=float(-slope), r_squared=r2, model=model,
                    n_samples=int(times.size))


class GammaEvaluator:
    """Weak form of the symmetrized bilinear collision product.

    form(f, g)[alpha] = (Gamma(f, g), phi_alpha), computed on a grid sized for
    the degree-3N integrand so the result is exact for basis-resolved inputs.
    The macroscopic components of the output vanish identically because the
    invariant test functions cancel pointwise inside the collision bracket.
    The sums run over the Cartesian n_gauss^3 center-of-mass rule (com_nodes,
    com_w), unfolded, and the grid's relative-speed and sphere rules.
    """

    def __init__(self, basis: VelocityBasis, gamma: float, kernel_c: float,
                 quad: CollisionQuadrature | None = None):
        self.basis = basis
        self.quad = quad if quad is not None else CollisionQuadrature.for_degree(
            3 * basis.max_degree)
        self.grid = _CollisionGrid(self.quad, gamma, kernel_c)
        self.com_nodes, self.com_w = _gauss_product_rule(self.quad.n_gauss)
        g = self.grid
        n_rho = g.rho.size
        sigma, sigma_w = g.folded_eta  # sigma runs over the same sphere rule as eta
        # sigma-reduced post-collisional sums b[alpha, (com, rho)], exchange-folded
        self._b_primed = np.zeros((basis.dim, self.com_nodes.shape[0] * n_rho))
        for blk in _chunk_blocks(self.com_nodes.shape[0], n_rho * sigma.shape[0]):
            vp, vps = _pair_points(self.com_nodes[blk], g.rho, sigma)
            rows = basis.poly_rows(vp)
            rows += basis.poly_rows(vps)
            self._b_primed[:, blk.start * n_rho:blk.stop * n_rho] = (
                rows.reshape(basis.dim, -1, sigma.shape[0]) @ sigma_w)
        self._w_com_rho = (self.com_w[:, None] * g.rho_w[None, :]).ravel()

    def form_many(self, pairs) -> np.ndarray:
        """(Gamma(f, g), phi_alpha) for each (f, g) pair; shape (npairs, dim)."""
        basis, g = self.basis, self.grid
        f_mat = np.stack([np.asarray(f) for f, _ in pairs], axis=1)
        g_mat = np.stack([np.asarray(h) for _, h in pairs], axis=1)
        cplx = np.iscomplexobj(f_mat) or np.iscomplexobj(g_mat)
        dtype = complex if cplx else float
        n_rho = g.rho.size
        n_sphere = g.eta.shape[0]
        npairs = f_mat.shape[1]
        term_local = np.zeros((basis.dim, npairs), dtype=dtype)
        c_red = np.zeros((self.com_nodes.shape[0] * n_rho, npairs), dtype=dtype)
        for blk in _chunk_blocks(self.com_nodes.shape[0], n_rho * n_sphere):
            com = self.com_nodes[blk]
            v, v_star = _pair_points(com, g.rho, g.eta)
            u_vals = basis.poly_rows(v).T
            us_vals = basis.poly_rows(v_star).T
            w_full = _point_weights(self.com_w[blk], g.rho_w, g.eta_w)
            x = (u_vals @ f_mat) * (us_vals @ g_mat)  # (npts, npairs)
            term_local += (u_vals + us_vals).T @ (w_full[:, None] * x)
            start = blk.start * n_rho
            c_red[start:start + com.shape[0] * n_rho] = np.einsum(
                "qsp,s->qp", x.reshape(com.shape[0] * n_rho, n_sphere, npairs), g.eta_w)
        term_local *= float(np.sum(g.eta_w))
        term_cross = self._b_primed @ (self._w_com_rho[:, None] * c_red)
        out = 0.5 * g.prefactor * (term_cross - term_local)
        return out.T

    def form(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        return self.form_many([(f, g)])[0]


def _sqrt_maxwellian(points: np.ndarray) -> np.ndarray:
    return (2.0 * np.pi) ** (-0.75) * np.exp(-0.25 * np.sum(points ** 2, axis=1))


def evaluate(basis: VelocityBasis, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pointwise values of the represented function, sqrt-Maxwellian included."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return (basis.poly_rows(points).T @ np.asarray(coeffs)) * _sqrt_maxwellian(points)


def coeffs_from_callable(basis: VelocityBasis, fn) -> np.ndarray:
    """Galerkin coefficients of a pointwise function v -> f(v) (f carries
    sqrt(M)) on exact_rule: exact when f / sqrt(M) is a polynomial of degree
    <= N + 1."""
    rule = basis.exact_rule
    return rule.poly @ (rule.weights * fn(rule.nodes) / _sqrt_maxwellian(rule.nodes))
