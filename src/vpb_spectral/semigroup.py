"""Propagation of kinetic Fourier modes and their fluid counterparts.

One module covers the whole time side of the theory: the kinetic flow
e^{(t/eps^2) B} (one kernel, propagate_axis_modes, in the coordinates of the
real azimuthal-sector blocks of the axis modes at every eps of several
shells; each block goes by eigen-expansion where its residuals certify it,
else by its matrix exponential; member_states embeds one mode's),
its five-branch hydrodynamic part (hydrodynamic_part; the remainder is the
flow minus it), the fluid semigroup on the three non-oscillatory branches
(dispersion.FLUID_BRANCHES), and the forced fluid mode equations
(nspf_mode_solve), solved in the coordinates <u, h_j> on those branches'
limit vectors by exact Duhamel integration of piecewise-linear forcing.
The fluid subspace and its constraints are dispersion's (limit_vectors,
fluid_constraints); no function here writes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import CollisionOperator
from .dispersion import (FLUID_BRANCHES, R0_DEFAULT, BranchPoint, asymptotic_coefficients,
                         fluid_constraints)
from .errors import DataError
from .mode_operator import _checked_times, _norm1, axis_eigen_blocks
from .transport import TransportCoefficients
from .velocity_space import (MacroState, VelocityBasis, axis_wavenumber, bilinear_pair,
                             macro_vector, project_macro, weighted_norm)

COND_LIMIT = 1e12
# the eig path is refused above this propagation bound, for the block exponential
PROPAGATION_BOUND_LIMIT = 1e-8
# the degree-13 Pade approximant of e^X and the 1-norm of X up to which its
# backward error stays below the unit roundoff (Higham, SIAM J. Matrix Anal.
# Appl. 2005)
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
PADE13_THETA = 5.371920351148152


@dataclass
class ModeTrajectory:
    """Time samples of one Fourier mode, kinetic or fluid; method names the
    path that computed the states: "eig", "expm" or "fluid"."""

    xi: np.ndarray
    eps: float
    times: np.ndarray
    states: np.ndarray
    basis: VelocityBasis
    method: str

    @property
    def norm_track(self) -> np.ndarray:
        """Weighted norm at each time; for the unforced kinetic flow it must
        be non-increasing (the flow is a contraction)."""
        return weighted_norm(self.basis, self.states, float(np.linalg.norm(self.xi)))


@dataclass
class FluidModeState:
    n_hat: complex
    m_hat: np.ndarray
    q_hat: complex
    p_hat: complex
    phi_hat: complex


def _expm(x: np.ndarray) -> np.ndarray:
    """e^x for a stack (R, n, n) of real matrices: scaling and squaring on the
    degree-13 Pade approximant, each member scaled by its own 1-norm (Higham,
    SIAM J. Matrix Anal. Appl. 2005)."""
    squarings = np.maximum(np.frexp(_norm1(x) / PADE13_THETA)[1], 0)
    x = np.ldexp(x, -squarings[:, None, None])
    b, eye = PADE13, np.eye(x.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 \
        + b[0] * eye
    r = np.linalg.solve(v - u, 2.0 * u) + eye  # (V - U)^-1 (V + U), exactly I at x = 0
    for k in range(squarings.max()):
        sel = squarings > k
        r[sel] = r[sel] @ r[sel]
    return r


def _eig_coordinates(blocks, coords, times: np.ndarray, eps2):
    """The kinetic flow for modes that share their frames: states =
    e^{(t/eps^2) B} f0 block by block, member by member; propagate_axis_modes'
    kernel.

    blocks are EigenBlocks whose leading axes hold the members (None where no
    member has data), coords the coordinates of f0 in each copy of each block
    (AxisSectors.coordinates) and eps2 the eps^2, both broadcast against the
    members.  Only the blocks where some member has coordinates are decomposed
    and solved, all members at once.

    Returns, nested as coords, the states' (..., T, n) coordinates in each
    copy where some member has some (None elsewhere: zero; exact zeros for the
    other members), and the mask of members that some block refused.  A
    member's block propagates through its eigenvectors, (phases c) vecs^T,
    unless that cannot be trusted where the member has data: cond (in the
    1-norm) at COND_LIMIT or more, or the propagation bound cond * (eigenpair
    residual + worst solve residual ||vecs c - g0||_1 / ||g0||_1 of its
    copies) above PROPAGATION_BOUND_LIMIT, which governs the method's error
    when Re vals <= 0 (Moler and Van Loan, SIAM Review 2003).  A refused
    member's block is e^{(t/eps^2) A} g0 instead, A the real block, one time
    at a time (_expm).
    """
    out, refused = [], False
    for block, copies in zip(blocks, coords):
        out.append([None] * len(copies))
        if block is None:  # no member has data here
            continue
        has = np.stack([g0.any(-1) for g0 in copies], axis=-1)
        held = np.flatnonzero(has.reshape(-1, len(copies)).any(0))
        if not held.size:
            continue
        has = has[..., held]
        data = has.any(-1)
        bad = data & ~np.less(block.cond, COND_LIMIT)
        g = np.stack([copies[k] for k in held], axis=-1)
        members = np.broadcast_shapes(block.matrix.shape[:-2], g.shape[:-2], np.shape(eps2))
        if np.any(data & ~bad):
            c = block.coefficients(g)
            error = np.abs(block.vecs @ c - g).sum(-2)
            solve = np.divide(error, np.abs(g).sum(-2), out=np.zeros(error.shape), where=has)
            bound = block.cond * (block.residual + solve.max(-1))
            bad = bad | data & ~np.less_equal(bound, PROPAGATION_BOUND_LIMIT)
        if np.all(bad | ~data):  # no member takes the eig path here
            for k in held:
                out[-1][k] = np.zeros(members + (times.size, g.shape[-2]), dtype=complex)
        else:
            phases = np.exp(times[:, None] * block.vals[..., None, :] / eps2[..., None, None])
            for i, k in enumerate(held):
                last = phases if i + 1 == held.size else None  # the last copy scales phases
                out[-1][k] = x = np.multiply(phases, c[..., None, :, i], out=last) \
                    @ block.vecs.swapaxes(-1, -2)
                np.copyto(x, 0.0, where=~has[..., i, None, None])
            del phases, last  # not to be held while the next block's are formed
        if np.any(bad):
            rows = np.flatnonzero(np.broadcast_to(bad, members))
            n = g.shape[-2]
            a = np.broadcast_to(block.matrix, members + (n, n)).reshape(-1, n, n)[rows]
            g0 = np.broadcast_to(g, members + g.shape[-2:]).reshape(-1, n, held.size)[rows]
            rate = 1.0 / np.broadcast_to(eps2, members).reshape(-1)[rows, None, None]
            xs = [out[-1][k].reshape(-1, times.size, n) for k in held]  # views
            for j, t in enumerate(times):
                y = _expm(t * rate * a) @ g0
                for i, x in enumerate(xs):
                    x[rows, j] = y[..., i]
        refused = refused | bad
    return out, refused


def propagate_axis_modes(op: CollisionOperator, eps_list, s, g, times):
    """The sector coordinates of the axis modes at each eps of eps_list on each
    shell s[k] e1, g the AxisSectors.coordinates of the shells' data (row k
    shell k's): each sector block where some shell has data is one stack,
    decomposed by one eig (_eig_coordinates), and no other is formed.

    Returns coords, coords[m][j][k, e] the (T, n) coordinates of member (k,
    e) in copy j of sector m (None where no shell has data: zero), and the
    (K, E) mask of members that some block refused the eig path, which took
    the block exponential there.  Each s[k] is parsed by axis_wavenumber.
    """
    s = np.array([axis_wavenumber(sk) for sk in s])[:, None]
    times = _checked_times(times)
    y = s * np.array(eps_list, dtype=float)
    blocks = axis_eigen_blocks(op, y, s, [any(x.any() for x in xs) for xs in g])
    coords, refused = _eig_coordinates(blocks, [[x[:, None] for x in xs] for xs in g], times,
                                       np.array([eps ** 2 for eps in eps_list]))
    return coords, np.broadcast_to(refused, y.shape)


def member_states(basis: VelocityBasis, coords, member, times: np.ndarray) -> np.ndarray:
    """The (T, dim) states of member (k, e) of propagate_axis_modes' coords:
    each copy adds scale * (x @ basis^T) on its slots, x its coordinates."""
    states = np.zeros((times.size, basis.dim), dtype=complex)
    for copies, xs in zip(basis.axis_sectors.frames, coords):
        for fr, x in zip(copies, xs):
            if x is not None:
                states[:, fr.index] += fr.scale * (x[member] @ fr.basis.T)
    return states


def hydrodynamic_part(basis: VelocityBasis, eps: float, s: float, f0: np.ndarray,
                      times: np.ndarray, points: list[BranchPoint]) -> np.ndarray:
    """S1, the (T, dim) hydrodynamic part of the flow of f0 in the axis mode
    at eps and s e1: the five branch contributions of points (the mode's
    hydrodynamic_sweep), each weighted by the conjugation-free pairing of f0
    against its eigenfunction (one bilinear_pair for all), summed in their
    order; zero outside the ball eps s <= R0_DEFAULT.  The remainder S2 is the
    flow minus it, so the two reassemble exactly by construction.
    """
    f0 = np.asarray(f0, dtype=complex)
    s1 = np.zeros((times.size, basis.dim), dtype=complex)
    if eps * s <= R0_DEFAULT and points:
        weights = bilinear_pair(basis, f0, np.stack([bp.psi for bp in points]), s)
        for bp, weight in zip(points, weights):
            s1 += np.exp(times * bp.lam / eps ** 2)[:, None] * (weight * bp.psi)[None, :]
    return s1


def _macro_as_vector(basis: VelocityBasis, u0) -> np.ndarray:
    if isinstance(u0, MacroState):
        return macro_vector(basis, u0.n, u0.m, u0.q).astype(complex)
    vec = np.asarray(u0, dtype=complex)
    if vec.shape != (basis.dim,):
        raise DataError(f"fluid data must be a MacroState or a length-{basis.dim} "
                        "coefficient vector")
    micro = basis.micro_project(vec)
    scale = np.linalg.norm(vec)
    if scale > 0 and np.linalg.norm(micro) > 1e-12 * scale:
        raise DataError("fluid initial data must lie in the macroscopic subspace")
    return vec


def fluid_semigroup_V(basis: VelocityBasis, coeffs: TransportCoefficients,
                      u0, xi, times) -> ModeTrajectory:
    """The three-branch fluid semigroup applied to macroscopic data.

    Rank-three evolution: each non-oscillatory branch decays at its own
    e^{-b_j t} with the weighted pairing against the limit vector h_j.
    """
    bundle = asymptotic_coefficients(basis, xi, coeffs)
    times = np.asarray(times, dtype=float)
    states = basis.embed_invariants(bundle.evolve(basis, _macro_as_vector(basis, u0), times,
                                                  FLUID_BRANCHES))
    return ModeTrajectory(xi=np.array([bundle.s, 0.0, 0.0]), eps=0.0, times=times,
                          states=states, basis=basis, method="fluid")


def _phi1(z: complex) -> complex:
    if abs(z) < 1e-5:
        return 1.0 + z / 2.0 + z * z / 6.0
    return np.expm1(z) / z


def _phi2(z: complex) -> complex:
    if abs(z) < 1e-5:
        return 0.5 + z / 6.0 + z * z / 24.0
    return (np.expm1(z) - z) / (z * z)


def _duhamel_linear(b: float, times: np.ndarray, start: complex,
                    forcing: np.ndarray) -> np.ndarray:
    """u' = -b u + F with F piecewise linear through the samples; exact.

    Each step uses the closed-form integral of e^{-b(dt-u)} against a linear
    segment, so the only error in the output is roundoff -- the quadrature
    is exact for forcing that really is piecewise linear.
    """
    out = np.empty(times.size, dtype=complex)
    out[0] = start
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        if dt == 0.0:
            out[k + 1] = out[k]
            continue
        z = -b * dt
        out[k + 1] = out[k] * math.exp(z) \
            + dt * (_phi1(z) * forcing[k] + _phi2(z) * (forcing[k + 1] - forcing[k]))
    return out


def _sample_forcing(h, times: np.ndarray, width: int):
    if h is None:
        shape = (times.size, width) if width > 1 else (times.size,)
        return np.zeros(shape, dtype=complex)
    if callable(h):
        vals = np.array([h(t) for t in times], dtype=complex)
    else:
        vals = np.asarray(h, dtype=complex)
    expect = (times.size,) if width == 1 else (times.size, width)
    if vals.shape != expect:
        raise DataError(f"forcing must be sampled on the time grid with shape {expect}")
    return vals


def nspf_mode_solve(basis: VelocityBasis, coeffs: TransportCoefficients,
                    u0: MacroState, h1, h2, xi, times) -> list[FluidModeState]:
    """Forced fluid mode equations solved through their Duhamel forms.

    The state stays in the span of the non-oscillatory limit vectors h_j,
    j = 0, 2, 3 (asymptotic_coefficients), so it is sum_j a_j h_j: each
    coordinate a_j = <u, h_j> decays at b_j with the forcing (0, h1(t), h2(t))
    paired against h_j as its source (one bilinear_pair for the data and
    every sample), integrated exactly for forcing that is piecewise linear
    (_duhamel_linear).  Initial data must already satisfy both constraints
    (dispersion.fluid_constraints, to 1e-10 of its largest moment); the
    DataError's suggestion is its projection onto that span, the fluid
    semigroup at t = 0.  xi is parsed by axis_wavenumber, and times are
    checked as for the kinetic flow (DataError).
    """
    bundle = asymptotic_coefficients(basis, xi, coeffs)
    s = bundle.s
    times = _checked_times(times)
    u = _macro_as_vector(basis, u0)
    scale = max(float(np.max(np.abs(u))), 1e-30)
    div, bous = fluid_constraints(project_macro(basis, u), s)
    if div > 1e-10 * scale or bous > 1e-10 * scale:
        fix = bundle.evolve(basis, u, [0.0], FLUID_BRANCHES)[0]  # (n, m, q) slots
        raise DataError(
            "fluid initial data violates the mode constraints "
            f"(divergence {div:.2e}, density-potential {bous:.2e}); "
            "the suggestion field carries compatible values",
            suggestion={"n_hat": fix[0], "m_hat": fix[1:4], "q_hat": fix[4]})

    h1_vals = _sample_forcing(h1, times, 3)
    h2_vals = _sample_forcing(h2, times, 1)
    forcing = basis.embed_invariants(np.column_stack([np.zeros(times.size), h1_vals, h2_vals]))
    hs = np.stack([bundle.h[j] for j in FLUID_BRANCHES])
    coefs = bilinear_pair(basis, np.vstack([u, forcing])[:, None], hs, s)
    a = np.column_stack([_duhamel_linear(bundle.b[j], times, coefs[0, i], coefs[1:, i])
                         for i, j in enumerate(FLUID_BRANCHES)])
    st = project_macro(basis, a @ hs)
    p_traj = -1j * h1_vals[:, 0] / s
    return [FluidModeState(n_hat=complex(n), m_hat=m, q_hat=complex(q), p_hat=complex(p),
                           phi_hat=complex(-n / (s * s)))
            for n, m, q, p in zip(st.n, st.m, st.q, p_traj)]
