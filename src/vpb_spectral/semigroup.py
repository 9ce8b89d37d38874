"""Propagation of kinetic Fourier modes and their hydrodynamic part.

One kernel carries the kinetic flow e^{(t/eps^2) B}: propagate_axis_modes,
in the coordinates of the real azimuthal-sector blocks of the axis modes at
every eps of several shells; each block goes by eigen-expansion where its
residuals certify it, else by its matrix exponential; member_states embeds
one mode's.  hydrodynamic_part is the flow's five-branch hydrodynamic part;
the remainder is the flow minus it.  The fluid semigroup and the forced
fluid mode equations, which of the subcommands only check runs, live in
checks.
"""

from __future__ import annotations

import numpy as np

from .collision import CollisionOperator
from .dispersion import R0_DEFAULT, BranchPoint
from .errors import DataError
from .mode_operator import _checked_times, _norm1, axis_eigen_blocks
from .velocity_space import VelocityBasis, axis_wavenumber, bilinear_pair

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
    the block exponential there.  Each s[k] is parsed by axis_wavenumber;
    DataError for a non-finite coordinate in g.
    """
    s = np.array([axis_wavenumber(sk) for sk in s])[:, None]
    times = _checked_times(times)
    if not all(np.isfinite(x).all() for xs in g for x in xs):
        raise DataError("shell data must have finite sector coordinates")
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
    flow minus it, so the two reassemble exactly by construction.  times
    are checked as for the kinetic flow, and a non-finite f0 is refused
    (DataError).
    """
    times = _checked_times(times)
    f0 = np.asarray(f0, dtype=complex)
    if not np.isfinite(f0).all():
        raise DataError("initial data must be finite")
    s1 = np.zeros((times.size, basis.dim), dtype=complex)
    if eps * s <= R0_DEFAULT and points:
        weights = bilinear_pair(basis, f0, np.stack([bp.psi for bp in points]), s)
        for bp, weight in zip(points, weights):
            s1 += np.exp(times * bp.lam / eps ** 2)[:, None] * (weight * bp.psi)[None, :]
    return s1
