"""Per-Fourier-mode linearized operator with electrostatic coupling.

The linearized operator is rotation invariant, so its spectrum and its
semigroup depend only on s = |xi|, and every mode is built at the axis
representative xi = s e1.  The mode matrix is

    B = L - i eps s V1 (I + s^{-2} e0 e0^T),

where V1 is multiplication by v1 and e0 marks the density component; the
rank-one term is the self-consistent field through the Poisson equation.
The time evolution of the mode is df/dt = eps^{-2} B f.

The natural geometry is the wavenumber-weighted metric
(velocity_space.weighted_inner): the streaming plus field part is
skew-adjoint there, so the numerical range of B in that metric is exactly
the (nonpositive) collision form.

The axis mode commutes with every rotation about e1 and every coordinate
reflection, so in the basis's azimuthal sectors (velocity_space.AxisSectors,
spanned by the real Burnett functions about e1), with the parity scale
i^(a1 mod 2) folded in, it is real and block-diagonal, one block per
azimuthal number m that both copies of the sector share.  Each operator's
sector blocks are read off its radial blocks and Burnett labels once
(CollisionOperator.sector_blocks; `check` holds them against the dense V1);
axis_eigen_blocks forms a mode's blocks from them, or one stack of blocks
for axis modes at several eps and s, and EigenBlock decomposes each when it
is first needed.  The dense mode matrix (mode_matrix) is only the reference
the shortcuts are checked against, in `check` and in the tests; the per-mode
object FourierMode and the dense eigensystem assembled from the blocks are
in oracles, which no job runs.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .collision import CollisionOperator
from .errors import AssemblyError, DataError, RegimeError
from .velocity_space import Frame, wavenumber_squares


def _norm1(x: np.ndarray) -> np.ndarray:
    """The matrix 1-norm over the last two axes; on one 2-D matrix it equals
    np.linalg.norm(x, 1) bit for bit."""
    return np.abs(x).sum(-2).max(-1)


@dataclass(frozen=True, eq=False)
class EigenBlock:
    """One diagonal block of a mode matrix, or of its micro part L - i y V1
    in dispersion, decomposed on first use; or a stack of such blocks.

    frames lists the copies of the block, in basis slot numbering: on each,
    the matrix's eigenvectors are the embeddings of the columns of vecs
    (Frame.embed), with eigenvalues vals.  A sector with m >= 1 has two
    copies, every other block one.  vals and vecs are read-only.  The inverse
    of vecs, which cond and coefficients share, is computed on first use.

    matrix may carry leading stack axes, (K, E, n, n): blocks on the same
    frames, such as one sector of the axis modes of K shells at E values of
    eps.  Each attribute then carries those axes too, and one eig and one inv
    serve all members.
    """

    matrix: np.ndarray
    frames: tuple[Frame, ...]

    @cached_property
    def _decomposition(self) -> tuple[np.ndarray, np.ndarray]:
        try:
            vals, vecs = np.linalg.eig(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise AssemblyError(f"eigendecomposition of a {self.matrix.shape[-1]}-row "
                                f"block failed: {exc}") from None
        vals, vecs = vals.astype(complex), vecs.astype(complex)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return vals, vecs

    @property
    def vals(self) -> np.ndarray:
        return self._decomposition[0]

    @property
    def vecs(self) -> np.ndarray:
        return self._decomposition[1]

    @cached_property
    def _inverse(self) -> np.ndarray:
        """The inverse of vecs, member by member; NaN throughout a member whose
        vecs is singular or whose inverse is not finite."""
        vecs = self.vecs
        try:
            inv = np.linalg.inv(vecs)
        except np.linalg.LinAlgError:
            # one singular member fails the stacked call: invert one by one
            inv = np.full_like(vecs, np.nan)
            for i in np.ndindex(vecs.shape[:-2]):
                try:
                    inv[i] = np.linalg.inv(vecs[i])
                except np.linalg.LinAlgError:
                    pass
        inv[~np.isfinite(inv).all(axis=(-2, -1))] = np.nan
        return inv

    @cached_property
    def cond(self) -> float | np.ndarray:
        """1-norm condition number ||vecs||_1 ||vecs^-1||_1, per member; inf
        for a member whose vecs is singular or not finite."""
        c = _norm1(self.vecs) * _norm1(self._inverse)
        c = np.where(np.isnan(c), np.inf, c)
        return c if c.ndim else float(c)

    @cached_property
    def residual(self) -> float | np.ndarray:
        """Eigenpair residual ||B vecs - vecs diag(vals)||_1 / (||B||_1
        ||vecs||_1), per member, B the matrix."""
        vecs = self.vecs
        r = _norm1(self.matrix @ vecs - vecs * self.vals[..., None, :]) \
            / (_norm1(self.matrix) * _norm1(vecs))
        return r if r.ndim else float(r)

    def coefficients(self, g: np.ndarray) -> np.ndarray:
        """c with vecs @ c = g (vectors as columns, broadcast against the
        members), through the inverse of vecs.  A member whose vecs is
        singular has no expansion and gets NaN; RegimeError if no member has
        one."""
        inv = self._inverse
        if np.isinf(self.cond).all():
            raise RegimeError(f"eigenvector basis of a {self.vals.shape[-1]}-row block is "
                              "singular; its eigen-expansion does not exist")
        return inv @ np.asarray(g, dtype=complex)


def mode_matrix(collision: CollisionOperator, eps: float, s: float) -> np.ndarray:
    """The dense complex mode matrix B of the axis mode at eps and s e1."""
    basis = collision.basis
    i0 = basis.density_index
    coupling = np.zeros((basis.dim, basis.dim))
    coupling[:, i0] = basis.v1[:, i0] / s ** 2
    return collision.matrix - 1j * eps * s * (basis.v1 + coupling)


def axis_eigen_blocks(collision: CollisionOperator, y, s, held) -> Iterator[EigenBlock | None]:
    """The sector EigenBlocks of the axis mode at s with y = eps s; for arrays
    y and s, of the stack of axis modes, one member
    per entry of their broadcast; yielded one by one, so a caller can hold one
    at a time, and None for a sector m not held[m], which is never formed.

    Sector m holds L[m] + y W[m], and sector 0 also the Poisson column
    y W[0][:, 0] / s^2 at the density, which leads it, s^2 from
    wavenumber_squares (BasisError for a bad s).  The sector blocks are
    the operator's (CollisionOperator.sector_blocks, AssemblyError for
    non-finite radial blocks).
    """
    sectors = collision.sector_blocks
    y = np.asarray(y, dtype=float)[..., None, None]
    s2 = wavenumber_squares(s)[..., None]
    frames = collision.basis.axis_sectors.frames
    for m, (lm, wm, copies, hold) in enumerate(zip(sectors.L, sectors.W, frames, held)):
        if not hold:
            yield None
            continue
        if m == 0:
            wm = np.array(np.broadcast_to(wm, s2.shape[:-1] + wm.shape))
            wm[..., 0] += wm[..., 0] / s2  # the Poisson column at the density
        mat = lm + y * wm
        mat.setflags(write=False)
        yield EigenBlock(mat, copies)


def check_eps(eps: float) -> None:
    """RegimeError unless the scaling parameter lies in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise RegimeError(f"scaling parameter eps={eps} outside (0, 1)")


def _checked_times(times) -> np.ndarray:
    """times as floats; DataError unless 1-D, nonempty, finite, nondecreasing, from t >= 0."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DataError("times must be a nonempty 1-D array")
    if not (np.isfinite(times).all() and times[0] >= 0.0 and np.all(np.diff(times) >= 0.0)):
        raise DataError("times must be finite, nondecreasing and start at t >= 0")
    return times
