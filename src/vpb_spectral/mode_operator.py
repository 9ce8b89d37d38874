"""Per-Fourier-mode linearized operator with electrostatic coupling.

For wavevector xi with s = |xi| the mode matrix is

    B = L - i eps s V_dir (I + s^{-2} e0 e0^T),

where V_dir is multiplication by v . dir and e0 marks the density component;
the rank-one term is the self-consistent field through the Poisson equation.
The time evolution of the mode is df/dt = eps^{-2} B f.

The natural geometry is the wavenumber-weighted metric: the streaming plus
field part is skew-adjoint there, so the numerical range of B in that metric
is exactly the (nonpositive) collision form.  All of this is axis-reducible:
a velocity rotation intertwines the operator at xi with the one at s e1.

On the axis the mode has more structure.  It commutes with every rotation
about e1 and every coordinate reflection, so in the basis's azimuthal
sectors (velocity_space.AxisSectors, spanned by the real Burnett functions
about e1), with the parity scale i^(a1 mod 2) folded in, it is real and
block-diagonal, one block per azimuthal number m that both copies of the
sector share.  Each operator's sector blocks are
computed and checked once (CollisionOperator.sector_blocks, AssemblyError
for an operator that fails the check); axis_eigen_blocks forms a mode's
blocks from them, or one stack of blocks for several eps at one s, and
EigenBlock decomposes each when it is first needed.  The dense complex
decomposition serves off-axis modes and is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .collision import CollisionOperator, _SectorBlocks
from .errors import AssemblyError, BasisError, RegimeError
from .velocity_space import Frame, VelocityBasis, bilinear_pair, weighted_inner


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

    matrix may carry a leading stack axis, (E, n, n): E blocks on the same
    frames, such as one sector of the axis modes of one shell at E values of
    eps.  Each attribute then carries that axis too, and one eig and one inv
    serve all E members.
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
        """c with vecs @ c = g (g a vector or vectors as columns, shared by
        every member), through the inverse of vecs.  A member whose vecs is
        singular has no expansion and gets NaN; RegimeError if no member has
        one."""
        inv = self._inverse
        if np.isinf(self.cond).all():
            raise RegimeError(f"eigenvector basis of a {self.vals.shape[-1]}-row block is "
                              "singular; its eigen-expansion does not exist")
        return inv @ np.asarray(g, dtype=complex)


def _normalize_xi(xi) -> tuple[float, np.ndarray]:
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if arr.size == 1:
        s = float(arr[0])
        direction = np.array([1.0, 0.0, 0.0])
    elif arr.shape == (3,):
        s = float(np.linalg.norm(arr))
        direction = arr / s if s > 0 else arr
    else:
        raise BasisError("wavevector must be a scalar magnitude or a 3-vector")
    if s <= 0:
        raise BasisError("wavevector must be nonzero; the zero mode has no Poisson factor")
    return s, direction


@dataclass(frozen=True)
class FourierMode:
    """The linearized operator restricted to one spatial frequency."""

    collision: CollisionOperator
    eps: float
    xi: np.ndarray
    s: float
    direction: np.ndarray

    @property
    def basis(self) -> VelocityBasis:
        return self.collision.basis

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense complex mode matrix B, formed on first use; read-only."""
        basis = self.basis
        v_dir = sum(d * v for d, v in zip(self.direction, basis.v_matrices) if d != 0.0)
        i0 = basis.density_index
        coupling = np.zeros((basis.dim, basis.dim))
        coupling[:, i0] = v_dir[:, i0] / self.s ** 2
        mat = self.collision.matrix - 1j * self.eps * self.s * (v_dir + coupling)
        mat.setflags(write=False)
        return mat

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        return weighted_inner(self.basis, f, g, self.s)

    def pair(self, f: np.ndarray, g: np.ndarray) -> complex:
        return bilinear_pair(self.basis, f, g, self.s)

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.real(self.inner(f, f))))

    @cached_property
    def metric(self) -> np.ndarray:
        g = np.eye(self.basis.dim)
        i0 = self.basis.density_index
        g[i0, i0] += self.s ** -2
        return g

    def dissipation(self, f: np.ndarray) -> float:
        """Re (B f, f) in the mode metric; equals the collision form exactly."""
        return float(np.real(self.inner(self.matrix @ f, f)))

    @cached_property
    def _sectors(self) -> _SectorBlocks | None:
        return None if np.any(self.direction[1:]) else self.collision.sector_blocks

    @cached_property
    def _blocks(self) -> tuple[EigenBlock, ...]:
        if self._sectors is None:
            dim = self.basis.dim
            return (EigenBlock(self.matrix, (Frame(np.arange(dim), np.ones(dim), np.eye(dim)),)),)
        # on the axis the direction is +-e1, and B carries its sign on V1
        return axis_eigen_blocks(self.collision, self.eps * self.s * self.direction[0], self.s)

    def eigen_blocks(self) -> tuple[EigenBlock, ...]:
        """The mode's eigendecomposition, one block at a time.

        On the axis, one block per azimuthal sector, formed from the
        operator's sector blocks (AssemblyError if they fail their check);
        off the axis, one dense complex block on an identity frame.  Each
        block is decomposed when its vals, vecs or cond are first read, so a
        caller that skips a block never pays for it.
        """
        return self._blocks

    def coordinates(self, f: np.ndarray) -> list[list[np.ndarray]]:
        """The coordinates of f in every copy of every block of eigen_blocks(),
        in the same order."""
        if self._sectors is None:
            return [[np.asarray(f)]]
        return self.basis.axis_sectors.coordinates(f)

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        dim = self.basis.dim
        vals = np.concatenate([b.vals for b in self._blocks for _ in b.frames])
        vecs = np.zeros((dim, vals.size), dtype=complex)
        col = 0
        for b in self._blocks:
            for fr in b.frames:
                n = b.vals.size
                vecs[fr.index, col:col + n] = fr.scale[:, None] * (fr.basis @ b.vecs)
                col += n
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return vals, vecs

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and right eigenvectors of the mode matrix.

        Assembled from eigen_blocks(): every copy of every block embedded
        back into the basis, each eigenvector zero outside its copy's slots.
        Both arrays are computed once per mode, shared between callers and
        read-only.
        """
        return self._eig

    def strip_eigensystem(self, fraction: float = 0.3):
        """Eigenpairs with Re above -fraction * gap: the hydrodynamic cluster.

        Raises RegimeError unless exactly five eigenvalues sit in the strip,
        which is the operational definition of being inside the regime.
        """
        if not 0.0 < fraction < 1.0:
            raise BasisError("strip fraction must lie in (0, 1)")
        gap = self.collision.spectral_gap()
        vals, vecs = self.eigensystem()
        keep = np.where(vals.real > -fraction * gap)[0]
        if keep.size != 5:
            raise RegimeError(
                f"{keep.size} eigenvalues above -{fraction:.2f}*gap at eps*s="
                f"{self.eps * self.s:.4g}; mode outside the hydrodynamic regime")
        order = np.argsort(-vals[keep].real)
        keep = keep[order]
        return vals[keep], vecs[:, keep]

    def spectral_projector(self, vectors: np.ndarray) -> np.ndarray:
        """Projector onto span(vectors) along the complementary invariant subspace.

        Built from the conjugation-free pairing, under which eigenvectors of
        distinct eigenvalues are orthogonal; degenerate blocks are handled by
        inverting the pairing Gram matrix.
        """
        gram = vectors.T @ (self.metric @ vectors)
        dual = np.linalg.solve(gram.T, (self.metric @ vectors).T)
        return vectors @ dual


def axis_eigen_blocks(collision: CollisionOperator, y, s: float) -> tuple[EigenBlock, ...]:
    """The sector EigenBlocks of the axis mode at s with y = eps s d1, d1 = +-1
    its direction; for an array y, of the stack of axis modes at one s, one
    member per entry.

    Sector m holds L[m] + y W[m], and sector 0 also the Poisson column
    y W[0][:, 0] / s^2 at the density, which leads it.  The sector blocks are
    the operator's (CollisionOperator.sector_blocks, AssemblyError if they
    fail their check).
    """
    sectors = collision.sector_blocks
    y = np.asarray(y, dtype=float)[..., None, None]
    blocks = []
    frames = collision.basis.axis_sectors.frames
    for m, (lm, wm, copies) in enumerate(zip(sectors.L, sectors.W, frames)):
        if m == 0:
            wm = np.array(wm)
            wm[:, 0] += wm[:, 0] / s ** 2  # the Poisson column at the density
        mat = lm + y * wm
        mat.setflags(write=False)
        blocks.append(EigenBlock(mat, copies))
    return tuple(blocks)


def check_eps(eps: float) -> None:
    """RegimeError unless the scaling parameter lies in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise RegimeError(f"scaling parameter eps={eps} outside (0, 1)")


def mode_operator(collision: CollisionOperator, eps: float, xi) -> FourierMode:
    check_eps(eps)
    s, direction = _normalize_xi(xi)
    return FourierMode(collision=collision, eps=eps, xi=s * direction, s=s,
                       direction=direction)


def rotation_to_axis(direction: np.ndarray) -> np.ndarray:
    """Proper rotation O with O @ direction = e1; the identity at e1 itself,
    so axis quantities and their rotated images share one transverse frame."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    e1 = np.array([1.0, 0.0, 0.0])
    pre = np.eye(3)
    if d[0] < 0.0:
        pre = np.diag([-1.0, -1.0, 1.0])  # half-turn about e3, det stays +1
        d = pre @ d
    u = d + e1
    o = np.eye(3) + 2.0 * np.outer(e1, d) - np.outer(u, u) / (1.0 + d[0])
    return o @ pre


def compose_rotation(basis: VelocityBasis, rot: np.ndarray) -> np.ndarray:
    """Matrix of f -> f(rot . v) on basis coefficients; orthogonal, exact.

    The quadrature sees products of two degree-N polynomials, so the
    quad_order rule the basis carries is exact for these integrals.  Its
    first use evaluates node_poly, which runs that rule's Gram check and
    raises BasisError above _GRAM_TOL.
    """
    rotated = basis.poly_values(basis.quad_nodes @ rot.T)
    return basis.node_poly.T @ (basis.gauss_weights[:, None] * rotated)


def pushforward_from_axis(basis: VelocityBasis, direction: np.ndarray) -> np.ndarray:
    """Coefficient map sending an axis-mode solution to the mode along direction.

    If g solves the problem at s e1 then g(O v) solves it at s * direction,
    O the rotation aligning direction with e1.
    """
    return compose_rotation(basis, rotation_to_axis(direction))
