"""Velocity-space discretization.

The perturbation unknown lives in L^2(R^3) with a square-root Maxwellian
weight: every function is p(v) * sqrt(M), M the standard Gaussian.  The basis
is the tensor product of normalized probabilists' Hermite functions, truncated
at a total degree, with one orthogonal rotation applied inside the degree-2
block so that the energy invariant (|v|^2 - 3) sqrt(M) / sqrt(6) is itself a
basis element.  Every inner product of two basis functions integrates a
polynomial of degree <= 2N against the Gaussian, one factor of degree <= 2N
per coordinate, so the Gram matrix is the product of three 1-d Gram matrices
on the (N+1)-node Gauss-Hermite rule, which build_basis checks.  The
(N+1)^3-node product rule (VelocityBasis.exact_rule) computes the same
integrals point by point; only the dense references of the check subcommand
(checks.quadrature_gaps) and the tests evaluate the basis on it.

The real Burnett functions about e1 split the basis into azimuthal sectors
(AxisSectors): rotations about e1 act on sector m as rotations by m times
the angle, and every rotation-invariant operator, such as the linearized
collision operator, is a direct sum of radial blocks on them.  One set of
frames, built once per basis in closed form, serves both the axis modes and
the dense matrix of such an operator.

The mode metric lives here: poisson_energy writes its density weight, the
Poisson field's energy f_0 g_0 / s^2 at wavenumber s, and bilinear_pair is
the pairing sum f g plus that term, stacked over leading axes;
weighted_inner and weighted_norm are built on it, and every wavenumber is
parsed by axis_wavenumber and squared by wavenumber_squares.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import sha256_hex
from .errors import AssemblyError, BasisError
from .gauss import hermegauss

_TWO_PI = 2.0 * np.pi
_EVAL_ROWS = 1024  # points per evaluation block: the block's tables stay in cache
_PURE_SQUARES = ((0, 0, 2), (0, 2, 0), (2, 0, 0))  # the only slots the energy rotation mixes
_GRAM_TOL = 1e-10  # largest entry of the quadrature Gram matrix minus the identity
_ORTHO_TOL = 1e-12  # largest entry of T T^T minus the identity, T a class of Burnett frames


def _multi_indices(max_degree: int) -> list[tuple[int, int, int]]:
    """Graded lexicographic multi-indices with total degree <= max_degree."""
    out = []
    for deg in range(max_degree + 1):
        block = []
        for a1 in range(deg + 1):
            for a2 in range(deg - a1 + 1):
                block.append((a1, a2, deg - a1 - a2))
        block.sort()
        out.extend(block)
    return out


def _slot_of(alpha: np.ndarray) -> np.ndarray:
    """The slot of each multi-index row of alpha in _multi_indices order: the
    slots of lower total degree d, then a1 (2d + 3 - a1) / 2 + a2 within d."""
    d = alpha.sum(axis=-1)
    return d * (d + 1) * (d + 2) // 6 + alpha[..., 0] * (2 * d + 3 - alpha[..., 0]) // 2 \
        + alpha[..., 1]


def hermite_polynomial_table(nmax: int, x: np.ndarray) -> np.ndarray:
    """Values of He_n(x)/sqrt(n!) for n = 0..nmax, shape (nmax+1, len(x)).

    Three-term recurrence in the normalized form, stable at quadrature nodes.
    """
    x = np.asarray(x, dtype=float)
    table = np.empty((nmax + 1, x.size), dtype=float)
    table[0] = 1.0
    if nmax >= 1:
        table[1] = x
    for n in range(1, nmax):
        table[n + 1] = (x * table[n] - np.sqrt(n) * table[n - 1]) / np.sqrt(n + 1)
    return table


def burnett_labels(max_degree: int) -> np.ndarray:
    """(n, l, m) of every real Burnett function with 2n + l <= max_degree,
    ordered by (l, m, n); m < 0 labels the sin functions, one row each."""
    return np.array([(n, l, m) for l in range(max_degree + 1) for m in range(-l, l + 1)
                     for n in range((max_degree - l) // 2 + 1)])


def _burnett_class(labels: np.ndarray) -> np.ndarray:
    """The (a1, a2, a3 mod 2) reflection class of each Burnett function about
    e1, as 4 a1 + 2 a2 + a3: Re (v2 + i v3)^m has a2 = m and a3 = 0,
    Im (v2 + i v3)^m a2 = m - 1 and a3 = 1, and the rest of the function is
    even in v2 and v3 with the parity of l - m in v1."""
    l, m = labels[:, 1], np.abs(labels[:, 2])
    sin = labels[:, 2] < 0
    return 4 * ((l - m) % 2) + 2 * ((m - sin) % 2) + sin


def burnett_rows(points: np.ndarray, labels: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Closed-form values of the real Burnett functions labels at points, one
    row each:

        phi_nlm(v) = c_nl L_n^(l+1/2)(|v|^2/2) N_lm Q_l^|m|(v3, |v|^2) A_m(v1, v2),

    with A_m = Re (v1 + i v2)^m for m >= 0 and Im (v1 + i v2)^|m| for m < 0,
    Q_m^m = (2m - 1)!! and (l - m + 1) Q_(l+1)^m = (2l + 1) v3 Q_l^m
    - (l + m) |v|^2 Q_(l-1)^m (never dividing by |v|), so Q_l^m A_m is the
    solid harmonic |v|^l P_l^m(v3 / |v|) cos or sin(m phi).  c_nl and N_lm make
    every function a unit vector of L^2(M); N_l0 = sqrt(2l + 1).

    The labels are taken by |m|, then l, then n, holding one Q_l^|m| and one
    Laguerre recurrence at a time: gauss._genlaguerre's d and p steps run
    once per (|m|, l), and L_n is read off them at each n as it rises, times
    the same binomial factor, so every value is the one _genlaguerre(n,
    l + 1/2, |v|^2/2) gives.  With out, each row's values are added into
    out's row in place (the IEEE sum out + burnett_rows(points, labels)) and
    out is returned.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    v1, v2, v3 = points.T
    r2 = v1 * v1 + v2 * v2 + v3 * v3
    neg_x = -(0.5 * r2)
    add = out is not None
    if out is None:
        out = np.empty((len(labels), points.shape[0]))
    by_ml = {}  # (|m|, l): the (n, m, row) of its labels
    for row, (n, l, m) in enumerate(labels.tolist()):
        by_ml.setdefault((abs(m), l), []).append((n, m, row))
    lmax = max(key[1] for key in by_ml)
    ones = np.ones_like(v1)
    re, im = ones, np.zeros_like(v1)
    for am in range(max(key[0] for key in by_ml) + 1):
        if am:
            re, im = re * v1 - im * v2, re * v2 + im * v1
        q_prev = 0.0
        q = np.full_like(v1, math.prod(range(1, 2 * am, 2)))
        for l in range(am, lmax + 1):
            alpha, lag, binom, held = l + 0.5, ones, 1.0, 0  # lag = L_held
            for n, m, row in sorted(by_ml.get((am, l), ())):
                for k in range(held, n):  # _genlaguerre's steps from L_k to L_(k+1)
                    if k == 0:
                        d = neg_x / (alpha + 1.0)
                        p = d + 1.0
                    else:
                        d = neg_x / (k + alpha + 1.0) * p + (k / (k + alpha + 1.0)) * d
                        p = d + p
                    binom *= (k + 1 + alpha) / (k + 1)
                    lag = binom * p
                held = n
                norm2 = ((2 - (m == 0)) * (2 * l + 1) * math.factorial(l - am)
                         / math.factorial(l + am)
                         * math.factorial(n) * math.sqrt(math.pi)
                         / (2.0 ** (l + 1) * math.gamma(n + l + 1.5)))
                val = math.sqrt(norm2) * lag * q
                if m:
                    val *= re if m > 0 else im
                if add:
                    out[row] += val
                else:
                    out[row] = val
            q_prev, q = q, ((2 * l + 1) * v3 * q - (l + am) * r2 * q_prev) / (l - am + 1)
    return out


def _burnett_coefficients(basis: VelocityBasis, labels: np.ndarray) -> np.ndarray:
    """The coefficients of the real Burnett functions labels about e1 on the
    basis slots, one row each, in closed form (no quadrature).

    He_alpha is the Wick-ordered monomial :v^alpha:, and a polynomial of
    degree k orthogonal to every lower degree is fixed by its degree-k part,
    so phi_nlm is (-1)^n times a positive multiple of :|v|^2n Q_l^m A_m:
    (burnett_rows, axis along v1).  Its coefficient on the unit slot alpha is
    therefore proportional to (-1)^n sqrt(alpha!) times the coefficient of
    v^alpha in |v|^2n Q_l^m A_m.  The polynomials are monomial-coefficient
    vectors on the slots, and burnett_rows' recurrence runs on Q_l^m A_m
    itself, from (2m - 1)!! A_m, so multiplying by v1 or |v|^2 only moves
    coefficients between slots.  The rows are normalized and the energy
    rotation is applied on the pure-square columns.  Every row is an exact
    zero outside its total degree 2n + l and its reflection class.
    """
    top, dim = basis.max_degree, basis.dim
    alpha = np.array(basis.multi_indices)
    # down[k, j]: the slot of alpha_j - e_k, or dim, a zero column, if alpha_jk = 0
    down = np.full((3, dim + 1), dim)
    for k in range(3):
        has = alpha[:, k] > 0
        down[k, :dim][has] = _slot_of(alpha[has] - np.eye(3, dtype=int)[k])
    down2 = [d[d] for d in down]

    def r2(c):
        return c[:, down2[0]] + c[:, down2[1]] + c[:, down2[2]]

    # rows in the order m = 0, 1, -1, 2, -2, ... (m < 0 for sin): (2|m| - 1)!! times
    # Re or Im (v2 + i v3)^|m|, the coefficient of v2^(|m|-b) v3^b being binom(|m|, b) i^b
    r = np.arange(2 * top + 1)
    m = (r + 1) // 2
    sign = np.where((r > 0) & (r % 2 == 0), -1, 1)
    am, b = np.tril_indices(top + 1)
    cur = np.zeros((r.size, dim + 1))
    cur[np.maximum(2 * am - 1 + b % 2, 0), _slot_of(np.stack([0 * b, am - b, b], axis=-1))] = [
        math.prod(range(1, 2 * i, 2)) * math.comb(i, k) * (-1) ** (k // 2)
        for i, k in zip(am.tolist(), b.tolist())]
    prev = np.zeros_like(cur)
    # Q_l^m A_m for l = |m| + j, |m| <= top - j, from (l - m + 1) Q_(l+1)^m
    # = (2l + 1) v1 Q_l^m - (l + m) |v|^2 Q_(l-1)^m
    solid, l, signed = [], [], []
    for j in range(top + 1):
        live = 2 * (top - j) + 1
        cur, prev, mj = cur[:live], prev[:live], m[:live, None]
        solid.append(cur)
        l.append(m[:live] + j)
        signed.append(sign[:live] * m[:live])
        cur, prev = ((2 * (mj + j) + 1) * cur[:, down[0]] - (2 * mj + j) * r2(prev)) / (j + 1), cur
    stack, l, signed = (np.concatenate(x) for x in (solid, l, signed))
    row_of = np.zeros((top // 2 + 1, top + 1, 2 * top + 1), dtype=int)
    row_of[labels[:, 0], labels[:, 1], labels[:, 2] + top] = np.arange(len(labels))
    out = np.zeros((len(labels), dim))
    for n in range(top // 2 + 1):  # |v|^2n Q_l^m A_m, 2n + l <= top
        held = l + 2 * n <= top
        stack, l, signed = stack[held], l[held], signed[held]
        out[row_of[n, l, signed + top]] = stack[:, :dim]
        stack = r2(stack)
    root_fact = np.sqrt([math.factorial(a) for a in range(top + 1)])
    out *= root_fact[alpha].prod(axis=1)
    out *= (np.where(labels[:, 0] % 2 == 1, -1.0, 1.0) / np.linalg.norm(out, axis=1))[:, None]
    cols = [basis.multi_indices.index(a) for a in _PURE_SQUARES]
    out[:, cols] = out[:, cols] @ basis.rotation
    return out


def _product_rule(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product rule on R^3 from one 1-d rule."""
    nodes = np.stack([a.ravel() for a in np.meshgrid(x, x, x, indexing="ij")], axis=-1)
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    return nodes, weights


def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Hermite rule for the N(0, 1) measure.  BasisError if
    it has a non-positive weight or a non-finite node."""
    x, w = hermegauss(n)
    if not np.all(w > 0) or not np.all(np.isfinite(x)):
        raise BasisError("degenerate 1-d quadrature rule (non-positive weight)")
    return x, w / np.sqrt(_TWO_PI)  # weights for the standard normal measure


def _gauss_product_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n^3-node Gauss-Hermite product rule for the N(0, I3) measure:
    nodes (n^3, 3) and weights (n^3,)."""
    return _product_rule(*_gauss_rule(n))


def _separable_gram(basis: VelocityBasis) -> np.ndarray:
    """The basis Gram matrix on the (N+1)^3-node product rule, from its tensor
    structure: G[a, b] = G1[a1, b1] G1[a2, b2] G1[a3, b3], G1 the Gram
    matrix of the normalized Hermite polynomials on the (N+1)-node rule, with
    the pure-square rows and columns rotated as the basis is."""
    x, w = _gauss_rule(basis.max_degree + 1)
    table = hermite_polynomial_table(basis.max_degree, x)
    g1 = (table * w) @ table.T
    alpha = np.array(basis.multi_indices)
    gram = g1[alpha[:, 0]][:, alpha[:, 0]]
    for k in (1, 2):
        gram *= g1[alpha[:, k]][:, alpha[:, k]]
    return _rotate_pure_squares(basis, gram)


def _energy_rotation() -> np.ndarray:
    """Orthogonal change of basis making the energy invariant a basis column.

    The identity except on the three pure-square degree-2 slots, so only
    its 3x3 block there is returned, rows and columns in _PURE_SQUARES
    order.  The sum (He2(v1)+He2(v2)+He2(v3))/sqrt(3) lands on the slot of
    (2,0,0).
    """
    a, b, c = (1.0 / np.sqrt(x) for x in (2.0, 6.0, 3.0))
    return np.array([[a, b, c], [-a, b, c], [0.0, -2.0 / np.sqrt(6.0), c]])


class Frame(NamedTuple):
    """Orthonormal coordinates on some slots: y stands for the vector that is
    scale * (basis @ y) on the slots index and zero elsewhere.  basis is real
    with orthonormal columns and scale has unit moduli, so coords inverts
    embed on the frame's span."""

    index: np.ndarray
    scale: np.ndarray
    basis: np.ndarray

    def coords(self, f: np.ndarray) -> np.ndarray:
        """Coordinates of f in the frame."""
        return self.basis.T @ (self.scale.conj() * np.asarray(f)[self.index])

    def embed(self, y: np.ndarray, size: int) -> np.ndarray:
        """The length-size vectors, (..., size), with coordinates y (..., n),
        each formed alone by its own matvec, as a 1-d y forms it."""
        y = np.asarray(y)
        out = np.zeros(y.shape[:-1] + (size,), dtype=complex)
        out[..., self.index] = self.scale * (self.basis @ y[..., None])[..., 0]
        return out


@dataclass(frozen=True)
class AxisSectors:
    """Azimuthal sectors of the basis about e1, m = 0..max_degree, spanned by
    the real Burnett functions about e1.

    Rotations about e1 act on sector m as rotations by m times the angle.
    frames[m] holds the sector's cos copy, the phi_nl(+m) in (l, n) order on
    the slots of the (even, even) class for even m and the (odd, even) class
    for odd m, and for m >= 1 its sin copy, the phi_nl(-m) = -J1 phi_nl(+m) / m
    (J1 = v2 d/dv3 - v3 d/dv2) on the (odd, odd) or (even, odd) class.  Both
    carry the parity scale i^(a1 mod 2), so an axis mode matrix is the same
    real block on both copies.  The collision invariants phi_000, phi_010,
    -phi_100 (chi0, chi1, chi4) lead m = 0 and phi_0,1,+1 (chi2) and
    phi_0,1,-1 (chi3) the two copies of m = 1, as exact coordinate columns;
    n_invariant[m] counts them, and every other column is an exact zero on
    their slots.

    transform is the real orthogonal matrix whose columns are every copy of
    every sector in that order, spans[m] the column ranges of sector m's
    copies, and scale the parity scale: a vector f has the coordinates
    transform^T (conj(scale) f), copy by copy.  Column k of transform is
    signs[k] times the Burnett function labels[k] = (n, l, m), m < 0 for sin.
    """

    frames: tuple[tuple[Frame, ...], ...]
    n_invariant: tuple[int, ...]
    transform: np.ndarray
    spans: tuple[tuple[slice, ...], ...]
    scale: np.ndarray
    labels: np.ndarray
    signs: np.ndarray

    def coordinates(self, f: np.ndarray) -> list[list[np.ndarray]]:
        """The coordinates of f, or of each row of f, in every copy of every sector."""
        g = self.transform.T @ (self.scale.conj() * f).T
        return [[g[sl].T for sl in spans] for spans in self.spans]

    def _cos_copies(self):
        """(m, n, l, the outer product of the frame signs) of each sector's
        cos copy; the sin copy has the same n, l and signs, so the same block."""
        for m, (sl, *_) in enumerate(self.spans):
            n, l, signs = self.labels[sl, 0], self.labels[sl, 1], self.signs[sl]
            yield m, n, l, np.outer(signs, signs)

    def radial_blocks(self, radial: np.ndarray) -> tuple[np.ndarray, ...]:
        """Sector m's block, in either copy's frame, of the rotation-invariant
        operator with radial[l, n, n'] its entry between phi_nlm and phi_n'lm
        for every m: the direct sum of radial[l] over l >= m, read off
        exactly, with the frame columns' signs."""
        return tuple(np.where(l[:, None] == l, radial[l[:, None], n[:, None], n], 0.0) * signs
                     for _, n, l, signs in self._cos_copies())

    def streaming_blocks(self) -> tuple[np.ndarray, ...]:
        """Sector m's block, in either copy's frame, of conj(scale) (-i V1)
        scale, read off the labels: v1 phi_nlm couples l to l +- 1 only, with
        (phi_n',l+1,m, v1 phi_nlm) = sqrt(2) a_lm (sqrt(n + l + 3/2) [n' = n]
        - sqrt(n) [n' = n - 1]), a_lm = sqrt(((l+1)^2 - m^2) / ((2l+1)(2l+3)));
        the parity scale makes -i a -1 on the columns with l - m even and a
        +1 on the rest, and the frame signs apply as in radial_blocks."""
        out = []
        for m, n, l, signs in self._cos_copies():
            a = np.sqrt(((l + 1) ** 2 - m * m) / ((2 * l + 1) * (2 * l + 3)))
            up = (l[:, None] == l + 1) * np.sqrt(2.0) * a * (
                (n[:, None] == n) * np.sqrt(n + l + 1.5) - (n[:, None] == n - 1) * np.sqrt(n))
            out.append((up + up.T) * np.where((l - m) % 2, 1.0, -1.0) * signs)
        return tuple(out)

    def basis_matrix(self, blocks: tuple[np.ndarray, ...]) -> np.ndarray:
        """The real matrix, in basis slot numbering, with blocks[m] (from
        radial_blocks or streaming_blocks) on both copies of sector m, mapped
        through each copy's frame, without the parity scale.  A frame holds
        one (a2, a3 mod 2) class, so entries between classes are exact zeros."""
        out = np.zeros((self.scale.size, self.scale.size))
        for copies, block in zip(self.frames, blocks):
            for fr in copies:
                out[np.ix_(fr.index, fr.index)] += fr.basis @ block @ fr.basis.T
        return out


class ExactRule(NamedTuple):
    """The smallest Gauss-Hermite product rule exact for every product of two
    basis functions, (N+1)^3 nodes: nodes (npts, 3), weights for the N(0, I3)
    measure, and poly, the basis poly_rows on the nodes (dim, npts)."""

    nodes: np.ndarray
    weights: np.ndarray
    poly: np.ndarray


@dataclass(frozen=True)
class VelocityBasis:
    """Orthonormal truncated Hermite basis with its exact quadrature."""

    max_degree: int
    dim: int
    multi_indices: tuple[tuple[int, int, int], ...]
    invariant_indices: tuple[int, int, int, int, int]
    rotation: np.ndarray          # (3, 3) raw-tensor -> final basis on the pure squares

    def descriptor(self) -> dict:
        return {
            "schema": 1,
            "max_degree": self.max_degree,
            "index_order": "graded-lex-ascending",
            "energy_rotation": "pure-squares-v1",
        }

    def descriptor_hash(self) -> str:
        payload = json.dumps(self.descriptor(), sort_keys=True).encode()
        return sha256_hex(payload)

    def poly_rows(self, points: np.ndarray) -> np.ndarray:
        """Polynomial parts of the basis functions at arbitrary points, (dim, npts),
        one row per slot.

        The energy rotation only mixes the three pure-square slots, so only
        those rows are rotated, in ascending slot order (the order a dense
        product sums them in); the result equals the tensor-product values
        times the full rotation exactly.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        alpha = np.array(self.multi_indices)
        out = np.empty((self.dim, points.shape[0]))
        for start in range(0, points.shape[0], _EVAL_ROWS):
            block = points[start:start + _EVAL_ROWS]
            tables = [hermite_polynomial_table(self.max_degree, block[:, k]) for k in range(3)]
            out[:, start:start + _EVAL_ROWS] = (
                tables[0][alpha[:, 0]] * tables[1][alpha[:, 1]] * tables[2][alpha[:, 2]])
        cols = [self.multi_indices.index(a) for a in _PURE_SQUARES]
        # an (npts, 3) by (3, 3) product, so each point sums in the same order
        out[cols] = (out[cols].T @ self.rotation).T
        return out

    @cached_property
    def exact_rule(self) -> ExactRule:
        """The (N+1)^3-node rule and the basis rows on it; read-only.  It is
        exact for every degree-2N product of two basis functions.  Of the
        subcommands only check evaluates it, through checks.quadrature_gaps, the
        dense references of the Gram check and the Burnett transform; the
        tests read it too."""
        nodes, weights = _gauss_product_rule(self.max_degree + 1)
        rule = ExactRule(nodes, weights, self.poly_rows(nodes))
        for arr in rule:
            arr.setflags(write=False)
        return rule

    @cached_property
    def v1(self) -> np.ndarray:
        """The Galerkin matrix of multiplication by v1, built once per basis;
        read-only.  Axis modes stream along e1 only."""
        mat = _multiplication_matrix(self, 0)
        mat.setflags(write=False)
        return mat

    @cached_property
    def axis_sectors(self) -> AxisSectors:
        """The azimuthal sectors about e1, from the real Burnett functions
        about e1 in closed form (_burnett_coefficients); no quadrature.

        Each (a1, a2, a3 mod 2) reflection class must hold as many Burnett
        functions as basis slots, and once the invariants are set as exact
        coordinate columns its block of the transform must be orthogonal to
        _ORTHO_TOL, which the dense collision matrix and the sector blocks
        rely on; AssemblyError names a failed check.
        """
        labels = burnett_labels(self.max_degree)
        label_class = _burnett_class(labels)
        alpha = np.array(self.multi_indices) % 2
        slot_class = alpha @ np.array([4, 2, 1])
        classes = [(np.flatnonzero(slot_class == c), np.flatnonzero(label_class == c))
                   for c in range(8)]
        for c, (slots, rows) in enumerate(classes):
            if slots.size != rows.size:
                raise AssemblyError(f"Burnett transform fails the orthogonality check: "
                                    f"reflection class {c} holds {slots.size} basis slots "
                                    f"but {rows.size} Burnett functions")
        coef = _burnett_coefficients(self, labels)  # coef[k]: phi_labels[k] on the basis
        # chi0, chi1, chi4 | chi2 | chi3 are phi_000, phi_010, -phi_100 | phi_0,1,+1 | phi_0,1,-1
        row_of = {tuple(a): k for k, a in enumerate(labels.tolist())}
        front = [row_of[a] for a in ((0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 1, 1), (0, 1, -1))]
        inv = self.invariant_indices
        signs = np.ones(self.dim)
        signs[front[2]] = -1.0
        coef[:, inv] = 0.0
        coef[front] = 0.0
        coef[front, [inv[0], inv[1], inv[4], inv[2], inv[3]]] = signs[front]
        for c, (slots, rows) in enumerate(classes):
            t = coef[np.ix_(rows, slots)]
            gap = float(np.max(np.abs(t @ t.T - np.eye(slots.size)), initial=0.0))
            if not gap <= _ORTHO_TOL:
                raise AssemblyError(f"Burnett transform fails the orthogonality check: "
                                    f"|T T^T - I| = {gap:.2e} in reflection class {c}, "
                                    f"above {_ORTHO_TOL:.0e}")
        order, spans, n_invariant = [], [], []
        for m in range(self.max_degree + 1):
            spans.append([])
            for signed in ((m, -m) if m else (0,)):
                head = [k for k in front if labels[k, 2] == signed]
                rows = head + [k for k in np.flatnonzero(labels[:, 2] == signed)
                               if k not in front]
                spans[-1].append(slice(len(order), len(order) + len(rows)))
                order.extend(rows)
            n_invariant.append(len(head))
        transform = (coef[order] * signs[order, None]).T
        scale = np.where(alpha[:, 0] == 1, 1j, 1.0 + 0j)
        pair_class = 2 * alpha[:, 1] + alpha[:, 2]
        frames = []
        for m, copies in enumerate(spans):
            frames.append([])
            for sin, sl in enumerate(copies):
                idx = np.flatnonzero(pair_class == 2 * ((m - sin) % 2) + sin)
                frames[-1].append(Frame(idx, scale[idx], transform[idx, sl]))
        sectors = AxisSectors(frames=tuple(tuple(copies) for copies in frames),
                              n_invariant=tuple(n_invariant), transform=transform,
                              spans=tuple(tuple(copies) for copies in spans), scale=scale,
                              labels=labels[order], signs=signs[order])
        for arr in (transform, scale, sectors.labels, sectors.signs,
                    *(a for copies in frames for fr in copies for a in fr)):
            arr.setflags(write=False)
        return sectors

    @cached_property
    def fluxes(self) -> np.ndarray:
        """(4, dim) stack of flux_vector(self, j) for j = 1..4, row j - 1;
        built once per basis, read-only."""
        stack = np.stack([flux_vector(self, j) for j in (1, 2, 3, 4)])
        stack.setflags(write=False)
        return stack

    def chi(self, k: int) -> np.ndarray:
        """Coefficient vector of the k-th collision invariant, k = 0..4."""
        e = np.zeros(self.dim)
        e[self.invariant_indices[k]] = 1.0
        return e

    @property
    def density_index(self) -> int:
        return self.invariant_indices[0]

    def macro_project(self, f: np.ndarray) -> np.ndarray:
        """Projection onto the five collision invariants (coefficient space)."""
        out = np.zeros_like(f)
        idx = list(self.invariant_indices)
        out[..., idx] = f[..., idx]
        return out

    def embed_invariants(self, x: np.ndarray) -> np.ndarray:
        """The (..., dim) vectors holding x's last axis on invariant_indices."""
        out = np.zeros(x.shape[:-1] + (self.dim,), dtype=x.dtype)
        out[..., list(self.invariant_indices)] = x
        return out

    def micro_project(self, f: np.ndarray) -> np.ndarray:
        out = np.array(f, copy=True)
        out[..., list(self.invariant_indices)] = 0.0
        return out


@dataclass
class MacroState:
    """Macroscopic content of a perturbation: density, momentum, energy."""

    n: complex
    m: np.ndarray
    q: complex


def build_basis(max_degree: int) -> VelocityBasis:
    """Construct the truncated Hermite basis and check its Gram matrix.

    Construction fails if the quadrature is degenerate or if the Gram matrix
    on the (max_degree+1)^3 rule that makes it exact, formed from its tensor
    structure (_separable_gram), misses _GRAM_TOL.
    """
    if max_degree < 2:
        raise BasisError("max_degree must be >= 2 so all five invariants are in the span")

    indices = _multi_indices(max_degree)
    inv = (indices.index((0, 0, 0)),
           indices.index((1, 0, 0)),
           indices.index((0, 1, 0)),
           indices.index((0, 0, 1)),
           indices.index((2, 0, 0)))

    basis = VelocityBasis(
        max_degree=max_degree,
        dim=len(indices),
        multi_indices=tuple(indices),
        invariant_indices=inv,
        rotation=_energy_rotation(),
    )
    basis.rotation.setflags(write=False)
    gram = _separable_gram(basis)
    gram[np.diag_indices(basis.dim)] -= 1.0
    err = float(np.max(np.abs(gram)))
    if not err <= _GRAM_TOL:
        raise BasisError(f"quadrature Gram check failed on the {max_degree + 1}^3-node rule: "
                         f"max deviation {err:.3e} > {_GRAM_TOL:.1e}")
    return basis


def project_macro(basis: VelocityBasis, f: np.ndarray) -> MacroState:
    """(n, m, q) of f (dim,), or of each row of a stack f (..., dim), m then (..., 3)."""
    i0, i1, i2, i3, i4 = basis.invariant_indices
    return MacroState(n=f[..., i0], m=f[..., [i1, i2, i3]], q=f[..., i4])


def macro_vector(basis: VelocityBasis, n: complex, m, q: complex) -> np.ndarray:
    """Coefficient vector of n*chi0 + m.v chi0 + q*chi4."""
    dtype = complex if np.iscomplexobj(np.asarray([n, q])) or np.iscomplexobj(np.asarray(m)) \
        else float
    f = np.zeros(basis.dim, dtype=dtype)
    i0, i1, i2, i3, i4 = basis.invariant_indices
    f[i0] = n
    f[i1], f[i2], f[i3] = np.asarray(m)
    f[i4] = q
    return f


def flux_vector(basis: VelocityBasis, j: int) -> np.ndarray:
    """Microscopic part of v_1 * chi_j, Galerkin-truncated.

    j = 2 gives the off-diagonal stress, j = 1 the longitudinal stress,
    j = 4 the heat flux.  The heat flux has degree 3, so it vanishes
    identically on a degree-2 basis.
    """
    return basis.micro_project(basis.v1 @ basis.chi(j))


def axis_wavenumber(xi) -> float:
    """s from a wavevector on the axis: a scalar s or the 3-vector (s, 0, 0),
    s positive and finite, with s^2 and 1/s^2 finite; BasisError for anything else."""
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if arr.shape not in ((1,), (3,)) or arr[1:].any():
        raise BasisError("wavevector must be a wavenumber s or the axis vector (s, 0, 0)")
    return _wavenumber(float(arr[0]))


def _wavenumber(s: float) -> float:
    """s, if it is positive and finite with s^2 and 1/s^2 finite; BasisError naming it if not."""
    if s == 0.0:
        raise BasisError("wavevector must be nonzero; the zero mode has no Poisson factor")
    if not (0.0 < s and math.isfinite(s * s) and math.isfinite(1.0 / s / s)):
        raise BasisError(f"wavenumber must be positive and finite, with s^2 and 1/s^2 finite, "
                         f"not {s}")
    return s


def wavenumber_squares(s) -> np.ndarray:
    """s ** 2 for each entry of s (a float or an array of wavenumbers), with
    the shape of s; BasisError, as axis_wavenumber, naming the first bad
    entry.  Squared on Python floats, by C pow, as one mode squares its s;
    numpy's s * s rounds some apart."""
    s = np.asarray(s, dtype=float)
    return np.reshape([_wavenumber(v) ** 2 for v in s.ravel().tolist()], s.shape)


def poisson_energy(density_product, s) -> np.ndarray:
    """f_0 g_0 / s^2, the Poisson field's energy of a density product f_0 g_0
    at each wavenumber s (wavenumber_squares): the one place the mode metric
    weights the density.  bilinear_pair adds it to a row's plain pairing, and
    the convergence study's gap norm to its sum of squared moduli."""
    return density_product / wavenumber_squares(s)


def bilinear_pair(basis: VelocityBasis, f: np.ndarray, g: np.ndarray, s) -> np.ndarray:
    """The mode pairing sum f g + f_0 g_0 / s^2, bilinear (conjugation-free),
    f_0 the density component, its term the poisson_energy.  Vectors lie on
    the last axis, and the leading axes of f and g broadcast against s, one
    wavenumber per pairing (BasisError for a bad one).  Each row sums over
    its whole length, as a 1-d pairing does, so a stack pairs bit for bit as
    its rows do.

    This is the pairing that diagonalizes the non-self-adjoint mode operator:
    eigenfunctions for distinct eigenvalues are orthogonal under it.
    """
    f, g = np.asarray(f), np.asarray(g)
    i0 = basis.density_index
    return (np.multiply(f, g, order="C").sum(axis=-1)
            + poisson_energy(f[..., i0] * g[..., i0], s))


def weighted_inner(basis: VelocityBasis, f: np.ndarray, g: np.ndarray, s) -> np.ndarray:
    """The sesquilinear mode inner product, bilinear_pair(f, conj g): the
    quadratic form whose real part the mode operator dissipates."""
    return bilinear_pair(basis, f, np.conj(g), s)


def weighted_norm(basis: VelocityBasis, f: np.ndarray, s) -> np.ndarray:
    """The mode norm of f, or of each row of a stack, sqrt(weighted_inner(f, f))."""
    return np.sqrt(weighted_inner(basis, f, f, s).real)


def _multiplication_matrix(basis: VelocityBasis, k: int) -> np.ndarray:
    """The Galerkin matrix of multiplication by v_k, k = 0, 1, 2 for v_1, v_2, v_3:
    v_k couples Hermite degrees n -> n +/- 1 with coefficients sqrt(n+1),
    sqrt(n), and components leaving the truncated span are dropped."""
    pos = {alpha: i for i, alpha in enumerate(basis.multi_indices)}
    v = np.zeros((basis.dim, basis.dim))
    for i, alpha in enumerate(basis.multi_indices):
        a = alpha[k]
        up = list(alpha)
        up[k] += 1
        ju = pos.get(tuple(up))
        if ju is not None:
            v[ju, i] = np.sqrt(a + 1.0)
        if a > 0:
            dn = list(alpha)
            dn[k] -= 1
            v[pos[tuple(dn)], i] = np.sqrt(a)
    return _rotate_pure_squares(basis, v)


def _rotate_pure_squares(basis: VelocityBasis, mat: np.ndarray) -> np.ndarray:
    """rotation^T mat rotation, computed in place on mat.  The energy rotation is
    the identity outside the three pure-square slots, so only those columns and then
    those rows are multiplied.  v_k vanishes between pure-square slots, and for
    it the result equals the dense product exactly."""
    cols = [basis.multi_indices.index(a) for a in _PURE_SQUARES]
    r = basis.rotation
    mat[:, cols] = mat[:, cols] @ r
    mat[cols, :] = r.T @ mat[cols, :]
    return mat
