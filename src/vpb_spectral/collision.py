"""Linearized collision operator, assembled exactly for hard potentials.

The Galerkin matrix is computed from the symmetric Dirichlet form

    (L f, g) = -1/4 * Int B(|u|, w) M M_* (F + F_* - F' - F'_*)
                                     (G + G_* - G' - G'_*) dw dv_* dv,

with F, G the polynomial parts of f, g.  In center-of-mass coordinates
p = (v + v_*)/sqrt(2), rel = (v - v_*)/sqrt(2) the Gaussian weight factorizes,
and the angular-cutoff kernel C |cos(theta)| |u|^gamma turns the collision
sphere into a plain surface measure, so the whole 8-d integral reduces to
(Gauss-Hermite)^3 x generalized Gauss-Laguerre x one product sphere rule,
which serves both sphere variables, eta and sigma.  Every factor rule is
sized to the polynomial degree of the integrand, which makes the assembled
matrix exact up to roundoff: symmetric, negative semidefinite, with the five
collision invariants as its exact kernel.

Every factor rule is also mirror-symmetric, so each coordinate reflection,
applied to the center-of-mass and sphere nodes together, maps the grid onto
itself, and a function of definite parity at most changes its sign.  The
Dirichlet sums therefore run only within parity classes, and the entries
between classes are exact zeros.  The bilinear form (oracles.GammaEvaluator,
which no job runs) has no such invariance and runs on the full grid.

The Dirichlet form sees a colliding pair only through S = P(v) + P(v_*),
which is unchanged when the particles swap, u -> -u on the sphere.  The
sphere rule holds every node's antipode at the same weight, so the sums of S
(the Dirichlet matrix and the sigma-reduced sums of the bilinear form) run
over one node per antipodal pair at twice its weight.  The bilinear form's
pre-collisional product is not exchange-invariant and keeps the whole sphere.

L commutes with rotations, so on the real Burnett functions
phi_nlm = c_nl L_n^(l+1/2)(|v|^2/2) |v|^l Y_lm, 2n + l <= N, it is
sum_l L_l (x) I_(2l+1), and the radial blocks L_l do not depend on the axis
the Y_lm are taken about.  The Dirichlet sums therefore run over the zonal
functions phi_nl0 about e3 alone (25 rows at N = 8, not 165), evaluated in
closed form, and the L_l they give are all the operator keeps
(CollisionOperator.radial).  Zonal functions are unchanged by every
rotation about e3 and by v2 -> -v2, and the grid must resolve the degree-2N
integrand (an under-resolved grid raises AssemblyError), so the sphere sums
are exact and the summed S S^T and the products of the sphere-reduced sums
of S at a center of mass c are polynomials of degree <= 2N in c that are
invariant under rotations of c about e3: polynomials in c3 and
x = |c_perp|^2 / 2 of degree <= N in x.  Their Gaussian average is exact on
the axial rule, Gauss-Laguerre in x (weight e^(-x), (n_gauss + 1) // 2
nodes) times the folded Gauss-Hermite rule in c3, at the nodes
(sqrt(2x), 0, c3): 25 nodes at n_gauss = 9, where the octant has 125.  At
c2 = 0, v2 -> -v2 fixes c, and composed with the exchange it maps each
sphere node u to (-u1, u2, -u3) with the same integrand, so the sphere sums
keep one node per such pair as well.
The bilinear form stays on the basis polynomials and the Cartesian
center-of-mass rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from . import cache as _cache
from .errors import AssemblyError, VPBError
from .velocity_space import Frame, VelocityBasis, _genlaguerre, burnett_labels, burnett_rows

_TWO_PI = 2.0 * np.pi
_CHUNK_POINTS = 16_000  # quadrature points per evaluated block
_MIRROR_TOL = 1e-14     # largest mirror mismatch of a 1-d rule's nodes or weights
_MICRO_SOLVE_TOL = 1e-8  # relative residual allowed in a micro collision block solve
# folds, factor rules and Burnett reduction behind cached radial blocks
_FOLD_TAG = "burnett-radial-blocks-v1"
# zonal entries between different l, and the gap between the streaming blocks
# and their dense reference in check, relative to the largest entry
STRUCTURE_TOL = 1e-13
_INVARIANTS = ((0, 0), (0, 1), (1, 0))  # (l, n) of density, energy and momentum


@dataclass(frozen=True)
class CollisionQuadrature:
    """Node counts for the factorized collision integral."""

    n_gauss: int    # Gauss-Hermite nodes per center-of-mass axis
    n_radial: int   # generalized Gauss-Laguerre nodes in the relative speed
    n_polar: int    # Gauss-Legendre nodes in cos(theta), per sphere
    n_azimuth: int  # uniform azimuthal nodes, per sphere

    @classmethod
    def for_degree(cls, degree: int) -> "CollisionQuadrature":
        """Smallest rule exact for sphere-integrands of polynomial degree <= degree."""
        return cls(
            n_gauss=degree // 2 + 1,
            n_radial=degree // 4 + 1,
            n_polar=degree // 2 + 1,
            n_azimuth=2 * (degree // 2 + 1),
        )

    def descriptor(self) -> dict:
        return {
            "n_gauss": self.n_gauss,
            "n_radial": self.n_radial,
            "n_polar": self.n_polar,
            "n_azimuth": self.n_azimuth,
        }


def genlaggauss(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight x^alpha e^(-x) on (0, inf).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Laguerre recurrence, polished by one Newton step; the weights are
    1 / (L_(n-1)(x) L_n'(x)), scaled to the total Gamma(alpha + 1).
    """
    k = np.arange(n, dtype=float)
    off = -np.sqrt(k[1:] * (k[1:] + alpha))
    jacobi = np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jacobi)
    dy = (n * _genlaguerre(n, alpha, x) - (n + alpha) * _genlaguerre(n - 1, alpha, x)) / x
    x = x - _genlaguerre(n, alpha, x) / dy
    w = 1.0 / (_genlaguerre(n - 1, alpha, x) * dy)
    return x, w * (math.gamma(alpha + 1.0) / w.sum())


def _check_mirror(x: np.ndarray, w: np.ndarray, rule: str) -> None:
    """The reflection fold needs every 1-d factor rule symmetric about 0."""
    gap = max(float(np.max(np.abs(x + x[::-1]))), float(np.max(np.abs(w - w[::-1]))))
    if gap > _MIRROR_TOL:
        raise AssemblyError(f"{rule} rule is not mirror-symmetric (mismatch {gap:.1e}); "
                            "the reflection fold of the collision sums needs it")


def _sphere_rule(n_polar: int, n_azimuth: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule on S^2 with total weight 4*pi, mirror-symmetric in each axis."""
    if n_azimuth % 2:
        raise AssemblyError(f"n_azimuth={n_azimuth} is odd; the azimuthal rule is "
                            "mirror-symmetric in v1 only for an even node count")
    cos_t, w_t = leggauss(n_polar)
    _check_mirror(cos_t, w_t, "Gauss-Legendre polar")
    sin_t = np.sqrt(1.0 - cos_t ** 2)
    phi = _TWO_PI * (np.arange(n_azimuth) + 0.5) / n_azimuth
    nodes = np.empty((n_polar * n_azimuth, 3))
    nodes[:, 0] = np.outer(sin_t, np.cos(phi)).ravel()
    nodes[:, 1] = np.outer(sin_t, np.sin(phi)).ravel()
    nodes[:, 2] = np.repeat(cos_t, n_azimuth)
    weights = np.repeat(w_t, n_azimuth) * (_TWO_PI / n_azimuth)
    return nodes, weights


def _exchange_fold(nodes: np.ndarray, weights: np.ndarray, n_azimuth: int,
                   rule: str) -> tuple[np.ndarray, np.ndarray]:
    """One node per antipodal pair of a _sphere_rule grid, at twice its weight.

    Node (i, k) has its antipode at (n_polar-1-i, k+n_azimuth/2); the nodes
    with k < n_azimuth/2 are kept once that is checked.
    """
    half = n_azimuth // 2
    grid_x = nodes.reshape(-1, n_azimuth, 3)
    grid_w = weights.reshape(-1, n_azimuth)
    keep_x, keep_w = grid_x[:, :half], grid_w[:, :half]
    gap = max(float(np.max(np.abs(keep_x + grid_x[::-1, half:]))),
              float(np.max(np.abs(keep_w - grid_w[::-1, half:]))))
    if gap > _MIRROR_TOL:
        raise AssemblyError(f"{rule} sphere rule is not antipodally symmetric (mismatch "
                            f"{gap:.1e}); the exchange fold of the collision sums needs it")
    return keep_x.reshape(-1, 3), 2.0 * keep_w.ravel()


def _axial_fold(nodes: np.ndarray, weights: np.ndarray,
                rule: str) -> tuple[np.ndarray, np.ndarray]:
    """One node per pair u, (-u1, u2, -u3) of an _exchange_fold rule: the
    first half at twice its weight and a middle node once.

    In _exchange_fold's (n_polar, n_azimuth/2) order node (i, k) has its image
    at (n_polar-1-i, n_azimuth/2-1-k), which is the reversed ravel; the nodes
    are kept once that is checked.
    """
    gap = max(float(np.max(np.abs(nodes - nodes[::-1] * np.array([-1.0, 1.0, -1.0])))),
              float(np.max(np.abs(weights - weights[::-1]))))
    if gap > _MIRROR_TOL:
        raise AssemblyError(f"{rule} sphere rule is not symmetric under u -> (-u1, u2, -u3) "
                            f"(mismatch {gap:.1e}); the axial fold of the zonal sums needs it")
    half = weights.size // 2
    keep = weights.size - half
    fold_w = weights[:keep].copy()
    fold_w[:half] *= 2.0  # every node but a middle one stands for its image too
    return nodes[:keep], fold_w


class _CollisionGrid:
    """Factorized quadrature grid for the collision integral.

    axial_com holds the axial rule for integrands invariant under rotations
    about e3, Gauss-Laguerre in |c_perp|^2 / 2 times the folded Gauss-Hermite
    rule in c3, at nodes (c1, 0, c3) with c1, c3 >= 0.  eta is the one sphere
    rule, for eta and sigma alike; folded_eta holds one of its nodes per
    antipodal pair, each weighted twice, and axial_eta folds those once more,
    by u -> (-u1, u2, -u3).
    """

    def __init__(self, quad: CollisionQuadrature, gamma: float, kernel_c: float):
        if not 0.0 <= gamma <= 1.0:
            raise AssemblyError(f"kernel exponent gamma={gamma} outside the hard range [0, 1]")
        if kernel_c <= 0:
            raise AssemblyError("kernel constant must be positive")
        self.quad = quad
        self.gamma = gamma
        self.kernel_c = kernel_c

        x, w = hermegauss(quad.n_gauss)
        w = w / np.sqrt(_TWO_PI)
        _check_mirror(x, w, "Gauss-Hermite center-of-mass")
        half = quad.n_gauss // 2
        fold_w = w[half:].copy()
        fold_w[quad.n_gauss % 2:] *= 2.0  # every node but a middle one has a mirror image
        # |c_perp|^2 / 2 is Exp(1) under the Gaussian: Gauss-Laguerre with alpha = 0
        t, wt = genlaggauss((quad.n_gauss + 1) // 2, 0.0)
        axial = np.zeros((t.size, fold_w.size, 3))
        axial[..., 0] = np.sqrt(2.0 * t)[:, None]
        axial[..., 2] = x[half:]
        self.axial_com = axial.reshape(-1, 3), np.outer(wt, fold_w).ravel()

        # relative speed rho: Int rho^(2+gamma) e^(-rho^2/2) f(rho) drho via t = rho^2/2
        t, wt = genlaggauss(quad.n_radial, (1.0 + gamma) / 2.0)
        self.rho = np.sqrt(2.0 * t)
        self.rho_w = wt * 2.0 ** ((1.0 + gamma) / 2.0)

        self.eta, self.eta_w = _sphere_rule(quad.n_polar, quad.n_azimuth)
        self.folded_eta = _exchange_fold(self.eta, self.eta_w, quad.n_azimuth, "eta")
        self.axial_eta = _axial_fold(*self.folded_eta, "eta")

        self.prefactor = kernel_c * 2.0 ** (gamma / 2.0) / 2.0 * _TWO_PI ** (-1.5)

    def resolved_degrees(self) -> dict[str, int]:
        """The largest integrand degree each factor rule sums exactly: the
        largest degree whose CollisionQuadrature.for_degree it has the nodes of."""
        q = self.quad
        return {"Gauss-Hermite center-of-mass": 2 * q.n_gauss - 1,
                "Gauss-Laguerre radial": 4 * q.n_radial - 1,
                "eta sphere": min(2 * q.n_polar, q.n_azimuth) - 1}


def _pair_points(com: np.ndarray, rho: np.ndarray, unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, v_*) or (v', v'_*) for a block of center-of-mass nodes."""
    shift = rho[None, :, None, None] * unit[None, None, :, :]
    plus = (com[:, None, None, :] + shift) / np.sqrt(2.0)
    minus = (com[:, None, None, :] - shift) / np.sqrt(2.0)
    npts = plus.shape[0] * plus.shape[1] * plus.shape[2]
    return plus.reshape(npts, 3), minus.reshape(npts, 3)


def _chunk_blocks(n_com: int, per_com: int) -> list[slice]:
    step = max(1, _CHUNK_POINTS // max(per_com, 1))
    return [slice(i, min(i + step, n_com)) for i in range(0, n_com, step)]


def _point_weights(com_w: np.ndarray, rho_w: np.ndarray, unit_w: np.ndarray) -> np.ndarray:
    """Weights of the (com, rho, sphere) points in _pair_points order."""
    return (com_w[:, None, None] * rho_w[None, :, None] * unit_w[None, None, :]).ravel()


def _add_class_products(acc: np.ndarray, left: np.ndarray, right: np.ndarray,
                        ranges: list[slice]) -> None:
    """acc[c, c] += left[c] right[c]^T for every class range c; nothing else.

    left and right are class-major: one row per sorted slot, one column per
    point, so each class is a contiguous block of rows.
    """
    for rng in ranges:
        acc[rng, rng] += left[rng] @ right[rng].T


def _pair_sums_and_reductions(rows_at, n_rows: int, grid: _CollisionGrid,
                              unit: np.ndarray, unit_w: np.ndarray, ranges: list[slice]):
    """Accumulate A = S^T W S within the ranges over the axial (com, rho,
    sphere) grid and the sphere-reduced sums a[row, (com, rho)], with
    S = P(v) + P(v_*) for the n_rows zonal functions P that rows_at
    evaluates, one row per function, in class-major order."""
    com_nodes, com_w = grid.axial_com
    n_sphere = unit.shape[0]
    n_rho = grid.rho.size
    a_red = np.zeros((n_rows, com_nodes.shape[0] * n_rho))
    acc = np.zeros((n_rows, n_rows))
    for blk in _chunk_blocks(com_nodes.shape[0], n_rho * n_sphere):
        v, v_star = _pair_points(com_nodes[blk], grid.rho, unit)
        rows = rows_at(v)
        rows += rows_at(v_star)
        _add_class_products(acc, rows, rows * _point_weights(com_w[blk], grid.rho_w, unit_w),
                            ranges)
        a_red[:, blk.start * n_rho:blk.stop * n_rho] = (
            rows.reshape(n_rows, -1, n_sphere) @ unit_w)
    return acc, a_red


def _folded_dirichlet(rows_at, n_rows: int, grid: _CollisionGrid,
                      ranges: list[slice]) -> np.ndarray:
    """The symmetrized Dirichlet form between the zonal functions rows_at
    evaluates, within the class ranges, on the axial grid.

    The raw sum is symmetric up to roundoff; a larger asymmetry means a
    broken sum and raises before the result is symmetrized.
    """
    acc, a_red = _pair_sums_and_reductions(rows_at, n_rows, grid, *grid.axial_eta, ranges)
    w_com_rho = (grid.axial_com[1][:, None] * grid.rho_w[None, :]).ravel()
    cross = np.zeros((n_rows, n_rows))
    _add_class_products(cross, a_red * w_com_rho, a_red, ranges)
    # eta and sigma share the sphere rule, so the two S S^T terms are one sum
    total = float(np.sum(grid.eta_w))
    mat = -(grid.prefactor / 4.0) * (2.0 * total * acc - cross - cross.T)
    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > 1e-12 * max(float(np.max(np.abs(mat))), 1.0):
        raise AssemblyError(f"collision matrix asymmetry {asym:.2e} before symmetrization")
    return 0.5 * (mat + mat.T)


def _dirichlet_matrix(basis: VelocityBasis, grid: _CollisionGrid) -> np.ndarray:
    """The radial blocks of L (the stack CollisionOperator.radial holds) from
    the Dirichlet sums over the zonal Burnett functions phi_nl0.

    L commutes with rotations, so on the Burnett functions it is
    sum_l L_l (x) I_(2l+1) with L_l[n, n'] = (L phi_nl0, phi_n'l0).  The zonal
    functions are even in v1 and v2 and have the parity of l in v3, so the
    folds apply with two classes, even and odd l.  A grid that does not
    resolve the degree-2N integrand raises AssemblyError naming each short
    rule, and so does an entry between different l above STRUCTURE_TOL times
    the largest.
    """
    top = basis.max_degree
    short = [f"the {rule} rule resolves degree {deg}"
             for rule, deg in grid.resolved_degrees().items() if deg < 2 * top]
    if short:
        raise AssemblyError(f"collision grid does not resolve the degree-{2 * top} Dirichlet "
                            f"integrand of a degree-{top} basis: {'; '.join(short)}")
    labels = np.array([(n, l, 0) for parity in (0, 1) for l in range(parity, top + 1, 2)
                       for n in range((top - l) // 2 + 1)])
    l = labels[:, 1]
    n_even = int(np.count_nonzero(l % 2 == 0))
    zonal = _folded_dirichlet(lambda pts: burnett_rows(pts, labels), len(labels), grid,
                              [slice(0, n_even), slice(n_even, len(labels))])
    ratio = np.max(np.abs(zonal[l[:, None] != l[None, :]])) / np.max(np.abs(zonal))
    if not ratio <= STRUCTURE_TOL:
        raise AssemblyError(f"collision matrix fails the Burnett check: zonal entry between "
                            f"different l of {ratio / STRUCTURE_TOL:.2g} times STRUCTURE_TOL, "
                            "relative to its largest entry")
    radial = np.zeros((top + 1, top // 2 + 1, top // 2 + 1))
    i, j = np.nonzero(l[:, None] == l[None, :])
    radial[l[i], labels[i, 0], labels[j, 0]] = zonal[i, j]
    return radial


def _blocks(radial: np.ndarray) -> list[np.ndarray]:
    """The radial blocks L_l of an (N+1, K, K) stack, without the zeros around them."""
    top = len(radial) - 1
    return [radial[l, :(top - l) // 2 + 1, :(top - l) // 2 + 1] for l in range(top + 1)]


def _gap(blocks: list[np.ndarray]) -> float:
    """Distance from zero to the rest of the spectrum of -L, from the radial blocks."""
    vals = [np.repeat(np.linalg.eigvalsh(-block), 2 * l + 1) for l, block in enumerate(blocks)]
    return float(np.sort(np.concatenate(vals))[5])


def _transport_forms(blocks: list[np.ndarray], flux_norms: np.ndarray,
                     gap: float) -> tuple[float, float, float]:
    """(kappa0_long, kappa0, kappa1) = -f_j . L^-1 f_j, j = 1, 2, 4: f_1 and f_2
    lie on phi_02m and f_4 on phi_11m, so the forms are |f_j|^2 (flux_norms)
    times (-L_2^-1)_00 and the (n = 1) entry of the inverse micro block of L_1.
    AssemblyError unless gap, the blocks' spectral gap, is positive; solves
    residual-guarded; below degree 3 the heat flux and its form vanish."""
    if not gap > 0:
        raise AssemblyError("collision matrix has no spectral gap")
    corners = []
    for block in (blocks[2], blocks[1][1:, 1:]):
        e0 = np.eye(len(block), 1)
        corners.append(-float(_guarded_solve(block, e0)[0, 0]) if len(block) else 0.0)
    return tuple(float(a * b) for a, b in zip(flux_norms, (corners[0], corners[0], corners[1])))


@dataclass(frozen=True)
class CollisionOperator:
    """Collision operator on a velocity basis, held as its radial blocks.

    radial, the only stored form of L, is a read-only (N+1, K, K) stack,
    K = N // 2 + 1: slab l holds L_l[n, n'] = (L phi_nlm, phi_n'lm) in its
    leading ((N - l) // 2 + 1)-square and zeros around it.
    """

    basis: VelocityBasis
    radial: np.ndarray
    backend: str                  # "boltzmann" or "synthetic"
    gamma: float
    kernel_c: float

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense Galerkin matrix in basis slot numbering, symmetrized;
        formed through basis.axis_sectors on first use, read-only."""
        sectors = self.basis.axis_sectors
        mat = sectors.basis_matrix(sectors.radial_blocks(self.radial))
        mat = 0.5 * (mat + mat.T)
        mat.setflags(write=False)
        return mat

    def spectral_gap(self) -> float:
        """Distance from zero to the rest of the spectrum of -L, computed once."""
        return self._spectral_gap

    @cached_property
    def _spectral_gap(self) -> float:
        return _gap(_blocks(self.radial))

    @cached_property
    def transport_forms(self) -> tuple[float, float, float]:
        """(kappa0_long, kappa0, kappa1) = -f_j . L^-1 f_j, j = 1, 2, 4, read
        off the radial blocks (_transport_forms); spectral gap checked first."""
        return _transport_forms(_blocks(self.radial), self._flux_norms, self.spectral_gap())

    def truncated_transport_forms(self, degree: int) -> tuple[float, float, float]:
        """transport_forms of the degree-`degree` Galerkin truncation of L,
        3 <= degree <= N, without a second assembly or basis.

        The Burnett basis is hierarchical and each assembly exact, so the
        truncation's radial blocks are the leading ((degree - l) // 2 + 1)-
        squares of the first degree + 1 blocks, and f_1, f_2 (degree 2) and f_4
        (degree 3) have the same norms on both bases.  The blocks pass the
        checks an assembly at that degree runs (_structural_checks) before the
        forms are taken, with their own spectral gap."""
        top = self.basis.max_degree
        if not 3 <= degree <= top:
            raise ValueError(f"truncation degree {degree} outside [3, {top}]")
        _structural_checks(self.radial[:degree + 1])
        blocks = _blocks(self.radial[:degree + 1])
        return _transport_forms(blocks, self._flux_norms, _gap(blocks))

    @property
    def _flux_norms(self) -> np.ndarray:
        """|f_j|^2 for j = 1, 2, 4, from basis.fluxes."""
        fluxes = self.basis.fluxes[[0, 1, 3]]
        return np.einsum("ij,ij->i", fluxes, fluxes)

    @cached_property
    def kappa_bar(self) -> float:
        """The largest transport form: the transport-coefficient scale of this
        backend, which sets how far the coupled roots can drift."""
        return max(self.transport_forms)

    @cached_property
    def sector_blocks(self) -> "_SectorBlocks":
        """The real blocks of the axis modes in the basis's azimuthal
        sectors, built once; AssemblyError for non-finite radial blocks."""
        return _sector_blocks(self)


def _guarded_solve(block: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve with a micro collision block; AssemblyError when the
    block is singular or a column's relative residual is not finite or
    exceeds _MICRO_SOLVE_TOL."""
    try:
        x = np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError:
        raise AssemblyError("micro collision block is singular; "
                            "the collision matrix has no spectral gap") from None
    scale = np.linalg.norm(rhs, axis=0)
    resid = np.linalg.norm(block @ x - rhs, axis=0) / np.where(scale > 0.0, scale, 1.0)
    if not np.all(resid <= _MICRO_SOLVE_TOL):
        raise AssemblyError(f"micro collision block solve has relative residual "
                            f"{np.max(resid):.2e}, above the bound {_MICRO_SOLVE_TOL:.0e}; "
                            "the collision matrix has no spectral gap")
    return x


class _SectorBlocks(NamedTuple):
    """Collision and streaming blocks of the azimuthal sectors of an axis mode.

    L[m] is the direct sum of the radial blocks L_l over l >= m
    (AxisSectors.radial_blocks) and W[m] the block of conj(S) (-i V1) S on
    sector m, S the parity scale (AxisSectors.streaming_blocks, off the
    labels); both copies carry them, in basis.axis_sectors.frames[m].  The
    axis mode at eps, s e1 is L[m] + eps s W[m] on every sector, plus the
    Poisson column eps s W[0][:, 0] / s^2 at the density coordinate, which
    leads sector 0.  micro[m] holds the blocks without the invariant
    coordinates, (L, W, frames): each frame is the copy's sector frame
    without the invariant slots and columns, in basis slot numbering.
    """

    L: tuple[np.ndarray, ...]
    W: tuple[np.ndarray, ...]
    micro: tuple[tuple[np.ndarray, np.ndarray, tuple[Frame, ...]], ...]


def _sector_blocks(op: CollisionOperator) -> _SectorBlocks:
    """The operator's sector blocks, read off the radial blocks and the labels
    with no dense streaming matrix (`check` holds W against the dense
    conj(S) (-i V1) S); AssemblyError for non-finite radial blocks."""
    if not np.isfinite(op.radial).all():
        raise AssemblyError("collision matrix has non-finite entries; it fails the axis "
                            "sector check")
    sectors = op.basis.axis_sectors
    coll, stream = sectors.radial_blocks(op.radial), sectors.streaming_blocks()
    micro = []
    for lm, wm, k, copies in zip(coll, stream, sectors.n_invariant, sectors.frames):
        rows = [~np.isin(fr.index, op.basis.invariant_indices) for fr in copies]
        frames = [Frame(fr.index[r], fr.scale[r], fr.basis[r, k:]) for fr, r in zip(copies, rows)]
        micro.append((lm[k:, k:], wm[k:, k:], tuple(frames)))
    for arr in (*coll, *stream, *(a for lw in micro for a in lw[:2]),
                *(a for lw in micro for fr in lw[2] for a in fr)):
        arr.setflags(write=False)
    return _SectorBlocks(coll, stream, tuple(micro))


def _structural_checks(radial: np.ndarray) -> None:
    """Finite and exactly symmetric blocks (_blocks of a stack, or of its first
    slabs for a truncation), zero rows at the invariants and no positive
    eigenvalue, relative to the largest entry; AssemblyError otherwise."""
    blocks = _blocks(radial)
    if not all(np.isfinite(block).all() for block in blocks):
        raise AssemblyError("collision matrix has non-finite entries")
    if not all(np.array_equal(block, block.T) for block in blocks):
        raise AssemblyError("collision matrix has an asymmetric radial block")
    scale = max(*(float(np.max(np.abs(block))) for block in blocks), 1.0)
    for l, n in _INVARIANTS:
        resid = float(np.linalg.norm(blocks[l][n]))
        if resid > 1e-10 * scale:
            raise AssemblyError(f"collision invariant (l, n) = ({l}, {n}) not annihilated: "
                                f"{resid:.2e}")
    top = max(float(np.max(np.linalg.eigvalsh(block))) for block in blocks)
    if top > 1e-10 * scale:
        raise AssemblyError(f"collision matrix not negative semidefinite: {top:.2e}")


def assemble_collision(basis: VelocityBasis, gamma: float = 1.0,
                       kernel_c: float = 1.0,
                       quad: CollisionQuadrature | None = None) -> CollisionOperator:
    """Assemble the radial blocks of the hard-potential collision operator.

    The default quadrature is exact for the degree-2N Dirichlet integrand, so
    refining it changes nothing but roundoff; a coarser one raises
    AssemblyError.  The blocks are cached on disk under VPB_SPECTRAL_CACHE
    keyed by every assembly parameter, the reflection, exchange and axial
    folds, the source of the factor rules and the Burnett reduction included
    (_FOLD_TAG), so entries summed another way are never read, and an entry
    of another shape, or one that fails the checks an assembly runs
    (_structural_checks), is rebuilt.  Neither a hit nor a miss builds
    Burnett frames (VelocityBasis.axis_sectors).
    """
    if quad is None:
        quad = CollisionQuadrature.for_degree(2 * basis.max_degree)
    params = {
        "kind": "collision",
        "backend": "boltzmann",
        "gamma": gamma,
        "kernel_c": kernel_c,
        "basis": basis.descriptor(),
        "quad": quad.descriptor(),
        "fold": _FOLD_TAG,
    }
    top = basis.max_degree
    root = _cache.cache_dir()
    path = None if root is None else root / f"L-{_cache.key_hash(params)}.vpbc"
    if path is not None and path.exists():
        try:
            header, radial = _cache.read_matrix(path)
            if header.get("params") == params and radial.shape == (top + 1, top // 2 + 1,
                                                                   top // 2 + 1):
                _structural_checks(radial)
                radial.setflags(write=False)
                return CollisionOperator(basis=basis, radial=radial, backend="boltzmann",
                                         gamma=gamma, kernel_c=kernel_c)
        except VPBError:
            pass
        warnings.warn(f"cached operator {path.name} is unreadable, does not match the "
                      "requested assembly parameters or fails the collision checks; "
                      "rebuilding", stacklevel=2)
    grid = _CollisionGrid(quad, gamma, kernel_c)
    radial = _dirichlet_matrix(basis, grid)
    _structural_checks(radial)
    if path is not None:
        _cache.write_matrix(path, {"params": params}, radial)
    radial.setflags(write=False)
    return CollisionOperator(basis=basis, radial=radial, backend="boltzmann",
                             gamma=gamma, kernel_c=kernel_c)


def synthetic_collision(basis: VelocityBasis, nu_bar: float = 1.0) -> CollisionOperator:
    """Relaxation model -nu_bar * (microscopic projection): every radial
    block is -nu_bar * I, with zeros at the invariants.

    Same kernel and sign structure as the assembled operator, with every
    transport integral available in closed form; used to cross-check the
    spectral pipeline independently of the Boltzmann quadrature.
    """
    if nu_bar <= 0:
        raise AssemblyError("synthetic relaxation rate must be positive")
    top = basis.max_degree
    labels = burnett_labels(top)
    radial = np.zeros((top + 1, top // 2 + 1, top // 2 + 1))
    radial[labels[:, 1], labels[:, 0], labels[:, 0]] = -nu_bar
    for l, n in _INVARIANTS:
        radial[l, n, n] = 0.0
    radial.setflags(write=False)
    return CollisionOperator(basis=basis, radial=radial, backend="synthetic",
                             gamma=1.0, kernel_c=1.0)
