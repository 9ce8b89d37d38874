"""Projectors and closed forms that check the semigroup by a second route.

The library splits a mode's flow by pairing the data with the branch
eigenfunctions (vpb_spectral.semigroup.split_S1_S2) and evolves the fluid
limit through the limit vectors.  The helpers here build the hydrodynamic
projector as a matrix, project onto any eigenvector set along its
complement, and write the fluid semigroup in raw moments, so the tests can
check the one route against the other.  No job runs them.
"""

import math
from dataclasses import dataclass

import numpy as np

from vpb_spectral.dispersion import BranchPoint, asymptotic_coefficients, hydrodynamic_spectrum
from vpb_spectral.mode_operator import FourierMode
from vpb_spectral.semigroup import FluidModeState, _macro_as_vector
from vpb_spectral.transport import TransportCoefficients
from vpb_spectral.velocity_space import VelocityBasis


def metric(mode: FourierMode) -> np.ndarray:
    """The Gram matrix G of the mode's weighted inner product: (f, g) = g^H G f."""
    g = np.eye(mode.basis.dim)
    i0 = mode.basis.density_index
    g[i0, i0] += mode.s ** -2
    return g


def mode_norm(mode: FourierMode, f: np.ndarray) -> float:
    """The weighted norm of f in the mode's metric."""
    return float(np.sqrt(np.real(mode.inner(f, f))))


def constraint_residuals(state: FluidModeState, xi: np.ndarray) -> tuple[float, float]:
    """(incompressibility, density-potential constraint) residuals of a fluid state."""
    xi = np.asarray(xi, dtype=float)
    s2 = float(xi @ xi)
    div = abs(xi @ state.m_hat)
    bous = abs(state.n_hat + state.n_hat / s2 + math.sqrt(2.0 / 3.0) * state.q_hat)
    return div, bous


@dataclass
class SpectralProjector:
    """Rank-five projector onto the hydrodynamic eigenspace of one mode."""

    xi: np.ndarray
    eps: float
    matrix: np.ndarray


def hydrodynamic_projector(mode: FourierMode,
                           points: list[BranchPoint] | None = None) -> SpectralProjector:
    """P = sum_j psi_j (G psi_j)^T; the pairing-orthonormality of the branch
    eigenfunctions makes this idempotent."""
    if points is None:
        points = hydrodynamic_spectrum(mode)
    g = metric(mode)
    p = sum(np.outer(bp.psi, g @ bp.psi) for bp in points)
    return SpectralProjector(xi=np.asarray(mode.xi), eps=mode.eps, matrix=p)


def spectral_projector(mode: FourierMode, vectors: np.ndarray) -> np.ndarray:
    """Projector onto span(vectors) along the complementary invariant subspace.

    Built from the conjugation-free pairing, under which eigenvectors of
    distinct eigenvalues are orthogonal; degenerate blocks are handled by
    inverting the pairing Gram matrix.
    """
    g = metric(mode)
    gram = vectors.T @ (g @ vectors)
    dual = np.linalg.solve(gram.T, (g @ vectors).T)
    return vectors @ dual


def closed_fluid_forms(basis: VelocityBasis, coeffs: TransportCoefficients,
                       u0, xi, t: float) -> dict:
    """Moment-space closed forms of the fluid semigroup and its field flux.

    Independent of the eigenvector route: the thermal factor multiplies the
    combination U0 - sqrt(3/2) U4 of the raw moments, the momentum factor
    keeps the momentum transverse to xi = s e1, and the field flux is the
    density component scaled by xi/|xi|^2.
    """
    bundle = asymptotic_coefficients(basis, xi, coeffs)
    s = bundle.s
    u0vec = _macro_as_vector(basis, u0)
    idx = basis.invariant_indices
    den = 3.0 + 5.0 * s * s

    thermal_scalar = u0vec[idx[0]] - math.sqrt(1.5) * u0vec[idx[4]]
    r0_vec = np.zeros(basis.dim, dtype=complex)
    r0_vec[idx[0]] = 2.0 * s * s / den
    r0_vec[idx[4]] = -math.sqrt(6.0) * (1.0 + s * s) / den

    thermal = math.exp(-bundle.b[0] * t) * thermal_scalar
    state = thermal * r0_vec
    for i in idx[2:4]:
        state[i] += math.exp(-bundle.b[2] * t) * u0vec[i]
    return {"state": state, "field_flux": np.array([thermal * (2.0 * s / den), 0.0, 0.0])}
