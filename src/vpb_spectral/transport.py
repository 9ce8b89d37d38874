"""Transport coefficients of the diffusion limit and branch asymptotics.

The viscosity and heat-conduction constants are quadratic forms of the
inverted collision operator on the microscopic flux vectors.  The same
constants drive the closed-form frequency/decay asymptotics of the five
hydrodynamic eigenvalue branches, which gives an independent cross-check
(run by the tests): curvatures extracted from dense spectra must reproduce
the quadratic forms.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .collision import CollisionOperator, assemble_collision
from .errors import AssemblyError, BasisError, RegimeError
from .velocity_space import build_basis

BRANCHES = (-1, 0, 1, 2, 3)


@dataclass(frozen=True)
class TransportCoefficients:
    """Diffusion-limit constants plus the truncation metadata they carry.

    kappa0 is the shear viscosity (off-diagonal stress), kappa1 the heat
    conductivity, kappa0_long the longitudinal stress coefficient entering
    the acoustic branches; isotropy forces kappa0_long = 4/3 kappa0.
    """

    kappa0: float
    kappa1: float
    kappa0_long: float
    backend: str
    max_degree: int
    basis_hash: str
    error_bar: float | None = None


_HEAT_FLUX = "heat flux vanishes below degree 3; transport needs max_degree >= 3"


def _positive(forms: tuple[float, float, float]) -> tuple[float, float, float]:
    """The transport forms (kappa0_long, kappa0, kappa1), AssemblyError unless
    each is positive."""
    kappa0_long, kappa0, kappa1 = forms
    for name, val in (("kappa0", kappa0), ("kappa1", kappa1), ("kappa0_long", kappa0_long)):
        if not val > 0.0:
            raise AssemblyError(f"{name} = {val:.3e} not positive; collision solve is inconsistent")
    return forms


def compute_kappas(op: CollisionOperator) -> TransportCoefficients:
    """Viscosity/conductivity: the operator's transport forms, read off its
    radial blocks (CollisionOperator.transport_forms)."""
    basis = op.basis
    if basis.max_degree < 3:
        raise BasisError(_HEAT_FLUX)
    kappa0_long, kappa0, kappa1 = _positive(op.transport_forms)
    return TransportCoefficients(kappa0=kappa0, kappa1=kappa1, kappa0_long=kappa0_long,
                                 backend=op.backend, max_degree=basis.max_degree,
                                 basis_hash=basis.descriptor_hash())


def kappas_with_error(max_degree: int, gamma: float = 1.0,
                      kernel_c: float = 1.0) -> TransportCoefficients:
    """Two-level truncation study at max_degree and max_degree + 2, from one
    basis and one assembly (or cache entry), at max_degree + 2.

    Reports the finer-level coefficients; the coarse level is the degree-
    max_degree Galerkin truncation of the same operator, read off its radial
    blocks (CollisionOperator.truncated_transport_forms), with every check a
    coarse assembly runs.  The error bar is the worst disagreement between the
    two levels, which owns the truncation error the continuum formulas are
    silent about.  Below degree 3 BasisError, before any assembly.
    """
    if max_degree < 3:
        raise BasisError(_HEAT_FLUX)
    op = assemble_collision(build_basis(max_degree + 2), gamma=gamma, kernel_c=kernel_c)
    fine = compute_kappas(op)
    coarse = _positive(op.truncated_transport_forms(max_degree))
    bar = max(abs(a - b) for a, b in zip(op.transport_forms, coarse))
    return dataclasses.replace(fine, error_bar=bar)


def _check_wavenumber(s) -> None:
    """BasisError unless s, a float or an array of shells, is finite throughout;
    O(1) for a float."""
    if not (np.isfinite(s).all() if isinstance(s, np.ndarray) else math.isfinite(s)):
        raise BasisError(f"wavenumber must be finite, not {s}")


def branch_frequency(j: int, s: float) -> complex:
    """Leading-order frequency eta_j(s); eigenvalue ~ eps*eta_j - eps^2*b_j.

    Only the acoustic pair oscillates; its frequency never drops below 1
    because the electrostatic coupling stiffens the sound speed; s may be an
    array.  BasisError for a non-finite s.
    """
    if j not in BRANCHES:
        raise ValueError(f"branch index {j} not in {BRANCHES}")
    _check_wavenumber(s)
    if j in (-1, 1):
        return 1j * j * np.sqrt(1.0 + (5.0 / 3.0) * s * s)
    return 0.0j * s


def branch_decay(j: int, s: float, coeffs: TransportCoefficients) -> float:
    """Second-order decay coefficient b_j(s) of branch j, always >= 0;
    BasisError for a non-finite s."""
    if j not in BRANCHES:
        raise ValueError(f"branch index {j} not in {BRANCHES}")
    _check_wavenumber(s)
    s2 = s * s
    if j in (2, 3):
        return coeffs.kappa0 * s2
    if j == 0:
        return 3.0 * (s2 + s2 * s2) * coeffs.kappa1 / (3.0 + 5.0 * s2)
    return 0.5 * s2 * coeffs.kappa0_long + s2 * s2 * coeffs.kappa1 / (3.0 + 5.0 * s2)


def asymptotic_eigenvalue(j: int, s: float, eps: float,
                          coeffs: TransportCoefficients) -> complex:
    """eps eta_j(s) - eps^2 b_j(s); RegimeError for a non-finite eps and
    BasisError for a non-finite s."""
    if not math.isfinite(eps):
        raise RegimeError(f"scaling parameter eps must be finite, not {eps}")
    return eps * branch_frequency(j, s) - eps * eps * branch_decay(j, s, coeffs)
