"""Transport coefficients of the diffusion limit and branch asymptotics.

The viscosity and heat-conduction constants are quadratic forms of the
inverted collision operator on the microscopic flux vectors.  The same
constants drive the closed-form frequency/decay asymptotics of the five
hydrodynamic eigenvalue branches, which gives an independent cross-check:
curvatures extracted from dense spectra must reproduce the quadratic forms.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .collision import CollisionOperator, assemble_collision
from .errors import AssemblyError, BasisError, RegimeError
from .mode_operator import mode_operator
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


def branch_frequency(j: int, s: float) -> complex:
    """Leading-order frequency eta_j(s); eigenvalue ~ eps*eta_j - eps^2*b_j.

    Only the acoustic pair oscillates; its frequency never drops below 1
    because the electrostatic coupling stiffens the sound speed; s may be an array.
    """
    if j not in BRANCHES:
        raise ValueError(f"branch index {j} not in {BRANCHES}")
    if j in (-1, 1):
        return 1j * j * np.sqrt(1.0 + (5.0 / 3.0) * s * s)
    return 0.0j * s


def branch_decay(j: int, s: float, coeffs: TransportCoefficients) -> float:
    """Second-order decay coefficient b_j(s) of branch j, always >= 0."""
    if j not in BRANCHES:
        raise ValueError(f"branch index {j} not in {BRANCHES}")
    s2 = s * s
    if j in (2, 3):
        return coeffs.kappa0 * s2
    if j == 0:
        return 3.0 * (s2 + s2 * s2) * coeffs.kappa1 / (3.0 + 5.0 * s2)
    return 0.5 * s2 * coeffs.kappa0_long + s2 * s2 * coeffs.kappa1 / (3.0 + 5.0 * s2)


def asymptotic_eigenvalue(j: int, s: float, eps: float,
                          coeffs: TransportCoefficients) -> complex:
    return eps * branch_frequency(j, s) - eps * eps * branch_decay(j, s, coeffs)


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


def _strip_by_branch(collision: CollisionOperator, eps: float, s: float) -> dict[int, complex]:
    mode = mode_operator(collision, eps, np.array([s, 0.0, 0.0]))
    vals, _ = mode.strip_eigensystem()
    pos = classify_strip(vals, eps)
    return {j: complex(vals[i]) for j, i in pos.items()}


def crosscheck_b2(collision: CollisionOperator, coeffs: TransportCoefficients,
                  s_values, eps: float = 0.05, rtol: float = 1e-3) -> dict:
    """Branch curvatures from dense spectra vs the closed forms.

    For every branch, -Re(lambda_j)/eps^2 = b_j + O(eps^2); a two-level
    Richardson step removes the O(eps^2) term.  Purely diagnostic: returns
    a row per (s, branch) and never raises on disagreement.
    """
    rows = []
    for s in s_values:
        lam_h = _strip_by_branch(collision, eps, s)
        lam_l = _strip_by_branch(collision, 0.5 * eps, s)
        for j in BRANCHES:
            g_h = -lam_h[j].real / eps**2
            g_l = -lam_l[j].real / (0.5 * eps) ** 2
            measured = (4.0 * g_l - g_h) / 3.0
            ref = branch_decay(j, s, coeffs)
            rows.append({"s": float(s), "branch": j, "measured": measured,
                         "closed_form": ref, "rel_err": abs(measured - ref) / abs(ref)})
    worst = max(r["rel_err"] for r in rows)
    return {"rows": rows, "max_rel_err": worst, "rtol": rtol, "passed": worst <= rtol}
