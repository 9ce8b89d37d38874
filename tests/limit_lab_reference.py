"""The moment-route check of the diffusion limit and a table probe.

hilbert_expansion_check re-derives the transport coefficients from the
first-order micro correction of the streamed macro state, through the
dense micro solve, and evaluates the bilinear collision product at one
shell; layer_bump_ratio reads the initial-layer bump off an error table.
No job runs either.
"""

import math
from dataclasses import dataclass

import numpy as np
from collision_reference import BackendError, gamma_form, micro_solve

from vpb_spectral.collision import CollisionOperator
from vpb_spectral.errors import FitError
from vpb_spectral.limit_lab import ErrorTable, InitialData, _well_prepared_checks
from vpb_spectral.transport import TransportCoefficients, compute_kappas
from vpb_spectral.velocity_space import project_macro


def layer_bump_ratio(table: ErrorTable, eps: float, t_gap: float) -> float:
    """Largest post-gap error over the first positive-time error."""
    cols = table.for_eps(eps)
    pos = cols["t"] > 0.0
    base = cols["err_Linf_P"][pos][0]
    late = cols["err_Linf_P"][cols["t"] >= t_gap]
    if late.size == 0 or base <= 0.0:
        raise FitError("gap window empty or baseline error vanished")
    return float(np.max(late) / base)


@dataclass
class HilbertReport:
    """Residuals of the formal expansion check on the discretization."""

    kappa0_extracted: float
    kappa1_extracted: float
    kappa0_reference: float
    kappa1_reference: float
    constraint_divergence: float
    constraint_gradient: float
    gamma_micro_norm: float | None
    gamma_macro_leak: float | None
    note: str

    @property
    def kappa_residuals(self) -> tuple[float, float]:
        return (abs(self.kappa0_extracted - self.kappa0_reference)
                / self.kappa0_reference,
                abs(self.kappa1_extracted - self.kappa1_reference)
                / self.kappa1_reference)


def hilbert_expansion_check(op: CollisionOperator, data: InitialData,
                            coeffs: TransportCoefficients | None = None) -> HilbertReport:
    """Re-derive the limit diffusion coefficients from the moment route.

    The first-order micro correction is the collision solve of the streamed
    macro state; feeding its flux back into the second-order moment
    equations must reproduce the momentum and energy diffusion constants.
    The quadratic collision product is evaluated at a single mode triple
    only (spatial convolutions are out of scope here) and reported, not
    asserted.
    """
    basis = op.basis
    if coeffs is None:
        coeffs = compute_kappas(op)
    # first-order corrections from the micro collision solve, fed back
    # through the streaming flux of the moment equations
    v1 = basis.v1
    sols = micro_solve(op, basis.fluxes[[1, 3]].T)
    kappa0_ext = -float((v1 @ sols[:, 0]) @ basis.chi(2))
    kappa1_ext = -float((v1 @ sols[:, 1]) @ basis.chi(4))

    div = grad = 0.0
    for k, s in enumerate(data.grid.nodes):
        res = _well_prepared_checks(basis, data.profile[k], float(s))
        div = max(div, res["divergence"])
        st = project_macro(basis, data.profile[k])
        phi = st.n / (float(s) ** 2)
        grad = max(grad, abs(float(s) * (st.n + phi
                                         + math.sqrt(2.0 / 3.0) * st.q)))

    gamma_micro = gamma_leak = None
    note = "quadratic product evaluated at one mode triple; x-convolutions truncated"
    try:
        form = gamma_form(op)
        mid = data.grid.count // 2
        f0 = data.profile[mid]
        out = form.form(f0, f0)
        gamma_micro = float(np.linalg.norm(basis.micro_project(out)))
        gamma_leak = float(np.linalg.norm(basis.macro_project(out)))
    except BackendError:
        note = "quadratic product unavailable on this backend"

    return HilbertReport(
        kappa0_extracted=kappa0_ext, kappa1_extracted=kappa1_ext,
        kappa0_reference=coeffs.kappa0, kappa1_reference=coeffs.kappa1,
        constraint_divergence=div, constraint_gradient=grad,
        gamma_micro_norm=gamma_micro, gamma_macro_leak=gamma_leak, note=note)
