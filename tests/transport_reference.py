"""Branch curvatures from dense spectra: the check on the transport forms.

The library reads the transport coefficients off the radial blocks of the
collision operator.  crosscheck_b2 measures them instead from the dense
spectra of modes at two eps values, by a Richardson step on the real parts
of the five labeled strip eigenvalues.  No job runs it.
"""

import numpy as np

from vpb_spectral.collision import CollisionOperator
from vpb_spectral.mode_operator import mode_operator
from vpb_spectral.oracles import classify_strip, strip_eigensystem
from vpb_spectral.transport import BRANCHES, TransportCoefficients, branch_decay


def _strip_by_branch(collision: CollisionOperator, eps: float, s: float) -> dict[int, complex]:
    mode = mode_operator(collision, eps, np.array([s, 0.0, 0.0]))
    vals, _ = strip_eigensystem(mode)
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
