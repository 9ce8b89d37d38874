"""Independent oracle for the transport coefficients.

Extracts kappa0 and kappa1 from Richardson-extrapolated curvatures of the
hydrodynamic eigenvalue branches (dense spectra only, no micro-space solve),
so the values can be pinned in tests before the direct computation exists.

Run:  python3 scripts/oracle_transport.py [max_degree]
"""

import sys

import numpy as np

sys.path.insert(0, "src")

from vpb_spectral.collision import assemble_collision
from vpb_spectral.mode_operator import mode_operator
from vpb_spectral.oracles import classify_strip, strip_eigensystem
from vpb_spectral.velocity_space import build_basis


def curvature(collision, s: float, j: int, eps: float = 0.04) -> float:
    """b_j(s) via lambda_j ~ eps*eta_j - eps^2 b_j and two-level Richardson."""
    out = []
    for e in (eps, 0.5 * eps):
        mode = mode_operator(collision, e, np.array([s, 0.0, 0.0]))
        vals, _ = strip_eigensystem(mode)
        out.append(-vals[classify_strip(vals, e)[j]].real / e**2)
    return (4.0 * out[1] - out[0]) / 3.0


def main() -> None:
    degree = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    basis = build_basis(degree)
    op = assemble_collision(basis)
    s = 0.5
    b2 = curvature(op, s, 2)
    b0 = curvature(op, s, 0)
    b1 = curvature(op, s, 1)
    kappa0 = b2 / s**2
    kappa1 = b0 * (3.0 + 5.0 * s**2) / (3.0 * (s**2 + s**4))
    # acoustic curvature should then be 2/3 kappa0 s^2 + kappa1 s^4/(3+5s^2)
    b1_pred = 2.0 / 3.0 * kappa0 * s**2 + kappa1 * s**4 / (3.0 + 5.0 * s**2)
    print(f"degree {degree}")
    print(f"kappa0  (shear curvature)   = {kappa0:.12f}")
    print(f"kappa1  (thermal curvature) = {kappa1:.12f}")
    print(f"b_+1 measured {b1:.12f} vs predicted {b1_pred:.12f} "
          f"(rel {abs(b1 - b1_pred) / b1:.2e})")


if __name__ == "__main__":
    main()
