"""Velocity rotations: the oracle for the rotation covariance of the modes.

The library builds every mode on the axis xi = s e1.  An off-axis mode is
the axis mode pushed forward by a velocity rotation; the helpers here form
that map and the dense off-axis mode matrix directly, so the tests can
check the one against the other.
"""

import numpy as np

from vpb_spectral.velocity_space import VelocityBasis, multiplication_matrices


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

    A rotation keeps the total degree, so the quadrature sees products of
    two degree-N polynomials, and the basis's (N+1)^3-node exact_rule, whose
    Gram check build_basis ran, is exact for these integrals.
    """
    rule = basis.exact_rule
    return rule.poly @ (rule.weights[:, None] * basis.poly_values(rule.nodes @ rot.T))


def pushforward_from_axis(basis: VelocityBasis, direction: np.ndarray) -> np.ndarray:
    """Coefficient map sending an axis-mode solution to the mode along direction.

    If g solves the problem at s e1 then g(O v) solves it at s * direction,
    O the rotation aligning direction with e1.
    """
    return compose_rotation(basis, rotation_to_axis(direction))


def off_axis_matrix(collision, eps: float, xi: np.ndarray) -> np.ndarray:
    """The dense mode matrix at any nonzero wavevector xi, s = |xi|, d = xi / s:

        B = L - i eps s V_d (I + s^-2 e0 e0^T),  V_d = d1 V1 + d2 V2 + d3 V3.
    """
    basis = collision.basis
    xi = np.asarray(xi, dtype=float)
    s = float(np.linalg.norm(xi))
    v_d = sum(d * v for d, v in zip(xi / s, multiplication_matrices(basis)))
    i0 = basis.density_index
    coupling = np.zeros((basis.dim, basis.dim))
    coupling[:, i0] = v_d[:, i0] / s ** 2
    return collision.matrix - 1j * eps * s * (v_d + coupling)
