"""The dense micro block, the bilinear form and the per-row Burnett values:
references no job runs.

The library reads the transport forms off the radial blocks and the
dispersion entries off the sector blocks.  micro_solve solves with the micro
block of the dense collision matrix instead, so the tests can check both
shortcuts against it; gamma_form is a Boltzmann operator's bilinear
collision product (oracles.GammaEvaluator), built once per operator, and
BackendError, which gamma_form raises on a backend without one.
burnett_rows_per_row evaluates each Burnett function with its own
gauss._genlaguerre call, the reference for burnett_rows' shared recurrence.
"""

import math

import numpy as np
from oracles import GammaEvaluator

from vpb_spectral.collision import CollisionOperator, _guarded_solve
from vpb_spectral.errors import AssemblyError, VPBError
from vpb_spectral.gauss import _genlaguerre


class BackendError(VPBError):
    """Operation requested on a backend that does not support it."""


class MicroBlocks:
    """Collision and streaming matrices restricted to the micro slots, micro."""

    def __init__(self, op: CollisionOperator):
        basis = op.basis
        inv = set(basis.invariant_indices)
        self.micro = np.array([i for i in range(basis.dim) if i not in inv])
        self.L = op.matrix[np.ix_(self.micro, self.micro)]
        self.V = basis.v1[np.ix_(self.micro, self.micro)]


def _held(op: CollisionOperator, name: str, build):
    """build(op), computed once per operator and kept on it, as a cached
    property would be."""
    held = vars(op)
    if name not in held:
        held[name] = build(op)
    return held[name]


def micro_blocks(op: CollisionOperator) -> MicroBlocks:
    """Collision and streaming blocks on the micro subspace, built once."""
    return _held(op, "_micro_blocks", MicroBlocks)


def micro_solve(op: CollisionOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve L x = rhs on the microscopic subspace, for one vector or a
    stack of them as columns; every right-hand side must be microscopic.

    One np.linalg.solve with the micro block of the dense matrix, the
    reference for transport_forms; the spectral gap is checked first and
    the solve is residual-guarded (_guarded_solve).
    """
    rhs = np.asarray(rhs)
    macro = np.linalg.norm(rhs[list(op.basis.invariant_indices)], axis=0)
    if np.any(macro > 1e-10 * np.maximum(1.0, np.linalg.norm(rhs, axis=0))):
        raise AssemblyError("micro_solve requires a microscopic right-hand side")
    if not op.spectral_gap() > 0:
        raise AssemblyError("collision matrix has no spectral gap")
    blocks = micro_blocks(op)
    g = rhs[blocks.micro]
    x = _guarded_solve(blocks.L, g)
    out = np.zeros(rhs.shape, dtype=x.dtype)
    out[blocks.micro] = x
    return out


def gamma_form(op: CollisionOperator) -> GammaEvaluator:
    """The operator's bilinear collision product, built once; BackendError
    on a backend without one."""
    if op.backend != "boltzmann":
        raise BackendError(f"bilinear collision product unavailable on backend {op.backend!r}")
    return _held(op, "_gamma_evaluator",
                 lambda op: GammaEvaluator(op.basis, op.gamma, op.kernel_c))


def burnett_rows_per_row(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """velocity_space.burnett_rows with the Laguerre factor of every row from
    its own _genlaguerre(n, l + 1/2, |v|^2/2) call, and every solid harmonic
    Q_l^|m| of one |m| held at once."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    v1, v2, v3 = points.T
    r2 = v1 * v1 + v2 * v2 + v3 * v3
    out = np.empty((len(labels), points.shape[0]))
    lmax = int(np.max(labels[:, 1]))
    re, im = np.ones_like(v1), np.zeros_like(v1)
    for am in range(int(np.max(np.abs(labels[:, 2]))) + 1):
        if am:
            re, im = re * v1 - im * v2, re * v2 + im * v1
        solid, q_prev = {}, 0.0
        q = np.full_like(v1, math.prod(range(1, 2 * am, 2)))
        for l in range(am, lmax + 1):
            solid[l] = q
            q_prev, q = q, ((2 * l + 1) * v3 * q - (l + am) * r2 * q_prev) / (l - am + 1)
        for row in np.flatnonzero(np.abs(labels[:, 2]) == am):
            n, l, m = (int(a) for a in labels[row])
            norm2 = ((2 - (m == 0)) * (2 * l + 1) * math.factorial(l - am)
                     / math.factorial(l + am)
                     * math.factorial(n) * math.sqrt(math.pi)
                     / (2.0 ** (l + 1) * math.gamma(n + l + 1.5)))
            out[row] = math.sqrt(norm2) * _genlaguerre(n, l + 0.5, 0.5 * r2) * solid[l]
            if m:
                out[row] *= re if m > 0 else im
    return out
