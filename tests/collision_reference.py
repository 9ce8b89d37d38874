"""The dense micro block and the bilinear form: references no job runs.

The library reads the transport forms off the radial blocks and the
dispersion entries off the sector blocks.  micro_solve solves with the micro
block of the dense collision matrix instead, so the tests can check both
shortcuts against it; gamma_form is a Boltzmann operator's bilinear
collision product (vpb_spectral.oracles.GammaEvaluator), built once per
operator.
"""

import numpy as np

from vpb_spectral.collision import CollisionOperator, _guarded_solve
from vpb_spectral.errors import AssemblyError, BackendError
from vpb_spectral.oracles import GammaEvaluator


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
