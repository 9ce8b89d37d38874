"""One-dimensional Gauss rules and the generalized Laguerre recurrence.

hermegauss (weight e^(-x^2/2) on R) and leggauss (weight 1 on [-1, 1])
repeat numpy.polynomial's rules of the same names operation for operation:
the symmetric companion matrix, its eigvalsh, one Newton step, weights
scaled against overflow, symmetrization and the scale to the total mass.
They therefore return numpy's bits at every node count, which keeps every
artifact as it was, and no job loads numpy.polynomial for two functions.
genlaggauss (weight x^alpha e^(-x) on (0, inf)) is Golub-Welsch on the
Laguerre recurrence.
"""

from __future__ import annotations

import math

import numpy as np


def _genlaguerre(m: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """L_m^(alpha)(x), as binom(m + alpha, m) times the recurrence for
    L_m^(alpha) / L_m^(alpha)(0)."""
    if m == 0:
        return np.ones_like(x)
    d = -x / (alpha + 1.0)
    p = d + 1.0
    for k in range(1, m):
        d = -x / (k + alpha + 1.0) * p + (k / (k + alpha + 1.0)) * d
        p = d + p
    return math.prod((i + alpha) / i for i in range(1, m + 1)) * p


def _normed_hermite_e(x: np.ndarray, n: int) -> np.ndarray:
    """The orthonormal HermiteE polynomial of degree n at x, by numpy's
    downward recurrence (which does not overflow for large n)."""
    if n == 0:
        return np.full(x.shape, 1 / np.sqrt(np.sqrt(2 * np.pi)))
    c0 = 0.
    c1 = 1. / np.sqrt(np.sqrt(2 * np.pi))
    nd = float(n)
    for _ in range(n - 1):
        tmp = c0
        c0 = -c1 * np.sqrt((nd - 1.) / nd)
        c1 = tmp + c1 * x * np.sqrt(1. / nd)
        nd = nd - 1.0
    return c0 + c1 * x


def _legendre_series(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c[k] P_k(x) by Clenshaw's recurrence, as numpy's legval."""
    if len(c) == 1:
        return c[0] + 0 * x
    if len(c) == 2:
        return c[0] + c[1] * x
    nd = len(c)
    c0 = c[-2]
    c1 = c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _symmetric_rule(x: np.ndarray, w: np.ndarray, total: float):
    """Symmetrize a mirror-symmetric rule and scale its weights to total."""
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= total / w.sum()
    return x, w


def hermegauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss rule for the weight e^(-x^2/2) on R, numpy's bits."""
    off = np.sqrt(np.arange(1, n))
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    x -= _normed_hermite_e(x, n) / (_normed_hermite_e(x, n - 1) * np.sqrt(n))
    fm = _normed_hermite_e(x, n - 1)
    fm /= np.abs(fm).max()
    return _symmetric_rule(x, 1 / (fm * fm), np.sqrt(2 * np.pi))


def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], numpy's bits."""
    scl = 1. / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = np.zeros(n + 1)
    c[n] = 1.0
    # P_n' = sum (2k + 1) P_k over k = n - 1, n - 3, ...
    dc = np.zeros(n)
    dc[n - 1::-2] = 2.0 * np.arange(n - 1, -1, -2) + 1.0
    df = _legendre_series(x, dc)
    x -= _legendre_series(x, c) / df
    fm = _legendre_series(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    return _symmetric_rule(x, 1 / (fm * df), 2.)


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
