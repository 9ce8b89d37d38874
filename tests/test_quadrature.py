"""The package's Gauss rules behind the velocity basis, the collision grid
and the radial grid.

Each rule is checked against scipy.special's and for exactness on every
monomial up to degree 2n - 1, at every node count the basis and the
collision grids use at degrees 2-8.  The Gauss-Hermite and Gauss-Legendre
rules also return numpy.polynomial's bits, which keeps every artifact and
cache file as it was when the jobs read numpy's.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import hermite_e, legendre
from scipy.special import roots_genlaguerre, roots_hermitenorm, roots_legendre

from vpb_spectral.collision import CollisionQuadrature
from vpb_spectral.gauss import genlaggauss, hermegauss, leggauss

DEGREES = range(2, 9)
# assembly sizes its grid for the degree-2N integrand, the Gamma form for 3N
GRIDS = [CollisionQuadrature.for_degree(k * n) for n in DEGREES for k in (2, 3)]
# the basis's exact rule takes N + 1 nodes per axis, and the finer reference
# rules the tests build for it take up to 2N + 4
HERMITE_N = sorted({q.n_gauss for q in GRIDS}
                   | {m for n in DEGREES for m in range(n + 1, 2 * n + 5)})
LEGENDRE_N = sorted({q.n_polar for q in GRIDS})
LAGUERRE_N = sorted({q.n_radial for q in GRIDS})
ALPHAS = [(1.0 + gamma) / 2.0 for gamma in (0.0, 0.5, 1.0)]

NODE_TOL = 1e-15    # absolute, against scipy.special
WEIGHT_TOL = 1e-13  # relative, against scipy.special
MOMENT_TOL = 1e-12  # relative to the sum of |w x^k|


def _assert_matches(rule, ref):
    (x, w), (xr, wr) = rule, ref
    assert np.max(np.abs(x - xr)) <= NODE_TOL
    assert np.max(np.abs(w / wr - 1.0)) <= WEIGHT_TOL


def _assert_exact(x, w, moment):
    for k in range(2 * x.size):
        terms = w * x ** k
        assert abs(np.sum(terms) - moment(k)) <= MOMENT_TOL * np.sum(np.abs(terms)), k


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2))


# N + 1, n_gauss and n_polar up to degree 16 and every s_count the configs
# use lie far inside this range
BIT_IDENTITY_N = range(1, 257)


@pytest.mark.parametrize("ours, numpys", [(hermegauss, hermite_e.hermegauss),
                                          (leggauss, legendre.leggauss)])
def test_rules_are_numpys_bit_for_bit(ours, numpys):
    moved = [n for n in BIT_IDENTITY_N
             if any(a.dtype != b.dtype or a.tobytes() != b.tobytes()
                    for a, b in zip(ours(n), numpys(n)))]
    assert moved == []


@pytest.mark.parametrize("n", HERMITE_N)
def test_hermite_rule(n):
    x, w = hermegauss(n)
    _assert_matches((x, w), roots_hermitenorm(n))
    _assert_exact(x, w, lambda k: 0.0 if k % 2 else
                  _double_factorial(k - 1) * math.sqrt(2.0 * math.pi))


@pytest.mark.parametrize("n", LEGENDRE_N)
def test_legendre_rule(n):
    x, w = leggauss(n)
    _assert_matches((x, w), roots_legendre(n))
    _assert_exact(x, w, lambda k: 0.0 if k % 2 else 2.0 / (k + 1))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", LAGUERRE_N)
def test_generalized_laguerre_rule(n, alpha):
    x, w = genlaggauss(n, alpha)
    _assert_matches((x, w), roots_genlaguerre(n, alpha))
    assert np.all(x > 0.0) and np.all(w > 0.0)
    _assert_exact(x, w, lambda k: math.gamma(k + alpha + 1.0))

