import dataclasses
import math
import re
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from rotations import compose_rotation

from vpb_spectral import (
    BasisError,
    bilinear_pair,
    build_basis,
    coeffs_from_callable,
    evaluate,
    macro_vector,
    multiplication_matrices,
    project_macro,
    weighted_inner,
    weighted_norm,
)
from vpb_spectral import velocity_space
from vpb_spectral.velocity_space import VelocityBasis, burnett_rows, hermite_polynomial_table

TWO_PI = 2.0 * np.pi


@lru_cache(maxsize=None)
def _basis(deg):
    return build_basis(deg)


def dense_reference(basis, pts):
    """Unreduced evaluation: raw tensor-product table, then the dense rotation.

    The points are stacked twice so the product always runs as a matrix-matrix
    multiply; a single row would go to gemv, whose summation order differs in
    the last bit from the one every multi-point call has always used.
    """
    pts = np.vstack([pts, pts])
    tables = [hermite_polynomial_table(basis.max_degree, pts[:, k]) for k in range(3)]
    raw = np.array([tables[0][a1] * tables[1][a2] * tables[2][a3]
                    for a1, a2, a3 in basis.multi_indices]).T
    return (raw @ basis.rotation)[:len(pts) // 2]


@given(deg=st.integers(2, 8),
       pts=arrays(float, st.tuples(st.integers(1, 40), st.just(3)),
                  elements=st.floats(-8.0, 8.0, allow_nan=False)))
def test_poly_values_equal_dense_rotation(deg, pts):
    basis = _basis(deg)
    np.testing.assert_array_equal(basis.poly_values(pts), dense_reference(basis, pts))


@pytest.mark.parametrize("deg", [2, 3, 4, 6, 8])
def test_rows_on_product_rules_equal_dense_rotation(deg):
    # the exact rule's rows, and the values on a (2N+4)^3 rule: 512 to 8000
    # nodes, so evaluation blocks of 1024 points meet and split here
    basis = _basis(deg)
    rule = basis.exact_rule
    np.testing.assert_array_equal(rule.poly, dense_reference(basis, rule.nodes).T)
    nodes, _ = velocity_space._gauss_product_rule(2 * deg + 4)
    np.testing.assert_array_equal(basis.poly_values(nodes), dense_reference(basis, nodes))


def test_dimension_counts():
    assert build_basis(2).dim == 10
    assert build_basis(3).dim == 20
    assert build_basis(4).dim == 35


def test_rejects_bad_construction():
    with pytest.raises(BasisError):
        build_basis(1)


def test_gram_is_identity(basis_mid):
    rule = basis_mid.exact_rule
    gram = rule.poly @ (rule.weights[:, None] * rule.poly.T)
    assert np.max(np.abs(gram - np.eye(basis_mid.dim))) < 1e-12


def test_coeffs_from_callable_inverts_evaluate(basis_mid):
    # every basis function, evaluated with its sqrt(M), comes back as its own
    # unit coefficient vector: exact_rule is exact for the degree-2N products
    b = basis_mid
    recovered = np.column_stack([coeffs_from_callable(b, lambda v, e=e: evaluate(b, e, v))
                                 for e in np.eye(b.dim)])
    assert np.max(np.abs(recovered - np.eye(b.dim))) < 1e-12


def test_invariant_values_at_origin(basis_small):
    b = basis_small
    at0 = np.zeros((1, 3))
    assert evaluate(b, b.chi(0), at0)[0] == pytest.approx(TWO_PI ** (-0.75), rel=1e-13)
    assert evaluate(b, b.chi(4), at0)[0] == pytest.approx(-3 / np.sqrt(6) * TWO_PI ** (-0.75), rel=1e-13)
    for k in (1, 2, 3):
        assert evaluate(b, b.chi(k), at0)[0] == 0.0


def test_project_macro_examples(basis_small):
    b = basis_small
    ms = project_macro(b, macro_vector(b, 0.0, (1.0, 0.0, 0.0), 0.0))
    assert ms.n == 0.0 and ms.q == 0.0
    assert np.allclose(ms.m, [1.0, 0.0, 0.0])

    # v1 v2 sqrt(M) is purely microscopic
    f = coeffs_from_callable(
        b, lambda v: v[:, 0] * v[:, 1] * np.exp(-0.25 * np.sum(v ** 2, axis=1)) * TWO_PI ** (-0.75))
    ms = project_macro(b, f)
    assert abs(ms.n) < 1e-13 and abs(ms.q) < 1e-13 and np.max(np.abs(ms.m)) < 1e-13

    # |v|^2 sqrt(M) = 3 chi0 + sqrt(6) chi4
    g = coeffs_from_callable(
        b, lambda v: np.sum(v ** 2, axis=1) * np.exp(-0.25 * np.sum(v ** 2, axis=1)) * TWO_PI ** (-0.75))
    ms = project_macro(b, g)
    assert ms.n == pytest.approx(3.0, abs=1e-12)
    assert ms.q == pytest.approx(np.sqrt(6.0), abs=1e-12)


def assert_rows_pair_as_one(pair, deg):
    """Each row of a stacked pairing equals the 1-d pairing bit for bit: the
    leading axes broadcast against one wavenumber per row or a single one,
    and the rows lie C- or F-ordered.  Degree-8 rows (165 entries) are
    longer than numpy's 128-entry pairwise block."""
    b = _basis(deg)
    rng = np.random.default_rng(deg)
    f = rng.standard_normal((2, 7, b.dim)) + 1j * rng.standard_normal((2, 7, b.dim))
    g = rng.standard_normal((7, b.dim)) + 1j * rng.standard_normal((7, b.dim))
    s = rng.uniform(0.05, 2.0, (2, 7))
    one = np.array([[pair(b, f[i, k], g[k], s[i, k]) for k in range(7)] for i in range(2)])
    assert np.array_equal(pair(b, f, g, s), one)
    assert np.array_equal(pair(b, np.asfortranarray(f.reshape(14, b.dim)),
                               np.asfortranarray(np.tile(g, (2, 1))), s.ravel()), one.ravel())
    assert np.array_equal(pair(b, f, g, 0.4),
                          [[pair(b, f[i, k], g[k], 0.4) for k in range(7)] for i in range(2)])


def test_weighted_inner_examples(basis_small):
    b = basis_small
    chi0 = b.chi(0)
    assert weighted_inner(b, chi0, chi0, 1.0) == pytest.approx(2.0)
    assert weighted_inner(b, chi0, chi0, np.sqrt(1e6)) == pytest.approx(1.0 + 1e-6)
    assert weighted_inner(b, b.chi(1), chi0, 0.5) == 0.0
    with pytest.raises(BasisError):
        weighted_inner(b, chi0, chi0, 0.0)
    for deg in (3, 8):
        assert_rows_pair_as_one(weighted_inner, deg)
        assert_rows_pair_as_one(lambda b, f, g, s: weighted_norm(b, f, s), deg)


def test_bilinear_pair_has_no_conjugation(basis_small):
    b = basis_small
    f = (1.0 + 2.0j) * b.chi(0)
    assert bilinear_pair(b, f, f, 1.0) == pytest.approx(2.0 * (1.0 + 2.0j) ** 2)
    assert weighted_inner(b, f, f, 1.0) == pytest.approx(2.0 * 5.0)
    assert np.array_equal(bilinear_pair(b, np.stack([f, 2 * f]), f, [1.0, 0.5]),
                          [2.0 * (1.0 + 2.0j) ** 2, 10.0 * (1.0 + 2.0j) ** 2])
    for deg in (3, 8):
        assert_rows_pair_as_one(bilinear_pair, deg)


@pytest.mark.parametrize("s", [math.nan, -0.5, math.inf, 1e-200, 1e200])
def test_pairings_refuse_a_wavenumber_without_a_finite_weight(basis_small, s):
    # unparsed, the first four paired to numbers (nan at NaN, inf at 1e-200,
    # whose 1/s^2 overflows) and 1e200, whose s^2 overflows, to OverflowError
    b = basis_small
    f = b.chi(0) + b.chi(4)
    for pair in (bilinear_pair, weighted_inner, lambda b, f, g, s: weighted_norm(b, f, s)):
        with pytest.raises(BasisError, match="positive and finite"):
            pair(b, f, f, s)
        # the first bad shell of a stack is named, and the check warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BasisError, match=re.escape(f"finite, not {s}") + "$"):
                pair(b, np.stack([f, f, f]), f, [0.5, s, -1.0])


def test_multiplication_matrices_entries(basis_mid):
    b = basis_mid
    v_mats = multiplication_matrices(b)
    for k, vk in enumerate(v_mats):
        assert np.max(np.abs(vk - vk.T)) == 0.0
        assert np.allclose(vk @ b.chi(0), b.chi(k + 1))
    # second moments against Gaussian ones
    v1 = v_mats[0]
    assert (v1 @ b.chi(1)) @ b.chi(0) == pytest.approx(1.0)
    assert (v1 @ b.chi(1)) @ b.chi(4) == pytest.approx(2.0 / np.sqrt(6.0))
    assert (v1 @ b.chi(2)) @ b.chi(0) == 0.0
    assert (v_mats[1] @ b.chi(2)) @ b.chi(4) == pytest.approx(2.0 / np.sqrt(6.0))


@pytest.mark.parametrize("deg", [2, 6, 8])
def test_v1_is_the_first_multiplication_matrix(deg):
    # the basis builds V1 alone, once, with the bits of the full set's first
    basis = build_basis(deg)
    v1 = basis.v1
    assert basis.v1 is v1 and not v1.flags.writeable
    assert v1.tobytes() == multiplication_matrices(basis)[0].tobytes()


def test_multiplication_matches_pointwise_product(basis_mid):
    b = basis_mid
    v1 = multiplication_matrices(b)[0]
    rng = np.random.default_rng(7)
    # keep a degree margin so v * f stays inside the span
    coeffs = np.zeros(b.dim)
    low = [i for i, a in enumerate(b.multi_indices) if sum(a) <= b.max_degree - 1]
    coeffs[low] = rng.standard_normal(len(low))
    pts = rng.standard_normal((40, 3))
    lhs = evaluate(b, v1 @ coeffs, pts)
    rhs = pts[:, 0] * evaluate(b, coeffs, pts)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_evaluate_single_hermite_value(basis_small):
    # degree-2 slot along axis 3 after rotation mixes squares; check chi1 instead
    b = basis_small
    pts = np.array([[0.3, -1.1, 2.0]])
    val = evaluate(b, b.chi(1), pts)[0]
    expect = 0.3 * TWO_PI ** (-0.75) * np.exp(-0.25 * (0.3 ** 2 + 1.1 ** 2 + 4.0))
    assert val == pytest.approx(expect, rel=1e-12)


coeff_arrays = st.lists(st.floats(-5, 5, allow_nan=False), min_size=10, max_size=10)


@given(coeff_arrays)
def test_macro_micro_split_is_orthogonal(c):
    b = build_basis(2)
    f = np.array(c)
    pf = b.macro_project(f)
    qf = b.micro_project(f)
    assert np.allclose(pf + qf, f)
    assert abs(np.sum(pf * qf)) < 1e-12
    assert np.allclose(b.macro_project(pf), pf)
    assert np.allclose(b.micro_project(qf), qf)


@given(coeff_arrays, st.floats(0.05, 10.0))
def test_metric_sandwich(c, s):
    b = build_basis(2)
    f = np.array(c)
    plain = float(np.sum(f * f))
    wt = weighted_norm(b, f, s) ** 2
    assert wt >= plain - 1e-12
    assert wt <= (1.0 + s ** -2) * plain + 1e-9


def _rot_e1(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


@pytest.mark.parametrize("deg", [4, 6, 8])
def test_axis_rotations_turn_each_sector_copy_pair(deg):
    # f -> f(R v), R the rotation about e1 through theta, turns the (cos, sin)
    # copies of sector m through m theta, and leaves sector 0 in place
    basis = _basis(deg)
    sectors = basis.axis_sectors
    for theta in (0.3, -1.1, 2.5):
        rot = compose_rotation(basis, _rot_e1(theta))
        for m, spans in enumerate(sectors.spans):
            copies = [sectors.transform[:, sl] for sl in spans]
            if m == 0:
                assert np.max(np.abs(rot @ copies[0] - copies[0])) <= 1e-13
                continue
            c, s = np.cos(m * theta), np.sin(m * theta)
            cos, sin = copies
            assert np.max(np.abs(rot @ cos - (c * cos - s * sin))) <= 1e-13
            assert np.max(np.abs(rot @ sin - (s * cos + c * sin))) <= 1e-13


@pytest.mark.parametrize("deg, sizes", [
    (6, (16, 12, 9, 6, 4, 2, 1)),
    (8, (25, 20, 16, 12, 9, 6, 4, 2, 1)),
])
def test_axis_sector_sizes(deg, sizes):
    sectors = _basis(deg).axis_sectors
    assert tuple(copies[0].basis.shape[1] for copies in sectors.frames) == sizes
    assert sectors.n_invariant == (3, 1) + (0,) * (deg - 1)
    if deg == 8:
        # the micro blocks the dispersion determinants decompose
        assert (sizes[0] - 3, sizes[1] - 1) == (22, 19)


@pytest.mark.parametrize("deg", [4, 6, 8])
def test_axis_sector_frames(deg):
    basis = _basis(deg)
    sectors = basis.axis_sectors
    cols = []
    for m, copies in enumerate(sectors.frames):
        assert len(copies) == (1 if m == 0 else 2)
        for fr in copies:
            q = np.zeros((basis.dim, fr.basis.shape[1]))
            q[fr.index] = fr.basis
            cols.append(q)
    t = np.concatenate(cols, axis=1)
    assert np.array_equal(t, sectors.transform)
    assert np.max(np.abs(t.T @ t - np.eye(basis.dim))) <= 1e-14
    # the invariants are exact coordinate columns at the front of their sectors
    inv = basis.invariant_indices
    fronts = [(sectors.frames[0][0], 0, inv[0]), (sectors.frames[0][0], 1, inv[1]),
              (sectors.frames[0][0], 2, inv[4]), (sectors.frames[1][0], 0, inv[2]),
              (sectors.frames[1][1], 0, inv[3])]
    for fr, col, slot in fronts:
        e = np.zeros(fr.index.size)
        e[np.flatnonzero(fr.index == slot)] = 1.0
        assert np.array_equal(fr.basis[:, col], e)
    # and every other column vanishes exactly on the invariant slots
    for m, copies in enumerate(sectors.frames):
        for fr in copies:
            rows = np.isin(fr.index, inv)
            assert np.all(fr.basis[np.ix_(rows, np.arange(sectors.n_invariant[m],
                                                          fr.basis.shape[1]))] == 0.0)


def _dense_burnett_transform(basis):
    """T as one (dim, dim) matrix, one row per Burnett function about e1, in
    the order of the sector frames, with their labels."""
    sectors = basis.axis_sectors
    return [tuple(a) for a in sectors.labels.tolist()], (sectors.transform * sectors.signs).T


@pytest.mark.parametrize("deg", [2, 4, 6, 8, 10, 12])
def test_burnett_transform_is_orthogonal_and_class_pure(deg):
    basis = _basis(deg)
    labels, t = _dense_burnett_transform(basis)
    assert len(labels) == len(set(labels)) == basis.dim
    assert np.max(np.abs(t @ t.T - np.eye(basis.dim))) <= 1e-12
    # every Burnett function lies in one reflection class: its coefficients on
    # a (2N+4)^3 rule finer than the basis's own, over every slot, vanish
    # outside the class
    nodes, weights = velocity_space._gauss_product_rule(2 * deg + 4)
    phi = burnett_rows(nodes[:, [1, 2, 0]], np.array(labels))
    full = (phi * weights) @ basis.poly_values(nodes)
    assert np.max(np.abs(full - t)) <= 1e-13


@pytest.mark.parametrize("deg", [2, 4, 6, 8, 10, 12])
def test_burnett_functions_match_closed_form(deg):
    # T^T maps each real Burnett function about e1 to basis coefficients; at
    # random points that expansion must equal an independent closed form,
    # built from scipy's Laguerre and associated Legendre functions of the
    # polar angle from v1 and the azimuth atan2(v3, v2)
    from math import factorial, gamma, pi, sqrt

    from scipy.special import eval_genlaguerre, lpmv

    basis = _basis(deg)
    labels, t = _dense_burnett_transform(basis)
    pts = 1.5 * np.random.default_rng(deg).standard_normal((200, 3))
    r = np.linalg.norm(pts, axis=1)
    azimuth = np.arctan2(pts[:, 2], pts[:, 1])
    expanded = t @ basis.poly_values(pts).T
    for row, (n, l, m) in enumerate(labels):
        radial = sqrt(factorial(n) * sqrt(pi) / (2.0 ** (l + 1) * gamma(n + l + 1.5)))
        angular = sqrt((2 - (m == 0)) * (2 * l + 1) * factorial(l - abs(m)) / factorial(l + abs(m)))
        # lpmv carries the Condon-Shortley phase (-1)^m
        legendre = (-1) ** abs(m) * lpmv(abs(m), l, pts[:, 0] / r)
        trig = np.cos(m * azimuth) if m >= 0 else np.sin(-m * azimuth)
        ref = (radial * eval_genlaguerre(n, l + 0.5, r * r / 2) * angular * r ** l
               * legendre * trig)
        assert np.max(np.abs(expanded[row] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("deg", [2, 4, 6, 8])
def test_basis_matrix_is_the_direct_sum_of_radial_blocks(deg):
    # between phi_nlm and phi_n'l'm' the matrix holds radial[l][n, n'] when
    # (l, m) = (l', m') and nothing else, and it is an exact zero between
    # slots of different reflection classes
    basis = _basis(deg)
    gen = np.random.default_rng(deg)
    radial = np.zeros((deg + 1, deg // 2 + 1, deg // 2 + 1))
    for l in range(deg + 1):
        size = (deg - l) // 2 + 1
        radial[l, :size, :size] = gen.standard_normal((size, size))
    sectors = basis.axis_sectors
    mat = sectors.basis_matrix(sectors.radial_blocks(radial))
    labels, t = _dense_burnett_transform(basis)
    want = np.array([[radial[l][n, k] if (l, m) == (lk, mk) else 0.0 for k, lk, mk in labels]
                     for n, l, m in labels])
    assert np.max(np.abs(t @ mat @ t.T - want)) <= 1e-13
    parity = np.array(basis.multi_indices) % 2
    assert np.all(mat[np.any(parity[:, None] != parity[None], axis=-1)] == 0.0)


@pytest.mark.parametrize("deg", range(2, 17))
def test_streaming_blocks_match_the_dense_product(deg):
    # the blocks read off the labels by the Burnett recurrence against
    # T^T conj(S) (-i V1) S T on both copies of every sector, invariant
    # columns and frame signs included
    basis = build_basis(deg)
    sectors = basis.axis_sectors
    scaled = sectors.scale.conj()[:, None] * (-1j * basis.v1) * sectors.scale[None, :]
    dense = sectors.transform.T @ scaled.real @ sectors.transform
    size = np.max(np.abs(dense))
    for block, copies in zip(sectors.streaming_blocks(), sectors.spans):
        for sl in copies:
            assert np.max(np.abs(block - dense[sl, sl])) <= 1e-14 * size


def _spy_rows(monkeypatch):
    """Record the point count of every VelocityBasis.poly_rows and
    velocity_space.burnett_rows call, by kernel."""
    calls = {"poly_rows": [], "burnett_rows": []}
    poly_kernel, burnett_kernel = VelocityBasis.poly_rows, velocity_space.burnett_rows

    def poly_spy(self, points, out=None):
        calls["poly_rows"].append(len(points))
        return poly_kernel(self, points, out)

    def burnett_spy(points, labels):
        calls["burnett_rows"].append(len(points))
        return burnett_kernel(points, labels)

    monkeypatch.setattr(VelocityBasis, "poly_rows", poly_spy)
    monkeypatch.setattr(velocity_space, "burnett_rows", burnett_spy)
    return calls


def _skew_weights(monkeypatch, n_skewed):
    """Scale the 1-d Gauss-Hermite weights of the n_skewed-node rule by 1 + 1e-6."""
    exact = velocity_space.hermegauss

    def skewed(n):
        x, w = exact(n)
        return (x, w * (1.0 + 1e-6)) if n == n_skewed else (x, w)

    monkeypatch.setattr(velocity_space, "hermegauss", skewed)


@pytest.mark.parametrize("deg", [4, 6, 8])
def test_build_basis_evaluates_no_basis_rows(monkeypatch, deg):
    # the Gram check is separable: it evaluates the 1-d table on N + 1 nodes
    # and neither the basis nor the Burnett functions on any 3-d rule
    calls = _spy_rows(monkeypatch)
    build_basis(deg)
    assert calls == {"poly_rows": [], "burnett_rows": []}


def test_burnett_transform_evaluates_no_basis_rows(monkeypatch):
    # the frames are built in closed form; only the dense reference of the
    # check subcommand evaluates both kernels, once each, on the exact rule
    basis = build_basis(6)
    calls = _spy_rows(monkeypatch)
    assert basis.axis_sectors.frames
    assert calls == {"poly_rows": [], "burnett_rows": []}
    velocity_space.quadrature_gaps(basis)
    assert calls == {"poly_rows": [7 ** 3], "burnett_rows": [7 ** 3]}


@pytest.mark.parametrize("deg", range(2, 13))
def test_separable_gram_equals_the_dense_gram(deg):
    basis = _basis(deg)
    rule = basis.exact_rule
    dense = rule.poly @ (rule.weights[:, None] * rule.poly.T)
    assert np.max(np.abs(velocity_space._separable_gram(basis) - dense)) <= 1e-14


@pytest.mark.parametrize("deg", [2, 3, 6, 9, 12])
def test_burnett_transform_is_exactly_block_diagonal(deg):
    # a Burnett function with 2n + l = k has coefficients on the degree-k
    # slots of its own reflection class only, and exact zeros elsewhere
    basis = _basis(deg)
    labels, t = _dense_burnett_transform(basis)
    labels = np.array(labels)
    alpha = np.array(basis.multi_indices)
    same_degree = 2 * labels[:, :1] + labels[:, 1:2] == alpha.sum(axis=1)[None, :]
    same_class = (velocity_space._burnett_class(labels)[:, None]
                  == ((alpha % 2) @ np.array([4, 2, 1]))[None, :])
    assert np.all(t[~(same_degree & same_class)] == 0.0)


def test_slot_of_inverts_the_multi_indices():
    alpha = np.array(_basis(12).multi_indices)
    assert np.array_equal(velocity_space._slot_of(alpha), np.arange(len(alpha)))


def test_exact_rule_is_read_only():
    rule = _basis(4).exact_rule
    assert rule.nodes.shape == (125, 3) and rule.weights.shape == (125,)
    for arr in rule:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_skewed_exact_rule_fails_build_basis(monkeypatch):
    _skew_weights(monkeypatch, 7)
    with pytest.raises(BasisError, match=r"Gram check failed on the 7\^3-node rule"):
        build_basis(6)


@pytest.mark.parametrize("deg", [2, 4, 6, 8, 12])
def test_pure_square_rotation_equals_the_dense_product(deg):
    basis = build_basis(deg)
    raw = dataclasses.replace(basis, rotation=np.eye(basis.dim))
    rot = basis.rotation
    for mat, tensor in zip(multiplication_matrices(basis), multiplication_matrices(raw)):
        np.testing.assert_array_equal(mat, rot.T @ tensor @ rot)
