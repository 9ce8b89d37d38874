import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from vpb_spectral.mode_operator import compose_rotation
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


@pytest.mark.parametrize("deg", [2, 4, 6, 8])
def test_poly_rows_in_any_order_equal_gathered_poly_values(deg):
    basis = _basis(deg)
    gen = np.random.default_rng(deg)
    pts = 3.0 * gen.standard_normal((2500, 3))  # three evaluation blocks
    class_order = np.argsort((np.array(basis.multi_indices) % 2) @ [4, 2, 1], kind="stable")
    for order in (None, gen.permutation(basis.dim), class_order):
        gathered = basis.poly_values(pts).T
        if order is not None:
            gathered = gathered[order]
        np.testing.assert_array_equal(basis.poly_rows(pts, order), gathered)


@pytest.mark.parametrize("deg", [2, 3, 4, 6, 8])
def test_node_poly_equals_dense_rotation(deg):
    # 512 to 8000 nodes, so evaluation blocks of 1024 points meet and split here
    basis = _basis(deg)
    np.testing.assert_array_equal(basis.node_poly, dense_reference(basis, basis.quad_nodes))


def test_dimension_counts():
    assert build_basis(2, 8).dim == 10
    assert build_basis(3).dim == 20
    assert build_basis(4).dim == 35


def test_rejects_bad_construction():
    with pytest.raises(BasisError):
        build_basis(1)
    with pytest.raises(BasisError):
        build_basis(4, 5)


def test_gram_is_identity(basis_mid):
    b = basis_mid
    gram = b.node_poly.T @ (b.gauss_weights[:, None] * b.node_poly)
    assert np.max(np.abs(gram - np.eye(b.dim))) < 1e-12


def test_folded_weights_reproduce_gram(basis_small):
    b = basis_small
    sqrt_m = TWO_PI ** (-0.75) * np.exp(-0.25 * np.sum(b.quad_nodes ** 2, axis=1))
    vals = b.node_poly * sqrt_m[:, None]
    gram = vals.T @ (b.quad_weights[:, None] * vals)
    assert np.max(np.abs(gram - np.eye(b.dim))) < 1e-12


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
    assert ms.phi_factor is None
    ms = project_macro(b, g, xi_norm=2.0)
    assert ms.phi_factor == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(BasisError):
        project_macro(b, g, xi_norm=0.0)


def test_weighted_inner_examples(basis_small):
    b = basis_small
    chi0 = b.chi(0)
    assert weighted_inner(b, chi0, chi0, 1.0) == pytest.approx(2.0)
    assert weighted_inner(b, chi0, chi0, np.sqrt(1e6)) == pytest.approx(1.0 + 1e-6)
    assert weighted_inner(b, b.chi(1), chi0, 0.5) == 0.0
    with pytest.raises(BasisError):
        weighted_inner(b, chi0, chi0, 0.0)


def test_bilinear_pair_has_no_conjugation(basis_small):
    b = basis_small
    f = (1.0 + 2.0j) * b.chi(0)
    assert bilinear_pair(b, f, f, 1.0) == pytest.approx(2.0 * (1.0 + 2.0j) ** 2)
    assert weighted_inner(b, f, f, 1.0) == pytest.approx(2.0 * 5.0)


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
    b = build_basis(2, 8)
    f = np.array(c)
    pf = b.macro_project(f)
    qf = b.micro_project(f)
    assert np.allclose(pf + qf, f)
    assert abs(np.sum(pf * qf)) < 1e-12
    assert np.allclose(b.macro_project(pf), pf)
    assert np.allclose(b.micro_project(qf), qf)


@given(coeff_arrays, st.floats(0.05, 10.0))
def test_metric_sandwich(c, s):
    b = build_basis(2, 8)
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


@pytest.mark.parametrize("deg", [2, 4, 6, 8])
def test_burnett_transform_is_orthogonal_and_class_pure(deg):
    basis = _basis(deg)
    labels, t = _dense_burnett_transform(basis)
    assert len(labels) == len(set(labels)) == basis.dim
    assert np.max(np.abs(t @ t.T - np.eye(basis.dim))) <= 1e-12
    # every Burnett function lies in one reflection class: its coefficients on
    # the basis's own quadrature, over every slot, vanish outside the class
    axis_last = basis.quad_nodes[:, [1, 2, 0]]
    full = (burnett_rows(axis_last, np.array(labels)) * basis.gauss_weights) @ basis.node_poly
    assert np.max(np.abs(full - t)) <= 1e-13


@pytest.mark.parametrize("deg", [2, 4, 6, 8])
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
    mat = basis.axis_sectors.basis_matrix(radial)
    labels, t = _dense_burnett_transform(basis)
    want = np.array([[radial[l][n, k] if (l, m) == (lk, mk) else 0.0 for k, lk, mk in labels]
                     for n, l, m in labels])
    assert np.max(np.abs(t @ mat @ t.T - want)) <= 1e-13
    parity = np.array(basis.multi_indices) % 2
    assert np.all(mat[np.any(parity[:, None] != parity[None], axis=-1)] == 0.0)


def _spy_poly_rows(monkeypatch):
    """Record the point count of every VelocityBasis.poly_rows call."""
    calls, kernel = [], VelocityBasis.poly_rows

    def spy(self, points, order=None, out=None):
        calls.append(len(points))
        return kernel(self, points, order, out)

    monkeypatch.setattr(VelocityBasis, "poly_rows", spy)
    return calls


def _skew_weights(monkeypatch, n_skewed):
    """Scale the 1-d Gauss-Hermite weights of the n_skewed-node rule by 1 + 1e-6."""
    exact = velocity_space.hermegauss

    def skewed(n):
        x, w = exact(n)
        return (x, w * (1.0 + 1e-6)) if n == n_skewed else (x, w)

    monkeypatch.setattr(velocity_space, "hermegauss", skewed)


@pytest.mark.parametrize("deg", [4, 6, 8])
def test_build_basis_evaluates_only_the_exact_rule(monkeypatch, deg):
    # the Gram check reads the (N+1)^3 rule; the (2N+4)^3 quad_order rule is
    # left for whoever reads node_poly
    calls = _spy_poly_rows(monkeypatch)
    basis = build_basis(deg)
    assert calls == [(deg + 1) ** 3]
    assert basis.exact_rule.poly.shape == (basis.dim, (deg + 1) ** 3)


def test_burnett_transform_reuses_the_exact_rule(monkeypatch):
    basis = build_basis(6)
    calls = _spy_poly_rows(monkeypatch)
    assert basis.axis_sectors.frames
    assert calls == []


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


def test_skewed_configured_rule_fails_its_first_reader(monkeypatch):
    # build_basis never reads the quad_order rule; each reader of node_poly
    # runs its Gram check (a failed cached_property is not stored)
    _skew_weights(monkeypatch, 12)
    basis = build_basis(4)
    with pytest.raises(BasisError, match=r"Gram check failed on the 12\^3-node rule"):
        basis.node_poly
    with pytest.raises(BasisError, match="Gram check"):
        coeffs_from_callable(basis, lambda v: np.exp(-0.25 * np.sum(v ** 2, axis=1)))
    with pytest.raises(BasisError, match="Gram check"):
        compose_rotation(basis, _rot_e1(0.3))


@pytest.mark.parametrize("deg", [2, 4, 6, 8, 12])
def test_pure_square_rotation_equals_the_dense_product(deg):
    basis = build_basis(deg)
    raw = dataclasses.replace(basis, rotation=np.eye(basis.dim))
    rot = basis.rotation
    for mat, tensor in zip(multiplication_matrices(basis), multiplication_matrices(raw)):
        np.testing.assert_array_equal(mat, rot.T @ tensor @ rot)
