import math
from functools import cached_property, lru_cache

import numpy as np
import pytest
from collision_reference import gamma_form, micro_solve
from hypothesis import given
from numpy.polynomial.hermite_e import hermegauss
from hypothesis import strategies as st

from vpb_spectral import (BackendError, build_basis, collision, multiplication_matrices,
                          velocity_space)
from vpb_spectral.cache import key_hash, read_matrix, write_matrix
from vpb_spectral.collision import (
    STRUCTURE_TOL,
    CollisionQuadrature,
    _add_class_products,
    _chunk_blocks,
    _CollisionGrid,
    _dirichlet_matrix,
    _pair_points,
    _point_weights,
    assemble_collision,
    synthetic_collision,
)
from vpb_spectral.errors import AssemblyError, VPBError
from vpb_spectral.oracles import GammaEvaluator
from vpb_spectral.transport import compute_kappas
from vpb_spectral.velocity_space import (VelocityBasis, _gauss_product_rule, _product_rule,
                                         hermite_polynomial_table)

_FOLD_TAG = "burnett-radial-blocks-v1"  # the fold tag of the cache parameters


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_measure_total_matches_closed_form(gamma):
    grid = _CollisionGrid(CollisionQuadrature.for_degree(6), gamma, 1.0)
    assert _total_mass(grid) == pytest.approx(collision_measure_total(gamma), rel=1e-13)


def test_measure_total_hard_sphere_value():
    # 2 pi E|V - Z| with V, Z independent standard Gaussians
    assert collision_measure_total(1.0) == pytest.approx(8.0 * np.sqrt(np.pi), rel=1e-14)
    assert collision_measure_total(1.0, kernel_c=2.0) == pytest.approx(16.0 * np.sqrt(np.pi))


def test_nu_closed_form():
    assert nu_hard_sphere(0.0) == pytest.approx(4.0 * np.sqrt(2.0 * np.pi), rel=1e-13)
    assert nu_hard_sphere(0.0) == pytest.approx(10.0265130985, abs=1e-9)
    r = np.linspace(0.0, 8.0, 200)
    vals = nu_hard_sphere(r)
    assert np.all(np.diff(vals) > 0)
    # linear growth nu ~ 2 pi |v| at large speed
    assert nu_hard_sphere(60.0) / 60.0 == pytest.approx(2.0 * np.pi, rel=1e-3)
    # independent oracle: quadrature of 2 pi E|v - Z| in spherical shells
    from scipy.integrate import quad

    for speed in (0.3, 1.7):
        val = quad(
            lambda y: y / speed * (np.exp(-((y - speed) ** 2) / 2) - np.exp(-((y + speed) ** 2) / 2))
            * y / np.sqrt(2 * np.pi), 0, np.inf)[0]
        assert nu_hard_sphere(speed) == pytest.approx(2 * np.pi * val, rel=1e-10)


def test_collision_frequency_matrix_anchor(basis_mid):
    # exact one-point collision measure vs adaptive Gauss-Hermite of the closed form
    grid = _CollisionGrid(CollisionQuadrature.for_degree(2 * basis_mid.max_degree), 1.0, 1.0)
    numat = collision_frequency_matrix(basis_mid, grid)
    assert numat[0, 0] == pytest.approx(8.0 * np.sqrt(np.pi), rel=1e-12)

    from scipy.special import roots_hermitenorm

    x, w = roots_hermitenorm(48)
    w = w / np.sqrt(2 * np.pi)
    nodes = np.stack([a.ravel() for a in np.meshgrid(x, x, x, indexing="ij")], axis=-1)
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    tables = [hermite_polynomial_table(basis_mid.max_degree, nodes[:, k]) for k in range(3)]
    alpha = np.array(basis_mid.multi_indices)
    poly = (tables[0][alpha[:, 0]] * tables[1][alpha[:, 1]] * tables[2][alpha[:, 2]]).T
    poly = poly @ basis_mid.rotation
    nu_vals = nu_hard_sphere(np.linalg.norm(nodes, axis=1))
    ref = poly.T @ ((weights * nu_vals)[:, None] * poly)
    assert np.max(np.abs(numat - ref)) < 1e-6


def test_assembled_matrix_structure(hard_sphere_prod):
    op = hard_sphere_prod
    mat = op.matrix
    assert np.max(np.abs(mat - mat.T)) == 0.0
    for k in range(5):
        assert np.linalg.norm(mat @ op.basis.chi(k)) < 1e-10
    vals = np.linalg.eigvalsh(mat)
    assert vals[-1] < 1e-10
    assert np.sum(np.abs(vals) < 1e-8) == 5
    gap = op.spectral_gap()
    assert 5.0 < gap < 9.0


def test_spectral_gap_shrinks_with_resolution(basis_small, basis_mid, hard_sphere_prod):
    g2 = assemble_collision(basis_small).spectral_gap()
    g4 = assemble_collision(basis_mid).spectral_gap()
    g6 = hard_sphere_prod.spectral_gap()
    assert g2 > g4 > g6 > 0


def test_truncation_gives_exact_restriction(basis_mid, hard_sphere_prod):
    op4 = assemble_collision(basis_mid)
    op6 = hard_sphere_prod
    idx = [i for i, a in enumerate(op6.basis.multi_indices) if sum(a) <= 4]
    sub = op6.matrix[np.ix_(idx, idx)]
    assert np.max(np.abs(sub - op4.matrix)) < 1e-12


def test_quadrature_refinement_is_inert(basis_small, monkeypatch):
    monkeypatch.delenv("VPB_SPECTRAL_CACHE")
    base = assemble_collision(basis_small).matrix
    fine = assemble_collision(
        basis_small,
        quad=CollisionQuadrature(n_gauss=9, n_radial=6, n_polar=8, n_azimuth=18)).matrix
    assert np.max(np.abs(base - fine)) < 1e-12


def test_collision_measure_preserves_velocity_law(basis_mid):
    # eta and sigma rules deliberately different, so agreement is not structural
    grid = _CollisionGrid(CollisionQuadrature.for_degree(2 * basis_mid.max_degree), 1.0, 1.0)
    sigma = collision._sphere_rule(7, 12)
    pre = one_point_integrals(basis_mid, grid, sigma, "v")
    post = one_point_integrals(basis_mid, grid, sigma, "v_prime")
    assert np.max(np.abs(pre - post)) < 1e-11
    pre_s = one_point_integrals(basis_mid, grid, sigma, "v_star")
    post_s = one_point_integrals(basis_mid, grid, sigma, "v_prime_star")
    assert np.max(np.abs(pre - pre_s)) < 1e-11
    assert np.max(np.abs(post - post_s)) < 1e-11


def _cross_class_mask(basis):
    """True where two slots differ in some exponent's parity."""
    parity = np.array(basis.multi_indices) % 2
    return np.any(parity[:, None, :] != parity[None, :, :], axis=-1)


def _unfolded_sums(basis, grid, unit, unit_w):
    """Reference: A = S^T W S over the full grid and the sphere-reduced sums."""
    n_rho, n_sphere = grid.rho.size, unit.shape[0]
    acc = np.zeros((basis.dim, basis.dim))
    reduced = []
    for com, com_w in zip(*_cartesian_com(grid)):
        shift = grid.rho[:, None, None] * unit[None, :, :]
        v = ((com + shift) / np.sqrt(2.0)).reshape(-1, 3)
        v_star = ((com - shift) / np.sqrt(2.0)).reshape(-1, 3)
        s_vals = basis.poly_values(v) + basis.poly_values(v_star)
        w = (com_w * grid.rho_w[:, None] * unit_w[None, :]).ravel()
        acc += s_vals.T @ (w[:, None] * s_vals)
        reduced.append(np.einsum("rsd,s->rd", s_vals.reshape(n_rho, n_sphere, -1), unit_w))
    return acc, np.concatenate(reduced)


def _unfolded_dirichlet(basis, grid, sigma):
    """Reference Dirichlet form on the full grid, with the eta sums on the
    grid's sphere rule and the sigma sums on the rule sigma, (nodes, weights)."""
    a1, a_red = _unfolded_sums(basis, grid, grid.eta, grid.eta_w)
    a2, b_red = _unfolded_sums(basis, grid, *sigma)
    w_com_rho = (_cartesian_com(grid)[1][:, None] * grid.rho_w[None, :]).ravel()
    cross = (a_red * w_com_rho[:, None]).T @ b_red
    mat = -(grid.prefactor / 4.0) * (np.sum(sigma[1]) * a1 + np.sum(grid.eta_w) * a2
                                     - cross - cross.T)
    return 0.5 * (mat + mat.T)


def _unfolded_frequency(basis, grid):
    acc = np.zeros((basis.dim, basis.dim))
    for com, com_w in zip(*_cartesian_com(grid)):
        v = ((com + grid.rho[:, None, None] * grid.eta[None, :, :]) / np.sqrt(2.0)).reshape(-1, 3)
        u_vals = basis.poly_values(v)
        w = (com_w * grid.rho_w[:, None] * grid.eta_w[None, :]).ravel()
        acc += u_vals.T @ (w[:, None] * u_vals)
    return grid.prefactor * np.sum(grid.eta_w) * acc


def _cartesian_com(grid):
    """The Cartesian center-of-mass rule that the axial rule folds: the
    n_gauss^3 Gauss-Hermite product rule for the standard normal."""
    return _gauss_product_rule(grid.quad.n_gauss)


def _folded_com(grid):
    """The center-of-mass nodes in the closed positive octant, each weighted
    by its orbit size 2^(number of nonzero coordinates)."""
    n = grid.quad.n_gauss
    x, w = hermegauss(n)
    w = w / np.sqrt(2.0 * np.pi)
    fold_w = w[n // 2:].copy()
    fold_w[n % 2:] *= 2.0  # every node but a middle one has a mirror image
    return _product_rule(x[n // 2:], fold_w)


def _total_mass(grid):
    """The integral of 1 against the full collision measure."""
    radial = float(np.sum(grid.rho_w))
    return (grid.prefactor * float(np.sum(_cartesian_com(grid)[1])) * radial
            * float(np.sum(grid.eta_w)) ** 2)


def _class_order(basis):
    """Basis slots sorted by their (a1, a2, a3 mod 2) class, and each class's
    range of positions in that order."""
    label = (np.array(basis.multi_indices) % 2) @ np.array([4, 2, 1])
    order = np.argsort(label, kind="stable")
    ends = np.searchsorted(label[order], np.arange(9))
    return order, [slice(ends[c], ends[c + 1]) for c in range(8)]


def _unsort(mat, order):
    """A matrix in sorted-slot order, back in basis-slot order."""
    out = np.empty_like(mat)
    out[np.ix_(order, order)] = mat
    return out


def nu_hard_sphere(speed, kernel_c=1.0):
    """Collision frequency for gamma = 1 in closed form.

    nu(v) = 2 pi C * E|v - Z|, Z standard Gaussian; nu(0) = 4 C sqrt(2 pi).
    """
    r = np.asarray(speed, dtype=float)
    small = r < 1e-8
    rs = np.where(small, 1.0, r)
    erf = np.array([math.erf(t) for t in (rs / np.sqrt(2.0)).ravel()]).reshape(rs.shape)
    out = (np.sqrt(2.0 / np.pi) * np.exp(-(rs ** 2) / 2.0) + (rs + 1.0 / rs) * erf)
    out = np.where(small, 2.0 * np.sqrt(2.0 / np.pi), out)
    return 2.0 * np.pi * kernel_c * out


def collision_frequency_matrix(basis, grid):
    """Galerkin matrix of multiplication by nu(v), via the collision grid.

    Exact for the truncation, because (nu f, g) is the one-point part of the
    collision measure applied to the degree <= 2N polynomial F * G.  Summed
    over the folded grid within the reflection classes.
    """
    order, ranges = _class_order(basis)
    com_nodes, com_w = _folded_com(grid)
    acc = np.zeros((basis.dim, basis.dim))
    sigma_total = float(np.sum(grid.eta_w))
    for blk in _chunk_blocks(com_nodes.shape[0], grid.rho.size * grid.eta.shape[0]):
        v, _ = _pair_points(com_nodes[blk], grid.rho, grid.eta)
        rows = basis.poly_rows(v)[order]
        _add_class_products(acc, rows, rows * _point_weights(com_w[blk], grid.rho_w, grid.eta_w),
                            ranges)
    return _unsort(grid.prefactor * sigma_total * acc, order)


def one_point_integrals(basis, grid, sigma, which):
    """I[P_alpha(x)] for x one of v, v_star, v_prime, v_prime_star, with the
    eta sums on the grid's sphere rule and the sigma sums on the rule sigma,
    (nodes, weights).

    With a sigma rule unlike the grid's this checks that the collision measure
    pushes pre- and post-collisional velocities to the same law.
    """
    n_rho = grid.rho.size
    if which in ("v", "v_star"):
        unit, unit_w, other_total = grid.eta, grid.eta_w, float(np.sum(sigma[1]))
    elif which in ("v_prime", "v_prime_star"):
        unit, unit_w, other_total = *sigma, float(np.sum(grid.eta_w))
    else:
        raise AssemblyError(f"unknown point label {which!r}")
    acc = np.zeros(basis.dim)
    com_nodes, com_w = _cartesian_com(grid)
    for blk in _chunk_blocks(com_nodes.shape[0], n_rho * unit.shape[0]):
        com = com_nodes[blk]
        plus, minus = _pair_points(com, grid.rho, unit)
        pts = plus if which in ("v", "v_prime") else minus
        w_full = _point_weights(com_w[blk], grid.rho_w, unit_w)
        acc += basis.poly_values(pts).T @ w_full
    return grid.prefactor * other_total * acc


def collision_measure_total(gamma=1.0, kernel_c=1.0):
    """Closed form of the full collision measure: 2 pi C E|V - Z|^gamma.

    For gamma = 1 this is 8 C sqrt(pi); general gamma uses the moments of the
    chi(3) law of |V - Z| / sqrt(2).
    """
    # |V - Z| = sqrt(2) * |W|, W standard; E|W|^gamma = 2^(gamma/2) Gamma((3+gamma)/2) / Gamma(3/2)
    moment = 2.0 ** (gamma / 2.0) * math.gamma((3.0 + gamma) / 2.0) / math.gamma(1.5)
    return 2.0 * np.pi * kernel_c * 2.0 ** (gamma / 2.0) * moment


# a sphere rule unlike every grid's below that still resolves degree 12
_INDEPENDENT_SIGMA = collision._sphere_rule(8, 16)


@pytest.mark.parametrize("degree", [2, 3, 4, 6])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("reference_sigma", ["shared", "independent"])
def test_folded_sums_match_unfolded_reference(degree, gamma, reference_sigma):
    # the folded sums run eta and sigma on the grid's one sphere rule; the
    # reference sums sigma on that rule too, or on a rule unlike it, and both
    # rules are exact for the integrand, so agreement is not structural
    basis = build_basis(degree)
    grid = _CollisionGrid(CollisionQuadrature.for_degree(2 * degree), gamma, 1.0)
    sigma = (grid.eta, grid.eta_w) if reference_sigma == "shared" else _INDEPENDENT_SIGMA
    cross = _cross_class_mask(basis)
    sectors = basis.axis_sectors
    dirichlet = sectors.basis_matrix(sectors.radial_blocks(_dirichlet_matrix(basis, grid)))
    for folded, ref in ((dirichlet, _unfolded_dirichlet(basis, grid, sigma)),
                        (collision_frequency_matrix(basis, grid), _unfolded_frequency(basis, grid))):
        assert np.max(np.abs(folded - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.all(folded[cross] == 0.0)


def test_dirichlet_sums_evaluate_the_axial_grid(monkeypatch):
    # deg 6, shared spheres: 16 axial com nodes x 4 radii x 25 of 98 sphere
    # nodes, at v and at v_star; the octant and the half sphere took 25,088
    # points, the whole grid 343 x 4 x 98 x 2.  The sums evaluate the zonal
    # Burnett functions only; the basis polynomials are not evaluated at all:
    # the Gram check is separable and the Burnett frames are built in closed form
    basis = build_basis(6)
    grid = _CollisionGrid(CollisionQuadrature.for_degree(12), 1.0, 1.0)
    zonal, poly = [], []
    zonal_kernel, poly_kernel = collision.burnett_rows, VelocityBasis.poly_rows

    def zonal_spy(points, labels):
        zonal.append(len(points))
        assert np.all(labels[:, 2] == 0)
        return zonal_kernel(points, labels)

    def poly_spy(self, points, out=None):
        poly.append(len(points))
        return poly_kernel(self, points, out)

    monkeypatch.setattr(collision, "burnett_rows", zonal_spy)
    monkeypatch.setattr(VelocityBasis, "poly_rows", poly_spy)
    _dirichlet_matrix(basis, grid)
    assert sum(zonal) == 3_200
    assert poly == []


def test_under_resolved_grid_is_refused():
    # the degree-8 rule sums a degree-6 basis's degree-12 integrand 4.6% off
    # the exact matrix, and that matrix passes every structural check
    with pytest.raises(AssemblyError) as err:
        assemble_collision(build_basis(6), quad=CollisionQuadrature.for_degree(8))
    assert str(err.value) == (
        "collision grid does not resolve the degree-12 Dirichlet integrand of a degree-6 "
        "basis: the Gauss-Hermite center-of-mass rule resolves degree 9; the Gauss-Laguerre "
        "radial rule resolves degree 11; the eta sphere rule resolves degree 9")
    # one short rule is named alone: 12 azimuthal sphere nodes resolve degree 11
    coarse = _CollisionGrid(CollisionQuadrature(7, 4, 7, 12), 1.0, 1.0)
    with pytest.raises(AssemblyError,
                       match=r"Dirichlet integrand of a degree-6 basis: the eta sphere rule "
                             r"resolves degree 11$"):
        _dirichlet_matrix(build_basis(6), coarse)


def _zonal_labels(top):
    """The zonal Burnett labels (n, l, 0), even l first, in the assembly's order."""
    return np.array([(n, l, 0) for parity in (0, 1) for l in range(parity, top + 1, 2)
                     for n in range((top - l) // 2 + 1)])


def _octant_zonal_dirichlet(grid, labels):
    """Reference: the zonal Dirichlet form summed on the Cartesian octant
    rule and the whole sphere rules, kept to the even- and odd-l classes."""
    com_nodes, com_w = _folded_com(grid)

    def sums(unit, unit_w):
        acc, reduced = 0.0, []
        for com, w_com in zip(com_nodes, com_w):
            shift = grid.rho[:, None, None] * unit[None, :, :]
            s_vals = sum(velocity_space.burnett_rows(
                ((com + sign * shift) / np.sqrt(2.0)).reshape(-1, 3), labels) for sign in (1, -1))
            w = (w_com * grid.rho_w[:, None] * unit_w[None, :]).ravel()
            acc = acc + (s_vals * w) @ s_vals.T
            reduced.append(s_vals.reshape(len(labels), grid.rho.size, -1) @ unit_w)
        return acc, np.concatenate(reduced, axis=1)

    a1, a_red = sums(grid.eta, grid.eta_w)
    a2, b_red = a1, a_red  # sigma runs over the same sphere rule as eta
    cross = (a_red * (com_w[:, None] * grid.rho_w[None, :]).ravel()) @ b_red.T
    mat = -(grid.prefactor / 4.0) * (np.sum(grid.eta_w) * a1 + np.sum(grid.eta_w) * a2
                                     - cross - cross.T)
    parity = labels[:, 1] % 2
    return np.where(parity[:, None] == parity[None, :], 0.5 * (mat + mat.T), 0.0)


@pytest.mark.parametrize("degree", range(2, 11))
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_zonal_sums_match_octant_reference(degree, gamma):
    grid = _CollisionGrid(CollisionQuadrature.for_degree(2 * degree), gamma, 1.0)
    labels = _zonal_labels(degree)
    n_even = int(np.count_nonzero(labels[:, 1] % 2 == 0))
    axial = collision._folded_dirichlet(lambda pts: velocity_space.burnett_rows(pts, labels),
                                        len(labels), grid,
                                        [slice(0, n_even), slice(n_even, len(labels))])
    ref = _octant_zonal_dirichlet(grid, labels)
    assert np.max(np.abs(axial - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_cross_l_zonal_entry_raises(basis_small, monkeypatch):
    monkeypatch.delenv("VPB_SPECTRAL_CACHE")
    # deg 2 zonal rows: (n, l) = (0, 0), (1, 0), (0, 2) in the even class, (0, 1)
    exact = collision._pair_sums_and_reductions

    def perturbed(*args):
        acc, reduced = exact(*args)
        acc = acc.copy()
        acc[0, 2] += 1e-9 * np.max(np.abs(acc))
        acc[2, 0] = acc[0, 2]
        return acc, reduced

    monkeypatch.setattr(collision, "_pair_sums_and_reductions", perturbed)
    with pytest.raises(AssemblyError, match="Burnett check: zonal entry between different l"):
        assemble_collision(basis_small)


def test_non_orthogonal_burnett_transform_raises(monkeypatch):
    monkeypatch.delenv("VPB_SPECTRAL_CACHE")
    exact = velocity_space._burnett_coefficients
    monkeypatch.setattr(velocity_space, "_burnett_coefficients",
                        lambda basis, labels: exact(basis, labels) * (1.0 + 1e-9))
    with pytest.raises(AssemblyError, match="Burnett transform fails the orthogonality check"):
        assemble_collision(build_basis(3)).matrix


def test_burnett_frames_are_built_only_by_the_dense_view_and_sector_blocks(tmp_path,
                                                                           monkeypatch):
    # assembly on a miss or a hit, compute_kappas and kappa_bar build no
    # Burnett frames; the dense matrix and sector_blocks build them once per basis
    monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(tmp_path))
    built = []
    build = VelocityBasis.axis_sectors.func

    def spy(self):
        built.append(self.max_degree)
        return build(self)

    frames = cached_property(spy)
    frames.__set_name__(VelocityBasis, "axis_sectors")
    monkeypatch.setattr(VelocityBasis, "axis_sectors", frames)
    miss = assemble_collision(build_basis(3))
    basis = build_basis(3)
    hit = assemble_collision(basis)
    assert np.array_equal(hit.radial, miss.radial)
    for op in (miss, hit, synthetic_collision(basis)):
        compute_kappas(op), op.kappa_bar
    assert built == []
    miss.matrix, miss.sector_blocks
    assert built == [3]
    hit.sector_blocks, hit.matrix, synthetic_collision(basis).sector_blocks
    assert built == [3, 3]


@pytest.mark.parametrize("degree", [2, 4])
def test_b_primed_matches_full_sphere_reference(degree):
    basis = build_basis(degree)
    ge = GammaEvaluator(basis, 1.0, 1.0)
    g = ge.grid
    ref = []
    for com in ge.com_nodes:
        shift = g.rho[:, None, None] * g.eta[None, :, :]
        vp = ((com + shift) / np.sqrt(2.0)).reshape(-1, 3)
        vps = ((com - shift) / np.sqrt(2.0)).reshape(-1, 3)
        s_vals = basis.poly_values(vp) + basis.poly_values(vps)
        ref.append(np.einsum("rsd,s->dr", s_vals.reshape(g.rho.size, -1, basis.dim), g.eta_w))
    ref = np.concatenate(ref, axis=1)
    assert ge._b_primed.shape == ref.shape
    assert np.max(np.abs(ge._b_primed - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("node_skew, weight_skew", [(1e-12, 0.0), (0.0, 1e-12)])
def test_skewed_antipode_is_refused(monkeypatch, node_skew, weight_skew):
    exact = collision._sphere_rule

    def skewed(n_polar, n_azimuth):
        # the last node is the antipode of a kept one
        nodes, weights = exact(n_polar, n_azimuth)
        nodes[-1, 0] += node_skew
        weights[-1] += weight_skew
        return nodes, weights

    monkeypatch.setattr(collision, "_sphere_rule", skewed)
    with pytest.raises(AssemblyError, match="eta sphere rule is not antipodally symmetric"):
        _CollisionGrid(CollisionQuadrature.for_degree(4), 1.0, 1.0)


@pytest.mark.parametrize("rule", ["eta"])
@pytest.mark.parametrize("node_skew, weight_skew", [(1e-12, 0.0), (0.0, 1e-12)])
def test_skewed_axial_image_is_refused(monkeypatch, rule, node_skew, weight_skew):
    exact = collision._exchange_fold

    def skewed(nodes, weights, n_azimuth, name):
        # antipodally symmetric still; the last kept node is the image of the first
        kept, kept_w = exact(nodes, weights, n_azimuth, name)
        kept[-1, 0] += node_skew
        kept_w[-1] += weight_skew
        return kept, kept_w

    monkeypatch.setattr(collision, "_exchange_fold", skewed)
    with pytest.raises(AssemblyError, match=rf"{rule} sphere rule is not symmetric under "
                                            r"u -> \(-u1, u2, -u3\)"):
        _CollisionGrid(CollisionQuadrature.for_degree(4), 1.0, 1.0)


def test_exchange_fold_keeps_one_node_per_antipodal_pair():
    grid = _CollisionGrid(CollisionQuadrature.for_degree(8), 1.0, 1.0)
    other = collision._exchange_fold(*_INDEPENDENT_SIGMA, 16, "other")
    for (nodes, weights), full, full_w in ((grid.folded_eta, grid.eta, grid.eta_w),
                                           (other, *_INDEPENDENT_SIGMA)):
        assert 2 * len(nodes) == len(full)
        assert weights.sum() == pytest.approx(full_w.sum(), rel=1e-14)
        both = np.concatenate([nodes, -nodes])
        # every full-sphere node is a kept node or the antipode of one
        gaps = np.min(np.max(np.abs(full[:, None, :] - both[None, :, :]), axis=-1), axis=1)
        assert np.max(gaps) <= 1e-14


def test_axial_fold_keeps_one_node_per_mirror_pair():
    # 25 exchange-folded eta nodes: 12 pairs and the middle node (0, 1, 0);
    # 64 exchange-folded nodes of the 8 x 16 rule: 32 pairs
    grid = _CollisionGrid(CollisionQuadrature.for_degree(8), 1.0, 1.0)
    other = collision._exchange_fold(*_INDEPENDENT_SIGMA, 16, "other")
    for (nodes, weights), (full, full_w) in ((grid.axial_eta, grid.folded_eta),
                                             (collision._axial_fold(*other, "other"), other)):
        assert len(nodes) == (len(full) + 1) // 2
        assert weights.sum() == pytest.approx(full_w.sum(), rel=1e-14)
        both = np.concatenate([nodes, nodes * np.array([-1.0, 1.0, -1.0])])
        gaps = np.min(np.max(np.abs(full[:, None, :] - both[None, :, :]), axis=-1), axis=1)
        assert np.max(gaps) <= 1e-14
    assert grid.axial_eta[0][-1] == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)
    assert grid.axial_eta[1][-1] == pytest.approx(grid.folded_eta[1][12], rel=1e-15)


@pytest.mark.parametrize("n_gauss", range(1, 10))
def test_axial_com_rule(n_gauss):
    grid = _CollisionGrid(CollisionQuadrature(n_gauss, 2, 3, 4), 1.0, 1.0)
    nodes, weights = grid.axial_com
    assert nodes.shape == (((n_gauss + 1) // 2) ** 2, 3)
    assert np.all(nodes[:, 1] == 0.0)
    assert np.all(nodes[:, [0, 2]] >= 0.0)
    assert weights.sum() == pytest.approx(_cartesian_com(grid)[1].sum(), rel=1e-14)
    # E |c_perp|^(2a) c3^(2b) = 2^a a! (2b - 1)!! for 2a + 2b <= 2 n_gauss - 1
    for a in range(n_gauss):
        for b in range(n_gauss - a):
            exact = 2.0 ** a * math.factorial(a) * math.prod(range(1, 2 * b, 2))
            moment = weights @ (nodes[:, 0] ** (2 * a) * nodes[:, 2] ** (2 * b))
            assert moment == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("n_gauss", [1, 4, 7])
def test_folded_com_rule(n_gauss):
    grid = _CollisionGrid(CollisionQuadrature(n_gauss, 2, 3, 4), 1.0, 1.0)
    nodes, weights = _folded_com(grid)
    assert nodes.shape[0] == ((n_gauss + 1) // 2) ** 3
    assert np.all(nodes >= 0.0)
    # each node stands for its 2^(nonzero coordinates) mirror images
    com_nodes, com_w = _cartesian_com(grid)
    assert weights.sum() == pytest.approx(com_w.sum(), rel=1e-14)
    for node, weight in zip(nodes, weights):
        (full,) = np.flatnonzero(np.all(com_nodes == node, axis=1))
        assert weight == pytest.approx(com_w[full] * 2 ** np.count_nonzero(node), rel=1e-14)


def test_assembled_matrix_has_exact_class_zeros(hard_sphere_prod):
    assert np.all(hard_sphere_prod.matrix[_cross_class_mask(hard_sphere_prod.basis)] == 0.0)


def test_odd_azimuth_count_is_refused():
    with pytest.raises(AssemblyError, match="n_azimuth=7"):
        _CollisionGrid(CollisionQuadrature(3, 2, 3, 7), 1.0, 1.0)


def test_asymmetric_center_of_mass_rule_is_refused(monkeypatch):
    exact = collision.hermegauss

    def skewed(n):
        x, w = exact(n)
        return x + 1e-12 * np.arange(n), w

    monkeypatch.setattr(collision, "hermegauss", skewed)
    with pytest.raises(AssemblyError, match="mirror-symmetric"):
        _CollisionGrid(CollisionQuadrature.for_degree(4), 1.0, 1.0)


def test_unknown_point_label_is_typed(basis_small):
    grid = _CollisionGrid(CollisionQuadrature.for_degree(4), 1.0, 1.0)
    with pytest.raises(AssemblyError, match="unknown point label"):
        one_point_integrals(basis_small, grid, (grid.eta, grid.eta_w), "w")


def test_raw_asymmetry_raises(basis_small, monkeypatch):
    monkeypatch.delenv("VPB_SPECTRAL_CACHE")
    exact = collision._pair_sums_and_reductions

    def perturbed(*args):
        acc, reduced = exact(*args)
        acc = acc.copy()
        acc[0, 1] += 1e-9 * np.max(np.abs(acc))
        return acc, reduced

    monkeypatch.setattr(collision, "_pair_sums_and_reductions", perturbed)
    with pytest.raises(AssemblyError, match="asymmetry"):
        assemble_collision(basis_small)


def test_invalid_kernel_parameters():
    with pytest.raises(AssemblyError):
        _CollisionGrid(CollisionQuadrature.for_degree(4), -0.5, 1.0)
    with pytest.raises(AssemblyError):
        _CollisionGrid(CollisionQuadrature.for_degree(4), 1.5, 1.0)
    with pytest.raises(AssemblyError):
        _CollisionGrid(CollisionQuadrature.for_degree(4), 1.0, 0.0)


@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=10, max_size=10))
def test_quadratic_form_nonpositive(c):
    op = assemble_collision(build_basis(2))
    f = np.array(c)
    assert f @ (op.matrix @ f) <= 1e-10 * max(1.0, float(f @ f))


def test_cache_roundtrip(tmp_path, basis_small, monkeypatch):
    monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(tmp_path))
    first = assemble_collision(basis_small, gamma=0.5)
    files = list(tmp_path.glob("L-*.vpbc"))
    assert len(files) == 1
    header, stored = read_matrix(files[0])
    assert header["params"]["gamma"] == 0.5
    assert np.array_equal(stored, first.radial)
    again = assemble_collision(basis_small, gamma=0.5)
    assert np.array_equal(again.radial, first.radial)


@pytest.mark.parametrize("size", [4, 12, 30])
def test_truncated_cache_entry_is_rebuilt(tmp_path, basis_small, monkeypatch, size):
    # cut inside the magic, the header length and the JSON header
    monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(tmp_path))
    fresh = assemble_collision(basis_small, gamma=0.7)
    (path,) = tmp_path.glob("L-*.vpbc")
    intact = path.read_bytes()
    path.write_bytes(intact[:size])
    with pytest.raises(VPBError):
        read_matrix(path)
    with pytest.warns(UserWarning, match="rebuilding"):
        again = assemble_collision(basis_small, gamma=0.7)
    assert np.array_equal(again.matrix, fresh.matrix)
    assert path.read_bytes() == intact
    assert list(tmp_path.iterdir()) == [path]


def test_non_finite_cache_entry_is_rebuilt(tmp_path, basis_small, monkeypatch):
    monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(tmp_path))
    fresh = assemble_collision(basis_small, gamma=0.7)
    (path,) = tmp_path.glob("L-*.vpbc")
    intact = path.read_bytes()
    header, stored = read_matrix(path)
    stored[1, 0, 0] = np.nan
    write_matrix(path, header, stored)
    with pytest.raises(VPBError, match="non-finite"):
        read_matrix(path)
    with pytest.warns(UserWarning, match="rebuilding"):
        again = assemble_collision(basis_small, gamma=0.7)
    assert np.array_equal(again.matrix, fresh.matrix)
    assert path.read_bytes() == intact


@pytest.mark.parametrize("entry, value", [((0, 0, 0), -0.3), ((2, 0, 1), 1e-3)])
def test_cache_entry_failing_the_collision_checks_is_rebuilt(tmp_path, basis_mid, monkeypatch,
                                                             entry, value):
    # finite, of the right shape and under the current header, but with a
    # density row that L does not annihilate, or an asymmetric radial block
    # whose upper triangle eigvalsh never reads
    monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(tmp_path))
    fresh = assemble_collision(basis_mid)
    (path,) = tmp_path.glob("L-*.vpbc")
    intact = path.read_bytes()
    header, stored = read_matrix(path)
    stored[entry] = value
    write_matrix(path, header, stored)
    with pytest.warns(UserWarning, match="fails the collision checks; rebuilding"):
        again = assemble_collision(basis_mid)
    assert np.array_equal(again.radial, fresh.radial)
    assert path.read_bytes() == intact


def test_sector_blocks_form_no_dense_streaming_matrix(monkeypatch):
    # both blocks are read off the radial blocks and the Burnett labels: no
    # read of the dense V1 or of the dense transform of the frames
    basis = build_basis(6)
    sectors = basis.axis_sectors
    reads = []
    for cls, name in ((VelocityBasis, "v1"), (type(sectors), "transform")):
        monkeypatch.setattr(cls, name, property(lambda self, _name=name: reads.append(_name)),
                            raising=False)
    blocks = synthetic_collision(basis).sector_blocks
    assert reads == []
    assert len(blocks.W) == len(sectors.spans)


def _old_params(basis):
    """Cache parameters as written before the reflection fold."""
    quad = CollisionQuadrature.for_degree(2 * basis.max_degree)
    return {"kind": "collision", "backend": "boltzmann", "gamma": 0.3, "kernel_c": 1.0,
            "basis": basis.descriptor(), "quad": quad.descriptor()}


def test_unfolded_cache_entry_is_never_read(tmp_path, basis_small, monkeypatch):
    monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(tmp_path))
    old = _old_params(basis_small)
    planted = np.full((basis_small.dim, basis_small.dim), 7.0)
    old_path = tmp_path / f"L-{key_hash(old)}.vpbc"
    write_matrix(old_path, {"params": old}, planted)
    planted_bytes = old_path.read_bytes()
    op = assemble_collision(basis_small, gamma=0.3)
    cross = _cross_class_mask(basis_small)
    assert np.all(op.matrix[cross] == 0.0)
    assert old_path.read_bytes() == planted_bytes
    (new_path,) = set(tmp_path.glob("L-*.vpbc")) - {old_path}
    header, stored = read_matrix(new_path)
    assert header["params"] == dict(old, fold=_FOLD_TAG)
    assert np.array_equal(stored, op.radial)


def _assert_rebuilt(tmp_path, basis, old):
    """An entry written under the parameters old is never read, under its own
    name or under the name the current parameters hash to."""
    old_path = tmp_path / f"L-{key_hash(old)}.vpbc"
    write_matrix(old_path, {"params": old}, np.full((basis.dim, basis.dim), 7.0))
    planted_bytes = old_path.read_bytes()
    fresh = assemble_collision(basis, gamma=0.3)
    assert np.all(fresh.matrix != 7.0)
    assert old_path.read_bytes() == planted_bytes
    (path,) = set(tmp_path.glob("L-*.vpbc")) - {old_path}
    write_matrix(path, {"params": old}, np.full_like(fresh.radial, 7.0))
    with pytest.warns(UserWarning, match="rebuilding"):
        again = assemble_collision(basis, gamma=0.3)
    assert np.array_equal(again.radial, fresh.radial)
    header, stored = read_matrix(path)
    assert header["params"] == dict(old, fold=_FOLD_TAG)
    assert np.array_equal(stored, fresh.radial)


def test_reflection_only_cache_entry_is_rebuilt(tmp_path, basis_small, monkeypatch):
    # an operator summed before the exchange fold
    monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(tmp_path))
    _assert_rebuilt(tmp_path, basis_small, dict(_old_params(basis_small), fold="reflection-v1"))


def test_scipy_rule_cache_entry_is_rebuilt(tmp_path, basis_small, monkeypatch):
    # an operator summed on scipy.special's factor rules
    monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(tmp_path))
    _assert_rebuilt(tmp_path, basis_small,
                    dict(_old_params(basis_small), fold="reflection-exchange-v1"))


def test_numpy_rule_cache_entry_is_rebuilt(tmp_path, basis_small, monkeypatch):
    # an operator summed over every basis function, before the Burnett reduction
    monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(tmp_path))
    _assert_rebuilt(tmp_path, basis_small,
                    dict(_old_params(basis_small), fold="reflection-exchange-numpy-rules-v1"))


def test_burnett_exchange_cache_entry_is_rebuilt(tmp_path, basis_small, monkeypatch):
    # an operator summed on the octant rule, before the axial fold
    monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(tmp_path))
    _assert_rebuilt(tmp_path, basis_small,
                    dict(_old_params(basis_small), fold="burnett-reflection-exchange-v1"))


def test_burnett_e3_cache_entry_is_rebuilt(tmp_path, basis_small, monkeypatch):
    # dense operators mapped back through the Burnett functions about e3, and
    # about e1 (assembled at the configured BLAS thread count)
    for fold in ("burnett-axisymmetric-v1", "burnett-axisymmetric-e1-v1"):
        root = tmp_path / fold
        root.mkdir()
        monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(root))
        _assert_rebuilt(root, basis_small, dict(_old_params(basis_small), fold=fold))


def test_dense_payload_under_current_parameters_is_rebuilt(tmp_path, basis_small,
                                                           monkeypatch):
    # a dim x dim payload under the current parameters and name is not a
    # stack of radial blocks
    monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(tmp_path))
    fresh = assemble_collision(basis_small, gamma=0.3)
    (path,) = tmp_path.glob("L-*.vpbc")
    header, _ = read_matrix(path)
    write_matrix(path, header, np.array(fresh.matrix))
    with pytest.warns(UserWarning, match="rebuilding"):
        again = assemble_collision(basis_small, gamma=0.3)
    assert np.array_equal(again.radial, fresh.radial)
    assert read_matrix(path)[1].shape == fresh.radial.shape


def test_unfolded_header_under_new_name_is_rebuilt(tmp_path, basis_small, monkeypatch):
    monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(tmp_path))
    fresh = assemble_collision(basis_small, gamma=0.3)
    (path,) = tmp_path.glob("L-*.vpbc")
    write_matrix(path, {"params": _old_params(basis_small)}, np.full_like(fresh.radial, 7.0))
    with pytest.warns(UserWarning, match="rebuilding"):
        again = assemble_collision(basis_small, gamma=0.3)
    assert np.array_equal(again.radial, fresh.radial)
    header, stored = read_matrix(path)
    assert header["params"]["fold"] == _FOLD_TAG
    assert np.array_equal(stored, fresh.radial)


def test_micro_solve(basis_small):
    op = synthetic_collision(basis_small, nu_bar=2.0)
    rhs = basis_small.micro_project(np.arange(basis_small.dim, dtype=float))
    x = micro_solve(op, rhs)
    assert np.allclose(op.matrix @ x, rhs)
    assert np.allclose(x, -rhs / 2.0)
    with pytest.raises(AssemblyError):
        micro_solve(op, basis_small.chi(0))


def test_synthetic_backend(basis_small):
    op = synthetic_collision(basis_small, nu_bar=1.5)
    assert op.spectral_gap() == pytest.approx(1.5)
    for k in range(5):
        assert np.linalg.norm(op.matrix @ basis_small.chi(k)) == 0.0
    with pytest.raises(BackendError):
        gamma_form(op)
    with pytest.raises(AssemblyError):
        synthetic_collision(basis_small, nu_bar=0.0)


@lru_cache(maxsize=None)
def _radial_operator(backend, degree):
    basis = build_basis(degree)
    return assemble_collision(basis) if backend == "hard-sphere" else synthetic_collision(
        basis, nu_bar=1.3)


RADIAL_CASES = pytest.mark.parametrize("backend, degree", [
    (backend, degree) for backend in ("hard-sphere", "synthetic") for degree in range(3, 9)])


@RADIAL_CASES
def test_transport_forms_match_the_dense_micro_solve(backend, degree):
    op = _radial_operator(backend, degree)
    fluxes = op.basis.fluxes[[0, 1, 3]].T
    ref = -np.einsum("ij,ij->j", micro_solve(op, fluxes), fluxes)
    assert np.max(np.abs(np.array(op.transport_forms) - ref) / ref) <= 1e-13


@RADIAL_CASES
def test_sector_blocks_are_the_frames_of_the_dense_view(backend, degree):
    op = _radial_operator(backend, degree)
    sectors = op.basis.axis_sectors
    scaled = (sectors.scale.conj()[:, None] * op.matrix * sectors.scale[None, :]).real
    blocks = sectors.transform.T @ scaled @ sectors.transform
    size = np.max(np.abs(blocks))
    for m, copies in enumerate(sectors.spans):
        for sl in copies:
            assert np.max(np.abs(op.sector_blocks.L[m] - blocks[sl, sl])) <= STRUCTURE_TOL * size


@RADIAL_CASES
def test_spectral_gap_matches_the_dense_view(backend, degree):
    op = _radial_operator(backend, degree)
    dense = np.sort(np.linalg.eigvalsh(-op.matrix))[5]
    assert op.spectral_gap() == pytest.approx(dense, rel=1e-12)


@pytest.fixture(scope="module")
def gamma_setup(basis_mid):
    op = assemble_collision(basis_mid)
    return basis_mid, op, gamma_form(op)


class TestGammaForm:
    def test_ties_to_collision_matrix(self, gamma_setup):
        basis, op, ge = gamma_setup
        rng = np.random.default_rng(11)
        f = rng.standard_normal(basis.dim)
        chi0 = basis.chi(0)
        res = ge.form_many([(f, chi0), (chi0, f)])
        assert np.max(np.abs(res[0] + res[1] - op.matrix @ f)) < 1e-11

    def test_output_is_microscopic(self, gamma_setup):
        basis, _, ge = gamma_setup
        rng = np.random.default_rng(12)
        out = ge.form(rng.standard_normal(basis.dim), rng.standard_normal(basis.dim))
        assert max(abs(out[i]) for i in basis.invariant_indices) < 1e-11

    def test_symmetric_and_bilinear(self, gamma_setup):
        basis, _, ge = gamma_setup
        rng = np.random.default_rng(13)
        f, g, h = rng.standard_normal((3, basis.dim))
        fg, gf, fh, combo = ge.form_many([(f, g), (g, f), (f, h), (f, 2.0 * g - 3.0 * h)])
        assert np.allclose(fg, gf, atol=1e-11)
        assert np.allclose(combo, 2.0 * fg - 3.0 * fh, atol=1e-10)
        z = ge.form(f + 1j * g, h)
        assert np.allclose(z, fh + 1j * ge.form(g, h), atol=1e-10)

    def test_momentum_pair_identity(self, gamma_setup):
        # product of two momentum modes relaxes through the microscopic part
        # of the velocity dyad: Gamma(v_i X0, v_j X0) = -L micro(v_i v_j X0)/2
        basis, op, ge = gamma_setup
        v_mats = multiplication_matrices(basis)
        chi0 = basis.chi(0)
        pairs, expected = [], []
        for i in range(3):
            for j in range(i, 3):
                pairs.append((v_mats[i] @ chi0, v_mats[j] @ chi0))
                expected.append(-0.5 * (op.matrix @ basis.micro_project(v_mats[i] @ (v_mats[j] @ chi0))))
        got = ge.form_many(pairs)
        assert np.max(np.abs(got - np.array(expected))) < 1e-11

    def test_evaluator_is_cached(self, gamma_setup):
        _, op, ge = gamma_setup
        assert gamma_form(op) is ge
