"""Transport coefficients: explicit inversions, isotropy, truncation study,
and the dense-spectrum curvature cross-check.

Pinned hard-sphere values come from scripts/oracle_transport.py, which reads
the coefficients off Richardson-extrapolated branch curvatures of the full
mode operator and never touches the micro-space solver under test here.
"""

import dataclasses

import numpy as np
import pytest
from collision_reference import micro_solve
from hypothesis import given, strategies as st
from transport_reference import crosscheck_b2

from vpb_spectral.collision import _blocks, assemble_collision, synthetic_collision
from vpb_spectral.errors import AssemblyError, BasisError, RegimeError
from vpb_spectral.transport import (
    BRANCHES,
    TransportCoefficients,
    asymptotic_eigenvalue,
    branch_decay,
    branch_frequency,
    compute_kappas,
    kappas_with_error,
)
from vpb_spectral.velocity_space import _multiplication_matrix, build_basis, flux_vector

# oracle values, degree 6 hard sphere (see module docstring)
KAPPA0_ORACLE = 0.089554422334
KAPPA1_ORACLE = 0.225395341656

SYNTH_COEFFS = TransportCoefficients(kappa0=1.0, kappa1=5.0 / 3.0, kappa0_long=4.0 / 3.0,
                                     backend="synthetic", max_degree=4, basis_hash="n/a")


def test_synthetic_explicit_inversion(synthetic_prod):
    coeffs = compute_kappas(synthetic_prod)
    # relaxation backend inverts to -1/nu_bar on the micro space, so each
    # kappa is the squared norm of its flux vector (nu_bar = 1 here)
    assert abs(coeffs.kappa0 - 1.0) < 1e-12
    assert abs(coeffs.kappa1 - 5.0 / 3.0) < 1e-12
    assert abs(coeffs.kappa0_long - 4.0 / 3.0) < 1e-12
    assert coeffs.backend == "synthetic"


def test_degree_two_rejected(basis_small):
    op = synthetic_collision(basis_small)
    # the heat flux vector is identically zero on a degree-2 basis
    assert np.linalg.norm(flux_vector(basis_small, 4)) == 0.0
    with pytest.raises(BasisError):
        compute_kappas(op)


def test_hard_sphere_values_match_curvature_oracle(hard_sphere_prod):
    coeffs = compute_kappas(hard_sphere_prod)
    assert coeffs.kappa0 == pytest.approx(KAPPA0_ORACLE, rel=1e-6)
    assert coeffs.kappa1 == pytest.approx(KAPPA1_ORACLE, rel=1e-6)
    assert coeffs.kappa0 > 0 and coeffs.kappa1 > 0 and coeffs.kappa0_long > 0
    assert coeffs.backend == "boltzmann"
    assert coeffs.max_degree == 6
    assert coeffs.basis_hash == hard_sphere_prod.basis.descriptor_hash()
    assert coeffs.error_bar is None


def test_determinism(hard_sphere_prod):
    a = compute_kappas(hard_sphere_prod)
    b = compute_kappas(hard_sphere_prod)
    c = compute_kappas(assemble_collision(hard_sphere_prod.basis))  # cache round trip
    for x, y in ((a, b), (a, c)):
        assert abs(x.kappa0 - y.kappa0) <= 1e-12
        assert abs(x.kappa1 - y.kappa1) <= 1e-12
        assert abs(x.kappa0_long - y.kappa0_long) <= 1e-12


def test_isotropy(hard_sphere_prod):
    op = hard_sphere_prod
    basis = op.basis
    v1, v2, v3 = (_multiplication_matrix(basis, k) for k in range(3))

    def form(mat, k):
        x = basis.micro_project(mat @ basis.chi(k))
        return -float(np.dot(micro_solve(op, x), x))

    # v2*chi1 and v1*chi2 are the same vector; equality must be exact
    assert form(v2, 1) == form(v1, 2)
    # genuinely rotated stress components
    assert abs(form(v1, 2) - form(v2, 3)) < 1e-10
    assert abs(form(v1, 1) - form(v2, 2)) < 1e-10


def test_longitudinal_ratio(hard_sphere_prod):
    # rotation invariance fixes the diagonal/off-diagonal stress ratio at 4/3
    coeffs = compute_kappas(hard_sphere_prod)
    assert coeffs.kappa0_long == pytest.approx(4.0 / 3.0 * coeffs.kappa0, rel=1e-10)


def test_truncation_cauchy(hard_sphere_prod, basis_mid, basis_small):
    op4 = assemble_collision(basis_mid)
    op2 = assemble_collision(basis_small)
    c6 = compute_kappas(hard_sphere_prod)
    c4 = compute_kappas(op4)
    # degree 2 supports the shear flux but not the heat flux
    x2 = flux_vector(basis_small, 2)
    kappa0_deg2 = -float(np.dot(micro_solve(op2, x2), x2))
    assert abs(c6.kappa0 - c4.kappa0) < abs(c4.kappa0 - kappa0_deg2)
    assert abs(c6.kappa1 - c4.kappa1) < abs(c4.kappa1 - 0.0)


def test_kappas_with_error():
    # one assembly at degree 5; the coarse level is its degree-3 truncation
    coeffs = kappas_with_error(3)
    assert coeffs.max_degree == 5
    op = assemble_collision(build_basis(5))
    fine = compute_kappas(op)
    assert (coeffs.kappa0, coeffs.kappa1, coeffs.kappa0_long, coeffs.basis_hash) == (
        fine.kappa0, fine.kappa1, fine.kappa0_long, fine.basis_hash)
    long3, kappa0_3, kappa1_3 = op.truncated_transport_forms(3)
    assert coeffs.error_bar == max(abs(fine.kappa0 - kappa0_3), abs(fine.kappa1 - kappa1_3),
                                   abs(fine.kappa0_long - long3))
    assert coeffs.error_bar > 0
    # the bar against a second, direct degree-3 assembly, at roundoff
    coarse = compute_kappas(assemble_collision(build_basis(3)))
    two_assemblies = max(abs(fine.kappa0 - coarse.kappa0), abs(fine.kappa1 - coarse.kappa1),
                         abs(fine.kappa0_long - coarse.kappa0_long))
    assert abs(coeffs.error_bar - two_assemblies) <= 1e-14


@pytest.mark.parametrize("degree", [3, 4, 6])
def test_truncation_is_the_direct_assembly(degree):
    # the Burnett basis is hierarchical and each assembly exact, so the
    # degree-N blocks are the leading squares of the degree-(N+2) ones
    fine = assemble_collision(build_basis(degree + 2))
    direct = assemble_collision(build_basis(degree))
    scale = np.max(np.abs(direct.radial))
    cut = _blocks(fine.radial[:degree + 1])
    assert [b.shape for b in cut] == [b.shape for b in _blocks(direct.radial)]
    for got, ref in zip(cut, _blocks(direct.radial)):
        assert np.max(np.abs(got - ref)) <= 1e-14 * scale
    got, ref = np.array(fine.truncated_transport_forms(degree)), np.array(direct.transport_forms)
    assert np.max(np.abs(got - ref) / ref) <= 1e-14
    # at the operator's own degree the truncation is the operator
    assert fine.truncated_transport_forms(degree + 2) == fine.transport_forms


@pytest.mark.parametrize("entries, match", [
    ({(1, 0, 0): np.nan}, "non-finite"),
    ({(0, 1, 2): 0.5, (0, 2, 1): 0.5}, r"invariant \(l, n\) = \(0, 1\) not annihilated"),
    ({(3, 0, 0): 1.0}, "not negative semidefinite"),
    ({(2, 0, k): 0.0 for k in range(4)} | {(2, k, 0): 0.0 for k in range(4)}, "spectral gap"),
])
def test_truncation_keeps_the_assembly_checks(hard_sphere_prod, entries, match):
    # each entry lies inside the degree-4 blocks of the degree-6 operator
    radial = np.array(hard_sphere_prod.radial)
    for index, value in entries.items():
        radial[index] = value
    broken = dataclasses.replace(hard_sphere_prod, radial=radial)
    with pytest.raises(AssemblyError, match=match):
        broken.truncated_transport_forms(4)


@pytest.mark.parametrize("degree", [2, 7])
def test_truncation_degree_outside_the_basis_is_refused(hard_sphere_prod, degree):
    with pytest.raises(ValueError, match="outside"):
        hard_sphere_prod.truncated_transport_forms(degree)


def test_branch_formula_properties():
    coeffs = SYNTH_COEFFS
    for j in BRANCHES:
        assert branch_decay(j, 0.0, coeffs) == 0.0
        assert branch_frequency(j, 0.7).real == 0.0
    # shear decay over s^2 is the viscosity, identically in s
    for s in (0.1, 0.5, 1.3):
        assert branch_decay(2, s, coeffs) / s**2 == pytest.approx(coeffs.kappa0, abs=1e-15)
        assert branch_decay(3, s, coeffs) == branch_decay(2, s, coeffs)
        rem = branch_decay(1, s, coeffs) - 0.5 * s**2 * coeffs.kappa0_long
        assert rem == pytest.approx(s**4 * coeffs.kappa1 / (3.0 + 5.0 * s**2), rel=1e-14)
    assert branch_frequency(1, 0.4) == -branch_frequency(-1, 0.4)
    assert branch_frequency(1, 0.4).imag == pytest.approx(np.sqrt(1 + 5 / 3 * 0.16))
    with pytest.raises(ValueError):
        branch_frequency(4, 0.1)
    with pytest.raises(ValueError):
        branch_decay(5, 0.1, coeffs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_wavenumber_or_eps_is_a_typed_error(bad):
    # each of these returned a non-finite value with no error: the branch
    # formulas at a NaN or infinite s, and the asymptotic eigenvalue at a
    # NaN or infinite eps
    for j in BRANCHES:
        with pytest.raises(BasisError, match="finite"):
            branch_frequency(j, bad)
        with pytest.raises(BasisError, match="finite"):
            branch_decay(j, bad, SYNTH_COEFFS)
        with pytest.raises(BasisError, match="finite"):
            asymptotic_eigenvalue(j, bad, 0.1, SYNTH_COEFFS)
        with pytest.raises(RegimeError, match="finite"):
            asymptotic_eigenvalue(j, 0.5, bad, SYNTH_COEFFS)
        # a stack of shells is refused for one bad entry
        with pytest.raises(BasisError, match="finite"):
            branch_decay(j, np.array([0.2, bad]), SYNTH_COEFFS)
        with pytest.raises(BasisError, match="finite"):
            branch_frequency(j, np.array([0.2, bad]))


@given(s=st.floats(0.01, 5.0), eps=st.floats(0.001, 0.3))
def test_asymptotic_eigenvalues_damped(s, eps):
    for j in BRANCHES:
        lam = asymptotic_eigenvalue(j, s, eps, SYNTH_COEFFS)
        assert lam.real < 0.0
        assert branch_decay(j, s, SYNTH_COEFFS) > 0.0


def test_crosscheck_hard_sphere(hard_sphere_prod):
    coeffs = compute_kappas(hard_sphere_prod)
    report = crosscheck_b2(hard_sphere_prod, coeffs, [0.3, 0.7], eps=0.05)
    assert report["passed"], report["max_rel_err"]
    assert report["max_rel_err"] <= 1e-3
    shear = [r["measured"] / r["s"] ** 2 for r in report["rows"] if r["branch"] == 2]
    # measured shear curvature over s^2 is flat across the grid
    assert max(shear) - min(shear) <= 1e-3 * coeffs.kappa0


def test_crosscheck_synthetic(synthetic_prod):
    coeffs = compute_kappas(synthetic_prod)
    report = crosscheck_b2(synthetic_prod, coeffs, [0.4], eps=0.04)
    # extraction residual is the next even order, ~eps^4 relative
    assert report["max_rel_err"] <= 5e-6


def test_positivity_guard(basis_mid):
    op = synthetic_collision(basis_mid, nu_bar=2.5)
    coeffs = compute_kappas(op)
    assert coeffs.kappa0 == pytest.approx(1.0 / 2.5, rel=1e-12)
    assert coeffs.kappa1 == pytest.approx(5.0 / 7.5, rel=1e-12)
