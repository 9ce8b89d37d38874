"""Dispersion determinants, resolvent entries, and branch tracking.

The dense eigensolver on the same truncation is the oracle throughout:
determinant roots, eigenpairs and asymptotic derivatives must all agree
with it, not with each other alone.
"""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from collision_reference import micro_blocks
from dispersion_reference import (
    _entries,
    dense_comparison,
    family_entries,
    eigenfunction_expansion_check,
    fd_branch_derivatives,
    resolvent_entry,
    solve_D0,
    solve_D1,
)
from hypothesis import given, strategies as st
from oracles import eigensystem, mode_operator, strip_eigensystem
from rotations import off_axis_matrix, pushforward_from_axis
from semigroup_reference import mode_norm

from vpb_spectral import dispersion
from vpb_spectral.collision import assemble_collision, synthetic_collision
from vpb_spectral.dispersion import (
    R0_DEFAULT,
    R1_DEFAULT,
    _Family,
    asymptotic_coefficients,
    hydrodynamic_sweep,
)
from vpb_spectral.errors import AssemblyError, BasisError, RegimeError
from vpb_spectral.limit_lab import radial_grid
from vpb_spectral.transport import branch_decay, branch_frequency, compute_kappas
from vpb_spectral.velocity_space import build_basis, weighted_norm


@pytest.fixture(scope="module")
def op_mid():
    return assemble_collision(build_basis(4))


@pytest.fixture(scope="module")
def op_small():
    return assemble_collision(build_basis(3))


class TestResolventEntries:
    def test_matches_transport_constants(self, hard_sphere_prod):
        coeffs = compute_kappas(hard_sphere_prod)
        assert resolvent_entry(hard_sphere_prod, 2, 2, 0.0, 0.0) == pytest.approx(
            -coeffs.kappa0, abs=1e-10)
        assert resolvent_entry(hard_sphere_prod, 4, 4, 0.0, 0.0) == pytest.approx(
            -coeffs.kappa1, abs=1e-10)
        assert resolvent_entry(hard_sphere_prod, 1, 1, 0.0, 0.0) == pytest.approx(
            -coeffs.kappa0_long, abs=1e-10)

    def test_conjugate_reflection(self, op_mid):
        beta, y = 0.05 - 0.02j, 0.3
        for j, k in ((1, 1), (2, 2), (4, 4), (1, 4), (4, 1)):
            direct = resolvent_entry(op_mid, j, k, np.conj(beta), -y)
            assert direct == pytest.approx(np.conj(resolvent_entry(op_mid, j, k, beta, y)),
                                           abs=1e-12)

    def test_follows_the_operator_matrix(self, op_mid):
        # (2L - 0.1i V)^-1 = (L - 0.05i V)^-1 / 2: the doubled operator must be
        # resolved with its own matrix, not blocks built for the original
        half = 0.5 * resolvent_entry(op_mid, 2, 2, 0.0, 0.05)
        doubled = dataclasses.replace(op_mid, radial=2 * op_mid.radial)
        assert resolvent_entry(doubled, 2, 2, 0.0, 0.1) == pytest.approx(half, rel=1e-12)

    def test_symmetric_in_indices(self, op_mid):
        beta, y = -0.03 + 0.01j, 0.2
        a = resolvent_entry(op_mid, 1, 4, beta, y)
        b = resolvent_entry(op_mid, 4, 1, beta, y)
        assert a == pytest.approx(b, abs=1e-12)

    def test_kappa_bar_is_the_largest_origin_entry(self, op_mid):
        vals = _entries(op_mid, 0.0, 0.0)[0]
        assert op_mid.kappa_bar == pytest.approx(np.max(np.abs(np.diag(vals))), rel=1e-12)
        assert op_mid.kappa_bar is op_mid.kappa_bar

    def test_invalid_indices(self, op_mid):
        with pytest.raises(ValueError):
            resolvent_entry(op_mid, 0, 2, 0.0, 0.0)

    @given(beta=st.floats(-0.5, 0.5), y=st.floats(-1.0, 1.0))
    def test_parity_structure(self, op_small, beta, y):
        # velocity reflection makes diagonal entries real and the
        # cross entry purely imaginary at real arguments
        for j, k in ((1, 1), (2, 2), (4, 4)):
            assert abs(resolvent_entry(op_small, j, k, beta, y).imag) < 1e-11
        assert abs(resolvent_entry(op_small, 1, 4, beta, y).real) < 1e-11


class TestShearDeterminant:
    def test_zero_wavenumber(self, op_mid):
        assert solve_D0(op_mid, 0.0, 0.1) == 0.0

    def test_real_and_even(self, op_mid):
        z = solve_D0(op_mid, 0.5, 0.2)
        assert z.imag == 0.0
        assert solve_D0(op_mid, -0.5, 0.2) == pytest.approx(z, abs=1e-13)

    def test_matches_dense_shear_eigenvalue(self, hard_sphere_prod):
        s, eps = 0.5, 0.1
        z = solve_D0(hard_sphere_prod, s, eps)
        mode = mode_operator(hard_sphere_prod, eps, np.array([s, 0.0, 0.0]))
        vals, _ = strip_eigensystem(mode)
        matches = [v for v in vals if abs(v - z) < 1e-8]
        assert len(matches) == 2  # doubly degenerate transverse pair

    def test_curvature_at_origin(self, hard_sphere_prod):
        coeffs = compute_kappas(hard_sphere_prod)
        fd = fd_branch_derivatives(hard_sphere_prod, 0.5)
        assert fd["shear_curvature"] == pytest.approx(-2.0 * coeffs.kappa0, rel=1e-4)

    def test_regime_guard(self, op_mid):
        with pytest.raises(RegimeError):
            solve_D0(op_mid, 2.0, 0.2)

    def test_pole_of_the_determinant_is_no_root(self, basis_mid):
        # Newton from 0 leaves the basin; the micro eigenvalue -nu_bar, a
        # pole of D, must not come back as the shear root
        op = synthetic_collision(basis_mid, nu_bar=0.1)
        with pytest.raises(RegimeError):
            solve_D0(op, 0.02 + 3 * 1.48 / 14, 0.2)

    def test_root_outside_the_basin_is_refused(self, basis_mid):
        # Newton converges to a real root near -0.1054, past R1_DEFAULT
        op = synthetic_collision(basis_mid, nu_bar=0.5)
        with pytest.raises(RegimeError, match="basin"):
            solve_D0(op, 0.02 + 11 * 1.48 / 14, 0.2)


class TestCoupledDeterminant:
    def test_eps_zero_exact_seeds(self, op_mid):
        roots = solve_D1(op_mid, 0.7, 0.0)
        for j in (-1, 0, 1):
            assert roots[j] == branch_frequency(j, 0.7)

    def test_roots_match_dense(self, hard_sphere_prod):
        s, eps = 0.5, 0.1
        roots = solve_D1(hard_sphere_prod, s, eps)
        mode = mode_operator(hard_sphere_prod, eps, np.array([s, 0.0, 0.0]))
        vals, _ = strip_eigensystem(mode)
        for j in (-1, 0, 1):
            lam = eps * roots[j]
            assert min(abs(vals - lam)) < 1e-8

    def test_conjugate_pairing(self, hard_sphere_prod):
        roots = solve_D1(hard_sphere_prod, 0.5, 0.1)
        assert roots[-1] == pytest.approx(np.conj(roots[1]), abs=1e-10)
        assert roots[0].imag == 0.0

    def test_eps_derivative_matches_decay_rates(self, hard_sphere_prod):
        coeffs = compute_kappas(hard_sphere_prod)
        fd = fd_branch_derivatives(hard_sphere_prod, 0.5)
        for j in (-1, 0, 1):
            assert fd["eps_slope"][j] == pytest.approx(-branch_decay(j, 0.5, coeffs),
                                                       rel=1e-4)

    def test_regime_guard(self, op_mid):
        with pytest.raises(RegimeError):
            solve_D1(op_mid, 2.0, 0.2)


AXIS_OPERATORS = ("synthetic-4", "synthetic-6", "hard-sphere-4")
# the families, by their azimuthal sector m
FAMILIES = (1, 0)
# the axis modes of a small sweep: three eps values at eight s values
SWEEP = [(eps, s) for eps in (0.2, 0.1, 0.05) for s in np.linspace(0.05, 0.6, 8)]


def family(op, y, m):
    """The sector-m family of the one mode (eps, s) = (y, 1)."""
    return _Family(op, y, 1.0, m)


def pole_sums(fam, beta):
    """The entries of the family's stack of one at beta and their
    d/dbeta, through the pole sums."""
    vals, ders = fam.pole_sums(np.array([0]), np.array([beta], dtype=complex))
    return vals[0], ders[0]


def certified(fam, beta):
    """The entries of the family's stack of one at beta, through the
    certification solve."""
    return fam.solve(np.array([0]), np.array([beta], dtype=complex))[0]


class TestPoleSums:
    @pytest.mark.parametrize("name", AXIS_OPERATORS)
    @given(y=st.floats(-R0_DEFAULT, R0_DEFAULT, exclude_min=True),
           re=st.floats(-R1_DEFAULT, R1_DEFAULT), im=st.floats(-1.2, 1.2))
    def test_entries_match_lu(self, axis_operators, name, y, re, im):
        # the root basins: real shear steps near 0 and coupled steps at
        # beta = eps*z near eps*eta_j, |eta_+-1| <= sqrt(1 + 5/3 R0^2 / eps^2)
        op = axis_operators[name]
        families = {m: family(op, y, m) for m in FAMILIES}
        for beta in (complex(re), complex(re, im)):
            refs = _entries(op, beta, y, derivative=True)
            for m in FAMILIES:
                for got, ref in zip(pole_sums(families[m], beta), refs):
                    ref = family_entries(ref, m)
                    assert np.all(np.abs(got - ref) <= 1e-12 * np.max(np.abs(ref))), m

    def test_certified_entries_are_the_lu_entries(self, op_mid):
        beta = -0.01 + 0.3j
        ref = _entries(op_mid, beta, 0.12)[0]
        for m in FAMILIES:
            got = certified(family(op_mid, 0.12, m), beta)
            assert got == pytest.approx(family_entries(ref, m), rel=1e-13)

    def test_block_resolvent_refuses_foreign_rhs(self):
        # a flux planted outside its family's cos frame is refused before any
        # root is sought: f_3 in place of f_2 lies in the sin copy of m = 1;
        # 1e-6 of an m = 2 vector added to f_1 lies on the slots of the
        # coupled block's class, the (even, even) one, but outside its m = 0
        # sector
        op = synthetic_collision(build_basis(4))  # a fresh basis, for the planted fluxes
        m2 = op.sector_blocks.micro[2][2][0]
        foreign = m2.embed(np.ones(m2.basis.shape[1]), op.basis.dim)
        assert set(np.flatnonzero(foreign)) <= set(op.sector_blocks.micro[0][2][0].index)
        exact = np.array(op.basis.fluxes, dtype=complex)
        for m, j, planted in ((1, 2, exact[2]), (0, 1, exact[0] + 1e-6 * foreign)):
            fluxes = exact.copy()
            fluxes[j - 1] = planted
            vars(op.basis)["fluxes"] = fluxes
            with pytest.raises(AssemblyError, match=f"flux f_{j} leaves the span"):
                _Family(op, 0.2, 0.5, m)

    def test_tiny_cond_limit_is_refused(self, hard_sphere_prod, monkeypatch):
        [points] = hydrodynamic_sweep(hard_sphere_prod, [(0.1, 0.5)])
        assert max(p.det_residual for p in points) <= 1e-10
        monkeypatch.setattr(dispersion, "POLE_COND_LIMIT", 1.0)
        with pytest.raises(RegimeError, match="POLE_COND_LIMIT"):
            hydrodynamic_sweep(hard_sphere_prod, [(0.1, 0.5)])

    def test_singular_eigenvectors_are_refused(self, op_mid, monkeypatch):
        exact = np.linalg.eig

        def singular(a):
            vals, vecs = exact(a)
            vecs = np.array(vecs)
            vecs[:, 0] = 0.0
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eig", singular)
        with pytest.raises(RegimeError, match="POLE_COND_LIMIT"):
            hydrodynamic_sweep(op_mid, [(0.1, 0.5)])

    def test_beta_on_a_micro_eigenvalue_is_a_regime_error(self, basis_mid):
        # the synthetic micro block is -nu_bar I, so A - beta is exactly zero
        op = synthetic_collision(basis_mid, nu_bar=2.0)
        with pytest.raises(RegimeError, match="singular"):
            _entries(op, -2.0, 0.0)
        for m in FAMILIES:
            with pytest.raises(RegimeError, match="singular"):
                certified(family(op, 0.0, m), -2.0)

    @pytest.mark.parametrize("y", [0.0, 0.1])
    def test_whole_block_eigenvalues_are_refused(self, op_mid, y):
        # a backward-stable solve keeps its residual small however near beta
        # is to the spectrum; only the spectral-distance guard refuses these
        blocks = micro_blocks(op_mid)
        mus = np.linalg.eigvals(blocks.L - 1j * y * blocks.V)
        assert mus.size == 30
        for mu in mus:
            with pytest.raises(RegimeError, match="RESOLVENT_BOUND_LIMIT"):
                _entries(op_mid, mu, y)

    def test_foreign_sector_eigenvalues_are_accepted(self, op_mid):
        # the fluxes have no component in the m = 2 sector, so its poles are
        # no poles of the families' entries
        lm, wm, _ = op_mid.sector_blocks.micro[2]
        mus = np.linalg.eigvals(lm + 0.1 * wm)
        assert mus.size == 4
        for m in FAMILIES:
            fam = family(op_mid, 0.1, m)
            for mu in mus:
                assert certified(fam, mu) == pytest.approx(pole_sums(fam, mu)[0], rel=1e-10)

    def test_family_eigenvalues_are_refused(self, op_mid):
        for m in FAMILIES:
            fam = family(op_mid, 0.1, m)
            for mu in fam.vals[0]:
                with pytest.raises(RegimeError, match="singular"):
                    certified(fam, mu)

    def test_stacked_solve_guards_every_root(self, op_mid):
        # a stack of roots over two members: each root is checked against
        # its own member's spectrum, wherever it sits in the stack, and the
        # accepted stack gives each member's own entries
        beta = -0.01 + 0.3j
        for m in FAMILIES:
            fam = _Family(op_mid, [0.12, 0.2], 1.0, m)
            stacked = fam.solve(np.array([0, 1, 1]), np.array([beta, beta, 0.5 * beta]))
            for got, (y, b) in zip(stacked, ((0.12, beta), (0.2, beta), (0.2, 0.5 * beta))):
                assert np.array_equal(got, certified(family(op_mid, y, m), b))
            for mu in fam.vals[1]:
                with pytest.raises(RegimeError, match="singular"):
                    fam.solve(np.array([0, 1]), np.array([beta, mu]))

    def test_colliding_roots_name_their_mode(self, op_mid, monkeypatch):
        # seeding branch 1 of one mode at branch -1's frequency makes both
        # roots converge to one; that mode alone is refused, by name
        exact = dispersion.branch_frequency
        monkeypatch.setattr(dispersion, "branch_frequency",
                            lambda j, x: exact(-1 if (j, x) == (1, 0.45) else j, x))
        with pytest.raises(RegimeError, match="roots collided at eps = 0.1, s = 0.45;"):
            hydrodynamic_sweep(op_mid, [(0.2, 0.3), (0.1, 0.45), (0.05, 0.6)])

    def test_one_refused_member_is_named(self, hard_sphere_prod, monkeypatch):
        # a limit at the largest member cond refuses that member alone, and
        # the refusal names its mode
        conds = sorted((c, m, mode) for m in FAMILIES
                       for c, mode in zip(_Family(hard_sphere_prod, *np.transpose(SWEEP),
                                                  m).cond, SWEEP))
        (second, *_), (worst, m, (eps, s)) = conds[-2:]
        assert second < worst
        monkeypatch.setattr(dispersion, "POLE_COND_LIMIT", worst)
        with pytest.raises(RegimeError, match=re.escape(
                f"micro m = {m} sector block at eps = {eps:.6g}, s = {s:.6g} has")):
            hydrodynamic_sweep(hard_sphere_prod, SWEEP)

    def test_one_certification_solve_per_family(self, hard_sphere_prod, monkeypatch):
        # every root of a family (one shear root, three coupled roots per
        # mode) is certified by one stacked solve, which also gives the branch
        # eigenfunctions; the inverse of each block's eigenvectors is part of
        # its decomposition and is not a solve call
        hard_sphere_prod.kappa_bar  # one solve per operator, not per sweep
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solves.append(a.shape) or solve(a, b))
        for modes in (SWEEP[:1], SWEEP):
            solves.clear()
            hydrodynamic_sweep(hard_sphere_prod, modes)
            assert solves == [(len(modes), 11, 11), (3 * len(modes), 13, 13)], solves

    def test_one_newton_per_family(self, hard_sphere_prod, monkeypatch):
        # each Newton step evaluates a determinant on every root of its family
        # at once, and the certificate once more: at most _MAX_ITER + 1 calls
        # of each determinant, whatever the number of modes
        calls = {}
        for name in ("_shear_det", "_coupled_det"):
            def spy(*args, name=name, det=getattr(dispersion, name)):
                calls[name] += 1
                return det(*args)
            monkeypatch.setattr(dispersion, name, spy)
        for modes in (SWEEP[:1], SWEEP):
            calls.update(_shear_det=0, _coupled_det=0)
            hydrodynamic_sweep(hard_sphere_prod, modes)
            assert all(2 <= n <= dispersion._MAX_ITER + 1 for n in calls.values()), calls

    def test_two_sector_eigs_per_sweep(self, hard_sphere_prod, monkeypatch):
        # the shear poles come from the micro m = 1 block, the coupled ones
        # from the micro m = 0 block, each one stack over every mode of the
        # sweep; nothing else is decomposed
        shapes = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(a.shape) or eig(a))
        for modes in (SWEEP[:1], SWEEP):
            shapes.clear()
            hydrodynamic_sweep(hard_sphere_prod, modes)
            assert shapes == [(len(modes), 11, 11), (len(modes), 13, 13)]

    @pytest.mark.parametrize("mode, error, match", [
        ((0.0, 0.5), RegimeError, "outside"),
        ((-0.1, 0.5), RegimeError, "outside"),
        ((1.5, 0.1), RegimeError, "outside"),
        ((math.nan, 0.5), RegimeError, "outside"),
        ((0.1, -0.5), BasisError, "positive and finite"),
        ((0.1, 0.0), BasisError, "nonzero"),
        ((0.1, math.nan), BasisError, "positive and finite"),
        ((0.1, math.inf), BasisError, "positive and finite"),
    ], ids=["eps-zero", "eps-negative", "eps-above-one", "eps-nan", "s-negative", "s-zero",
            "s-nan", "s-inf"])
    def test_modes_are_parsed_as_mode_operator_parses_them(self, op_mid, mode, error, match):
        # a zero eps gave five zero eigenvalues, a negative or large one and a
        # negative s plausible spectra, s = 0 a ZeroDivisionError and a NaN a
        # ValueError from the root families
        with pytest.raises(error, match=match):
            hydrodynamic_sweep(op_mid, [(0.1, 0.3), mode])
        with pytest.raises(error, match=match):
            mode_operator(op_mid, *mode)

    def test_empty_sweep_has_no_points(self, op_mid):
        # a sweep whose modes all lie outside the ball is empty, not an error
        assert hydrodynamic_sweep(op_mid, []) == []

    @pytest.mark.parametrize("name", ["hard-sphere-4", "synthetic-6"])
    def test_sweep_matches_the_stack_of_one(self, axis_operators, name):
        op = axis_operators[name]
        for (eps, s), points in zip(SWEEP, hydrodynamic_sweep(op, SWEEP)):
            [one] = hydrodynamic_sweep(op, [(eps, s)])
            for p, q in zip(points, one):
                assert (p.branch, p.s, p.eps) == (q.branch, q.s, q.eps)
                for got, ref in ((p.lam, q.lam), (p.z, q.z), (p.det_residual, q.det_residual),
                                 (p.eig_residual, q.eig_residual)):
                    assert abs(got - ref) <= 1e-13 * abs(ref)
                assert np.max(np.abs(p.psi - q.psi)) <= 1e-13 * np.max(np.abs(q.psi))


class TestSweepMemory:
    # the modes of the dispersion benchmark: three eps values at eight
    # Legendre nodes on [0.05, 0.6]
    MODES = [(eps, float(s)) for eps in (0.2, 0.1, 0.05)
             for s in radial_grid(0.05, 0.6, 8, "legendre").nodes]

    @pytest.fixture(scope="class")
    def hard_sphere_d8(self):
        op = assemble_collision(build_basis(8))
        hydrodynamic_sweep(op, self.MODES[:1])  # frames, sector blocks, kappa_bar
        return op

    def test_sweep_peak_is_a_few_eigenfunction_stacks(self, hard_sphere_d8):
        # the sweep holds each stacked array only until its last use, so its
        # traced peak stays within 8 copies of the (modes, 5, dim) complex
        # eigenfunctions it returns
        tracemalloc.start()
        try:
            hydrodynamic_sweep(hard_sphere_d8, self.MODES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        unit = len(self.MODES) * 5 * hard_sphere_d8.basis.dim * 16
        assert peak <= 8 * unit, peak / unit

    @pytest.mark.parametrize("m", FAMILIES)
    def test_no_complex_block_stack_outlives_a_solve(self, hard_sphere_d8, m):
        # after a stacked solve over three roots per mode, no attribute of
        # the family holds as many complex entries as the shifted blocks
        # (B_r - beta_r) it solved with
        eps, s = np.transpose(self.MODES)
        fam = _Family(hard_sphere_d8, eps, s, m)
        members = np.repeat(np.arange(len(eps)), 3)
        fam.solve(members, np.tile([-0.05j, 0.0, 0.05j], len(eps)))
        n = fam.g.shape[0]
        for name, value in vars(fam).items():
            if isinstance(value, np.ndarray) and np.iscomplexobj(value):
                assert value.size < members.size * n * n, name


class TestHydrodynamicSpectrum:
    def test_axis_branches(self, hard_sphere_prod):
        mode = mode_operator(hard_sphere_prod, 0.1, np.array([0.5, 0.0, 0.0]))
        [points] = hydrodynamic_sweep(hard_sphere_prod, [(0.1, 0.5)])
        assert [p.branch for p in points] == [-1, 0, 1, 2, 3]
        for p in points:
            assert p.lam.real < 0.0
            assert p.det_residual <= 1e-10
            assert p.eig_residual <= 1e-8
            pair = mode.pair(p.psi, p.psi)
            assert abs(pair - 1.0) <= 1e-10
        # transverse double branch
        assert points[3].lam == points[4].lam
        # distinct branches are orthogonal in the conjugation-free pairing
        for a in points:
            for b in points:
                if a.branch != b.branch:
                    assert abs(mode.pair(a.psi, b.psi)) < 1e-8

    def test_off_axis_pushforward(self, hard_sphere_prod):
        # the axis eigenpairs, pushed forward by the velocity rotation, are
        # eigenpairs of the dense mode matrix at s * d
        s, eps = 0.4, 0.1
        d = np.array([1.0, 2.0, 2.0]) / 3.0
        basis = hard_sphere_prod.basis
        tilted = off_axis_matrix(hard_sphere_prod, eps, s * d)
        [points] = hydrodynamic_sweep(hard_sphere_prod, [(eps, s)])
        psi = pushforward_from_axis(basis, d) @ np.stack([p.psi for p in points], axis=1)
        lam = np.array([p.lam for p in points])
        dense = np.linalg.eigvals(tilted)
        assert np.max(np.min(np.abs(lam[:, None] - dense[None, :]), axis=1)) <= 1e-12
        for k in range(5):
            r = tilted @ psi[:, k] - lam[k] * psi[:, k]
            assert weighted_norm(basis, r, s) <= 1e-8 * weighted_norm(basis, psi[:, k], s)

    def test_dense_grid_consistency(self, op_mid):
        for s in (0.2, 0.6, 1.0):
            for eps in (0.05, 0.2):
                if eps * s > 0.3:
                    continue
                mode = mode_operator(op_mid, eps, np.array([s, 0.0, 0.0]))
                [points] = hydrodynamic_sweep(op_mid, [(eps, s)])
                report = dense_comparison(mode, points)
                assert report["max_mismatch"] <= 1e-8
                assert report["max_other_real"] < 0.0

    def test_plasma_oscillation_limit(self, op_mid):
        # as s -> 0 the acoustic pair oscillates at the plasma frequency
        [points] = hydrodynamic_sweep(op_mid, [(0.1, 0.05)])
        lam_plus = next(p.lam for p in points if p.branch == 1)
        assert abs(lam_plus / 0.1 - 1j) < 0.01

    def test_regime_rejection(self, op_mid):
        with pytest.raises(RegimeError):
            hydrodynamic_sweep(op_mid, [(0.5, 1.0)])

    def test_gap_outside_ball(self, op_mid):
        # even outside the asymptotic ball the spectrum stays strictly damped
        tops = []
        for s, eps in ((1.0, 0.4), (1.5, 0.4), (2.0, 0.5)):
            mode = mode_operator(op_mid, eps, np.array([s, 0.0, 0.0]))
            vals = eigensystem(mode)[0]
            tops.append(float(vals.real.max()))
        assert max(tops) < -1e-3


class TestEigenfunctionExpansion:
    @pytest.mark.parametrize("branch", [0, 1, 2])
    def test_expansion_orders(self, op_mid, branch):
        bp = next(p for p in hydrodynamic_sweep(op_mid, [(0.16, 0.5)])[0] if p.branch == branch)
        rep = eigenfunction_expansion_check(op_mid, bp)
        assert rep["macro_slope"] >= 0.9
        assert rep["micro_slope"] >= 1.8
        quads = [abs(q - 1.0) for q in rep["quad_norms"]]
        assert quads[-1] < 1e-3
        assert quads[-1] < quads[0]


class TestAsymptoticCoefficients:
    def test_limit_vectors_orthonormal(self, op_mid):
        coeffs = compute_kappas(op_mid)
        basis = op_mid.basis
        for xi in (np.array([0.5, 0.0, 0.0]), 1.3):
            bundle = asymptotic_coefficients(basis, xi, coeffs)
            s = bundle.s
            i0 = basis.invariant_indices[0]

            def pair(f, g):
                return f @ g + f[i0] * g[i0] / s**2

            for j in (-1, 0, 1, 2, 3):
                for k in (-1, 0, 1, 2, 3):
                    expected = 1.0 if j == k else 0.0
                    assert pair(bundle.h[j], bundle.h[k]) == pytest.approx(
                        expected, abs=1e-12)

    def test_limit_vectors_are_drift_eigenvectors(self, op_mid):
        # the macro block of (B - L)/eps is the drift-plus-field generator;
        # h_j must be its eigenvector with eigenvalue eta_j
        coeffs = compute_kappas(op_mid)
        basis = op_mid.basis
        # on the axis, and off it with the axis h_j pushed forward
        eps = 0.07
        macro_idx = np.array(basis.invariant_indices)
        for xi in (np.array([1.3, 0.0, 0.0]), np.array([0.3, -0.4, 1.2])):
            s = float(np.linalg.norm(xi))
            bundle = asymptotic_coefficients(basis, s, coeffs)
            push = pushforward_from_axis(basis, xi / s)
            mat = off_axis_matrix(op_mid, eps, xi)
            drift = (mat - op_mid.matrix)[np.ix_(macro_idx, macro_idx)] / eps
            for j in (-1, 0, 1, 2, 3):
                hj = (push @ bundle.h[j])[macro_idx]
                assert np.linalg.norm(drift @ hj - bundle.eta[j] * hj) < 1e-12

    def test_axis_limit_of_macro_parts(self, op_mid):
        # leading macro part of each eigenfunction is the limit vector
        coeffs = compute_kappas(op_mid)
        basis = op_mid.basis
        s, eps = 0.5, 0.01
        bundle = asymptotic_coefficients(basis, s, coeffs)
        mode = mode_operator(op_mid, eps, np.array([s, 0.0, 0.0]))
        for p in hydrodynamic_sweep(op_mid, [(eps, s)])[0]:
            macro = basis.macro_project(p.psi)
            assert mode_norm(mode, macro - bundle.h[p.branch]) < 5.0 * eps * s
