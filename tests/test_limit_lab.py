"""Radial synthesis, initial-data preparation, layer diagnostics, and the
kinetic-to-fluid convergence study.

Frozen oracle values (scripts/oracle_limits.py, adaptive quadrature of the
radial integrand on [0.05, 0.6], Gaussian profile sigma = 0.2):
    plain shell norm      1.217924292761e-01
    weighted shell norm   5.170834648429e-01
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vpb_spectral.collision import assemble_collision, synthetic_collision
from vpb_spectral.dispersion import asymptotic_coefficients
from vpb_spectral.errors import AssemblyError, DataError, FitError, RegimeError
from vpb_spectral.limit_lab import (
    ErrorTable,
    InitialData,
    _shell_errors,
    hilbert_expansion_check,
    layer_bump_ratio,
    layer_frequency,
    layer_time_grid,
    make_initial_data,
    oscillation_part,
    radial_grid,
    run_convergence_study,
    synth_norm_LinfP,
    weighted_sup,
)
from vpb_spectral.mode_operator import mode_operator
from vpb_spectral.semigroup import closed_fluid_forms, propagate_kinetic
from vpb_spectral.transport import compute_kappas
from vpb_spectral.velocity_space import bilinear_pair, build_basis, weighted_norm

SIGMA = 0.2


def gauss_profile(s: float) -> float:
    return math.exp(-s * s / (2.0 * SIGMA * SIGMA))


@pytest.fixture(scope="module")
def syn_small():
    return synthetic_collision(build_basis(3))


@pytest.fixture(scope="module")
def coeffs_small(syn_small):
    return compute_kappas(syn_small)


@pytest.fixture(scope="module")
def grid16():
    return radial_grid(0.05, 0.6, 16)


@pytest.fixture(scope="module")
def wp_data(syn_small, grid16):
    return make_initial_data("well_prepared", gauss_profile, syn_small.basis, grid16)


@pytest.fixture(scope="module")
def gen_data(syn_small, grid16):
    return make_initial_data("generic", gauss_profile, syn_small.basis, grid16)


class TestRadialGrid:
    def test_legendre_nodes_and_weights(self):
        g = radial_grid(0.05, 0.6, 16)
        assert np.all(g.nodes > 0.05) and np.all(g.nodes < 0.6)
        assert np.all(g.weights > 0)
        assert np.sum(g.weights) == pytest.approx(0.55, abs=1e-14)

    def test_uniform_weights_sum_to_span(self):
        g = radial_grid(0.1, 0.9, 9, spacing="uniform")
        assert np.sum(g.weights) == pytest.approx(0.8, abs=1e-14)
        assert g.nodes[0] == 0.1 and g.nodes[-1] == 0.9

    def test_refined_doubles_count(self):
        g = radial_grid(0.05, 0.6, 8)
        f = g.refined()
        assert f.count == 16
        assert (f.s_min, f.s_max, f.spacing) == (g.s_min, g.s_max, g.spacing)

    def test_rejects_zero_mode_and_bad_spans(self):
        with pytest.raises(DataError):
            radial_grid(0.0, 0.6, 8)
        with pytest.raises(DataError):
            radial_grid(0.3, 0.2, 8)
        with pytest.raises(DataError):
            radial_grid(0.05, 0.6, 8, spacing="chebyshev")

    @given(count=st.integers(2, 40), lo=st.floats(0.01, 0.5))
    def test_weight_sum_property(self, count, lo):
        g = radial_grid(lo, lo + 0.7, count)
        assert np.sum(g.weights) == pytest.approx(0.7, rel=1e-12)


class TestSynthNorm:
    def test_zero_field(self, syn_small, grid16):
        fld = np.zeros((grid16.count, syn_small.basis.dim), dtype=complex)
        assert synth_norm_LinfP(syn_small.basis, grid16, fld) == 0.0

    def test_single_shell(self, syn_small, grid16):
        basis = syn_small.basis
        fld = np.zeros((grid16.count, basis.dim), dtype=complex)
        fld[5] = basis.chi(3)
        expected = 4.0 * math.pi * grid16.nodes[5] ** 2 * grid16.weights[5]
        assert synth_norm_LinfP(basis, grid16, fld) == pytest.approx(expected, rel=1e-14)

    def test_matches_adaptive_quadrature_oracle(self, syn_small, grid16):
        basis = syn_small.basis
        fld = np.array([gauss_profile(s) * basis.chi(2) for s in grid16.nodes],
                       dtype=complex)
        assert synth_norm_LinfP(basis, grid16, fld) == pytest.approx(
            1.217924292761e-01, rel=1e-11)
        fld_w = np.array([gauss_profile(s) * (basis.chi(0) + basis.chi(2))
                          for s in grid16.nodes], dtype=complex)
        assert synth_norm_LinfP(basis, grid16, fld_w) == pytest.approx(
            5.170834648429e-01, rel=1e-11)

    def test_refinement_moves_smooth_profile_under_one_percent(self, syn_small):
        basis = syn_small.basis
        vals = {}
        for count in (16, 32):
            g = radial_grid(0.05, 0.6, count)
            fld = np.array([gauss_profile(s) * basis.chi(2) for s in g.nodes],
                           dtype=complex)
            vals[count] = synth_norm_LinfP(basis, g, fld)
        assert abs(vals[32] - vals[16]) / vals[16] < 0.01

    def test_coarse_grid_warns(self, syn_small):
        basis = syn_small.basis
        g = radial_grid(0.05, 0.6, 2, spacing="uniform")

        def narrow(s):
            return math.exp(-((s - 0.3) / 0.05) ** 2) * basis.chi(2)

        fld = np.array([narrow(s) for s in g.nodes], dtype=complex)
        with pytest.warns(UserWarning, match="too coarse"):
            synth_norm_LinfP(basis, g, fld, field_fn=narrow)

    def test_shape_mismatch_rejected(self, syn_small, grid16):
        with pytest.raises(DataError):
            synth_norm_LinfP(syn_small.basis, grid16,
                             np.zeros((3, syn_small.basis.dim)))


class TestInitialData:
    def test_well_prepared_invariants(self, syn_small, grid16, wp_data, coeffs_small):
        basis = syn_small.basis
        i0, i1, _, _, i4 = basis.invariant_indices
        for k, s in enumerate(grid16.nodes):
            vec = wp_data.profile[k]
            assert np.linalg.norm(basis.micro_project(vec)) <= 1e-12
            assert abs(s * vec[i1]) <= 1e-12
            assert abs(vec[i0] + vec[i0] / s ** 2
                       + math.sqrt(2.0 / 3.0) * vec[i4]) <= 1e-12
            bundle = asymptotic_coefficients(basis, float(s), coeffs_small)
            for j in (-1, 1):
                assert abs(bilinear_pair(basis, vec, bundle.h[j], float(s))) <= 1e-12

    def test_generic_has_micro_and_acoustic_content(self, syn_small, grid16,
                                                    gen_data, coeffs_small):
        basis = syn_small.basis
        micro = max(np.linalg.norm(basis.micro_project(v)) for v in gen_data.profile)
        assert micro > 0.01
        s = float(grid16.nodes[4])
        bundle = asymptotic_coefficients(basis, s, coeffs_small)
        pairing = bilinear_pair(basis, gen_data.profile[4], bundle.h[1], s)
        assert abs(pairing) > 0.01

    def test_unknown_kind_rejected(self, syn_small, grid16):
        with pytest.raises(DataError):
            make_initial_data("prepared", gauss_profile, syn_small.basis, grid16)

    def test_incompatible_override_rejected_with_repair(self, syn_small, grid16):
        def raw(s):
            return (0.3, [0.2, 0.1, 0.0], -0.5)

        with pytest.raises(DataError) as err:
            make_initial_data("well_prepared", gauss_profile, syn_small.basis,
                              grid16, macro_profile=raw, auto_correct=False)
        sug = err.value.suggestion
        s0 = float(grid16.nodes[0])
        n_fix, q_fix = sug["n_hat"], sug["q_hat"]
        assert abs(n_fix + n_fix / s0 ** 2 + math.sqrt(2.0 / 3.0) * q_fix) < 1e-12
        assert sug["m_hat"][0] == 0.0
        # repair preserves the driving combination
        w = -0.5 - math.sqrt(2.0 / 3.0) * 0.3
        assert abs((q_fix - math.sqrt(2.0 / 3.0) * n_fix) - w) < 1e-12

    def test_auto_correct_accepts_same_override(self, syn_small, grid16):
        data = make_initial_data("well_prepared", gauss_profile, syn_small.basis,
                                 grid16, macro_profile=lambda s: (0.3, [0.2, 0.1, 0.0], -0.5))
        assert data.kind == "well_prepared"

    @given(amp=st.floats(0.1, 2.0), sigma=st.floats(0.1, 0.5))
    def test_preparation_property(self, amp, sigma):
        basis = build_basis(2)
        grid = radial_grid(0.05, 0.6, 6)
        data = make_initial_data(
            "well_prepared", lambda s: amp * math.exp(-s * s / (2 * sigma * sigma)),
            basis, grid)
        i0, i1, _, _, i4 = basis.invariant_indices
        for k, s in enumerate(grid.nodes):
            vec = data.profile[k]
            assert abs(s * vec[i1]) <= 1e-12 * amp
            assert abs(vec[i0] + vec[i0] / s ** 2
                       + math.sqrt(2.0 / 3.0) * vec[i4]) <= 1e-11 * amp


class TestOscillation:
    def test_well_prepared_part_vanishes(self, wp_data, coeffs_small):
        for t in (0.0, 0.7):
            osc = oscillation_part(wp_data, coeffs_small, t, 0.1)
            assert np.max(np.abs(osc)) < 1e-14

    def test_generic_part_present_at_zero(self, gen_data, coeffs_small):
        osc = oscillation_part(gen_data, coeffs_small, 0.0, 0.1)
        assert np.max(np.abs(osc)) > 0.1

    def test_envelope_decays_at_branch_rate(self, syn_small, gen_data, coeffs_small):
        basis = syn_small.basis
        k = 6
        s = float(gen_data.grid.nodes[k])
        bundle = asymptotic_coefficients(basis, s, coeffs_small)
        eps = 0.1
        t0, t1 = 0.4, 1.9
        c0 = bilinear_pair(basis, oscillation_part(gen_data, coeffs_small, t0, eps)[k],
                           bundle.h[1], s)
        c1 = bilinear_pair(basis, oscillation_part(gen_data, coeffs_small, t1, eps)[k],
                           bundle.h[1], s)
        assert abs(c1) == pytest.approx(abs(c0) * math.exp(-bundle.b[1] * (t1 - t0)),
                                        rel=1e-10)

    def test_decay_reads_kappa0_long(self, syn_small, gen_data, coeffs_small):
        # b_{+-1} depends on kappa0_long, so coefficient sets that differ only
        # there must give different layer fields
        other = dataclasses.replace(coeffs_small, kappa0_long=2.0 * coeffs_small.kappa0_long)
        t, eps, k = 1.0, 0.1, 6
        first = oscillation_part(gen_data, coeffs_small, t, eps)
        second = oscillation_part(gen_data, other, t, eps)
        basis = syn_small.basis
        s = float(gen_data.grid.nodes[k])
        bundle = asymptotic_coefficients(basis, s, other)
        c0 = bilinear_pair(basis, basis.macro_project(gen_data.profile[k]), bundle.h[1], s)
        c1 = bilinear_pair(basis, second[k], bundle.h[1], s)
        assert abs(c1) == pytest.approx(abs(c0) * math.exp(-bundle.b[1] * t), rel=1e-10)
        assert not np.allclose(first, second)

    def test_frequency_matches_plasma_dispersion(self, syn_small):
        # measured 0.125% off at this probe; the contract allows 5%
        eps, s = 0.1, 0.5
        freq = layer_frequency(syn_small, eps, s)
        target = math.sqrt(1.0 + (5.0 / 3.0) * s * s) / eps
        assert abs(freq - target) / target < 0.05


class TestTimeGrid:
    def test_layer_refinement(self):
        eps = 0.1
        tg = layer_time_grid(eps, 20.0)
        assert tg[0] == 0.0
        assert tg[-1] == pytest.approx(20.0)
        assert np.all(np.diff(tg) > 0)
        assert np.sum(tg < 10 * eps) >= 12

    def test_short_horizon_keeps_layer_inside(self):
        tg = layer_time_grid(0.2, 1.0)
        assert tg[-1] == pytest.approx(1.0)
        assert np.all(np.diff(tg) > 0)


STUDY_EPS = [0.2, 0.1, 0.05, 0.025]


@pytest.fixture(scope="module")
def wp_table(syn_small, wp_data, coeffs_small):
    tg = layer_time_grid(max(STUDY_EPS), 20.0)
    return run_convergence_study(syn_small, wp_data, STUDY_EPS, tg, coeffs_small)


@pytest.fixture(scope="module")
def gen_tables(syn_small, gen_data, coeffs_small):
    tg = layer_time_grid(max(STUDY_EPS), 20.0)
    plain = run_convergence_study(syn_small, gen_data, STUDY_EPS, tg, coeffs_small)
    sub = run_convergence_study(syn_small, gen_data, STUDY_EPS, tg, coeffs_small,
                                subtract_layer=True)
    return plain, sub


class TestConvergenceStudy:
    EPS = STUDY_EPS

    def test_well_prepared_slope(self, wp_table):
        assert wp_table.metadata["eps_slope"] == pytest.approx(1.0, abs=0.15)

    def test_halving_eps_halves_weighted_sup(self, wp_table):
        sups = [weighted_sup(wp_table, e, 0.75) for e in self.EPS]
        for a, b in zip(sups, sups[1:]):
            assert a / b == pytest.approx(2.0, rel=0.15)

    def test_no_layer_bump(self, wp_table):
        for e in self.EPS:
            t_gap = e * e * math.log(1.0 / e)
            assert layer_bump_ratio(wp_table, e, t_gap) <= 1.05

    def test_generic_initial_error_does_not_vanish(self, gen_tables):
        plain, _ = gen_tables
        first = [plain.for_eps(e)["err_Linf_P"][0] for e in self.EPS]
        assert min(first) > 0.1
        assert max(first) / min(first) < 1.001

    def test_layer_subtraction_restores_first_order(self, gen_tables):
        _, sub = gen_tables
        assert sub.metadata["eps_slope"] == pytest.approx(1.0, abs=0.15)
        for e in self.EPS:
            assert sub.for_eps(e)["err_Linf_P"][0] < 1e-12

    def test_decoupled_single_branch_is_exactly_zero(self, syn_small, coeffs_small):
        basis = syn_small.basis
        grid = radial_grid(0.05, 0.6, 8)
        prof = np.zeros((grid.count, basis.dim), dtype=complex)
        states = []
        from vpb_spectral.velocity_space import project_macro
        for k, s in enumerate(grid.nodes):
            prof[k] = asymptotic_coefficients(basis, float(s), coeffs_small).h[2]
            states.append(project_macro(basis, prof[k], float(s)))
        data = InitialData(kind="generic", grid=grid, basis=basis,
                           profile=prof, macro_profile=states)
        tg = layer_time_grid(0.2, 5.0, n_layer=4, n_bulk=8)
        tab = run_convergence_study(syn_small, data, [0.2, 0.1, 0.05], tg,
                                    coeffs_small, couple=False)
        assert float(np.max(tab.err_Linf_P)) == 0.0
        assert float(np.max(tab.err_macro)) == 0.0
        assert float(np.max(tab.err_micro)) == 0.0
        assert tab.metadata["eps_slope"] is None

    @given(seed=st.integers(0, 2 ** 32 - 1), s=st.floats(0.05, 0.6),
           eps=st.floats(0.02, 0.3))
    def test_one_propagation_equals_two(self, syn_small, coeffs_small, seed, s, eps):
        # the layer-subtracted errors propagate macro(f0) once; written out
        # directly they are S(f0) - S(micro f0) - fluid - layer
        basis = syn_small.basis
        rng = np.random.default_rng(seed)
        f0 = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        mode = mode_operator(syn_small, eps, np.array([s, 0.0, 0.0]))
        bundle = asymptotic_coefficients(basis, s, coeffs_small)
        times = layer_time_grid(eps, 5.0, n_layer=4, n_bulk=6)
        got = _shell_errors(syn_small, [eps], s, f0, bundle, times, True)[0]

        macro = basis.macro_project(f0)
        diff = propagate_kinetic(mode, f0, times).states \
            - propagate_kinetic(mode, basis.micro_project(f0), times).states
        for i, t in enumerate(times):
            diff[i] -= closed_fluid_forms(basis, coeffs_small, macro, s, t)["state"]
        for j in (-1, 1):
            coef = bilinear_pair(basis, macro, bundle.h[j], s)
            diff -= np.exp(bundle.eta[j] * times / eps - bundle.b[j] * times)[:, None] \
                * (coef * bundle.h[j])[None, :]
        want = np.array([[weighted_norm(basis, d, s),
                          weighted_norm(basis, basis.macro_project(d), s),
                          np.linalg.norm(basis.micro_project(d))] for d in diff])
        # the floor is the round-off of the two-propagation difference, which
        # cancels terms of the size of f0 (measured up to 1.5e-16 of its norm)
        floor = 1e-15 * weighted_norm(basis, f0, s)
        assert np.all(np.abs(got - want) <= 1e-12 * want.max(axis=0) + floor)

    def test_rerun_bit_identical(self, syn_small, wp_data, coeffs_small, wp_table):
        tg = layer_time_grid(max(self.EPS), 20.0)
        again = run_convergence_study(syn_small, wp_data, self.EPS, tg, coeffs_small)
        for name in ("eps", "t", "err_Linf_P", "err_macro", "err_micro"):
            assert np.array_equal(getattr(wp_table, name), getattr(again, name))

    def test_parallel_map_keeps_determinism(self, syn_small, wp_data,
                                            coeffs_small, wp_table):
        tg = layer_time_grid(max(self.EPS), 20.0)
        par = run_convergence_study(syn_small, wp_data, self.EPS, tg,
                                    coeffs_small, jobs=4)
        assert np.array_equal(wp_table.err_Linf_P, par.err_Linf_P)

    def test_one_eig_per_held_sector_per_shell(self, syn_small, gen_data, coeffs_small,
                                               monkeypatch):
        # generic data holds the m = 0 and m = 1 sectors: two decompositions
        # per shell, each one stack over every eps
        shapes = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(a.shape) or eig(a))
        run_convergence_study(syn_small, gen_data, self.EPS, layer_time_grid(0.2, 5.0),
                              coeffs_small, subtract_layer=True)
        sectors = syn_small.sector_blocks
        sizes = [sectors.L[0].shape[0], sectors.L[1].shape[0]]
        assert shapes == [(len(self.EPS), n, n) for _ in gen_data.grid.nodes for n in sizes]

    def test_eps_outside_the_unit_interval_refused(self, syn_small, wp_data, coeffs_small):
        with pytest.raises(RegimeError, match="eps=1.5 outside"):
            run_convergence_study(syn_small, wp_data, [1.5, 0.1, 0.05],
                                  layer_time_grid(0.2, 5.0), coeffs_small)

    def test_short_eps_list_refused(self, syn_small, wp_data, coeffs_small):
        with pytest.raises(FitError):
            run_convergence_study(syn_small, wp_data, [0.2, 0.1],
                                  layer_time_grid(0.2, 5.0), coeffs_small)

    def test_table_rejects_duplicates_and_negatives(self):
        ones = np.ones(2)
        with pytest.raises(DataError):
            ErrorTable(eps=np.array([0.1, 0.1]), t=np.array([1.0, 1.0]),
                       err_Linf_P=ones, err_macro=ones, err_micro=ones)
        with pytest.raises(DataError):
            ErrorTable(eps=np.array([0.1, 0.1]), t=np.array([1.0, 2.0]),
                       err_Linf_P=np.array([1.0, -1.0]), err_macro=ones,
                       err_micro=ones)


    @pytest.mark.parametrize("column", ["t", "err_Linf_P", "err_macro", "err_micro"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_table_rejects_non_finite(self, column, bad):
        cols = {"eps": np.array([0.1, 0.1]), "t": np.array([1.0, 2.0])}
        cols.update({name: np.ones(2) for name in ("err_Linf_P", "err_macro", "err_micro")})
        cols[column][1] = bad
        with pytest.raises(DataError, match=f"non-finite entries in {column}"):
            ErrorTable(**cols)


class TestHilbertExpansion:
    def test_synthetic_coefficients_reproduced(self, syn_small, wp_data, coeffs_small):
        rep = hilbert_expansion_check(syn_small, wp_data, coeffs_small)
        r0, r1 = rep.kappa_residuals
        assert r0 <= 1e-6 and r1 <= 1e-6
        assert rep.constraint_divergence <= 1e-12
        assert rep.constraint_gradient <= 1e-12
        assert rep.gamma_micro_norm is None
        assert "unavailable" in rep.note

    def test_hard_sphere_coefficients_reproduced(self, grid16):
        op = assemble_collision(build_basis(4))
        data = make_initial_data("well_prepared", gauss_profile, op.basis, grid16)
        rep = hilbert_expansion_check(op, data)
        r0, r1 = rep.kappa_residuals
        assert r0 <= 1e-6 and r1 <= 1e-6
        # quadratic product: macroscopic components cancel pointwise
        assert rep.gamma_micro_norm > 0.0
        assert rep.gamma_macro_leak <= 1e-10

    def test_one_micro_solve_path(self, grid16, monkeypatch):
        # every micro-space collision solve goes through micro_solve or the
        # radial blocks: no least squares, and one eigvalsh per radial block
        # of L, for the spectral gap
        op = assemble_collision(build_basis(4))
        data = make_initial_data("well_prepared", gauss_profile, op.basis, grid16)
        op.gamma_form()  # builds the bilinear form's own Gauss rules
        calls = {"lstsq": 0, "eigvalsh": 0}
        for fn in calls:
            orig = getattr(np.linalg, fn)

            def spy(*args, _fn=fn, _orig=orig, **kwargs):
                calls[_fn] += 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(np.linalg, fn, spy)
        coeffs = compute_kappas(op)
        assert op.kappa_bar > 0.0
        hilbert_expansion_check(op, data, coeffs)
        assert calls == {"lstsq": 0, "eigvalsh": op.basis.max_degree + 1}

    @pytest.mark.parametrize("backend", ["synthetic", "hard-sphere"])
    def test_singular_micro_block_is_refused(self, grid16, coeffs_small, backend):
        basis = build_basis(4)
        op = synthetic_collision(basis) if backend == "synthetic" else assemble_collision(basis)
        radial = np.array(op.radial)
        radial[2, 0, :] = 0.0  # phi_02m, which the stress fluxes lie on
        radial[2, :, 0] = 0.0
        singular = dataclasses.replace(op, radial=radial)
        data = make_initial_data("well_prepared", gauss_profile, basis, grid16)
        for run in (lambda: compute_kappas(singular), lambda: singular.kappa_bar,
                    lambda: hilbert_expansion_check(singular, data, coeffs_small)):
            with pytest.raises(AssemblyError, match="spectral gap"):
                run()
