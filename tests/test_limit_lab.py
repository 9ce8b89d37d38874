"""Radial synthesis, initial-data preparation, layer diagnostics, and the
kinetic-to-fluid convergence study.

Frozen oracle values (scripts/oracle_limits.py, adaptive quadrature of the
radial integrand on [0.05, 0.6], Gaussian profile sigma = 0.2):
    plain shell norm      1.217924292761e-01
    weighted shell norm   5.170834648429e-01
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from collision_reference import gamma_form
from hypothesis import given, strategies as st
from limit_lab_reference import hilbert_expansion_check, layer_bump_ratio
from oracles import layer_frequency, mode_operator, propagate_kinetic
from semigroup_reference import closed_fluid_forms

from vpb_spectral import dispersion, limit_lab, semigroup
from vpb_spectral.checks import oscillation_part, synth_norm_LinfP
from vpb_spectral.collision import assemble_collision, synthetic_collision
from vpb_spectral.dispersion import asymptotic_coefficients, shell_coefficients
from vpb_spectral.errors import AssemblyError, DataError, FitError, RegimeError
from vpb_spectral.limit_lab import (
    ErrorTable,
    InitialData,
    _stack_errors,
    eps_slope,
    layer_time_grid,
    make_initial_data,
    radial_grid,
    run_convergence_study,
    weighted_sup,
)
from vpb_spectral.mode_operator import axis_eigen_blocks
from vpb_spectral.transport import compute_kappas
from vpb_spectral.velocity_space import bilinear_pair, build_basis, weighted_norm

SIGMA = 0.2


def gauss_profile(s: float) -> float:
    return math.exp(-s * s / (2.0 * SIGMA * SIGMA))


def stack_errors(op, coeffs, eps_list, shells, data, times, subtract):
    """_stack_errors as run_convergence_study calls it, for the shells
    shells (floats) with the data rows data[k]."""
    f0 = np.asarray(data, dtype=complex)
    f0 = op.basis.macro_project(f0) if subtract else f0
    return _stack_errors(op, coeffs, eps_list, [float(s) for s in shells], f0,
                         op.basis.axis_sectors.coordinates(f0), times, subtract)


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


class TestInitialDataProfile:
    @pytest.mark.parametrize("profile", [lambda s: 0.0, lambda s: math.exp(-s * s / 2e-6),
                                         lambda s: float("nan") if s < 0.3 else 1.0,
                                         lambda s: float("inf")],
                             ids=["zero", "underflow", "nan-on-some", "inf"])
    def test_profile_not_finite_or_zero_everywhere_is_refused(self, syn_small, profile):
        with pytest.raises(DataError, match="finite on every shell and nonzero on one"):
            make_initial_data("generic", profile, syn_small.basis, radial_grid(0.05, 0.6, 8))

    def test_profile_zero_on_some_shells_is_kept(self, syn_small):
        grid = radial_grid(0.05, 0.6, 8)
        data = make_initial_data("generic", lambda s: 1.0 if s < 0.3 else 0.0,
                                 syn_small.basis, grid)
        assert np.all((np.abs(data.profile).max(axis=1) > 0) == (grid.nodes < 0.3))


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

    def test_rejects_zero_mode_and_bad_spans(self):
        with pytest.raises(DataError):
            radial_grid(0.0, 0.6, 8)
        with pytest.raises(DataError):
            radial_grid(0.3, 0.2, 8)
        with pytest.raises(DataError):
            radial_grid(0.05, 0.6, 8, spacing="chebyshev")

    @pytest.mark.parametrize("bounds", [(0.05, math.nan), (0.05, math.inf), (math.nan, 0.6),
                                        (math.nan, math.nan)],
                             ids=["nan-max", "inf-max", "nan-min", "nan-both"])
    @pytest.mark.parametrize("spacing", ["legendre", "uniform"])
    def test_rejects_non_finite_bounds(self, bounds, spacing):
        # every comparison with NaN is false, and inf passes them: both gave
        # grids of NaN or inf nodes
        with pytest.raises(DataError, match="must be finite"):
            radial_grid(*bounds, 8, spacing=spacing)

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

    @pytest.mark.parametrize("eps", [0.0, 2.0])
    def test_eps_outside_the_unit_interval_refused(self, gen_data, coeffs_small, eps):
        # eps = 0 gave a NaN field, and eps = 2 was accepted
        with pytest.raises(RegimeError, match="outside"):
            oscillation_part(gen_data, coeffs_small, 0.3, eps)

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

    @pytest.mark.parametrize("eps, t_max", [(math.nan, 20.0), (0.1, math.nan),
                                            (math.inf, 20.0), (0.1, math.inf)])
    def test_non_finite_eps_or_t_max_is_a_data_error(self, eps, t_max):
        # a NaN eps gave an all-NaN grid, a NaN t_max a grid holding NaN
        with pytest.raises(DataError, match="finite eps and t_max"):
            layer_time_grid(eps, t_max)


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

    def test_decoupled_single_branch_is_exactly_zero(self, syn_small, coeffs_small,
                                                     monkeypatch):
        # the kinetic coordinates replaced, member by member, by those of the
        # fluid states: the pipeline must assemble exactly zero errors
        basis = syn_small.basis
        grid = radial_grid(0.05, 0.6, 8)
        prof = np.zeros((grid.count, basis.dim), dtype=complex)
        for k, s in enumerate(grid.nodes):
            prof[k] = asymptotic_coefficients(basis, float(s), coeffs_small).h[2]
        by_shell = dict(zip(grid.nodes.tolist(), prof))  # each shell's data by its s

        def fluid_coordinates(op, eps_list, s, g, times):
            rows = [[basis.axis_sectors.coordinates(st) for st in basis.embed_invariants(
                asymptotic_coefficients(basis, sk, coeffs_small).evolve(
                    basis, basis.macro_project(by_shell[sk]), times, (0, 2, 3), eps_list))]
                for sk in s]
            coords = [[np.array([[r[m][j] for r in shell] for shell in rows])
                       for j in range(len(copies))]
                      for m, copies in enumerate(rows[0][0])]
            return coords, np.zeros((len(s), len(eps_list)), dtype=bool)  # none refused

        monkeypatch.setattr(limit_lab, "propagate_axis_modes", fluid_coordinates)
        data = InitialData(kind="generic", grid=grid, basis=basis, profile=prof)
        tg = layer_time_grid(0.2, 5.0, n_layer=4, n_bulk=8)
        tab = run_convergence_study(syn_small, data, [0.2, 0.1, 0.05], tg, coeffs_small)
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
        got = stack_errors(syn_small, coeffs_small, [eps], [s], [f0], times, True)[0, 0]

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

    def test_integrated_members_take_the_same_norms(self, syn_small, gen_data, coeffs_small,
                                                    monkeypatch):
        # a COND_LIMIT between the members' worst conds sends some (shell, eps)
        # members of one cross-shell stack to the block exponential: their
        # errors are the slot-space norms of propagate_kinetic's states, which
        # take it too, and every other member keeps its bits
        basis = syn_small.basis
        ks = [4, 5, 6]
        shells, data = gen_data.grid.nodes[ks], gen_data.profile[ks]
        times = layer_time_grid(max(self.EPS), 5.0, n_layer=4, n_bulk=6)
        want = stack_errors(syn_small, coeffs_small, self.EPS, shells, data, times, False)
        eps, s = np.tile(self.EPS, len(ks)), np.repeat(shells, len(self.EPS))
        held = [any(g0.any() for g0 in g) for g in basis.axis_sectors.coordinates(data[0])]
        worst = np.max([b.cond for b in axis_eigen_blocks(syn_small, eps * s, s, held)
                        if b is not None], axis=0).reshape(len(ks), len(self.EPS))
        limit = np.sort(worst, axis=None)[worst.size // 2 - 1:worst.size // 2 + 1].mean()
        monkeypatch.setattr(semigroup, "COND_LIMIT", limit)
        got = stack_errors(syn_small, coeffs_small, self.EPS, shells, data, times, False)
        refused = worst >= limit
        assert 0 < refused.sum() < refused.size and refused.any(axis=1).sum() > 1
        for k, sk in enumerate(shells):
            bundle = asymptotic_coefficients(basis, float(sk), coeffs_small)
            fluid = basis.embed_invariants(bundle.evolve(
                basis, basis.macro_project(data[k]), times, (0, 2, 3), self.EPS))
            for e, ek in enumerate(self.EPS):
                if not refused[k, e]:
                    assert np.array_equal(got[k, e], want[k, e])
                    continue
                traj = propagate_kinetic(mode_operator(syn_small, ek, np.array([sk, 0.0, 0.0])),
                                         data[k], times)
                assert traj.method == "expm"
                diff = traj.states - fluid[e]
                slot = np.array([[weighted_norm(basis, d, sk),
                                  weighted_norm(basis, basis.macro_project(d), sk),
                                  np.linalg.norm(basis.micro_project(d))] for d in diff])
                assert np.all(np.abs(got[k, e] - slot) <= 1e-13 * slot.max(axis=0))

    @staticmethod
    def stack_peak(count, shells):
        """The tracemalloc peak of one _stack_errors call over the given shells of
        a count-shell grid, as in the benchmark's converge job (degree 6, 4 eps
        values, 36 times), with the data's coordinates taken before, as the
        study takes them once for every shell."""
        op = synthetic_collision(build_basis(6))
        coeffs = compute_kappas(op)
        grid = radial_grid(0.05, 0.6, count)
        data = make_initial_data("generic", gauss_profile, op.basis, grid)
        times = layer_time_grid(0.2, 20.0)
        assert times.size == 36
        f0 = op.basis.macro_project(data.profile[shells])
        g = op.basis.axis_sectors.coordinates(f0)
        s = grid.nodes[shells].tolist()
        eps_list = TestConvergenceStudy.EPS
        _stack_errors(op, coeffs, eps_list, s, f0, g, times, True)  # warm caches
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _stack_errors(op, coeffs, eps_list, s, f0, g, times, True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        state_bytes = len(eps_list) * times.size * op.basis.dim * 16
        assert state_bytes == 193_536
        return peak, state_bytes

    def test_one_shell_holds_no_state_sized_array(self):
        # the bound is one (E, T, dim) complex array, of which the per-shell
        # study before sector coordinates formed several (peak 873,800 B).
        # What a shell must hold is the held copies' coordinates, 40 of the 84
        # columns (92,592 B), and the fluid limit; on top come one sector's
        # working arrays and numpy's buffers for broadcast operands (about 172,250 B
        # in all with numpy 2.4)
        peak, state_bytes = self.stack_peak(8, [3])
        assert peak < state_bytes

    def test_one_stack_holds_no_state_sized_array(self):
        # a stack of the study's SHELLS_PER_STACK shells holds less than one
        # (E, T, dim) array per shell: no basis-length state forms for any
        # stack (1,300,968 B for 8 shells with numpy 2.4, against 1,548,288 B)
        size = limit_lab.SHELLS_PER_STACK
        peak, state_bytes = self.stack_peak(max(8, size), list(range(size)))
        assert peak < size * state_bytes

    def test_refused_stack_holds_no_exponential_per_time(self, monkeypatch):
        # with every member refused, each sector block takes the block
        # exponential one time sample at a time: a (members, T, n, n) stack of
        # exponentials would be 22 MB here, against 1.3 MB for the eig path
        monkeypatch.setattr(semigroup, "COND_LIMIT", 0.0)
        calls = []
        expm = semigroup._expm
        monkeypatch.setattr(semigroup, "_expm", lambda x: calls.append(x.shape) or expm(x))
        peak, _ = self.stack_peak(8, list(range(8)))
        assert calls and all(shape[0] == 8 * len(self.EPS) for shape in calls)
        assert peak <= 2_000_000

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

    def test_one_eig_per_held_sector_per_stack(self, syn_small, gen_data, coeffs_small,
                                               monkeypatch):
        # generic data holds the m = 0 and m = 1 sectors: two decompositions
        # per stack of shells, each one stack over every (shell, eps)
        monkeypatch.setattr(limit_lab, "SHELLS_PER_STACK", 6)
        shapes = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(a.shape) or eig(a))
        run_convergence_study(syn_small, gen_data, self.EPS, layer_time_grid(0.2, 5.0),
                              coeffs_small, subtract_layer=True)
        sectors = syn_small.sector_blocks
        sizes = [sectors.L[0].shape[0], sectors.L[1].shape[0]]
        assert gen_data.grid.count == 16
        assert shapes == [(k, len(self.EPS), n, n) for k in (6, 6, 4) for n in sizes]

    def test_one_fluid_limit_per_stack(self, syn_small, gen_data, coeffs_small, monkeypatch):
        # the fluid limit of a stack of shells is one evolve over all of them,
        # from one limit_vectors call: none is made per shell
        monkeypatch.setattr(limit_lab, "SHELLS_PER_STACK", 6)
        vectors, pairs = [], []
        lv, evolve = dispersion.limit_vectors, dispersion.AsymptoticCoefficients.evolve
        monkeypatch.setattr(dispersion, "limit_vectors",
                            lambda basis, s: vectors.append(np.shape(s)) or lv(basis, s))
        monkeypatch.setattr(dispersion.AsymptoticCoefficients, "evolve",
                            lambda self, basis, u, *args: pairs.append(np.shape(u))
                            or evolve(self, basis, u, *args))
        run_convergence_study(syn_small, gen_data, self.EPS, layer_time_grid(0.2, 5.0),
                              coeffs_small, subtract_layer=True)
        dim = syn_small.basis.dim
        assert gen_data.grid.count == 16
        assert vectors == [(6,), (6,), (4,)]
        assert pairs == [(6, dim), (6, dim), (4, dim)]

    def test_stack_boundaries_move_no_bits(self, syn_small, coeffs_small, monkeypatch):
        grid = radial_grid(0.05, 0.6, 7)
        data = make_initial_data("generic", gauss_profile, syn_small.basis, grid)
        tg = layer_time_grid(max(self.EPS), 5.0)
        tables = []
        for size in (1, 3, 7):
            monkeypatch.setattr(limit_lab, "SHELLS_PER_STACK", size)
            tables.append(run_convergence_study(syn_small, data, self.EPS, tg, coeffs_small,
                                                subtract_layer=True))
        for other in tables[1:]:
            assert list(other.rows()) == list(tables[0].rows())

    def test_one_coordinate_product_is_each_shells_own(self, syn_small):
        # the study takes the data's sector coordinates in one product for
        # every shell; on make_initial_data's rows, which share their few
        # nonzero slots, each row keeps the bits of its own product
        basis = syn_small.basis
        grid = radial_grid(0.05, 0.6, 32)
        for kind in ("generic", "well_prepared"):
            data = make_initial_data(kind, gauss_profile, basis, grid)
            for rows in (data.profile, basis.macro_project(data.profile)):
                together = basis.axis_sectors.coordinates(rows)
                for k, row in enumerate(rows):
                    for xs, ys in zip(together, basis.axis_sectors.coordinates(row)):
                        for x, y in zip(xs, ys):
                            assert np.array_equal(x[k], y)

    def test_eps_outside_the_unit_interval_refused(self, syn_small, wp_data, coeffs_small):
        with pytest.raises(RegimeError, match="eps=1.5 outside"):
            run_convergence_study(syn_small, wp_data, [1.5, 0.1, 0.05],
                                  layer_time_grid(0.2, 5.0), coeffs_small)

    def test_short_eps_list_refused(self, syn_small, wp_data, coeffs_small):
        with pytest.raises(FitError):
            run_convergence_study(syn_small, wp_data, [0.2, 0.1],
                                  layer_time_grid(0.2, 5.0), coeffs_small)

    @pytest.mark.parametrize("sup", [0.0, math.nan, math.inf])
    def test_slope_over_a_zero_or_non_finite_sup_refused(self, sup):
        # the log of a zero, NaN or inf sup gives no slope, only a NaN
        sups = {0.2: 0.4, 0.1: sup, 0.05: 0.1}
        with pytest.raises(FitError, match="positive and finite"):
            eps_slope(sups)
        assert eps_slope({**sups, 0.1: 0.2}) == pytest.approx(1.0)

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
        gamma_form(op)  # builds the bilinear form's own Gauss rules
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


def written_out(basis, bundle, u, times, branches, eps):
    """One shell's evolve written out with bilinear_pair, the pairing that the
    study's artifacts were made with, branch by branch in the given order."""
    eps = np.asarray(eps, dtype=float)[..., None]
    slots = list(basis.invariant_indices)
    acc = np.zeros(eps.shape[:-1] + (times.size, 5), dtype=complex)
    for j in branches:
        coef = bilinear_pair(basis, u, bundle.h[j], bundle.s)
        acc += np.exp(bundle.eta[j] * times / eps - bundle.b[j] * times)[..., None] \
            * (coef * bundle.h[j][slots])
    return acc


class TestStackedFluidLimit:
    @pytest.fixture(scope="class")
    def bases(self):
        # degree 8 (dim 165) rows are longer than numpy's 128-entry pairwise
        # block, so the row sums split as bilinear_pair's do
        return {deg: build_basis(deg) for deg in (3, 8)}

    @pytest.mark.parametrize("deg", [3, 8])
    @pytest.mark.parametrize("kind", ["generic", "well_prepared"])
    @pytest.mark.parametrize("eps", [[0.1], STUDY_EPS], ids=["E1", "E4"])
    @pytest.mark.parametrize("branches", [(0, 2, 3), (0, 2, 3, -1, 1)], ids=["fluid", "all"])
    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_each_shell_is_its_own_evolve(self, bases, coeffs_small, deg, kind, eps,
                                          branches, count):
        # three shells are an explicit shell axis, never a 3-vector xi
        basis = bases[deg]
        grid = radial_grid(0.05, 0.6, 8)
        data = make_initial_data(kind, gauss_profile, basis, grid)
        shells = slice(8 - count, 8)
        u = basis.macro_project(data.profile[shells])
        times = layer_time_grid(max(eps), 20.0)
        got = shell_coefficients(basis, grid.nodes[shells], coeffs_small).evolve(
            basis, u, times, branches, eps)
        for k, s in enumerate(grid.nodes[shells]):
            bundle = asymptotic_coefficients(basis, float(s), coeffs_small)
            one = bundle.evolve(basis, u[k], times, branches, eps)
            assert np.array_equal(got[k], one)
            assert np.array_equal(one, written_out(basis, bundle, u[k], times, branches, eps))
        assert got.shape == (count, len(eps), times.size, 5)
