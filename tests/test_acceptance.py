"""Acceptance gate: one test per shipped criterion, tolerances pinned.

Each criterion is a single test so the -v report shows one pass/fail line
apiece.  Reference numbers were measured with scripts/measure_acceptance.py
on this exact configuration; tolerances below are the shipped contract, not
the observed margins.

Criterion 3's expected remainder order follows branch parity: third on the
oscillatory acoustic pair, fourth on the real branches, whose eigenvalues
are even in eps.

Criteria 08 and 09 also run on the degree-6 hard-sphere operator, the one
the paper is about, with the same bounds, and a truncation check compares
those studies with degree 8.
"""

import functools
import math
import time

import numpy as np
import pytest
import scipy.integrate
from collision_reference import gamma_form
from oracles import (
    GammaEvaluator,
    classify_strip,
    fit_decay,
    layer_frequency,
    mode_operator,
    split_S1_S2,
    strip_eigensystem,
)
from semigroup_reference import constraint_residuals, packet_norms
from transport_reference import crosscheck_b2

from vpb_spectral.checks import nspf_mode_solve
from vpb_spectral.cli import main as cli_main
from vpb_spectral.collision import (
    CollisionQuadrature,
    assemble_collision,
    synthetic_collision,
)
from vpb_spectral.dispersion import hydrodynamic_sweep
from vpb_spectral.errors import DataError
from vpb_spectral.limit_lab import (
    layer_time_grid,
    make_initial_data,
    radial_grid,
    run_convergence_study,
)
from vpb_spectral.transport import (
    asymptotic_eigenvalue,
    branch_decay,
    branch_frequency,
    compute_kappas,
)
from vpb_spectral.velocity_space import (
    MacroState,
    _multiplication_matrix,
    build_basis,
    macro_vector,
    weighted_norm,
)

EPS4 = (0.2, 0.1, 0.05, 0.025)


@pytest.fixture(scope="module")
def syn4():
    return synthetic_collision(build_basis(4))


@pytest.fixture(scope="module")
def coeffs4(syn4):
    return compute_kappas(syn4)


@pytest.fixture(scope="module")
def hs4():
    return assemble_collision(build_basis(4))


@pytest.fixture(scope="module")
def syn6():
    return synthetic_collision(build_basis(6))


@pytest.fixture(scope="module")
def coeffs6(syn6):
    return compute_kappas(syn6)


def _structure(op):
    basis, mat = op.basis, op.matrix
    rule = basis.exact_rule
    gram = rule.poly @ (rule.weights[:, None] * rule.poly.T)
    assert np.max(np.abs(gram - np.eye(basis.dim))) <= 1e-10
    scale = float(np.max(np.abs(mat)))
    assert np.max(np.abs(mat - mat.T)) <= 1e-10 * scale
    sv = np.linalg.svd(mat, compute_uv=False)
    assert int(np.sum(sv <= 1e-8 * sv[0])) == 5, "null space is not five-dimensional"
    mu = np.sort(np.linalg.eigvalsh(-0.5 * (mat + mat.T)))[5]
    assert mu > 0.0, "no coercivity on the microscopic part"


def test_criterion_01_structure_suite():
    """Orthonormal basis, symmetric operator, five-dimensional null space,
    positive microscopic coercivity, on both backends within time budget."""
    t0 = time.perf_counter()
    _structure(synthetic_collision(build_basis(6)))
    assert time.perf_counter() - t0 < 60.0
    t0 = time.perf_counter()
    hs = assemble_collision(build_basis(6))  # cached matrices count as a build
    _structure(hs)
    assert time.perf_counter() - t0 < 1800.0


def test_criterion_02_roots_match_dense_spectrum(syn4):
    """Every certified dispersion root sits on the dense spectrum of the
    same truncation to 1e-8, over a 10 x 4 grid with eps*s <= 0.3."""
    worst = 0.0
    for s in np.linspace(0.1, 1.2, 10):
        for eps in (0.25, 0.1, 0.05, 0.025):
            assert eps * s <= 0.3 + 1e-12
            mode = mode_operator(syn4, eps, np.array([s, 0.0, 0.0]))
            dense = np.linalg.eigvals(np.asarray(mode.matrix))
            for bp in hydrodynamic_sweep(syn4, [(eps, s)])[0]:
                worst = max(worst, float(np.min(np.abs(dense - bp.lam))))
    assert worst <= 1e-8


def test_criterion_03_expansion_remainder_is_third_order(syn4, coeffs4):
    """The remainder after removing the first- and second-order model is
    O(eps^3) on every branch: exactly third order on the acoustic pair and
    fourth order on the even branches, log-log slope +/- 0.2 at s in
    {0.2, 0.5}.

    B(-eps) is the complex conjugate of B(eps) and also its image under the
    reflection v1 -> -v1, so a real branch is even in eps and its eps^3
    term vanishes.  The real branches are those with zero leading-order
    frequency; the test checks that their eigenvalues are indeed real.
    """
    slopes = {}
    worst_imag = 0.0
    for s in (0.2, 0.5):
        series: dict[int, list] = {}
        for eps in EPS4:
            mode = mode_operator(syn4, eps, np.array([s, 0.0, 0.0]))
            vals, _ = strip_eigensystem(mode)
            for j, i in classify_strip(vals, eps).items():
                series.setdefault(j, []).append(complex(vals[i]))
        for j, lams in series.items():
            even = branch_frequency(j, s) == 0.0
            if even:
                worst_imag = max(worst_imag, *(abs(lam.imag) / abs(lam) for lam in lams))
            resid = [abs(lam - asymptotic_eigenvalue(j, s, eps, coeffs4))
                     for lam, eps in zip(lams, EPS4)]
            slope = float(np.polyfit(np.log(EPS4), np.log(resid), 1)[0])
            slopes[(j, s)] = (slope, 4 if even else 3)
    assert worst_imag <= 1e-9, (
        f"an even branch has |Im lambda|/|lambda| = {worst_imag:.3e} > 1e-9")
    off = {k: f"slope {v:.3f}, expected {order}"
           for k, (v, order) in slopes.items() if abs(v - order) > 0.2}
    assert not off, (
        f"(branch, s) -> measured slope outside expected order +/- 0.2: {off}")


def test_criterion_04_branch_curvature_matches_transport(hs4):
    """Measured branch-2 curvature over s^2 equals the shear coefficient to
    1e-3; coefficients positive; longitudinal identity to 1e-10."""
    coeffs = compute_kappas(hs4)
    assert coeffs.kappa0 > 0.0 and coeffs.kappa1 > 0.0
    assert abs(coeffs.kappa0_long - 4.0 / 3.0 * coeffs.kappa0) <= 1e-10 * coeffs.kappa0
    report = crosscheck_b2(hs4, coeffs, (0.2, 0.5, 0.8), rtol=1e-3)
    assert report["passed"], f"max rel err {report['max_rel_err']:.3e}"
    for row in report["rows"]:
        if row["branch"] == 2:
            kappa_measured = row["measured"] / row["s"] ** 2
            assert kappa_measured == pytest.approx(coeffs.kappa0, rel=1e-3)


def test_criterion_05_quadratic_form_identities(hs4):
    """Three bilinear-form identities hold to quadrature tolerance at the
    production rule and tighten under refinement of an under-resolved rule."""
    basis = hs4.basis
    v_mats = [_multiplication_matrix(basis, k) for k in range(3)]
    chi0 = basis.chi(0)
    rng = np.random.default_rng(21)
    f, g = rng.standard_normal((2, basis.dim))

    def residuals(ge):
        r_lin = float(np.max(np.abs(
            ge.form(f, chi0) + ge.form(chi0, f) - hs4.matrix @ f)))
        r_macro = max(abs(float(ge.form(f, g)[i])) for i in basis.invariant_indices)
        r_pair = 0.0
        for i in range(3):
            for j in range(i, 3):
                got = ge.form(v_mats[i] @ chi0, v_mats[j] @ chi0)
                ref = -0.5 * (hs4.matrix @ basis.micro_project(
                    v_mats[i] @ (v_mats[j] @ chi0)))
                r_pair = max(r_pair, float(np.max(np.abs(got - ref))))
        return r_lin, r_macro, r_pair

    coarse = residuals(GammaEvaluator(basis, 1.0, 1.0,
                                      quad=CollisionQuadrature.for_degree(5)))
    refined = residuals(GammaEvaluator(basis, 1.0, 1.0,
                                       quad=CollisionQuadrature.for_degree(7)))
    production = residuals(gamma_form(hs4))
    assert all(r <= 1e-10 for r in production), f"production residuals {production}"
    # identities limited by the rule tighten strictly under one refinement;
    # the macro-output identity is pointwise exact, so it sits at the
    # arithmetic floor for every rule and only has to stay there
    assert refined[0] < coarse[0]
    assert refined[2] < coarse[2]
    assert max(refined) < max(coarse)
    assert coarse[1] <= 1e-12 and refined[1] <= 1e-12


def test_criterion_06_fast_component_scaling(syn4):
    """The non-hydrodynamic part of the split: initial size scales at least
    linearly in eps, and its tail decays at the measured gap over eps^2."""
    basis = syn4.basis
    s = 0.5
    f0 = macro_vector(basis, 0.3, [0.2, -0.5, 0.1], -0.7).astype(complex)
    ratios = []
    for eps in EPS4:
        mode = mode_operator(syn4, eps, np.array([s, 0.0, 0.0]))
        _, s2 = split_S1_S2(mode, f0, np.array([0.0]))
        ratios.append(weighted_norm(basis, s2[0], s) / weighted_norm(basis, f0, s))
    slope = float(np.polyfit(np.log(EPS4), np.log(ratios), 1)[0])
    assert slope >= 0.9, f"S2(0) slope {slope:.3f}"

    eps = 0.3
    mode = mode_operator(syn4, eps, np.array([s, 0.0, 0.0]))
    hydro, _ = strip_eigensystem(mode)
    dense = np.linalg.eigvals(np.asarray(mode.matrix))
    rest = [v for v in dense if np.min(np.abs(v - hydro)) > 1e-10]
    gap_measured = -max(v.real for v in rest)
    times = np.linspace(0.08, 0.22, 10)
    _, s2 = split_S1_S2(mode, f0, times)
    track = np.array([weighted_norm(basis, s2[i], s) for i in range(times.size)])
    fit = fit_decay((times, track), model="exp")
    assert fit.rate >= gap_measured / eps ** 2, \
        f"tail rate {fit.rate:.4f} below {gap_measured / eps ** 2:.4f}"
    assert fit.r_squared >= 0.99


def test_criterion_07_packet_decay_exponents():
    """Radially synthesized density-free packets: macroscopic part decays
    with polynomial rate 0.75 +/- 0.10; microscopic part carries an eps
    prefactor with slope 1 +/- 0.1."""
    op = synthetic_collision(build_basis(3))
    basis = op.basis
    data = (basis.chi(2) + basis.chi(4)) / math.sqrt(2.0)
    times = np.expm1(np.linspace(np.log(31.0), np.log(401.0), 10))
    fit = fit_decay((times, packet_norms(op, data, 0.1, times, micro=False)),
                    model="poly")
    assert fit.rate == pytest.approx(0.75, abs=0.10)
    eps_list = np.array([0.1, 0.05, 0.025])
    vals = np.array([packet_norms(op, data, e, [20.0], micro=True)[0]
                     for e in eps_list])
    slope = float(np.polyfit(np.log(eps_list), np.log(vals), 1)[0])
    assert slope == pytest.approx(1.0, abs=0.1)


def test_criterion_08_well_prepared_convergence_rate(syn6, coeffs6):
    """Kinetic-to-fluid error with (1+t)^{3/4} weighting: eps-slope of the
    sup over the time grid equals 1 +/- 0.15 across three halvings, inside
    the runtime budget (degree 6, 32 shells, synthetic backend)."""
    t0 = time.perf_counter()
    grid = radial_grid(0.05, 0.6, 32)
    prof = lambda s: math.exp(-s * s / 0.08)
    data = make_initial_data("well_prepared", prof, syn6.basis, grid)
    times = layer_time_grid(max(EPS4), 20.0, 12, 24)
    table = run_convergence_study(syn6, data, list(EPS4), times, coeffs6)
    slope = table.metadata["eps_slope"]
    assert slope == pytest.approx(1.0, abs=0.15), f"slope {slope:.4f}"
    assert time.perf_counter() - t0 < 600.0


def test_criterion_09_initial_layer_generic_data(syn6, coeffs6):
    """Generic data: t=0 error does not vanish with eps; layer oscillation
    frequency within 5 percent; removing the oscillation part restores the
    eps-slope 1 +/- 0.15."""
    grid = radial_grid(0.05, 0.6, 32)
    prof = lambda s: math.exp(-s * s / 0.08)
    data = make_initial_data("generic", prof, syn6.basis, grid)
    times = layer_time_grid(max(EPS4), 20.0, 12, 24)
    table = run_convergence_study(syn6, data, list(EPS4), times, coeffs6)
    err0 = []
    for eps in EPS4:
        cols = table.for_eps(eps)
        err0.append(float(cols["err_Linf_P"][np.argmin(cols["t"])]))
    assert min(err0) > 0.05, f"layer error vanished: {err0}"
    assert max(err0) / min(err0) < 1.05, f"t=0 error drifts with eps: {err0}"

    s_probe, eps_probe = 0.3, 0.05
    freq = layer_frequency(syn6, eps_probe, s_probe)
    predicted = math.sqrt(1.0 + 5.0 / 3.0 * s_probe ** 2) / eps_probe
    assert abs(freq - predicted) / predicted < 0.05

    cleaned = run_convergence_study(syn6, data, list(EPS4), times, coeffs6,
                                    subtract_layer=True)
    slope = cleaned.metadata["eps_slope"]
    assert slope == pytest.approx(1.0, abs=0.15), f"subtracted slope {slope:.4f}"


@pytest.fixture(scope="module")
def hs_study(hard_sphere_prod):
    """study(degree, kind, subtract_layer): the table of criteria 08 and 09's
    convergence study (32 shells, four eps, t_max 20) on the hard-sphere
    operator of that degree, 6 (hard_sphere_prod) or 8, run once."""
    ops = {6: hard_sphere_prod}
    grid = radial_grid(0.05, 0.6, 32)
    prof = lambda s: math.exp(-s * s / 0.08)
    times = layer_time_grid(max(EPS4), 20.0, 12, 24)

    @functools.cache
    def study(degree, kind, subtract_layer=False):
        if degree not in ops:
            ops[degree] = assemble_collision(build_basis(degree))
        op = ops[degree]
        data = make_initial_data(kind, prof, op.basis, grid)
        return run_convergence_study(op, data, list(EPS4), times, compute_kappas(op),
                                     subtract_layer=subtract_layer)
    return study


def test_criterion_08_on_hard_sphere(hs_study):
    """The paper's operator: criterion 08's well-prepared eps-slope 1 +/- 0.15
    on the degree-6 hard-sphere operator."""
    slope = hs_study(6, "well_prepared").metadata["eps_slope"]
    assert slope == pytest.approx(1.0, abs=0.15), f"slope {slope:.4f}"


def test_criterion_09_on_hard_sphere(hard_sphere_prod, hs_study):
    """Criterion 09 on the degree-6 hard-sphere operator: the t=0 error of
    generic data does not vanish with eps and drifts less than 5 percent, the
    layer oscillates within 5 percent of sqrt(1 + 5/3 s^2) / eps, and
    removing the oscillation part restores the eps-slope 1 +/- 0.15."""
    table = hs_study(6, "generic")
    err0 = []
    for eps in EPS4:
        cols = table.for_eps(eps)
        err0.append(float(cols["err_Linf_P"][np.argmin(cols["t"])]))
    assert min(err0) > 0.05, f"layer error vanished: {err0}"
    assert max(err0) / min(err0) < 1.05, f"t=0 error drifts with eps: {err0}"

    s_probe, eps_probe = 0.3, 0.05
    freq = layer_frequency(hard_sphere_prod, eps_probe, s_probe)
    predicted = math.sqrt(1.0 + 5.0 / 3.0 * s_probe ** 2) / eps_probe
    assert abs(freq - predicted) / predicted < 0.05

    slope = hs_study(6, "generic", True).metadata["eps_slope"]
    assert slope == pytest.approx(1.0, abs=0.15), f"subtracted slope {slope:.4f}"


@pytest.mark.parametrize("kind, subtract_layer", [
    ("well_prepared", False), ("generic", False), ("generic", True)])
def test_hard_sphere_rate_does_not_depend_on_the_truncation(hs_study, kind, subtract_layer):
    """Degrees 6 and 8 of the hard-sphere operator: weighted_sup agrees within
    1 percent at every eps and the eps-slopes within 0.01, so the measured
    rate is the equation's, not the cutoff's."""
    low, high = (hs_study(deg, kind, subtract_layer).metadata for deg in (6, 8))
    for eps, sup in low["weighted_sup"].items():
        assert abs(high["weighted_sup"][eps] - sup) <= 0.01 * sup, eps
    assert abs(high["eps_slope"] - low["eps_slope"]) <= 0.01


def test_criterion_10_reduced_fluid_formulas(syn4, coeffs4):
    """Closed-form forced mode solutions match a restarted high-order ODE
    integration to 1e-8; the suggested repair of raw data (the fluid
    semigroup's projection at t = 0) matches the algebraic preparation
    formulas to 1e-12; both constraints conserved to 1e-12 along the
    trajectory."""
    basis = syn4.basis
    s = 0.5
    xi = np.array([s, 0.0, 0.0])
    s2 = s * s

    n_raw, q_raw = 0.37 - 0.1j, -0.82 + 0.4j
    m0 = np.array([0.0, 0.6, -0.2 + 0.1j])
    with pytest.raises(DataError) as err:
        nspf_mode_solve(basis, coeffs4, MacroState(n=n_raw, m=m0, q=q_raw), None, None, xi, [0.0])
    n0, q0 = err.value.suggestion["n_hat"], err.value.suggestion["q_hat"]
    w = q_raw - math.sqrt(2.0 / 3.0) * n_raw
    assert abs(n0 + math.sqrt(6.0) * s2 / (3 + 5 * s2) * w) <= 1e-12
    assert abs(q0 - (3 + 3 * s2) / (3 + 5 * s2) * w) <= 1e-12
    assert abs(n0 + n0 / s2 + math.sqrt(2.0 / 3.0) * q0) <= 1e-12

    u0 = MacroState(n=n0, m=m0, q=q0)
    times = np.linspace(0.0, 2.0, 161)
    h1 = np.column_stack([0.3 * np.sin(2 * times), 0.1 * np.cos(times),
                          -0.2 * np.sin(times) + 0.05j * times])
    h2 = 0.4 * np.cos(3 * times) - 0.1j * np.sin(times)
    states = nspf_mode_solve(basis, coeffs4, u0, h1, h2, xi, times)
    for st in states:
        div, bous = constraint_residuals(st, xi)
        assert div <= 1e-12 and bous <= 1e-12

    b0 = branch_decay(0, s, coeffs4)
    b2 = branch_decay(2, s, coeffs4)
    c_w = (3 + 3 * s2) / (3 + 5 * s2)

    def interp(samples, t):
        if samples.ndim == 2:
            return np.array([np.interp(t, times, samples[:, k])
                             for k in range(samples.shape[1])])
        return np.interp(t, times, samples)

    def rhs(t, y):
        q = y[0] + 1j * y[1]
        m = y[2:5] + 1j * y[5:8]
        hv = interp(h1, t)
        hp = hv - (hv @ xi) * xi / s2
        dq = -b0 * q + c_w * interp(h2, t)
        dm = -b2 * m + hp
        return np.concatenate([[dq.real], [dq.imag], dm.real, dm.imag])

    m0 = np.asarray(u0.m, dtype=complex)
    y = np.concatenate([[complex(u0.q).real], [complex(u0.q).imag],
                        m0.real, m0.imag])
    # restart at every sample: the forcing is piecewise linear and an
    # integrator stepping across a kink loses its order
    for k in range(times.size - 1):
        sol = scipy.integrate.solve_ivp(rhs, (times[k], times[k + 1]), y,
                                        method="DOP853", rtol=1e-12, atol=1e-14)
        y = sol.y[:, -1]
    q_ode = y[0] + 1j * y[1]
    m_ode = y[2:5] + 1j * y[5:8]
    assert abs(states[-1].q_hat - q_ode) <= 1e-8
    assert np.max(np.abs(states[-1].m_hat - m_ode)) <= 1e-8


def test_criterion_11_reruns_are_byte_identical(tmp_path, capsys):
    """Rerunning any artifact subcommand under a fixed config reproduces
    the CSV output byte for byte."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("\n".join([
        "backend = synthetic", "max_degree = 3", "s_count = 6",
        "eps_list = 0.2, 0.1, 0.05", "t_max = 4.0", "n_layer = 3",
        "n_bulk = 6", "jobs = 2", "",
    ]), encoding="utf-8")
    for sub in ("spectrum", "dispersion", "semigroup", "converge"):
        out = tmp_path / sub
        assert cli_main([sub, "--config", str(cfg), "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        assert first, f"{sub} produced no CSV artifact"
        assert cli_main([sub, "--config", str(cfg), "--out", str(out)]) == 0
        second = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        assert first == second, f"{sub} rerun drifted"
    capsys.readouterr()
