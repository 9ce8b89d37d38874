"""The check subcommand: every shortcut the jobs take, held against its reference.

No job imports this module; cli's check runner imports it when it runs.  So
the references that of the subcommands only check runs live here, and no
other job compiles them: the dense mode matrix (mode_matrix), the dense
Gram and Burnett-frame gaps on the (N+1)^3-node rule (quadrature_gaps), the
acoustic layer of the initial data (oscillation_part), the radial synthesis
norm (synth_norm_LinfP), the three-branch fluid semigroup
(fluid_semigroup_V) and the forced fluid mode equations (nspf_mode_solve),
solved in the coordinates <u, h_j> on the non-oscillatory branches' limit
vectors by exact Duhamel integration of piecewise-linear forcing.  The
fluid subspace and its constraints are dispersion's (limit_vectors,
fluid_constraints).

The operator, the profile and one mode's flow are the jobs' own, looked up
on cli when check runs (cli.build_operator, cli._profile, cli._mode_flow),
so check holds what the jobs run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import cli
from .blas import describe_policy, one_blas_thread
from .collision import STRUCTURE_TOL, CollisionOperator, _structural_checks
from .config import ExperimentConfig
from .dispersion import (FLUID_BRANCHES, asymptotic_coefficients, fluid_constraints,
                         hydrodynamic_sweep, shell_coefficients)
from .errors import CheckError, DataError, VPBError
from .limit_lab import (InitialData, RadialGrid, layer_time_grid, make_initial_data,
                        radial_grid, run_convergence_study)
from .mode_operator import _checked_times, check_eps
from .transport import TransportCoefficients, compute_kappas
from .velocity_space import (_GRAM_TOL, MacroState, VelocityBasis, bilinear_pair, burnett_rows,
                             macro_vector, project_macro, weighted_inner, weighted_norm)

_FRAME_TOL = 1e-13  # largest gap between the closed-form transform and its quadrature projection


# ---------------------------------------------------------------- references

def mode_matrix(collision: CollisionOperator, eps: float, s: float) -> np.ndarray:
    """The dense complex mode matrix B of the axis mode at eps and s e1."""
    basis = collision.basis
    i0 = basis.density_index
    coupling = np.zeros((basis.dim, basis.dim))
    coupling[:, i0] = basis.v1[:, i0] / s ** 2
    return collision.matrix - 1j * eps * s * (basis.v1 + coupling)


def _gram_deviation(rows: np.ndarray, weights: np.ndarray) -> float:
    """max |P W P^T - I| for basis rows P, (dim, npts), on a rule with weights W."""
    gram = rows @ (weights[:, None] * rows.T)
    return float(np.max(np.abs(gram - np.eye(rows.shape[0]))))


def quadrature_gaps(basis: VelocityBasis) -> tuple[float, float]:
    """The dense references of build_basis and axis_sectors on exact_rule:
    the largest entry of its Gram matrix minus the identity, and the largest
    gap between the Burnett transform, signs and labels included, and the
    Burnett functions projected on the rule over every slot."""
    rule = basis.exact_rule
    gram = _gram_deviation(rule.poly, rule.weights)
    sectors = basis.axis_sectors
    # burnett_rows takes its axis along its third coordinate: put v1 there
    phi = burnett_rows(rule.nodes[:, [1, 2, 0]], sectors.labels)
    projected = (phi * rule.weights) @ rule.poly.T
    frames = float(np.max(np.abs(projected - (sectors.transform * sectors.signs).T)))
    return gram, frames


def synth_norm_LinfP(basis: VelocityBasis, grid: RadialGrid, fld: np.ndarray) -> float:
    """Radial L1 synthesis 4*pi sum_k s_k^2 w_k ||f_hat(s_k)||_{s_k}.

    Upper bound surrogate for the sup-in-x norm of the inverse transform.
    """
    fld = np.asarray(fld)
    if fld.shape != (grid.count, basis.dim):
        raise DataError(f"field shape {fld.shape} does not match grid x basis "
                        f"({grid.count}, {basis.dim})")
    return float(np.sum(grid.measure * weighted_norm(basis, fld, grid.nodes)))


def oscillation_part(data: InitialData, coeffs: TransportCoefficients,
                     t: float, eps: float) -> np.ndarray:
    """Acoustic-branch layer field at time t, one row per shell.

    Each shell evolves its two acoustic projections with the closed-form
    phase exp(eta_j t / eps - b_j t), all in one evolve; well-prepared data has no
    acoustic content, so the result vanishes identically there.  eps in (0, 1).
    """
    check_eps(eps)
    basis = data.basis
    bundle = shell_coefficients(basis, data.grid.nodes, coeffs)
    return basis.embed_invariants(bundle.evolve(
        basis, basis.macro_project(data.profile), [t], (-1, 1), eps)[:, 0])


# ------------------------------------------------------------ fluid modes

@dataclass
class ModeTrajectory:
    """Time samples of one Fourier mode, kinetic or fluid; method names the
    path that computed the states: "fluid" here, "eig" or "expm" from the
    kinetic propagate_kinetic of tests/oracles.py."""

    xi: np.ndarray
    eps: float
    times: np.ndarray
    states: np.ndarray
    basis: VelocityBasis
    method: str

    @property
    def norm_track(self) -> np.ndarray:
        """Weighted norm at each time; for the unforced kinetic flow it must
        be non-increasing (the flow is a contraction)."""
        return weighted_norm(self.basis, self.states, float(np.linalg.norm(self.xi)))


@dataclass
class FluidModeState:
    n_hat: complex
    m_hat: np.ndarray
    q_hat: complex
    p_hat: complex
    phi_hat: complex


def _macro_as_vector(basis: VelocityBasis, u0) -> np.ndarray:
    """Fluid data as a coefficient vector; DataError unless it is macroscopic
    and finite (a NaN moment would pass every constraint check)."""
    if isinstance(u0, MacroState):
        u0 = macro_vector(basis, u0.n, u0.m, u0.q)
    vec = np.asarray(u0, dtype=complex)
    if vec.shape != (basis.dim,):
        raise DataError(f"fluid data must be a MacroState or a length-{basis.dim} "
                        "coefficient vector")
    if not np.isfinite(vec).all():
        raise DataError("fluid data must have finite moments")
    micro = basis.micro_project(vec)
    scale = np.linalg.norm(vec)
    if scale > 0 and np.linalg.norm(micro) > 1e-12 * scale:
        raise DataError("fluid initial data must lie in the macroscopic subspace")
    return vec


def fluid_semigroup_V(basis: VelocityBasis, coeffs: TransportCoefficients,
                      u0, xi, times) -> ModeTrajectory:
    """The three-branch fluid semigroup applied to macroscopic data.

    Rank-three evolution: each non-oscillatory branch decays at its own
    e^{-b_j t} with the weighted pairing against the limit vector h_j.
    """
    bundle = asymptotic_coefficients(basis, xi, coeffs)
    times = np.asarray(times, dtype=float)
    states = basis.embed_invariants(bundle.evolve(basis, _macro_as_vector(basis, u0), times,
                                                  FLUID_BRANCHES))
    return ModeTrajectory(xi=np.array([bundle.s, 0.0, 0.0]), eps=0.0, times=times,
                          states=states, basis=basis, method="fluid")


def _phi1(z: complex) -> complex:
    if abs(z) < 1e-5:
        return 1.0 + z / 2.0 + z * z / 6.0
    return np.expm1(z) / z


def _phi2(z: complex) -> complex:
    if abs(z) < 1e-5:
        return 0.5 + z / 6.0 + z * z / 24.0
    return (np.expm1(z) - z) / (z * z)


def _duhamel_linear(b: float, times: np.ndarray, start: complex,
                    forcing: np.ndarray) -> np.ndarray:
    """u' = -b u + F with F piecewise linear through the samples; exact.

    Each step uses the closed-form integral of e^{-b(dt-u)} against a linear
    segment, so the only error in the output is roundoff -- the quadrature
    is exact for forcing that really is piecewise linear.
    """
    out = np.empty(times.size, dtype=complex)
    out[0] = start
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        if dt == 0.0:
            out[k + 1] = out[k]
            continue
        z = -b * dt
        out[k + 1] = out[k] * math.exp(z) \
            + dt * (_phi1(z) * forcing[k] + _phi2(z) * (forcing[k + 1] - forcing[k]))
    return out


def _sample_forcing(h, times: np.ndarray, width: int):
    if h is None:
        shape = (times.size, width) if width > 1 else (times.size,)
        return np.zeros(shape, dtype=complex)
    if callable(h):
        vals = np.array([h(t) for t in times], dtype=complex)
    else:
        vals = np.asarray(h, dtype=complex)
    expect = (times.size,) if width == 1 else (times.size, width)
    if vals.shape != expect:
        raise DataError(f"forcing must be sampled on the time grid with shape {expect}")
    if not np.isfinite(vals).all():
        raise DataError("forcing samples must be finite")
    return vals


def nspf_mode_solve(basis: VelocityBasis, coeffs: TransportCoefficients,
                    u0: MacroState, h1, h2, xi, times) -> list[FluidModeState]:
    """Forced fluid mode equations solved through their Duhamel forms.

    The state stays in the span of the non-oscillatory limit vectors h_j,
    j = 0, 2, 3 (asymptotic_coefficients), so it is sum_j a_j h_j: each
    coordinate a_j = <u, h_j> decays at b_j with the forcing (0, h1(t), h2(t))
    paired against h_j as its source (one bilinear_pair for the data and
    every sample), integrated exactly for forcing that is piecewise linear
    (_duhamel_linear).  Initial data must already satisfy both constraints
    (dispersion.fluid_constraints, to 1e-10 of its largest moment); the
    DataError's suggestion is its projection onto that span, the fluid
    semigroup at t = 0.  xi is parsed by axis_wavenumber, and times are
    checked as for the kinetic flow (DataError).
    """
    bundle = asymptotic_coefficients(basis, xi, coeffs)
    s = bundle.s
    times = _checked_times(times)
    u = _macro_as_vector(basis, u0)
    scale = max(float(np.max(np.abs(u))), 1e-30)
    div, bous = fluid_constraints(project_macro(basis, u), s)
    if div > 1e-10 * scale or bous > 1e-10 * scale:
        fix = bundle.evolve(basis, u, [0.0], FLUID_BRANCHES)[0]  # (n, m, q) slots
        raise DataError(
            "fluid initial data violates the mode constraints "
            f"(divergence {div:.2e}, density-potential {bous:.2e}); "
            "the suggestion field carries compatible values",
            suggestion={"n_hat": fix[0], "m_hat": fix[1:4], "q_hat": fix[4]})

    h1_vals = _sample_forcing(h1, times, 3)
    h2_vals = _sample_forcing(h2, times, 1)
    forcing = basis.embed_invariants(np.column_stack([np.zeros(times.size), h1_vals, h2_vals]))
    hs = np.stack([bundle.h[j] for j in FLUID_BRANCHES])
    coefs = bilinear_pair(basis, np.vstack([u, forcing])[:, None], hs, s)
    a = np.column_stack([_duhamel_linear(bundle.b[j], times, coefs[0, i], coefs[1:, i])
                         for i, j in enumerate(FLUID_BRANCHES)])
    st = project_macro(basis, a @ hs)
    p_traj = -1j * h1_vals[:, 0] / s
    return [FluidModeState(n_hat=complex(n), m_hat=m, q_hat=complex(q), p_hat=complex(p),
                           phi_hat=complex(-n / (s * s)))
            for n, m, q, p in zip(st.n, st.m, st.q, p_traj)]


# -------------------------------------------------------------------- check

def _require(ok, message: str) -> None:
    """CheckError(message) unless ok: a check that also holds under python -O."""
    if not ok:
        raise CheckError(message)


def _check_steps(cfg: ExperimentConfig, op: CollisionOperator):
    """Yield (name, callable) invariant checks; callables raise VPBError on failure."""
    basis = op.basis
    tol = cfg.tol
    rng = np.random.default_rng(cfg.seed)

    def basis_quadrature():
        # the dense references of the separable Gram check and the closed-form
        # frames, on the (N+1)^3-node rule that no other subcommand evaluates
        gram, frames = quadrature_gaps(basis)
        _require(gram <= _GRAM_TOL, f"dense Gram matrix off the identity by {gram:.2e}")
        _require(frames <= _FRAME_TOL,
                 f"Burnett transform off its quadrature projection by {frames:.2e}")

    def streaming_blocks():
        # the dense reference of the sector streaming blocks the jobs read off the labels
        sectors = basis.axis_sectors
        dense = sectors.scale.conj()[:, None] * (-1j * basis.v1) * sectors.scale[None, :]
        ratio = (np.max(np.abs(sectors.basis_matrix(op.sector_blocks.W) - dense))
                 / np.max(np.abs(dense)))
        _require(ratio <= STRUCTURE_TOL, f"streaming blocks off the dense conj(S) (-i V1) S by "
                                         f"{ratio / STRUCTURE_TOL:.2g} times STRUCTURE_TOL")

    def collision_structure():
        _structural_checks(op.radial)
        _require(op.spectral_gap() > 0.0, "no spectral gap")

    def mode_dissipation():
        # Re (B f, f) in the mode metric equals the collision form exactly
        b = mode_matrix(op, cfg.eps_list[0], 0.4)
        f = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        diss = float(np.real(weighted_inner(basis, b @ f, f, 0.4)))
        ref = float(np.real(np.vdot(f, op.matrix @ f)))
        _require(diss <= 1e-12 * np.linalg.norm(f) ** 2, f"positive dissipation {diss:.2e}")
        _require(abs(diss - ref) <= 1e-8 * max(1.0, abs(ref)), "metric broke the collision form")

    def dispersion_consistency():
        eps = min(cfg.eps_list)
        points = hydrodynamic_sweep(op, [(eps, 0.5)])[0]
        dense = np.linalg.eigvals(mode_matrix(op, eps, 0.5))
        for bp in points:
            _require(bp.det_residual <= tol, f"det residual {bp.det_residual:.2e}")
            gap = float(np.min(np.abs(dense - bp.lam)))
            _require(gap <= 1e-8, f"branch {bp.branch} misses dense spectrum by {gap:.2e}")

    def transport_positive():
        coeffs = compute_kappas(op)
        _require(coeffs.kappa0 > 0 and coeffs.kappa1 > 0, "nonpositive coefficient")
        iso = abs(coeffs.kappa0_long - 4.0 / 3.0 * coeffs.kappa0)
        _require(iso <= 1e-10 * coeffs.kappa0, f"isotropy broken by {iso:.2e}")

    def semigroup_split():
        # S1 against the dense spectral projection onto the eigenvalues of B
        # nearest the branch points, one each (the shear eigenvalue is double)
        eps, s = cfg.eps_list[0], 0.5
        f = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        times = np.array([0.0, 0.05, 0.2])
        states, s1, points = cli._mode_flow(op, eps, s, f, times)
        _require(np.max(np.abs(states[0] - f)) <= 1e-12, "t=0 is not the identity")
        norms = weighted_norm(basis, states, s)
        _require(np.all(np.diff(norms) <= 1e-9 * norms[0]), "norm grew along the flow")
        dense = np.zeros_like(s1)
        if points:
            vals, vecs = np.linalg.eig(mode_matrix(op, eps, s))
            near = []
            for bp in points:
                near.append(next(k for k in np.argsort(np.abs(vals - bp.lam)) if k not in near))
            coeffs = np.linalg.solve(vecs, f)[near]
            dense = (np.exp(np.outer(times, vals[near]) / eps ** 2) * coeffs) @ vecs[:, near].T
        gap = float(np.max(np.abs(s1 - dense))) / float(np.max(np.abs(f)))
        _require(gap <= 1e-9, f"hydrodynamic part off the dense spectral projection by {gap:.2e}")

    def fluid_consistency():
        coeffs = compute_kappas(op)
        s = 0.5
        xi = np.array([s, 0.0, 0.0])
        u0 = MacroState(n=0.0, m=np.array([0.0, 1.0, 0.0]), q=0.0)
        times = np.linspace(0.0, 2.0, 5)
        traj = fluid_semigroup_V(basis, coeffs, u0, xi, times)
        expected = np.exp(-coeffs.kappa0 * s * s * times)
        _require(np.max(np.abs(traj.norm_track - expected)) <= 1e-10,
                 "transverse decay off the closed form")
        # the reduced system from the semigroup's t = 0 projection of data with
        # every moment, so the thermal branch is compared too
        u0 = MacroState(n=0.3, m=np.array([0.2, 0.7, -0.4]), q=-0.8)
        traj = fluid_semigroup_V(basis, coeffs, u0, xi, times)
        states = nspf_mode_solve(basis, coeffs, project_macro(basis, traj.states[0]), None, None,
                                 xi, times)
        for st, vec in zip(states, traj.states):
            gap = float(np.max(np.abs(macro_vector(basis, st.n_hat, st.m_hat, st.q_hat) - vec)))
            _require(gap <= 1e-8, f"reduced system disagrees by {gap:.2e}")

    def prepared_data():
        grid = radial_grid(cfg.s_min, cfg.s_max, min(cfg.s_count, 8), cfg.s_spacing)
        data = make_initial_data("well_prepared", cli._profile(cfg), basis, grid)
        coeffs = compute_kappas(op)
        osc = oscillation_part(data, coeffs, 0.3, cfg.eps_list[0])
        _require(np.max(np.abs(osc)) <= 1e-12, "well-prepared data oscillates")
        norm = synth_norm_LinfP(basis, grid, data.profile)
        _require(norm > 0.0, "empty synthesis")

    def table_determinism():
        grid = radial_grid(cfg.s_min, cfg.s_max, 4, cfg.s_spacing)
        data = make_initial_data(cfg.kind, cli._profile(cfg), basis, grid)
        eps3 = (list(cfg.eps_list) + [e for e in (0.2, 0.1, 0.05) if e not in cfg.eps_list])[:3]
        times = layer_time_grid(max(eps3), min(cfg.t_max, 5.0), 4, 6)
        one = run_convergence_study(op, data, eps3, times, compute_kappas(op))
        two = run_convergence_study(op, data, eps3, times, compute_kappas(op))
        _require(np.array_equal(one.err_Linf_P, two.err_Linf_P), "rerun drifted")

    yield "basis quadrature", basis_quadrature
    yield "streaming blocks", streaming_blocks
    yield "collision structure", collision_structure
    yield "mode dissipation", mode_dissipation
    yield "dispersion consistency", dispersion_consistency
    yield "transport coefficients", transport_positive
    yield "semigroup split", semigroup_split
    yield "fluid consistency", fluid_consistency
    yield "prepared data", prepared_data
    yield "table determinism", table_determinism


def run_check(cfg: ExperimentConfig) -> int:
    print(describe_policy())
    failures = 0
    t_start = time.perf_counter()
    with one_blas_thread():
        op = cli.build_operator(cfg)
        for name, step in _check_steps(cfg, op):
            t0 = time.perf_counter()
            try:
                step()
            except CheckError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
            except VPBError as exc:
                failures += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            else:
                print(f"PASS {name} ({time.perf_counter() - t0:.2f}s)")
    total = time.perf_counter() - t_start
    print(f"{'FAILED' if failures else 'OK'} "
          f"({failures} failure(s), {total:.2f}s total)")
    return 1 if failures else 0
