"""Batch front-end: parse a config, run one experiment, emit tables.

Artifacts are named <subcommand>-<confighash>.<ext> so a changed config can
never silently overwrite another run, while an unchanged config reproduces
its files byte for byte (floats are written with %.17g, and reductions are
ordered: the convergence study sums its shells in order, whatever the stack
size and the number of workers).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .collision import (STRUCTURE_TOL, CollisionOperator, _structural_checks,
                        assemble_collision, synthetic_collision)
from .config import (ExperimentConfig, apply_overrides, parse_config, validate_config,
                     validate_subcommand)
from .blas import describe_policy, one_blas_thread
from .dispersion import R0_DEFAULT, hydrodynamic_sweep
from .errors import CheckError, ConfigError, RegimeError, VPBError
from .limit_lab import (
    layer_time_grid,
    make_initial_data,
    oscillation_part,
    radial_grid,
    run_convergence_study,
    synth_norm_LinfP,
)
from .mode_operator import mode_matrix
from .semigroup import (
    fluid_semigroup_V,
    hydrodynamic_part,
    member_states,
    nspf_mode_solve,
    propagate_axis_modes,
)
from .transport import (
    asymptotic_eigenvalue,
    compute_kappas,
    kappas_with_error,
)
from .velocity_space import (_FRAME_TOL, _GRAM_TOL, MacroState, build_basis, quadrature_gaps,
                             weighted_inner, weighted_norm)

SUBCOMMANDS = ("check", "spectrum", "dispersion", "transport", "semigroup", "converge")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def write_csv(path: Path, header: tuple, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: Path, payload: dict) -> None:
    # serialized before the file is opened, so a NaN leaves no artifact behind
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def build_operator(cfg: ExperimentConfig) -> CollisionOperator:
    basis = build_basis(cfg.max_degree)
    if cfg.backend == "synthetic":
        return synthetic_collision(basis, nu_bar=cfg.nu_bar)
    return assemble_collision(basis, gamma=cfg.gamma, kernel_c=cfg.kernel_c)


def _grid(cfg: ExperimentConfig):
    return radial_grid(cfg.s_min, cfg.s_max, cfg.s_count, cfg.s_spacing)


def _profile(cfg: ExperimentConfig):
    sig2 = 2.0 * cfg.profile_sigma ** 2
    return lambda s: math.exp(-s * s / sig2)


def _artifact(cfg: ExperimentConfig, subcommand: str, ext: str) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{subcommand}-{cfg.digest()}.{ext}"


# ------------------------------------------------------ spectrum, dispersion

def _branch_sweep(cfg: ExperimentConfig, op: CollisionOperator):
    """((eps, s), branch points) for every sweep mode inside the eps*s ball."""
    grid = _grid(cfg)
    pairs = [(eps, float(s)) for eps in cfg.eps_list for s in grid.nodes
             if eps * float(s) <= R0_DEFAULT]
    skipped = len(cfg.eps_list) * grid.count - len(pairs)
    if not pairs:
        raise RegimeError(f"all {skipped} (eps, s) pairs lie outside the eps*s <= "
                          f"{R0_DEFAULT} ball; nothing to compute")
    if skipped:
        print(f"note: {skipped} (eps, s) pairs outside the eps*s <= {R0_DEFAULT} "
              "ball were skipped", file=sys.stderr)

    return list(zip(pairs, hydrodynamic_sweep(op, pairs)))


SPECTRUM_HEADER = ("s", "eps", "branch", "re_lambda", "im_lambda",
                   "det_residual", "eig_residual")
DISPERSION_HEADER = ("branch", "s", "eps", "re_lambda", "im_lambda",
                     "asym_residual", "det_residual", "eig_residual")


def run_branches(cfg: ExperimentConfig, subcommand: str) -> int:
    """The spectrum table, or with the asymptotic model's gap the dispersion table."""
    with one_blas_thread():
        op = build_operator(cfg)
        coeffs = compute_kappas(op) if subcommand == "dispersion" else None
        sweep = _branch_sweep(cfg, op)
    rows = []
    for (eps, s), points in sweep:
        for bp in points:
            lam = (bp.lam.real, bp.lam.imag)
            checks = (bp.det_residual, bp.eig_residual)
            if coeffs is None:
                rows.append((s, eps, bp.branch, *lam, *checks))
            else:
                gap = abs(bp.lam - asymptotic_eigenvalue(bp.branch, s, eps, coeffs))
                rows.append((bp.branch, s, eps, *lam, gap, *checks))
    path = _artifact(cfg, subcommand, "csv")
    write_csv(path, SPECTRUM_HEADER if coeffs is None else DISPERSION_HEADER, rows)
    print(path)
    return 0


# ---------------------------------------------------------------- transport

def run_transport(cfg: ExperimentConfig) -> int:
    with one_blas_thread():
        if cfg.backend == "hard_sphere":
            coeffs = kappas_with_error(cfg.max_degree, gamma=cfg.gamma,
                                       kernel_c=cfg.kernel_c)
        else:
            coeffs = compute_kappas(build_operator(cfg))
    payload = {
        "schema": cfg.schema,
        "config": cfg.digest(),
        "backend": coeffs.backend,
        "max_degree": coeffs.max_degree,
        "kappa0": coeffs.kappa0,
        "kappa1": coeffs.kappa1,
        "kappa0_long": coeffs.kappa0_long,
        "error_bar": coeffs.error_bar,
        "basis_hash": coeffs.basis_hash,
    }
    path = _artifact(cfg, "transport", "json")
    write_json(path, payload)
    print(path)
    return 0


# ---------------------------------------------------------------- semigroup

SEMIGROUP_HEADER = ("t", "norm_xi", "norm_macro", "norm_micro", "norm_s2")


def _mode_flow(op: CollisionOperator, eps: float, s: float, f0: np.ndarray, times: np.ndarray):
    """The flow of f0 in the axis mode at eps and s e1, propagated once, its
    hydrodynamic part S1 (semigroup.hydrodynamic_part) and the branch points
    S1 is built from (none outside the eps s <= R0_DEFAULT ball)."""
    basis = op.basis
    coords, _ = propagate_axis_modes(op, [eps], [s], basis.axis_sectors.coordinates(f0[None]),
                                     times)
    states = member_states(basis, coords, (0, 0), times)
    points = hydrodynamic_sweep(op, [(eps, s)])[0] if eps * s <= R0_DEFAULT else []
    return states, hydrodynamic_part(basis, eps, s, f0, times, points), points


def run_semigroup(cfg: ExperimentConfig) -> int:
    with one_blas_thread():
        op = build_operator(cfg)
        basis = op.basis
        grid = _grid(cfg)
        data = make_initial_data(cfg.kind, _profile(cfg), basis, grid)
        eps = cfg.eps_list[0]
        probe = grid.count // 2
        s = float(grid.nodes[probe])
        times = layer_time_grid(eps, cfg.t_max, cfg.n_layer, cfg.n_bulk)
        states, s1, _ = _mode_flow(op, eps, s, data.shell(probe), times)
        s2 = states - s1
        rows = []
        for i, t in enumerate(times):
            state = states[i]
            rows.append((
                float(t),
                weighted_norm(basis, state, s),
                weighted_norm(basis, basis.macro_project(state), s),
                float(np.linalg.norm(basis.micro_project(state))),
                weighted_norm(basis, s2[i], s),
            ))
    path = _artifact(cfg, "semigroup", "csv")
    write_csv(path, SEMIGROUP_HEADER, rows)
    print(path)
    return 0


# ----------------------------------------------------------------- converge

CONVERGE_HEADER = ("eps", "t", "err_Linf_P", "err_macro", "err_micro")


def run_converge(cfg: ExperimentConfig) -> int:
    with one_blas_thread():
        op = build_operator(cfg)
        coeffs = compute_kappas(op)
        grid = _grid(cfg)
        data = make_initial_data(cfg.kind, _profile(cfg), op.basis, grid)
        times = layer_time_grid(max(cfg.eps_list), cfg.t_max, cfg.n_layer, cfg.n_bulk)
        table = run_convergence_study(op, data, list(cfg.eps_list), times, coeffs,
                                      subtract_layer=cfg.subtract_layer,
                                      jobs=cfg.jobs)
    csv_path = _artifact(cfg, "converge", "csv")
    write_csv(csv_path, CONVERGE_HEADER, table.rows())
    meta = dict(table.metadata)
    meta["config"] = cfg.digest()
    meta["time_grid"] = {"t_max": cfg.t_max, "n_layer": cfg.n_layer,
                         "n_bulk": cfg.n_bulk, "points": int(times.size)}
    json_path = _artifact(cfg, "converge", "json")
    write_json(json_path, meta)
    print(csv_path)
    print(json_path)
    return 0


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
        states, s1, points = _mode_flow(op, eps, s, f, times)
        _require(np.max(np.abs(states[0] - f)) <= 1e-12, "t=0 is not the identity")
        norms = np.array([weighted_norm(basis, st, s) for st in states])
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
        states = nspf_mode_solve(basis, coeffs, u0, None, None, xi, times)
        for st, vec in zip(states, traj.states):
            i = basis.invariant_indices
            gap = max(abs(st.m_hat[1] - vec[i[2]]), abs(st.q_hat - vec[i[4]]))
            _require(gap <= 1e-8, f"reduced system disagrees by {gap:.2e}")

    def prepared_data():
        grid = radial_grid(cfg.s_min, cfg.s_max, min(cfg.s_count, 8), cfg.s_spacing)
        data = make_initial_data("well_prepared", _profile(cfg), basis, grid)
        coeffs = compute_kappas(op)
        osc = oscillation_part(data, coeffs, 0.3, cfg.eps_list[0])
        _require(np.max(np.abs(osc)) <= 1e-12, "well-prepared data oscillates")
        norm = synth_norm_LinfP(basis, grid, data.profile)
        _require(norm > 0.0, "empty synthesis")

    def table_determinism():
        grid = radial_grid(cfg.s_min, cfg.s_max, 4, cfg.s_spacing)
        data = make_initial_data(cfg.kind, _profile(cfg), basis, grid)
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
        op = build_operator(cfg)
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


RUNNERS = {
    "check": run_check,
    "spectrum": lambda cfg: run_branches(cfg, "spectrum"),
    "dispersion": lambda cfg: run_branches(cfg, "dispersion"),
    "transport": run_transport,
    "semigroup": run_semigroup,
    "converge": run_converge,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpb-spectral",
        description="Mode-by-mode spectral and diffusion-limit experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", metavar="PATH", default=None,
                       help="key=value config file (defaults apply if omitted)")
        p.add_argument("--backend", default=None,
                       help="override the collision backend")
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker threads for the convergence study's stacks of shells")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="artifact output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = parse_config(args.config)
        else:
            cfg = ExperimentConfig()
            validate_config(cfg, source="defaults")
        cfg = apply_overrides(cfg, backend=args.backend, jobs=args.jobs,
                              out_dir=args.out)
        validate_subcommand(cfg, args.subcommand, source=args.config or "defaults")
        # a runner's ConfigError (an unusable VPB_SPECTRAL_CACHE) is a config error too
        return RUNNERS[args.subcommand](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VPBError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early; send what is left to devnull so the
        # interpreter's flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
