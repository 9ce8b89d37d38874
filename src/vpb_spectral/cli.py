"""Batch front-end: parse a config, run one experiment, emit tables.

Artifacts are named <subcommand>-<confighash>.<ext> so a changed config can
never silently overwrite another run, while an unchanged config reproduces
its files byte for byte (floats are written with %.17g, and reductions are
ordered: the convergence study sums its shells in order, whatever the stack
size and the number of workers).

Every job's code is imported here, and only that: the check runner imports
its references and steps (the checks module) when it runs, so no other job
compiles them.  One flat parser takes the subcommand and four flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .collision import CollisionOperator, assemble_collision, synthetic_collision
from .config import (ExperimentConfig, apply_overrides, parse_config, validate_config,
                     validate_subcommand)
from .blas import one_blas_thread
from .dispersion import R0_DEFAULT, hydrodynamic_sweep
from .errors import ConfigError, RegimeError, VPBError
from .limit_lab import layer_time_grid, make_initial_data, radial_grid, run_convergence_study
from .semigroup import hydrodynamic_part, member_states, propagate_axis_modes
from .transport import asymptotic_eigenvalue, compute_kappas, kappas_with_error
from .velocity_space import build_basis, weighted_norm

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
        states, s1, _ = _mode_flow(op, eps, s, data.profile[probe], times)
        rows = zip(times.tolist(), weighted_norm(basis, states, s),
                   weighted_norm(basis, basis.macro_project(states), s),
                   [float(np.linalg.norm(x)) for x in basis.micro_project(states)],
                   weighted_norm(basis, states - s1, s))
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

def run_check(cfg: ExperimentConfig) -> int:
    """checks.run_check, imported only when check runs: no other job compiles it."""
    from .checks import run_check as run

    return run(cfg)


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
    parser.add_argument("subcommand", choices=SUBCOMMANDS, help="the experiment to run")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="key=value config file (defaults apply if omitted)")
    parser.add_argument("--backend", default=None, help="override the collision backend")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker threads for the convergence study's stacks of shells")
    parser.add_argument("--out", default=None, metavar="DIR", help="artifact output directory")
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
