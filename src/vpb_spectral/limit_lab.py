"""Diffusion-limit experiments on a radial wavevector grid.

Every spatial quantity here is synthesized from per-shell Fourier modes:
the spectra depend only on |xi|, so a radial grid with the axis
representative xi = s*e1 per shell carries all the information, and the
L-infinity norms in x are bounded through the L1-in-xi synthesis
4*pi * sum_k s_k^2 w_k ||f_hat(s_k)||_{s_k}.  The convergence study takes
a stack of shells at a time and all their eps values at once: the modes
share their sector frames, so the kinetic flow is one stacked
eigen-expansion per sector (semigroup.propagate_axis_modes), the fluid limit
one evolve over the shell axis, and the errors are read off sector coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .collision import CollisionOperator
from .dispersion import FLUID_BRANCHES, fluid_constraints, limit_vectors, shell_coefficients
from .errors import DataError, FitError
from .gauss import leggauss
from .mode_operator import check_eps
from .semigroup import propagate_axis_modes
from .transport import TransportCoefficients, compute_kappas
from .velocity_space import (
    VelocityBasis,
    bilinear_pair,
    macro_vector,
    poisson_energy,
    project_macro,
)

S_MIN_DEFAULT = 0.05  # zero mode excluded: the Poisson factor diverges there
CONSTRAINT_TOL = 1e-12
# shells per task of the convergence study; every size gives the same bits.  The
# benchmark's study took 89/57/41/36/37 ms at 1/2/4/8/32 shells per stack (2-vCPU Xeon,
# one BLAS thread), and 8 adds 0.6 MB to the job's peak RSS
SHELLS_PER_STACK = 8


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature shells for radial synthesis; weights are plain ds weights."""

    nodes: np.ndarray
    weights: np.ndarray
    spacing: str
    s_min: float
    s_max: float

    @property
    def count(self) -> int:
        return self.nodes.size

    @property
    def measure(self) -> np.ndarray:
        """The radial measure 4 pi s_k^2 w_k of each shell, formed as
        ((4 pi s_k) s_k) w_k, the one product every radial synthesis reads."""
        return 4.0 * math.pi * self.nodes * self.nodes * self.weights

    def descriptor(self) -> dict:
        return {"s_min": self.s_min, "s_max": self.s_max,
                "count": int(self.count), "spacing": self.spacing}


def radial_grid(s_min: float = S_MIN_DEFAULT, s_max: float = 0.6,
                count: int = 32, spacing: str = "legendre") -> RadialGrid:
    if not (math.isfinite(s_min) and math.isfinite(s_max)):
        raise DataError(f"radial grid bounds must be finite, not [{s_min}, {s_max}]")
    if s_min <= 0.0:
        raise DataError(f"s_min={s_min} must be positive; the zero mode has no Poisson factor")
    if s_max <= s_min or count < 2:
        raise DataError("radial grid needs s_max > s_min and at least two shells")
    if spacing == "legendre":
        x, w = leggauss(count)
        nodes = 0.5 * (s_max - s_min) * (x + 1.0) + s_min
        weights = 0.5 * (s_max - s_min) * w
    elif spacing == "uniform":
        nodes = np.linspace(s_min, s_max, count)
        weights = np.full(count, (s_max - s_min) / (count - 1))
        weights[0] *= 0.5
        weights[-1] *= 0.5
    else:
        raise DataError(f"unknown grid spacing {spacing!r}")
    return RadialGrid(nodes=nodes, weights=weights, spacing=spacing,
                      s_min=float(s_min), s_max=float(s_max))


@dataclass
class InitialData:
    """Per-shell mode coefficients of the initial perturbation."""

    kind: str
    grid: RadialGrid
    basis: VelocityBasis
    profile: np.ndarray            # (count, dim) complex


def _well_prepared_checks(basis: VelocityBasis, vec: np.ndarray, s) -> dict:
    """Residuals of the three preparation constraints at one shell, or at
    each shell s[k] of a stack vec (K, dim)."""
    div, bous = fluid_constraints(project_macro(basis, vec), s)
    return {"micro": np.linalg.norm(basis.micro_project(vec), axis=-1), "divergence": div,
            "boussinesq": bous}


def make_initial_data(kind: str, spectral_profile, basis: VelocityBasis,
                      grid: RadialGrid | None = None) -> InitialData:
    """Build per-shell initial data from a decaying amplitude profile.

    generic data carries density, parallel and transverse momentum, energy
    and a microscopic component, so both acoustic projections and the
    initial layer are present.  well_prepared data is amp (h_0 / (h_0's
    energy) + 0.7 h_2 - 0.4 h_3) on every shell at once, in the span of the
    non-oscillatory limit vectors (limit_vectors), which meets both
    preparation constraints and kills the acoustic projections;
    _assert_well_prepared checks them to CONSTRAINT_TOL.  The profile must be
    finite on every shell and nonzero on one.
    """
    if kind not in ("generic", "well_prepared"):
        raise DataError(f"unknown initial-data kind {kind!r}")
    if grid is None:
        grid = radial_grid()
    with np.errstate(all="ignore"):  # the values are checked below
        amps = [complex(spectral_profile(s)) for s in grid.nodes]
    if not (np.isfinite(amps).all() and any(amps)):
        raise DataError("the spectral profile must be finite on every shell and nonzero on one")
    if kind == "well_prepared":
        h, slots = limit_vectors(basis, grid.nodes), list(basis.invariant_indices)
        unit = h[0][:, slots] / h[0][:, slots[4:]] + 0.7 * h[2][:, slots] - 0.4 * h[3][:, slots]
        data = InitialData(kind=kind, grid=grid, basis=basis,
                           profile=basis.embed_invariants(np.array(amps)[:, None] * unit))
        _assert_well_prepared(data)
        return data
    profile = np.zeros((grid.count, basis.dim), dtype=complex)
    micro_seed = basis.micro_project(basis.v1 @ basis.chi(2))
    micro_seed = micro_seed / np.linalg.norm(micro_seed)
    for k, amp in enumerate(amps):
        vec = macro_vector(basis, 0.4 * amp, amp * np.array([0.8, 0.5, -0.3]), -0.6 * amp)
        profile[k] = vec.astype(complex) + 0.5 * amp * micro_seed
    return InitialData(kind=kind, grid=grid, basis=basis, profile=profile)


def _assert_well_prepared(data: InitialData) -> None:
    """DataError unless every shell meets the preparation constraints and
    pairs to zero with both acoustic limit vectors, each to CONSTRAINT_TOL."""
    s = data.grid.nodes
    res = _well_prepared_checks(data.basis, data.profile, s)
    hs = limit_vectors(data.basis, s)
    res["acoustic"] = bilinear_pair(data.basis, data.profile[:, None],
                                    np.stack([hs[-1], hs[1]], axis=1), s[:, None])
    worst = {key: float(np.max(np.abs(v))) for key, v in res.items()}
    bad = {k: v for k, v in worst.items() if not v <= CONSTRAINT_TOL}
    if bad:
        raise DataError(f"well-prepared invariants violated: {bad}")


def layer_time_grid(eps: float, t_max: float, n_layer: int = 12,
                    n_bulk: int = 24) -> np.ndarray:
    """Geometric bulk grid with a linear refinement inside the layer [0, 10 eps];
    DataError for a non-finite eps or t_max."""
    if not (math.isfinite(eps) and math.isfinite(t_max)):
        raise DataError(f"layer time grid needs a finite eps and t_max, not {eps} and {t_max}")
    edge = min(10.0 * eps, 0.5 * t_max)
    layer = np.linspace(0.0, edge, n_layer, endpoint=False)
    bulk = np.geomspace(edge, t_max, n_bulk)
    grid = np.sort(np.concatenate([layer, bulk]))
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


ERROR_COLUMNS = ("eps", "t", "err_Linf_P", "err_macro", "err_micro")


@dataclass
class ErrorTable:
    """Convergence-study output: one row per (eps, t), plus run metadata."""

    eps: np.ndarray
    t: np.ndarray
    err_Linf_P: np.ndarray
    err_macro: np.ndarray
    err_micro: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        keys = list(zip(self.eps.tolist(), self.t.tolist()))
        if len(set(keys)) != len(keys):
            raise DataError("duplicate (eps, t) rows in error table")
        for name in ERROR_COLUMNS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"non-finite entries in {name}")
        for name in ("err_Linf_P", "err_macro", "err_micro"):
            if np.any(getattr(self, name) < 0):
                raise DataError(f"negative entries in {name}")

    def rows(self):
        for i in range(self.eps.size):
            yield (float(self.eps[i]), float(self.t[i]),
                   float(self.err_Linf_P[i]), float(self.err_macro[i]),
                   float(self.err_micro[i]))

    def for_eps(self, eps: float) -> dict[str, np.ndarray]:
        sel = self.eps == eps
        return {name: getattr(self, name)[sel]
                for name in ("t", "err_Linf_P", "err_macro", "err_micro")}


def _gap_norms(basis: VelocityBasis, coords, limit: np.ndarray, s) -> np.ndarray:
    """(weighted, weighted macro, plain micro) norms of the kinetic states
    (their AxisSectors.coordinates, None for zeros) minus the fluid limit
    (evolve), s the wavenumbers broadcast against limit[..., 0].  The transform is
    orthogonal, and its rows at the invariant slots are exact unit vectors on
    the leading n_invariant[m] columns of sectors 0 and 1; the rest is micro."""
    sectors, slots = basis.axis_sectors, list(basis.invariant_indices)
    unit = sectors.scale[slots, None] * sectors.transform[slots]
    kinetic, micro_sq = np.zeros_like(limit), np.zeros(limit.shape[:-1])
    for spans, xs, head in zip(sectors.spans, coords, sectors.n_invariant):
        for sl, x in zip(spans, xs):
            if x is not None:
                kinetic += x @ unit[:, sl].T
                micro_sq += (x.real[..., head:] ** 2 + x.imag[..., head:] ** 2).sum(axis=-1)
    diff = kinetic - limit
    sq = diff.real ** 2 + diff.imag ** 2
    # in ascending slot order, as a slot-space sum; the density leads evolve's order
    macro_sq = sq[..., np.argsort(slots)].sum(axis=-1) + poisson_energy(sq[..., 0], s)
    return np.sqrt(np.stack([macro_sq + micro_sq, macro_sq, micro_sq], axis=-1))


def _stack_errors(op, coeffs, eps_list, s, f0, g, times, subtract):
    """The _gap_norms (K, E, T, 3) at the K shells s (floats), the E values of eps_list
    and each time, from the shells' data f0 (K, dim) and g, its AxisSectors.coordinates;
    the kinetic flow is one stack per sector, the fluid limit one evolve of every shell.

    The fluid semigroup acts on the macro part of the data.  With subtract
    the acoustic layer is removed as well, and so is the kinetic flow of the
    micro part: the flow is linear, so S(f0) - S(micro f0) = S(macro f0), and
    the caller passes the macro part as f0.
    """
    basis = op.basis
    coords, _ = propagate_axis_modes(op, eps_list, s, g, times)
    branches = FLUID_BRANCHES + (-1, 1) if subtract else FLUID_BRANCHES
    limit = shell_coefficients(basis, np.array(s), coeffs).evolve(
        basis, basis.macro_project(f0), times, branches, eps_list)
    return _gap_norms(basis, coords, limit, np.reshape(s, (-1, 1, 1)))


def run_convergence_study(op: CollisionOperator, data: InitialData, eps_list,
                          time_grid, coeffs: TransportCoefficients | None = None,
                          subtract_layer: bool = False, jobs: int = 1) -> ErrorTable:
    """Kinetic-versus-fluid error synthesis over an (eps, shell) sweep.

    Per shell the kinetic mode is propagated from the full data while the
    fluid semigroup propagates its macroscopic projection; the per-shell
    gaps are synthesized into radial norms.  subtract_layer removes the
    oscillation part and the microscopic kinetic propagation before taking
    norms, which is the combination whose gap stays first order in eps
    uniformly down to t = 0.

    One task per stack of SHELLS_PER_STACK shells serves every eps: each
    sector block holding data is decomposed once for all (shell, eps)
    modes, and the data's sector coordinates are one product for every shell
    (_stack_errors).  jobs > 1 maps the stacks over a thread pool; the
    reduction order, and so every bit, stays the same.

    Weighted-sup slopes over eps land in metadata; fewer than three eps
    values cannot support the fit and are refused (FitError), and so is an
    eps outside (0, 1) (RegimeError).
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise FitError("slope fit refused: need at least three eps values")
    for eps in eps_list:
        check_eps(eps)
    if coeffs is None:
        coeffs = compute_kappas(op)
    times = np.asarray(time_grid, dtype=float)
    basis = data.basis
    grid = data.grid
    f0 = basis.macro_project(data.profile) if subtract_layer else data.profile
    g = basis.axis_sectors.coordinates(f0)

    def stack_task(k):
        sl = slice(k, k + SHELLS_PER_STACK)
        return _stack_errors(op, coeffs, eps_list, grid.nodes[sl].tolist(), f0[sl],
                             [[x[sl] for x in xs] for xs in g], times, subtract_layer)

    stacks = range(0, grid.count, SHELLS_PER_STACK)
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # only the pool needs it
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = [r for rs in pool.map(stack_task, stacks) for r in rs]
    else:
        results = [r for k in stacks for r in stack_task(k)]

    acc = np.zeros((len(eps_list), times.size, 3))
    for measure, errors in zip(grid.measure.tolist(), results):  # shell order
        acc += measure * errors
    acc = acc.reshape(-1, 3)
    table = ErrorTable(
        eps=np.repeat(eps_list, times.size), t=np.tile(times, len(eps_list)),
        err_Linf_P=acc[:, 0], err_macro=acc[:, 1], err_micro=acc[:, 2],
        metadata={
            "kind": data.kind,
            "backend": op.backend,
            "basis": op.basis.descriptor_hash(),
            "s_grid": grid.descriptor(),
            "eps_list": eps_list,
            "subtract_layer": subtract_layer,
        })
    exponent = 0.5 if subtract_layer else 0.75
    table.metadata["weight_exponent"] = exponent
    sups = {e: weighted_sup(table, e, exponent) for e in eps_list}
    table.metadata["weighted_sup"] = {f"{e:.17g}": v for e, v in sups.items()}
    table.metadata["eps_slope"] = (eps_slope(sups) if all(v > 0.0 for v in sups.values())
                                   else None)
    return table


def weighted_sup(table: ErrorTable, eps: float, exponent: float) -> float:
    """sup over positive grid times of (1+t)^exponent * total error."""
    cols = table.for_eps(eps)
    keep = cols["t"] > 0.0
    if not np.any(keep):
        raise FitError("no positive times in the table")
    return float(np.max((1.0 + cols["t"][keep]) ** exponent
                        * cols["err_Linf_P"][keep]))


def eps_slope(sups: dict) -> float:
    """The least-squares slope of log weighted_sup against log eps, sups the
    weighted_sup of each eps, fitted in ascending eps; FitError unless there
    are three eps values and every sup is positive and finite."""
    eps_vals = sorted(sups)
    if len(eps_vals) < 3:
        raise FitError("slope fit refused: need at least three eps values")
    vals = [sups[e] for e in eps_vals]
    if not all(0.0 < v < math.inf for v in vals):
        raise FitError(f"slope fit refused: every sup must be positive and finite, not {vals}")
    return float(np.polyfit(np.log(eps_vals), np.log(vals), 1)[0])
