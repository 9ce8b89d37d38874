"""Flat key=value experiment configuration with strict validation.

One experiment is one config file.  Every knob has a default, so an empty
file is a valid config; the artifact names hash the fully resolved values,
which makes reruns reproducible and collisions between distinct setups
practically impossible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

SCHEMA_VERSION = 1

BACKENDS = ("synthetic", "hard_sphere")
KINDS = ("generic", "well_prepared")
SPACINGS = ("legendre", "uniform")
# the largest max_degree whose jobs were measured: a synthetic converge job at
# degree 16 peaks at 107 MB and 1.1 s on a 2-vCPU host; nothing above was run
MAX_DEGREE = 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment parameters; construct via parse_config."""

    schema: int = SCHEMA_VERSION
    backend: str = "synthetic"
    max_degree: int = 4
    gamma: float = 1.0
    kernel_c: float = 1.0
    nu_bar: float = 1.0
    s_min: float = 0.05
    s_max: float = 0.6
    s_count: int = 32
    s_spacing: str = "legendre"
    eps_list: tuple[float, ...] = (0.2, 0.1, 0.05)
    t_max: float = 20.0
    n_layer: int = 12
    n_bulk: int = 24
    kind: str = "well_prepared"
    subtract_layer: bool = False
    profile_sigma: float = 0.2
    tol: float = 1e-8
    out_dir: str = "artifacts"
    jobs: int = 1
    seed: int = 0

    def canonical_lines(self) -> list[str]:
        out = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                text = ",".join("%.17g" % x for x in v)
            elif isinstance(v, float):
                text = "%.17g" % v
            elif isinstance(v, bool):
                text = "true" if v else "false"
            else:
                text = str(v)
            out.append(f"{f.name}={text}")
        return out

    def digest(self) -> str:
        blob = "\n".join(self.canonical_lines()).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_value(field: dataclasses.Field, raw: str):
    raw = raw.strip()
    if field.type in ("int", int):
        return int(raw)
    if field.type in ("float", float):
        return float(raw)
    if field.type in ("bool", bool):
        return _parse_bool(raw)
    if field.name == "eps_list":
        parts = [p for p in raw.replace(",", " ").split() if p]
        if not parts:
            raise ValueError("empty list")
        return tuple(float(p) for p in parts)
    return raw


def parse_config(path) -> ExperimentConfig:
    """Read a key=value file; every diagnostic carries line and field."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    values: dict = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {rawline!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in fields:
            raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate field {key!r}")
        try:
            values[key] = _parse_value(fields[key], raw)
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: field {key!r}: {exc}") from exc
    cfg = ExperimentConfig(**values)
    validate_config(cfg, source=str(path))
    return cfg


def validate_config(cfg: ExperimentConfig, source: str = "config") -> None:
    def bad(field: str, message: str):
        raise ConfigError(f"{source}: field {field!r}: {message}")

    if cfg.schema != SCHEMA_VERSION:
        bad("schema", f"unsupported schema {cfg.schema}; this build reads {SCHEMA_VERSION}")
    if cfg.backend not in BACKENDS:
        bad("backend", f"{cfg.backend!r} not one of {BACKENDS}")
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                bad(f.name, f"non-finite value {v}")
    if cfg.max_degree < 2:
        bad("max_degree", "must be at least 2 to span the invariants")
    if cfg.max_degree > MAX_DEGREE:
        bad("max_degree", f"{cfg.max_degree} is above {MAX_DEGREE}, the largest degree "
            "whose time and memory were measured")
    for name in ("gamma", "kernel_c", "nu_bar"):
        if getattr(cfg, name) <= 0:
            bad(name, "kernel parameters must be positive")
    if cfg.gamma > 1.0:
        bad("gamma", "kernel exponent must lie in (0, 1], the hard-potential range")
    if not 0.0 < cfg.s_min < cfg.s_max:
        bad("s_min", f"need 0 < s_min < s_max, got [{cfg.s_min}, {cfg.s_max}]")
    if cfg.s_count < 2:
        bad("s_count", "need at least two shells")
    if cfg.s_spacing not in SPACINGS:
        bad("s_spacing", f"{cfg.s_spacing!r} not one of {SPACINGS}")
    if not cfg.eps_list:
        bad("eps_list", "must not be empty")
    if len(set(cfg.eps_list)) != len(cfg.eps_list):
        bad("eps_list", f"repeated entries in {list(cfg.eps_list)}")
    for e in cfg.eps_list:
        if not 0.0 < e < 1.0:
            bad("eps_list", f"scaling parameter {e} outside the open interval (0, 1); "
                "the expansion is only defined for eps in (0, 1)")
    if cfg.t_max <= 0:
        bad("t_max", "must be positive")
    if cfg.n_layer < 1:
        bad("n_layer", "need n_layer >= 1")
    if cfg.n_bulk < 2:
        bad("n_bulk", "need n_bulk >= 2")
    if cfg.kind not in KINDS:
        bad("kind", f"{cfg.kind!r} not one of {KINDS}")
    if cfg.profile_sigma <= 0:
        bad("profile_sigma", "must be positive")
    if cfg.tol <= 0:
        bad("tol", "must be positive")
    if cfg.jobs < 1:
        bad("jobs", "must be at least 1")


def validate_subcommand(cfg: ExperimentConfig, subcommand: str,
                        source: str = "config") -> None:
    """What one subcommand needs beyond validate_config: converge fits its eps
    slope, which takes at least three eps values, and every subcommand but
    check writes artifacts, which takes an out_dir that no file blocks."""
    if subcommand == "converge" and len(cfg.eps_list) < 3:
        raise ConfigError(f"{source}: field 'eps_list': converge fits the eps slope "
                          f"through at least three values, got {len(cfg.eps_list)}")
    out = Path(cfg.out_dir)
    blocked = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if subcommand != "check" and blocked is not None:
        raise ConfigError(f"{str(blocked)!r} is a file, so no artifact can be written "
                          f"under {cfg.out_dir!r}", field="out_dir")


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Replace fields from CLI flags (None means keep) and re-validate."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    if not updates:
        return cfg
    out = dataclasses.replace(cfg, **updates)
    validate_config(out, source="command line")
    return out
