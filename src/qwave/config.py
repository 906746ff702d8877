"""Flat key=value run configuration shared by every CLI command.

Keys carry a section prefix (`grid.a=-5`); the same names double as
command-line override flags, and flags win over the file.  Unknown keys
are rejected so typos fail fast instead of silently using a default.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields, replace

from .artifacts import read_fields

NORMALIZATION_MODES = ("ell2", "dx_weighted")  # evolve's, kept here: the CLI checks them before numpy loads


@dataclass(frozen=True)
class RunConfig:
    """Defaults reproduce the shipped reference setup end to end."""

    grid_a: float = -5.0
    grid_b: float = 5.0
    grid_n_points: int = 200
    evolution_dt: float = 0.05
    evolution_n_steps: int = 100
    evolution_normalization_mode: str = "ell2"
    dataset_lookback: int = 4
    dataset_split_fraction: float = 0.8
    training_epochs: int = 100
    training_lr: float = 5e-3
    training_hidden_dim: int = 64
    training_rng_seed: int = 42
    io_output_dir: str = "out"


# key -> parser: the key is its field's name with the first underscore made a
# dot (`grid.a` for grid_a); the file format and the flags are untyped text
_PARSERS = {"float": float, "int": int, "str": str}
_SCHEMA = {f.name.replace("_", ".", 1): _PARSERS[f.type] for f in fields(RunConfig)}


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse `section.key=value` lines; blank lines and # comments ignored."""
    return apply_overrides(RunConfig(), read_fields(text.splitlines(), source, _SCHEMA))


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # skips a leading byte-order mark
            text = fh.read()
    except FileNotFoundError as exc:
        raise ValueError(f"config file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"config file {path} is not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from exc
    return parse_config(text, source=str(path))


def serialize_config(cfg: RunConfig) -> str:
    """Emit every key in schema order; parse(serialize(c)) == c if validate_config accepts c."""
    lines = []
    for key in _SCHEMA:
        value = getattr(cfg, key.replace(".", "_", 1))
        if isinstance(value, float):
            text = repr(value)  # shortest exact round-trip form
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: RunConfig, overrides: dict[str, object]) -> RunConfig:
    """Apply {config key: already-typed value} on top of cfg; flags win."""
    updates = {}
    for key, value in overrides.items():
        if key not in _SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        updates[key.replace(".", "_", 1)] = value
    return replace(cfg, **updates)


def validate_config(cfg: RunConfig) -> RunConfig:
    """Range-check every field before any computation; fail fast."""
    for key in ("grid.a", "grid.b", "evolution.dt", "training.lr"):
        value = getattr(cfg, key.replace(".", "_", 1))
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
    # numpy sizes an array by a signed 64-bit int, and dx needs n_points as a float
    sizes = ("grid.n_points", "evolution.n_steps", "dataset.lookback", "training.epochs", "training.hidden_dim")
    for key in sizes:
        value = getattr(cfg, key.replace(".", "_", 1))
        if value > 2**63 - 1:
            raise ValueError(f"{key} must be at most 2**63 - 1, got a {len(str(value))}-digit number")
    if cfg.training_rng_seed < 0:
        raise ValueError(f"training.rng_seed must be >= 0, got {cfg.training_rng_seed}")
    if not cfg.grid_b > cfg.grid_a:
        raise ValueError(f"grid.b ({cfg.grid_b}) must exceed grid.a ({cfg.grid_a})")
    if cfg.grid_n_points < 3:
        raise ValueError(f"grid.n_points must be >= 3, got {cfg.grid_n_points}")
    # the Laplacian scales by 1/dx^2 and the potential by x^2: both stay in the float range
    dx = (cfg.grid_b - cfg.grid_a) / (cfg.grid_n_points - 1)
    edge = max(abs(cfg.grid_a), abs(cfg.grid_b))
    if not (sys.float_info.min <= dx * dx < math.inf and edge * edge < math.inf):
        raise ValueError(
            f"grid.a={cfg.grid_a!r}, grid.b={cfg.grid_b!r} and grid.n_points={cfg.grid_n_points} "
            f"give dx={dx:.3g}; dx^2 must be a normal float and grid.a^2 and grid.b^2 finite"
        )
    if not cfg.evolution_dt > 0:
        raise ValueError(f"evolution.dt must be positive, got {cfg.evolution_dt}")
    if cfg.evolution_n_steps < 1:
        raise ValueError(f"evolution.n_steps must be >= 1, got {cfg.evolution_n_steps}")
    if cfg.evolution_normalization_mode not in NORMALIZATION_MODES:
        raise ValueError(
            f"evolution.normalization_mode must be {' or '.join(map(repr, NORMALIZATION_MODES))}, "
            f"got {cfg.evolution_normalization_mode!r}"
        )
    if cfg.dataset_lookback < 1:
        raise ValueError(f"dataset.lookback must be >= 1, got {cfg.dataset_lookback}")
    if not 0.0 < cfg.dataset_split_fraction < 1.0:
        raise ValueError(
            f"dataset.split_fraction must lie in (0, 1), got {cfg.dataset_split_fraction}"
        )
    if cfg.training_epochs < 1:
        raise ValueError(f"training.epochs must be >= 1, got {cfg.training_epochs}")
    if not cfg.training_lr >= 0:
        raise ValueError(f"training.lr must be >= 0, got {cfg.training_lr}")
    if cfg.training_hidden_dim < 1:
        raise ValueError(f"training.hidden_dim must be >= 1, got {cfg.training_hidden_dim}")
    if not cfg.io_output_dir:
        raise ValueError("io.output_dir must be non-empty")
    if cfg.io_output_dir != cfg.io_output_dir.strip() or len(cfg.io_output_dir.splitlines()) != 1:
        # the config file could not carry it: its lines are split and stripped
        raise ValueError(f"io.output_dir must be one line without space at its ends, got {cfg.io_output_dir!r}")
    return cfg


def config_keys() -> tuple[str, ...]:
    return tuple(_SCHEMA)


def key_type(key: str) -> Callable[[str], object]:
    """The parser of key's text, shared by the config file and its flag."""
    return _SCHEMA[key]
