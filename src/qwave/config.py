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

from .errors import ConfigError


def float_or_none(text: str) -> float | None:
    """A float, or None for the sentinel `none` in any letter case."""
    return None if text.strip().lower() == "none" else float(text)


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
    training_clip: float | None = None  # max gradient norm; None disables clipping
    io_output_dir: str = "out"


# key -> (field name, parser): the key is the field's section, a dot, then the
# rest of its name; the file format and the flags are untyped text
_PARSERS = {"float": float, "int": int, "str": str, "float | None": float_or_none}
_SCHEMA = {f.name.replace("_", ".", 1): (f.name, _PARSERS[f.type]) for f in fields(RunConfig)}


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse `section.key=value` lines; blank lines and # comments ignored."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        field_name, cast = _SCHEMA[key]
        if field_name in values:
            raise ConfigError(f"{source}:{lineno}: duplicate config key {key!r}")
        try:
            values[field_name] = cast(value)
        except ValueError as exc:
            raise ConfigError(
                f"{source}:{lineno}: cannot parse {key}={value!r} as {cast.__name__}"
            ) from exc
    return replace(RunConfig(), **values)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    return parse_config(text, source=str(path))


def serialize_config(cfg: RunConfig) -> str:
    """Emit every key in schema order; parse(serialize(c)) == c."""
    lines = []
    for key, (field_name, _) in _SCHEMA.items():
        value = getattr(cfg, field_name)
        if value is None:
            text = "none"
        elif isinstance(value, float):
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
            raise ConfigError(f"unknown config key {key!r}")
        updates[_SCHEMA[key][0]] = value
    return replace(cfg, **updates)


def validate_config(cfg: RunConfig) -> RunConfig:
    """Range-check every field before any computation; fail fast."""
    for key in ("grid.a", "grid.b", "evolution.dt", "training.lr", "training.clip"):
        value = getattr(cfg, _SCHEMA[key][0])
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    # numpy sizes an array by a signed 64-bit int, and dx needs n_points as a float
    sizes = ("grid.n_points", "evolution.n_steps", "dataset.lookback", "training.epochs", "training.hidden_dim")
    for key in sizes:
        value = getattr(cfg, _SCHEMA[key][0])
        if value > 2**63 - 1:
            raise ConfigError(f"{key} must be at most 2**63 - 1, got a {len(str(value))}-digit number")
    if cfg.training_rng_seed < 0:
        raise ConfigError(f"training.rng_seed must be >= 0, got {cfg.training_rng_seed}")
    if not cfg.grid_b > cfg.grid_a:
        raise ConfigError(f"grid.b ({cfg.grid_b}) must exceed grid.a ({cfg.grid_a})")
    if cfg.grid_n_points < 3:
        raise ConfigError(f"grid.n_points must be >= 3, got {cfg.grid_n_points}")
    # the Laplacian scales by 1/dx^2 and the potential by x^2: both stay in the float range
    dx = (cfg.grid_b - cfg.grid_a) / (cfg.grid_n_points - 1)
    edge = max(abs(cfg.grid_a), abs(cfg.grid_b))
    if not (sys.float_info.min <= dx * dx < math.inf and edge * edge < math.inf):
        raise ConfigError(
            f"grid.a={cfg.grid_a!r}, grid.b={cfg.grid_b!r} and grid.n_points={cfg.grid_n_points} "
            f"give dx={dx:.3g}; dx^2 must be a normal float and grid.a^2 and grid.b^2 finite"
        )
    if not cfg.evolution_dt > 0:
        raise ConfigError(f"evolution.dt must be positive, got {cfg.evolution_dt}")
    if cfg.evolution_n_steps < 1:
        raise ConfigError(f"evolution.n_steps must be >= 1, got {cfg.evolution_n_steps}")
    if cfg.evolution_normalization_mode not in ("ell2", "dx_weighted"):
        raise ConfigError(
            "evolution.normalization_mode must be 'ell2' or 'dx_weighted', "
            f"got {cfg.evolution_normalization_mode!r}"
        )
    if cfg.dataset_lookback < 1:
        raise ConfigError(f"dataset.lookback must be >= 1, got {cfg.dataset_lookback}")
    if not 0.0 < cfg.dataset_split_fraction < 1.0:
        raise ConfigError(
            f"dataset.split_fraction must lie in (0, 1), got {cfg.dataset_split_fraction}"
        )
    n_frames = cfg.evolution_n_steps + 1
    if n_frames < cfg.dataset_lookback + 1:
        raise ConfigError(
            f"evolution produces {n_frames} frames but lookback {cfg.dataset_lookback} "
            f"needs at least {cfg.dataset_lookback + 1}"
        )
    if cfg.training_epochs < 1:
        raise ConfigError(f"training.epochs must be >= 1, got {cfg.training_epochs}")
    if not cfg.training_lr >= 0:
        raise ConfigError(f"training.lr must be >= 0, got {cfg.training_lr}")
    if cfg.training_hidden_dim < 1:
        raise ConfigError(f"training.hidden_dim must be >= 1, got {cfg.training_hidden_dim}")
    if cfg.training_clip is not None and not cfg.training_clip > 0:
        raise ConfigError(f"training.clip must be positive or none, got {cfg.training_clip}")
    if not cfg.io_output_dir:
        raise ConfigError("io.output_dir must be non-empty")
    return cfg


def config_keys() -> tuple[str, ...]:
    return tuple(_SCHEMA)


def key_type(key: str) -> Callable[[str], object]:
    """The parser of key's text, shared by the config file and its flag."""
    return _SCHEMA[key][1]
