"""Metrics and tables comparing simulated densities with surrogate output.

All reported numbers are in physical density units: scaled predictions
are inverse-transformed before any metric, and negative surrogate
outputs are clamped to zero for metrics and snapshots only (training
never clamps).  Scaled-unit losses live in the training log instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .dataset import Scaler, inverse_transform
from .discretize import Grid
from .errors import ConfigError
from .evolve import EvolutionRecord

REPORT_COLUMNS = ("t", "mse", "mae", "max_abs_err", "peak_position_err")

# a frame's peak is its first cell within this relative distance of the maximum
_PEAK_TIE = 1e-8


@dataclass(frozen=True)
class FrameMetrics:
    """Error metrics for one predicted frame against its true frame."""

    time: float
    mse: float
    mae: float
    max_abs_err: float
    peak_position_err: int


@dataclass
class ComparisonReport:
    frames: list[FrameMetrics]
    mean_mse: float
    mean_mae: float
    mean_max_abs_err: float
    mean_peak_position_err: float
    clamped_values: int


def frame_metrics(predicted: np.ndarray, truth: np.ndarray, t: float) -> FrameMetrics:
    """Standard mse/mae/max plus the displacement between the two peaks.

    Each peak is the first index within a relative 1e-8 of its frame's
    maximum, not argmax: the default density is mirror-symmetric, so its two
    central cells agree to rounding, and argmax would let rounding pick one.
    """
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ValueError(f"frame widths differ: predicted {predicted.shape}, truth {truth.shape}")
    diff = predicted - truth
    return FrameMetrics(
        time=float(t),
        mse=float(diff @ diff) / diff.shape[0],
        mae=float(np.mean(np.abs(diff))),
        max_abs_err=float(np.max(np.abs(diff))),
        peak_position_err=abs(_peak(predicted) - _peak(truth)),
    )


def _peak(frame: np.ndarray) -> int:
    top = float(np.max(frame))
    return int(np.argmax(frame >= top - _PEAK_TIE * abs(top)))


def build_report(
    record: EvolutionRecord,
    predictions_scaled: np.ndarray,
    target_times: np.ndarray,
    scaler: Scaler,
) -> ComparisonReport:
    """Compare inverse-transformed predictions against the recorded truth.

    predictions_scaled is (M, N) in scaled units with target_times (M,)
    naming the true frame each row predicts.
    """
    predictions_scaled = np.asarray(predictions_scaled, dtype=float)
    target_times = np.asarray(target_times, dtype=float)
    if predictions_scaled.ndim != 2 or predictions_scaled.shape[0] != target_times.shape[0]:
        raise ValueError(
            f"horizon mismatch: {predictions_scaled.shape[0]} predictions, "
            f"{target_times.shape[0]} target times"
        )

    physical = inverse_transform(scaler, predictions_scaled)
    clamped = int(np.count_nonzero(physical < 0.0))
    physical = np.clip(physical, 0.0, None)

    times = record.times
    dt = record.config.dt
    frames = []
    for pred, t in zip(physical, target_times):
        k = _nearest_frame(times, t, dt)
        frames.append(frame_metrics(pred, record.densities[k], times[k]))

    return ComparisonReport(
        frames=frames,
        mean_mse=float(np.mean([f.mse for f in frames])),
        mean_mae=float(np.mean([f.mae for f in frames])),
        mean_max_abs_err=float(np.mean([f.max_abs_err for f in frames])),
        mean_peak_position_err=float(np.mean([f.peak_position_err for f in frames])),
        clamped_values=clamped,
    )


def _nearest_frame(times: np.ndarray, t: float, dt: float) -> int:
    k = int(np.argmin(np.abs(times - t)))
    if abs(times[k] - t) > dt / 2:
        raise ConfigError(
            f"no recorded frame within dt/2 of t={t} (closest is t={times[k]:.6g})"
        )
    return k


def table_slice(record: EvolutionRecord, times: list[float], indices: list[int]) -> list[list[str]]:
    """Density values at (index, time) pairs, formatted to 3 significant digits.

    Returns one row per grid index: [index, x, value at times[0], ...].
    """
    grid = record.config.grid
    recorded = record.times
    n = grid.n_points
    for i in indices:
        if not 0 <= i < n:
            raise ConfigError(f"grid index {i} out of range [0, {n})")
    cols = [_nearest_frame(recorded, t, record.config.dt) for t in times]
    rows = []
    for i in indices:
        row = [str(i), f"{grid.nodes[i]:.3f}"]
        row += [f"{record.densities[k, i]:.2e}" for k in cols]
        rows.append(row)
    return rows


def render_table(record: EvolutionRecord, times: list[float], indices: list[int]) -> str:
    """Plain-text table: Index | x | one column per requested time."""
    rows = table_slice(record, times, indices)
    header = ["Index", "x"] + [f"t={t:.2f}" for t in times]
    widths = [max(len(header[j]), *(len(r[j]) for r in rows)) for j in range(len(header))]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in rows]
    return "\n".join(lines) + "\n"


def write_report_csv(report: ComparisonReport, path) -> None:
    """Per-frame metric rows plus a `mean` footer; no paths or metadata inside."""
    rows = [(f.time, f.mse, f.mae, f.max_abs_err, f.peak_position_err) for f in report.frames]
    mean = (report.mean_mse, report.mean_mae, report.mean_max_abs_err, report.mean_peak_position_err)
    write_csv(path, REPORT_COLUMNS, [*rows, ("mean", *mean)])


def write_snapshot_csv(
    grid: Grid,
    ctqw_density: np.ndarray,
    ml_density: np.ndarray,
    path,
) -> None:
    """Plot-ready columns for one time slice: x, true density, predicted density."""
    ctqw_density = np.asarray(ctqw_density, dtype=float)
    ml_density = np.clip(np.asarray(ml_density, dtype=float), 0.0, None)
    if ctqw_density.shape != (grid.n_points,) or ml_density.shape != (grid.n_points,):
        raise ValueError(
            f"density widths {ctqw_density.shape}/{ml_density.shape} "
            f"do not match grid size {grid.n_points}"
        )
    columns = zip(grid.nodes.tolist(), ctqw_density.tolist(), ml_density.tolist())
    write_csv(path, ("x", "ctqw_density", "ml_density"), columns)
