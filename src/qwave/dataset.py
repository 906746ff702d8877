"""Supervised next-frame dataset: min-max scaling, windowing, splitting.

One global (min, max) pair is fit over the training frames only and
applied everywhere; per-column scaling would distort the spatial shape
given the huge dynamic range across x.  Windows slide by one frame and
the split is chronological (training only permutes the order in which it
visits the train pairs), so the test set is an honest extrapolation in
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import atomic_text, read_fields


@dataclass(frozen=True)
class Scaler:
    """Global min-max scaler: v -> (v - min)/(max - min), exactly invertible."""

    min: float
    max: float

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError(f"scaler bounds must be finite, got min={self.min}, max={self.max}")
        if self.max < self.min:
            raise ValueError(f"scaler requires max >= min, got min={self.min}, max={self.max}")


@dataclass(frozen=True)
class WindowedDataset:
    """Sliding-window pairs: inputs[k] = frames[k..k+L), targets[k] = frames[k+L].

    inputs aliases the frames array it was cut from (see windowize);
    targets and target_times are copies.
    """

    inputs: np.ndarray  # (M, L, N), a read-only view of the frames
    targets: np.ndarray  # (M, N), a copy
    target_times: np.ndarray  # (M,), a copy

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class SplitDataset:
    """Chronological train/test split of a WindowedDataset."""

    train: WindowedDataset
    test: WindowedDataset


def fit_scaler(frames: np.ndarray) -> Scaler:
    """Global extrema over every value in the fit data."""
    frames = np.asarray(frames, dtype=float)
    if frames.size == 0:
        raise ValueError("cannot fit a scaler on empty data")
    return Scaler(float(np.min(frames)), float(np.max(frames)))


def transform(scaler: Scaler, frames: np.ndarray) -> np.ndarray:
    """Map values through (v - min)/(max - min); no clamping.

    Values outside the fit range pass through linearly so the inverse
    stays exact on test frames.  Degenerate fit data (max == min) maps
    everything to 0.
    """
    frames = np.asarray(frames, dtype=float)
    span = scaler.max - scaler.min
    if span == 0.0:
        return np.zeros_like(frames)
    return (frames - scaler.min) / span


def inverse_transform(scaler: Scaler, frames: np.ndarray) -> np.ndarray:
    """Exact algebraic inverse of transform."""
    frames = np.asarray(frames, dtype=float)
    return frames * (scaler.max - scaler.min) + scaler.min


def windowize(frames: np.ndarray, lookback: int, times: np.ndarray) -> WindowedDataset:
    """Cut F frames into M = F - lookback (input sequence, next frame) pairs.

    The inputs are a read-only sliding-window view of frames, not a copy:
    overlapping windows share the frame rows, so M windows cost no more
    memory than the frames themselves.  They alias the float64 array
    passed in: writing to it later changes the inputs but not the copied
    targets, so a caller that goes on changing its frames should pass a
    copy.  prepare_split passes the scaled array it owns.
    """
    frames = np.asarray(frames, dtype=float)
    if lookback < 1:
        raise ValueError(f"lookback must be >= 1, got {lookback}")
    n_frames = frames.shape[0]
    if n_frames < lookback + 1:
        raise ValueError(f"need at least lookback+1 = {lookback + 1} frames, got {n_frames}")
    times = np.asarray(times, dtype=float)
    if times.shape != (n_frames,):
        raise ValueError(f"times has shape {times.shape}, expected ({n_frames},)")

    n_pairs = n_frames - lookback
    inputs = np.lib.stride_tricks.sliding_window_view(frames, (lookback, frames.shape[1]))[:n_pairs, 0]
    targets = frames[lookback:].copy()
    target_times = times[lookback:].copy()
    return WindowedDataset(inputs, targets, target_times)


def _split_at(ds: WindowedDataset, n_train: int) -> SplitDataset:
    train = WindowedDataset(ds.inputs[:n_train], ds.targets[:n_train], ds.target_times[:n_train])
    test = WindowedDataset(ds.inputs[n_train:], ds.targets[n_train:], ds.target_times[n_train:])
    return SplitDataset(train, test)


def train_frame_count(n_frames: int, lookback: int, fraction: float) -> int:
    """Number of leading frames touched by train windows: n_train + lookback.

    This is the region the scaler is fit on, so training never sees
    statistics from the test side of the split.
    """
    n_pairs = n_frames - lookback
    if n_pairs < 1:
        raise ValueError(f"need at least lookback+1 = {lookback + 1} frames, got {n_frames}")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must lie in (0, 1), got {fraction}")
    return int(math.floor(fraction * n_pairs)) + lookback


def prepare_split(
    frames: np.ndarray,
    times: np.ndarray,
    lookback: int,
    fraction: float,
    scaler: Scaler,
    first_row: int = 0,
    n_frames: int | None = None,
) -> SplitDataset:
    """Scale raw frames, window them, and split chronologically.

    Shared by the train and predict commands so both see byte-identical
    window construction.  The windows view the scaled array made here,
    which no caller holds.

    frames may be rows [first_row, first_row + len(frames)) of an
    n_frames-row table (default: the whole table).  The split falls where
    the whole table's does: the window starting at table row k trains iff
    k < train_frame_count(n_frames, lookback, fraction) - lookback.  So rows
    [0, n_fit) hold exactly the table's train windows and rows
    [n_fit - lookback, n_frames) exactly its test windows, bitwise, since
    transform is elementwise.
    """
    windows = windowize(transform(scaler, frames), lookback, times)
    n_frames = len(frames) if n_frames is None else n_frames
    n_train = train_frame_count(n_frames, lookback, fraction) - lookback - first_row
    return _split_at(windows, min(max(n_train, 0), len(windows)))


def save_scaler(scaler: Scaler, path) -> None:
    """Two-line sidecar (min=..., max=...) in full precision."""
    with atomic_text(path) as fh:
        fh.write(f"min={scaler.min:.17g}\n")
        fh.write(f"max={scaler.max:.17g}\n")


def load_scaler(path) -> Scaler:
    with open(path, "r", encoding="utf-8") as fh:
        values = read_fields(fh, path, {"min": float, "max": float})
    if set(values) != {"min", "max"}:
        raise ValueError(f"{path} is not a scaler sidecar (keys {sorted(values)})")
    try:
        return Scaler(values["min"], values["max"])
    except ValueError as exc:
        raise ValueError(f"{path} is not a scaler sidecar ({exc})") from exc
