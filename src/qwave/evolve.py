"""Gaussian initial state, the timestep loop, and density frame recording.

The initial packet exp(-x^2) is narrower than the oscillator ground
state, so it breathes: the density is periodic with period pi in natural
units.  Each step applies the same exact propagator, so probability is
conserved to rounding and the loop reproduces the direct evaluation
psi(t) = Q exp(-i lam t) Q^T psi(0) at every recorded time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import Grid, Hamiltonian
from .errors import ConservationError
from .spectral import SpectralDecomposition, apply_propagator, build_propagator, eigendecompose
from .state import DensityFrame, WaveState, density

NORMALIZATION_MODES = ("ell2", "dx_weighted")

# hard-abort threshold; tests assert the tighter 1e-10 bound
_DRIFT_ABORT = 1e-8


@dataclass(frozen=True)
class EvolutionConfig:
    """Timestep schedule for one run: n_steps steps of size dt."""

    grid: Grid
    dt: float
    n_steps: int
    normalization_mode: str = "ell2"

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {self.n_steps}")
        if self.normalization_mode not in NORMALIZATION_MODES:
            raise ValueError(
                f"normalization_mode must be one of {NORMALIZATION_MODES}, "
                f"got {self.normalization_mode!r}"
            )


@dataclass(frozen=True)
class EvolutionRecord:
    """Density frames at t = 0, dt, ..., T*dt plus the conservation log."""

    config: EvolutionConfig
    frames: list[DensityFrame]
    conservation_log: np.ndarray
    decomposition: SpectralDecomposition | None = None  # the run's; None when read from CSV

    @property
    def times(self) -> np.ndarray:
        return np.array([f.time for f in self.frames])

    def density_matrix(self) -> np.ndarray:
        """Frames stacked as a (n_frames, N) array."""
        return np.stack([f.density for f in self.frames])


def _norm_sq(amplitudes: np.ndarray, mode: str, dx: float) -> float:
    total = float(np.sum(np.abs(amplitudes) ** 2))
    return total * dx if mode == "dx_weighted" else total


def gaussian_initial(grid: Grid, mode: str = "ell2") -> WaveState:
    """Normalized Gaussian packet psi_i = exp(-x_i^2) / norm at t = 0.

    mode "ell2" divides by sqrt(sum exp(-2 x^2)) so sum |psi|^2 = 1;
    "dx_weighted" divides by sqrt(sum exp(-2 x^2) dx) so
    sum |psi|^2 dx = 1.
    """
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"normalization_mode must be one of {NORMALIZATION_MODES}, got {mode!r}")
    raw = np.exp(-(grid.nodes**2))
    norm_sq = np.sum(raw**2)
    if mode == "dx_weighted":
        norm_sq = norm_sq * grid.dx
    amps = (raw / np.sqrt(norm_sq)).astype(complex)
    amps.setflags(write=False)
    return WaveState(amps, 0.0)


def run_evolution(
    config: EvolutionConfig,
    h: Hamiltonian,
    initial: WaveState | None = None,
    record_stride: int = 1,
) -> EvolutionRecord:
    """Step the state n_steps times, recording a density frame per step.

    The initial state defaults to the Gaussian packet in the configured
    normalization.  record_stride > 1 thins the recorded frames; each
    logged drift is the worst since the previous recorded frame.  Aborts
    with ConservationError if the norm drifts by more than 1e-8 or is not
    finite, which signals a broken decomposition, not rounding.
    """
    if h.n != config.grid.n_points:
        raise ValueError(f"Hamiltonian order {h.n} does not match grid size {config.grid.n_points}")
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")

    psi = gaussian_initial(config.grid, config.normalization_mode) if initial is None else initial
    if psi.amplitudes.shape != (config.grid.n_points,):
        raise ValueError(
            f"initial state has {psi.amplitudes.shape[0]} amplitudes, "
            f"grid has {config.grid.n_points} nodes"
        )

    decomp = eigendecompose(h)
    u = build_propagator(decomp, config.dt)

    def drift_of(state: WaveState) -> float:
        return abs(_norm_sq(state.amplitudes, config.normalization_mode, config.grid.dx) - 1.0)

    frames = [density(psi)]
    log = [drift_of(psi)]
    worst = 0.0
    for k in range(1, config.n_steps + 1):
        psi = apply_propagator(u, psi)
        drift = drift_of(psi)
        if not drift <= _DRIFT_ABORT:
            raise ConservationError(
                f"norm drifted by {drift:.3e} at step {k} (t={k * config.dt:.4g}), "
                f"beyond the {_DRIFT_ABORT:.0e} abort threshold"
            )
        worst = max(worst, drift)
        if k % record_stride == 0:
            frames.append(density(psi))
            log.append(worst)
            worst = 0.0

    return EvolutionRecord(config, frames, np.array(log), decomp)


def write_frames_csv(times: np.ndarray, rows: np.ndarray, path) -> None:
    """Frame table: header t,x_0,...,x_{N-1}, then one row per time, 17 digits.

    The one codec for every frame table: simulated densities and the
    surrogate's predictions alike.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or len(times) != rows.shape[0]:
        raise ValueError(f"{len(times)} times for rows of shape {rows.shape}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"x_{i}" for i in range(rows.shape[1])) + "\n")
        for t, row in zip(times, rows):
            fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def read_frames_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a frame table back as (times, rows) arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("t,x_0"):
            raise ValueError(f"{path} is not a frame CSV (header {header[:40]!r})")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return data[:, 0], data[:, 1:]


def write_conservation_csv(record: EvolutionRecord, path) -> None:
    """Conservation CSV: header t,norm_drift, one row per recorded frame."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,norm_drift\n")
        for frame, drift in zip(record.frames, record.conservation_log):
            fh.write(f"{frame.time:.17g},{drift:.17g}\n")


def record_from_frames(
    grid: Grid, dt: float, normalization_mode: str, times: np.ndarray, frames: np.ndarray,
    source: str,
) -> EvolutionRecord:
    """Rebuild a record from frame-table arrays read from source, for
    table/comparison use.

    The conservation log is not stored in the frame table, so the rebuilt
    record carries zeros there; the real log lives in its own CSV.
    """
    if frames.shape[1] != grid.n_points:
        raise ValueError(
            f"{source} has {frames.shape[1]} columns, grid has {grid.n_points} nodes"
        )
    config = EvolutionConfig(
        grid=grid, dt=dt, n_steps=max(len(times) - 1, 0), normalization_mode=normalization_mode
    )
    density_frames = [DensityFrame(float(t), row) for t, row in zip(times, frames)]
    return EvolutionRecord(config, density_frames, np.zeros(len(density_frames)))


def record_from_frames_csv(
    grid: Grid, dt: float, normalization_mode: str, path
) -> EvolutionRecord:
    """record_from_frames on a frame CSV read from path."""
    times, frames = read_frames_csv(path)
    return record_from_frames(grid, dt, normalization_mode, times, frames, source=str(path))
