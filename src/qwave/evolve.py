"""Gaussian initial state, the timestep loop, and density frame recording.

The initial packet exp(-x^2) is narrower than the oscillator ground
state, so it breathes: the density is periodic with period pi in natural
units.  The loop steps in the eigenbasis of H: c = Q^T psi(0), and each
step multiplies c by the propagator's phases exp(-i lam dt), which is
exact and O(N).  So probability is conserved to rounding and the loop
reproduces the direct evaluation psi(t) = Q exp(-i lam t) Q^T psi(0) at
every recorded time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .discretize import Grid, Hamiltonian
from .errors import ConservationError, FrameCountError
from .spectral import Propagator, SpectralDecomposition, build_propagator, eigendecompose

NORMALIZATION_MODES = ("ell2", "dx_weighted")

# hard-abort threshold; tests assert the tighter 1e-10 bound
_DRIFT_ABORT = 1e-8
# entries of one block of steps: the loop forms the states of
# max(1, this // N) steps at a time
_STEP_BLOCK_ENTRIES = 1 << 15


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
    """Density table at t = 0, dt, ..., T*dt plus the conservation log.

    times is (T,) and densities is (T, N), one row per recorded frame.
    conservation_log is None for a record rebuilt from a frame table, which
    does not store it.
    """

    config: EvolutionConfig
    times: np.ndarray
    densities: np.ndarray
    conservation_log: np.ndarray | None
    decomposition: SpectralDecomposition | None = None  # the run's; None when read from CSV

    def density_matrix(self) -> np.ndarray:
        """The (n_frames, N) density table itself, not a copy."""
        return self.densities


def gaussian_initial(grid: Grid, mode: str = "ell2") -> np.ndarray:
    """Normalized Gaussian packet psi_i = exp(-x_i^2) / norm at t = 0.

    Returns the real, read-only (N,) amplitude vector.  mode "ell2"
    divides by sqrt(sum exp(-2 x^2)) so sum psi^2 = 1; "dx_weighted"
    divides by sqrt(sum exp(-2 x^2) dx) so sum psi^2 dx = 1.
    """
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"normalization_mode must be one of {NORMALIZATION_MODES}, got {mode!r}")
    raw = np.exp(-(grid.nodes**2))
    norm_sq = np.sum(raw**2)
    weight = grid.dx if mode == "dx_weighted" else 1.0
    # ValueError if a sum is zero or subnormal: it has lost the digits that normalize psi
    if not min(norm_sq, norm_sq * weight) >= np.finfo(float).tiny:
        raise ValueError(
            f"the packet exp(-x^2) misses the domain [{grid.a!r}, {grid.b!r}]: its squared "
            f"norm there, {norm_sq * weight:.3g}, is below the smallest normal float"
        )
    psi = raw / np.sqrt(norm_sq * weight)
    psi.setflags(write=False)
    return psi


def _stepped_states(u: Propagator, psi0: np.ndarray, n_steps: int):
    """Yield (k0, re, im) for steps 1..n_steps in blocks: row j of re and im
    holds Re psi and Im psi of step k0 + j.

    The coefficients c = Q^T psi0 step as c <- exp(-i lam dt) c, and each
    block of max(1, _STEP_BLOCK_ENTRIES // N) steps forms psi = Q c by two
    real products in einsum's own loops, not a BLAS GEMM, which splits its
    sums among threads and so would round by OPENBLAS_NUM_THREADS.  A block
    is freed before the next one is formed as long as the caller drops its
    own references to re and im first.
    """
    q, phases = u.eigenvectors, u.phases
    steps = max(1, _STEP_BLOCK_ENTRIES // u.n)
    c = q.T @ psi0
    coeffs = np.empty((min(steps, n_steps), u.n), dtype=complex)
    for k0 in range(1, n_steps + 1, steps):
        block = coeffs[: min(steps, n_steps + 1 - k0)]
        for row in block:  # c is the step before: the row above, or the last block's last row
            np.multiply(c, phases, out=row)
            c = row
        # contiguous copies halve einsum's time against the strided views
        im = np.einsum("ij,kj->ik", block.imag.copy(), q)
        re = np.einsum("ij,kj->ik", block.real.copy(), q)
        yield k0, re, im
        del re, im


def run_evolution(config: EvolutionConfig, h: Hamiltonian) -> EvolutionRecord:
    """Step the Gaussian packet n_steps times, recording a density frame per step.

    The initial state is the Gaussian packet in the configured
    normalization.  _stepped_states forms every step's psi, and each
    step's density and norm drift go straight into the record.  Aborts
    with ConservationError at the first step whose norm drifts by more
    than 1e-8 or is not finite, which signals a broken decomposition, not
    rounding.
    """
    if h.n != config.grid.n_points:
        raise ValueError(f"Hamiltonian order {h.n} does not match grid size {config.grid.n_points}")

    psi0 = gaussian_initial(config.grid, config.normalization_mode)
    decomp = eigendecompose(h)
    u = build_propagator(decomp, config.dt)
    weight = config.grid.dx if config.normalization_mode == "dx_weighted" else 1.0

    times = config.dt * np.arange(config.n_steps + 1)
    table = np.empty((times.size, config.grid.n_points))
    log = np.empty(times.size)
    np.square(psi0, out=table[0])
    log[0] = abs(float(np.sum(table[0])) * weight - 1.0)

    for k0, re, im in _stepped_states(u, psi0, config.n_steps):
        dens, drifts = table[k0 : k0 + len(re)], log[k0 : k0 + len(re)]
        np.square(re, out=dens)
        dens += np.square(im, out=im)
        del re, im  # so the generator frees this block before forming the next
        np.abs(np.sum(dens, axis=1) * weight - 1.0, out=drifts)
        bad = np.flatnonzero(~(drifts <= _DRIFT_ABORT))
        if bad.size:
            k = k0 + int(bad[0])
            raise ConservationError(
                f"norm drifted by {drifts[bad[0]]:.3e} at step {k} (t={k * config.dt:.4g}), "
                f"beyond the {_DRIFT_ABORT:.0e} abort threshold"
            )
    table.setflags(write=False)
    times.setflags(write=False)
    return EvolutionRecord(config, times, table, log, decomp)


def write_frames_csv(times: np.ndarray, rows: np.ndarray, path) -> None:
    """Frame table: header t,x_0,...,x_{N-1}, then one row per time, 17 digits.

    The one codec for every frame table: simulated densities and the
    surrogate's predictions alike.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or len(times) != rows.shape[0]:
        raise ValueError(f"{len(times)} times for rows of shape {rows.shape}")
    header = ["t", *(f"x_{i}" for i in range(rows.shape[1]))]
    pairs = zip(np.asarray(times, dtype=float).tolist(), rows)
    write_csv(path, header, ((t, *row.tolist()) for t, row in pairs))


def read_frames_csv(
    path, start: int = 0, stop: int | None = None, n_rows: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Read rows [start, stop) of a frame table (default: all) as (times, values) arrays.

    One pass streams the file.  Every row is checked to end in a newline
    and to hold the header's field count, so a table cut short is refused
    whatever range is asked for; only the rows in range are converted to
    floats.  n_rows, when given, is the row count the table must have;
    FrameCountError (a ValueError) says how many it has otherwise.

    Raises ValueError naming path if the file is not a whole frame table or
    the range does not lie inside it.
    """
    rows = 0

    def structured(fh, width):
        nonlocal rows
        for line in fh:
            if line[-1:] != "\n":
                raise ValueError(f"frame row {rows} is cut short")
            if line.count(",") != width:
                raise ValueError(f"frame row {rows} has {line.count(',') + 1} fields, not {width + 1}")
            if start <= rows and (stop is None or rows < stop):
                yield line
            rows += 1

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("t,x_0"):
            raise ValueError(f"{path} is not a frame CSV (header {header[:40]!r})")
        width = header.count(",")
        lines = structured(fh, width)
        try:
            first = next(lines, None)  # None: every row checked, none in range
            if first is None:
                data = np.empty((0, width + 1))
            else:
                data = np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path} is not a whole frame CSV: {exc}") from exc
    if n_rows is not None and rows != n_rows:
        raise FrameCountError(f"{path} has {rows} frame rows, expected {n_rows}", rows)
    if not 0 <= start <= (rows if stop is None else stop) <= rows:
        raise ValueError(f"rows [{start}, {stop}) are not inside the {rows} rows of {path}")
    return data[:, 0], data[:, 1:]


def write_conservation_csv(record: EvolutionRecord, path) -> None:
    """Conservation CSV: header t,norm_drift, one row per recorded frame.

    Raises ValueError for a record without a conservation log (one rebuilt
    from a frame table).
    """
    if record.conservation_log is None:
        raise ValueError("the record has no conservation log; it was rebuilt from a frame table")
    write_csv(path, ("t", "norm_drift"), zip(record.times.tolist(), record.conservation_log.tolist()))


def record_from_frames_csv(grid: Grid, dt: float, normalization_mode: str, path) -> EvolutionRecord:
    """Rebuild a record from the whole frame CSV at path.

    The frame table does not store the conservation log, so the rebuilt
    record has none (None); the real log lives in its own CSV.
    """
    times, frames = read_frames_csv(path)
    if frames.shape[1] != grid.n_points:
        raise ValueError(
            f"{path} has {frames.shape[1]} columns, expected {grid.n_points} from grid.n_points"
        )
    config = EvolutionConfig(
        grid=grid, dt=dt, n_steps=max(len(times) - 1, 0), normalization_mode=normalization_mode
    )
    return EvolutionRecord(config, times, frames, None)
