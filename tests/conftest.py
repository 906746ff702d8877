"""Shared fixtures: the default-configuration pipeline, computed once.

The default run (200-point grid, 100 steps, 100 training epochs) is
expensive enough that every consumer shares one session-scoped copy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from qwave import compare as cp
from qwave import dataset as dsm
from qwave import discretize as dz
from qwave import evolve as ev
from qwave import spectral as sp
from qwave import surrogate as sg
from qwave.config import RunConfig

# property tests repeat exactly and ignore wall-clock deadlines, which a
# loaded machine would otherwise trip
settings.register_profile("qwave", deadline=None, derandomize=True, database=None)
settings.load_profile("qwave")


@pytest.fixture(scope="session")
def default_config() -> RunConfig:
    return RunConfig()


@pytest.fixture(scope="session")
def default_grid(default_config) -> dz.Grid:
    return dz.make_grid(default_config.grid_a, default_config.grid_b, default_config.grid_n_points)


@pytest.fixture(scope="session")
def default_hamiltonian(default_grid) -> dz.Hamiltonian:
    return dz.assemble_hamiltonian(
        dz.laplacian(default_grid), dz.harmonic_potential(default_grid)
    )


@pytest.fixture(scope="session")
def default_decomposition(default_hamiltonian) -> sp.SpectralDecomposition:
    return sp.eigendecompose(default_hamiltonian)


@pytest.fixture(scope="session")
def default_record(default_config, default_grid, default_hamiltonian) -> ev.EvolutionRecord:
    run = ev.EvolutionConfig(
        grid=default_grid,
        dt=default_config.evolution_dt,
        n_steps=default_config.evolution_n_steps,
        normalization_mode=default_config.evolution_normalization_mode,
    )
    return ev.run_evolution(run, default_hamiltonian)


@pytest.fixture(scope="session")
def default_split(default_config, default_record):
    """(scaler, split) for the default run, scaler fit on the train region."""
    frames = default_record.density_matrix()
    times = default_record.times
    n_fit = dsm.train_frame_count(
        len(frames), default_config.dataset_lookback, default_config.dataset_split_fraction
    )
    scaler = dsm.fit_scaler(frames[:n_fit])
    split = dsm.prepare_split(
        frames,
        times,
        default_config.dataset_lookback,
        default_config.dataset_split_fraction,
        scaler,
    )
    return scaler, split


@pytest.fixture(scope="session")
def trained_default(default_config, default_split):
    """(model, history) from full default training; ~3 s, shared."""
    _, split = default_split
    model = sg.init_model(
        default_config.grid_n_points,
        default_config.training_hidden_dim,
        default_config.training_rng_seed,
    )
    return sg.train(
        model,
        split.train,
        epochs=default_config.training_epochs,
        lr=default_config.training_lr,
    )


@pytest.fixture(scope="session")
def default_report(default_record, default_split, trained_default) -> cp.ComparisonReport:
    """One-step test-set comparison at defaults, physical units."""
    scaler, split = default_split
    model, _ = trained_default
    preds = sg.predict_one_step(model, split.test.inputs)
    return cp.build_report(default_record, preds, split.test.target_times, scaler)


def float64_model(model: sg.SurrogateModel) -> sg.SurrogateModel:
    """The same weights widened into a float64 model; every surrogate function
    follows the dtype of the parameter vector, so this one runs in float64."""
    wide = sg.SurrogateModel(model.input_dim, model.hidden_dim, model.seed)
    wide.params = sg.Params(model.params.flat.astype(np.float64), model.input_dim, model.hidden_dim)
    return wide


def dense(op) -> np.ndarray:
    """The dense symmetric matrix of a tridiagonal operator, from its two bands."""
    return np.diag(op.diagonal) + np.diag(op.off_diagonal, 1) + np.diag(op.off_diagonal, -1)


def dense_unitary(q: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """U = Q diag(phases) Q^T, from a propagator's factors."""
    return (q * phases) @ q.T


def small_frames(n_frames: int = 40, width: int = 12, seed: int = 0) -> np.ndarray:
    """Smooth synthetic density movie for fast dataset/training tests."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, width)
    center = 0.2 + 0.5 * np.arange(n_frames) / max(n_frames - 1, 1)
    frames = np.exp(-((x[None, :] - center[:, None]) ** 2) / 0.02)
    return frames + 1e-3 * rng.uniform(size=frames.shape)


@pytest.fixture()
def tiny_split():
    """Small trainable split: 12-wide frames, lookback 4."""
    frames = small_frames()
    scaler = dsm.fit_scaler(frames)
    times = np.arange(len(frames), dtype=float)
    return scaler, dsm.prepare_split(frames, times, 4, 0.8, scaler)
