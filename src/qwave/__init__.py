"""Quantum-walk simulation of a 1D harmonic well with an LSTM surrogate.

The pipeline: discretize the Hamiltonian, evolve a Gaussian packet with
the exact spectral propagator, window the density frames into a
supervised dataset, train a from-scratch LSTM to predict the next
frame, and compare predictions against the simulation.
"""

from .compare import (
    ComparisonReport,
    FrameMetrics,
    build_report,
    frame_metrics,
    render_table,
    table_slice,
    write_report_csv,
    write_snapshot_csv,
)
from .config import RunConfig, load_config, parse_config, serialize_config, validate_config
from .dataset import (
    Scaler,
    SplitDataset,
    WindowedDataset,
    fit_scaler,
    inverse_transform,
    load_scaler,
    prepare_split,
    save_scaler,
    split,
    train_frame_count,
    transform,
    windowize,
)
from .discretize import (
    Grid,
    Hamiltonian,
    Laplacian,
    assemble_hamiltonian,
    harmonic_potential,
    laplacian,
    make_grid,
)
from .errors import (
    ConfigError,
    ConservationError,
    ConvergenceError,
    MissingArtifactError,
    NonFiniteError,
    NumericalError,
)
from .evolve import (
    EvolutionConfig,
    EvolutionRecord,
    gaussian_initial,
    read_frames_csv,
    record_from_frames_csv,
    run_evolution,
    write_conservation_csv,
    write_frames_csv,
)
from .spectral import (
    Propagator,
    SpectralDecomposition,
    apply_propagator,
    build_propagator,
    eigendecompose,
    propagate_direct,
)
from .state import WaveState, density
from .surrogate import (
    AdamState,
    LossHistory,
    SurrogateModel,
    TrainConfig,
    adam_step,
    backward,
    forward,
    init_adam,
    init_model,
    load_checkpoint,
    mse,
    predict_one_step,
    predict_rollout,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
