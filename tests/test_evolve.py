import numpy as np
import pytest

from qwave import evolve as ev
from qwave.discretize import assemble_hamiltonian, harmonic_potential, laplacian, make_grid
from qwave.errors import ConservationError
from qwave.state import WaveState


def _small_setup(n=40, a=-4.0, b=4.0):
    grid = make_grid(a, b, n)
    h = assemble_hamiltonian(laplacian(grid), harmonic_potential(grid))
    return grid, h


class TestGaussianInitial:
    def test_ell2_normalization(self, default_grid):
        psi = ev.gaussian_initial(default_grid, "ell2")
        assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-14)
        assert psi.time == 0.0

    def test_dx_weighted_normalization(self, default_grid):
        psi = ev.gaussian_initial(default_grid, "dx_weighted")
        total = np.sum(np.abs(psi.amplitudes) ** 2) * default_grid.dx
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_shape_is_gaussian(self, default_grid):
        psi = ev.gaussian_initial(default_grid)
        dens = np.abs(psi.amplitudes) ** 2
        expected = np.exp(-2.0 * default_grid.nodes**2)
        expected /= expected.sum()
        assert np.allclose(dens, expected, atol=1e-15)

    def test_unknown_mode_rejected(self, default_grid):
        with pytest.raises(ValueError):
            ev.gaussian_initial(default_grid, "l1")


class TestEvolutionConfig:
    def test_validation(self, default_grid):
        with pytest.raises(ValueError):
            ev.EvolutionConfig(default_grid, dt=0.0, n_steps=10)
        with pytest.raises(ValueError):
            ev.EvolutionConfig(default_grid, dt=0.05, n_steps=-1)
        with pytest.raises(ValueError):
            ev.EvolutionConfig(default_grid, dt=0.05, n_steps=10, normalization_mode="bad")

    def test_zero_steps_allowed(self):
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=0), h)
        assert len(record.frames) == 1
        assert record.frames[0].time == 0.0


class TestRunEvolution:
    def test_frame_count_and_times(self):
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.1, n_steps=25), h)
        assert len(record.frames) == 26
        assert np.allclose(record.times, 0.1 * np.arange(26), atol=1e-12)

    def test_conservation_default_run(self, default_record):
        assert np.max(default_record.conservation_log) <= 1e-10

    def test_conservation_dx_weighted(self):
        grid, h = _small_setup()
        cfg = ev.EvolutionConfig(grid, dt=0.05, n_steps=50, normalization_mode="dx_weighted")
        record = ev.run_evolution(cfg, h)
        assert np.max(record.conservation_log) <= 1e-10

    def test_record_stride_thins_frames(self):
        grid, h = _small_setup()
        full = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=20), h)
        thin = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=20), h, record_stride=5)
        assert len(thin.frames) == 5  # t = 0, 0.25, 0.5, 0.75, 1.0
        assert np.allclose(thin.times, full.times[::5])
        assert np.allclose(thin.frames[-1].density, full.frames[-1].density)

    def test_record_stride_logs_worst_drift(self):
        # each thinned entry is the worst drift since the previous recorded frame;
        # at 64 points the per-step drift is not monotone, so the two differ
        grid, h = _small_setup(n=64)
        s = 4
        full = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=20), h)
        thin = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=20), h, record_stride=s)
        assert thin.conservation_log[0] == full.conservation_log[0]
        for j in range(1, len(thin.frames)):
            window = full.conservation_log[(j - 1) * s + 1 : j * s + 1]
            assert thin.conservation_log[j] == np.max(window)

    def test_record_keeps_its_decomposition(self):
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=2), h)
        assert record.decomposition.n == grid.n_points

    def test_grid_mismatch_rejected(self, default_hamiltonian):
        grid, _ = _small_setup()
        with pytest.raises(ValueError):
            ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=1), default_hamiltonian)

    def test_bad_stride_rejected(self):
        grid, h = _small_setup()
        with pytest.raises(ValueError):
            ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=1), h, record_stride=0)

    def test_unnormalized_initial_aborts(self):
        grid, h = _small_setup()
        bad = WaveState(np.full(grid.n_points, 0.5, dtype=complex), 0.0)
        with pytest.raises(ConservationError):
            ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=3), h, initial=bad)

    def test_custom_initial_state(self):
        grid, h = _small_setup()
        psi = ev.gaussian_initial(grid)
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=2), h, initial=psi)
        assert np.allclose(record.frames[0].density, np.abs(psi.amplitudes) ** 2)

    def test_density_periodicity_small_grid(self):
        # breathing mode: |psi|^2 at t = pi matches t = 0 on a well-resolved grid
        grid, h = _small_setup(n=120)
        dt = np.pi / 100.0
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=dt, n_steps=100), h)
        assert np.max(np.abs(record.frames[-1].density - record.frames[0].density)) < 1e-3


class TestFrameCsv:
    def test_round_trip_exact(self, tmp_path):
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=10), h)
        path = tmp_path / "frames.csv"
        ev.write_frames_csv(record.times, record.density_matrix(), path)
        times, frames = ev.read_frames_csv(path)
        assert np.array_equal(times, record.times)
        assert np.array_equal(frames, record.density_matrix())

    def test_times_must_match_rows(self, tmp_path):
        with pytest.raises(ValueError):
            ev.write_frames_csv(np.zeros(3), np.zeros((2, 4)), tmp_path / "frames.csv")

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            ev.read_frames_csv(path)

    def test_conservation_csv_layout(self, tmp_path):
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=3), h)
        path = tmp_path / "conservation.csv"
        ev.write_conservation_csv(record, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,norm_drift"
        assert len(lines) == 5

    def test_record_from_frames_csv(self, tmp_path):
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=6), h)
        path = tmp_path / "frames.csv"
        ev.write_frames_csv(record.times, record.density_matrix(), path)
        back = ev.record_from_frames_csv(grid, 0.05, "ell2", path)
        assert len(back.frames) == 7
        assert np.array_equal(back.density_matrix(), record.density_matrix())
        assert back.config.n_steps == 6

    def test_record_from_frames_csv_width_mismatch(self, tmp_path):
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=2), h)
        path = tmp_path / "frames.csv"
        ev.write_frames_csv(record.times, record.density_matrix(), path)
        other = make_grid(-4.0, 4.0, 50)
        with pytest.raises(ValueError):
            ev.record_from_frames_csv(other, 0.05, "ell2", path)
