import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qwave import compare as cp
from qwave import evolve as ev
from qwave import spectral as sp
from qwave import surrogate as sg
from qwave.discretize import Grid, assemble_hamiltonian, harmonic_potential, laplacian, make_grid
from qwave.errors import ConservationError, FrameCountError


def _small_setup(n=40, a=-4.0, b=4.0):
    grid = make_grid(a, b, n)
    h = assemble_hamiltonian(laplacian(grid), harmonic_potential(grid))
    return grid, h


class TestGaussianInitial:
    def test_ell2_normalization(self, default_grid):
        psi = ev.gaussian_initial(default_grid, "ell2")
        assert psi.dtype == np.float64 and psi.shape == (default_grid.n_points,)
        assert not psi.flags.writeable
        assert np.sum(psi**2) == pytest.approx(1.0, abs=1e-14)

    def test_dx_weighted_normalization(self, default_grid):
        psi = ev.gaussian_initial(default_grid, "dx_weighted")
        total = np.sum(psi**2) * default_grid.dx
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_shape_is_gaussian(self, default_grid):
        psi = ev.gaussian_initial(default_grid)
        dens = psi**2
        expected = np.exp(-2.0 * default_grid.nodes**2)
        expected /= expected.sum()
        assert np.allclose(dens, expected, atol=1e-15)

    def test_unknown_mode_rejected(self, default_grid):
        with pytest.raises(ValueError):
            ev.gaussian_initial(default_grid, "l1")

    @pytest.mark.parametrize("mode", ev.NORMALIZATION_MODES)
    def test_packet_that_misses_the_domain_rejected(self, mode):
        # exp(-2 x^2) is 0 on every node of [20, 30] and subnormal at x = 19.2
        for a in (20.0, 19.2):
            with pytest.raises(ValueError, match=rf"misses the domain \[{a}, 30.0\]"):
                ev.gaussian_initial(make_grid(a, 30.0, 200), mode)
        psi = ev.gaussian_initial(make_grid(18.0, 28.0, 200), mode)
        assert np.all(np.isfinite(psi)) and psi[0] > 0.0


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
        assert record.densities.shape == (1, grid.n_points)
        assert record.times.tolist() == [0.0]


class TestRunEvolution:
    def test_frame_count_and_times(self):
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.1, n_steps=25), h)
        assert record.densities.shape == (26, grid.n_points)
        assert np.allclose(record.times, 0.1 * np.arange(26), atol=1e-12)

    def test_conservation_default_run(self, default_record):
        assert np.max(default_record.conservation_log) <= 1e-10

    def test_conservation_dx_weighted(self):
        grid, h = _small_setup()
        cfg = ev.EvolutionConfig(grid, dt=0.05, n_steps=50, normalization_mode="dx_weighted")
        record = ev.run_evolution(cfg, h)
        assert np.max(record.conservation_log) <= 1e-10

    @pytest.mark.parametrize("mode", ev.NORMALIZATION_MODES)
    def test_log_holds_each_steps_drift(self, mode):
        # one entry per frame, |sum of that frame's density (times dx) - 1|,
        # over four blocks of 81 steps
        grid, h = _small_setup(n=400)
        record = ev.run_evolution(ev.EvolutionConfig(grid, 0.05, 300, normalization_mode=mode), h)
        weight = grid.dx if mode == "dx_weighted" else 1.0
        drifts = np.abs(np.sum(record.densities, axis=1) * weight - 1.0)
        assert np.array_equal(record.conservation_log, drifts)

    def test_record_keeps_its_decomposition(self):
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=2), h)
        assert record.decomposition.n == grid.n_points

    def test_grid_mismatch_rejected(self, default_hamiltonian):
        grid, _ = _small_setup()
        with pytest.raises(ValueError):
            ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=1), default_hamiltonian)

    def test_unnormalized_initial_aborts(self, monkeypatch):
        grid, h = _small_setup()
        bad = np.full(grid.n_points, 0.5)
        monkeypatch.setattr(ev, "gaussian_initial", lambda grid, mode: bad)
        with pytest.raises(ConservationError, match="at step 1 "):
            ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=3), h)

    def test_abort_names_the_step_inside_a_block(self, monkeypatch):
        # phases that lose 3e-9 of the norm per step cross the 1e-8 abort at
        # step 4, mid-block, on a state that starts normalized
        grid, h = _small_setup()
        build = sp.build_propagator

        def leaky(decomp, dt):
            u = build(decomp, dt)
            return sp.Propagator(u.eigenvectors, u.phases * np.sqrt(1.0 - 3e-9))

        monkeypatch.setattr(ev, "build_propagator", leaky)
        with pytest.raises(ConservationError, match="at step 4 "):
            ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=30), h)

    def test_frames_match_direct_evaluation(self):
        # every recorded frame of a 2000-step run against psi(t) in one shot
        grid, h = _small_setup(n=200, a=-5.0, b=5.0)
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=2000), h)
        q, lam = record.decomposition.eigenvectors, record.decomposition.eigenvalues
        c0 = q.T @ ev.gaussian_initial(grid)
        worst = max(
            float(np.max(np.abs(row - np.abs(q @ (np.exp(-1j * lam * t) * c0)) ** 2)))
            for t, row in zip(record.times.tolist(), record.densities)
        )
        assert worst <= 1e-13
        assert np.max(record.conservation_log) <= 1e-10

    def test_never_builds_the_propagator_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("run_evolution read Propagator.matrix")

        monkeypatch.setattr(sp.Propagator, "matrix", property(refuse))
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=40), h)
        assert record.densities.shape == (41, grid.n_points)

    def test_density_matrix_is_the_table(self):
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=4), h)
        assert record.density_matrix() is record.densities
        assert not record.densities.flags.writeable

    def test_custom_initial_state(self):
        grid, h = _small_setup()
        psi = ev.gaussian_initial(grid)
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=2), h)
        assert np.allclose(record.densities[0], psi**2)

    def test_density_periodicity_small_grid(self):
        # breathing mode: |psi|^2 at t = pi matches t = 0 on a well-resolved grid
        grid, h = _small_setup(n=120)
        dt = np.pi / 100.0
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=dt, n_steps=100), h)
        assert np.max(np.abs(record.densities[-1] - record.densities[0])) < 1e-3


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
        assert len(back.densities) == 7
        assert np.array_equal(back.density_matrix(), record.density_matrix())
        assert back.config.n_steps == 6

    def test_rebuilt_record_has_no_conservation_log(self, tmp_path):
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=3), h)
        path = tmp_path / "frames.csv"
        ev.write_frames_csv(record.times, record.density_matrix(), path)
        back = ev.record_from_frames_csv(grid, 0.05, "ell2", path)
        assert back.conservation_log is None
        with pytest.raises(ValueError, match="no conservation log"):
            ev.write_conservation_csv(back, tmp_path / "conservation.csv")
        assert not (tmp_path / "conservation.csv").exists()

    def test_truncated_frames_csv_names_the_file(self, tmp_path):
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=3), h)
        path = tmp_path / "frames.csv"
        ev.write_frames_csv(record.times, record.density_matrix(), path)
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2])  # cut mid-row
        with pytest.raises(ValueError, match="frames.csv is not a whole frame CSV"):
            ev.read_frames_csv(path)

    def test_row_count_and_range_checked(self, tmp_path):
        path = tmp_path / "frames.csv"
        ev.write_frames_csv(np.arange(4.0), np.ones((4, 3)), path)
        with pytest.raises(FrameCountError, match="has 4 frame rows, expected 5") as info:
            ev.read_frames_csv(path, 0, 2, n_rows=5)
        assert info.value.rows == 4
        with pytest.raises(ValueError, match=r"rows \[2, 5\) are not inside the 4 rows"):
            ev.read_frames_csv(path, 2, 5)

    def test_record_from_frames_csv_width_mismatch(self, tmp_path):
        grid, h = _small_setup()
        record = ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=2), h)
        path = tmp_path / "frames.csv"
        ev.write_frames_csv(record.times, record.density_matrix(), path)
        other = make_grid(-4.0, 4.0, 50)
        with pytest.raises(ValueError):
            ev.record_from_frames_csv(other, 0.05, "ell2", path)


# finite doubles, with the edge cases of 17-digit formatting spelled out
_finite = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _rows(width, min_size=1, max_size=5):
    return st.lists(st.lists(_finite, min_size=width, max_size=width), min_size=min_size, max_size=max_size)


class TestBulkFormatting:
    """Each CSV writer's file is its header, then the per-value f"{v:.17g}"
    join of each row, with ints as themselves and the report's footer led by `mean`."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 6).flatmap(lambda w: _rows(w + 1)))
    def test_rows_equal_the_per_value_join(self, tmp_path, table):
        table = np.array(table)
        path = tmp_path / "frames.csv"
        ev.write_frames_csv(table[:, 0], table[:, 1:], path)
        lines = path.read_text().splitlines()[1:]
        assert lines == [",".join(f"{v:.17g}" for v in row) for row in table.tolist()]

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_rows(2))
    def test_conservation_rows(self, tmp_path, rows):
        times, drifts = np.array(rows).T
        config = ev.EvolutionConfig(make_grid(-1.0, 1.0, 3), 0.05, len(rows) - 1)
        record = ev.EvolutionRecord(config, times, np.zeros((len(rows), 3)), drifts)
        path = tmp_path / "conservation.csv"
        ev.write_conservation_csv(record, path)
        assert path.read_text() == "t,norm_drift\n" + "".join(f"{t:.17g},{d:.17g}\n" for t, d in rows)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_finite, min_size=1, max_size=5))
    def test_loss_rows_with_int_epochs(self, tmp_path, losses):
        path = tmp_path / "loss.csv"
        sg.write_loss_csv(sg.LossHistory(losses), path)
        expected = "".join(f"{epoch},{loss:.17g}\n" for epoch, loss in enumerate(losses, start=1))
        assert path.read_text() == "epoch,train_mse\n" + expected

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(st.tuples(_finite, _finite, _finite, _finite, st.integers(0, 2**53)), max_size=5),
        st.tuples(_finite, _finite, _finite, _finite),
    )
    def test_report_rows_with_int_peak_error_and_mean_footer(self, tmp_path, frames, mean):
        report = cp.ComparisonReport([cp.FrameMetrics(*f) for f in frames], *mean, clamped_values=0)
        path = tmp_path / "report.csv"
        cp.write_report_csv(report, path)
        expected = "".join(f"{t:.17g},{a:.17g},{b:.17g},{c:.17g},{k}\n" for t, a, b, c, k in frames)
        expected += "mean," + ",".join(f"{v:.17g}" for v in mean) + "\n"
        assert path.read_text() == "t,mse,mae,max_abs_err,peak_position_err\n" + expected

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_rows(3))
    def test_snapshot_rows(self, tmp_path, rows):
        x, ctqw, ml = np.array(rows).T
        grid = Grid(-1.0, 1.0, len(x), 1.0, x)
        path = tmp_path / "snapshot.csv"
        cp.write_snapshot_csv(grid, ctqw, ml, path)
        columns = zip(x.tolist(), ctqw.tolist(), np.clip(ml, 0.0, None).tolist())
        expected = "".join(f"{a:.17g},{b:.17g},{c:.17g}\n" for a, b, c in columns)
        assert path.read_text() == "x,ctqw_density,ml_density\n" + expected

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 5).flatmap(lambda n: _rows(n, n + 1, n + 1)))
    def test_eigen_rows(self, tmp_path, rows):
        table = np.array(rows)
        path = tmp_path / "eigen.csv"
        sp.write_eigen_csv(sp.SpectralDecomposition(table[0], table[1:]), path)
        header = ",".join(f"eig_{k}" for k in range(len(table[0])))
        lines = [",".join(f"{v:.17g}" for v in row) for row in rows]
        assert path.read_text() == "\n".join([header, *lines]) + "\n"


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_tables = st.integers(1, 5).flatmap(lambda w: _rows(w + 1, max_size=8))


class TestFrameRanges:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_tables, st.data())
    def test_range_read_is_the_whole_read_sliced(self, tmp_path, table, data):
        table = np.array(table)
        path = tmp_path / "frames.csv"
        ev.write_frames_csv(table[:, 0], table[:, 1:], path)
        times, rows = ev.read_frames_csv(path)
        assert _same_bits(np.column_stack([times, rows]), table)
        n = len(table)
        start = data.draw(st.integers(0, n), label="start")
        stop = data.draw(st.integers(start, n), label="stop")
        part_times, part_rows = ev.read_frames_csv(path, start, stop, n_rows=n)
        assert _same_bits(part_times, times[start:stop])
        assert _same_bits(part_rows, rows[start:stop])

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_tables, st.data())
    def test_cut_inside_the_last_row_is_refused_for_every_range(self, tmp_path, table, data):
        table = np.array(table)
        path = tmp_path / "frames.csv"
        ev.write_frames_csv(table[:, 0], table[:, 1:], path)
        text = path.read_bytes()
        last = text.rstrip(b"\n").rfind(b"\n") + 1  # the last row's first byte
        path.write_bytes(text[: data.draw(st.integers(last + 1, len(text) - 1), label="cut")])
        n = len(table)
        start = data.draw(st.integers(0, n), label="start")
        stop = data.draw(st.integers(start, n), label="stop")
        for rows in ((), (start, stop), (0, 1)):  # whole, random, head only
            with pytest.raises(ValueError, match="frames.csv is not a whole frame CSV"):
                ev.read_frames_csv(path, *rows)
