import numpy as np
import pytest

from qwave import compare as cp
from qwave import dataset as dsm
from qwave import evolve as ev
from qwave import surrogate as sg
from qwave.discretize import assemble_hamiltonian, harmonic_potential, laplacian, make_grid
from qwave.errors import ConfigError


@pytest.fixture(scope="module")
def small_record():
    grid = make_grid(-4.0, 4.0, 40)
    h = assemble_hamiltonian(laplacian(grid), harmonic_potential(grid))
    return ev.run_evolution(ev.EvolutionConfig(grid, dt=0.05, n_steps=20), h)


class TestFrameMetrics:
    def test_identical_frames(self):
        frame = np.array([0.1, 0.5, 0.2])
        m = cp.frame_metrics(frame, frame, 1.5)
        assert (m.mse, m.mae, m.max_abs_err, m.peak_position_err) == (0.0, 0.0, 0.0, 0)
        assert m.time == 1.5

    def test_constant_offset(self):
        truth = np.array([0.2, 0.8, 0.3])
        m = cp.frame_metrics(truth + 0.1, truth, 0.0)
        assert m.mae == pytest.approx(0.1)
        assert m.mse == pytest.approx(0.01)
        assert m.max_abs_err == pytest.approx(0.1)
        assert m.peak_position_err == 0

    def test_peak_displacement(self):
        truth = np.zeros(120)
        truth[100] = 1.0
        pred = np.zeros(120)
        pred[102] = 1.0
        assert cp.frame_metrics(pred, truth, 0.0).peak_position_err == 2

    def test_argmax_ties_toward_lower_index(self):
        truth = np.array([0.0, 1.0, 1.0, 0.0])  # tie at 1 and 2 -> index 1
        pred = np.array([1.0, 1.0, 0.0, 0.0])  # tie at 0 and 1 -> index 0
        assert cp.frame_metrics(pred, truth, 0.0).peak_position_err == 1

    def test_peak_ignores_rounding_between_mirror_cells(self):
        # a mirror-symmetric truth whose right central cell is one ulp larger:
        # argmax would pick cell 4, but both cells are within 1e-8 of the peak
        truth = np.exp(-((np.arange(8) - 3.5) ** 2))
        truth[4] = np.nextafter(truth[4], 1.0)
        assert np.argmax(truth) == 4
        pred = np.zeros(8)
        pred[3] = 1.0
        assert cp.frame_metrics(pred, truth, 0.0).peak_position_err == 0

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            cp.frame_metrics(np.zeros(3), np.zeros(4), 0.0)


class TestBuildReport:
    def test_perfect_predictor_scores_zero(self, small_record):
        frames = small_record.density_matrix()
        scaler = dsm.fit_scaler(frames)
        scaled = dsm.transform(scaler, frames[5:8])
        report = cp.build_report(small_record, scaled, small_record.times[5:8], scaler)
        assert len(report.frames) == 3
        for m in report.frames:
            assert m.mse <= 1e-12
            assert m.peak_position_err == 0
        assert report.clamped_values == 0

    def test_horizon_mismatch_rejected(self, small_record):
        scaler = dsm.Scaler(0.0, 1.0)
        with pytest.raises(ValueError):
            cp.build_report(small_record, np.zeros((3, 40)), np.zeros(2), scaler)

    def test_unrecorded_time_rejected(self, small_record):
        scaler = dsm.Scaler(0.0, 1.0)
        with pytest.raises(ConfigError):
            cp.build_report(small_record, np.zeros((1, 40)), np.array([99.0]), scaler)

    def test_negative_predictions_clamped_and_counted(self, small_record):
        frames = small_record.density_matrix()
        scaler = dsm.fit_scaler(frames)
        scaled = dsm.transform(scaler, frames[3:4])
        scaled[0, :5] = -1.0  # inverse-transforms below zero
        report = cp.build_report(small_record, scaled, small_record.times[3:4], scaler)
        assert report.clamped_values == 5
        assert all(np.isfinite(m.mse) for m in report.frames)

    def test_aggregate_means(self, small_record):
        frames = small_record.density_matrix()
        scaler = dsm.fit_scaler(frames)
        scaled = dsm.transform(scaler, frames[2:6])
        report = cp.build_report(small_record, scaled, small_record.times[2:6], scaler)
        assert report.mean_mse == pytest.approx(np.mean([m.mse for m in report.frames]))
        assert report.mean_peak_position_err == pytest.approx(
            np.mean([m.peak_position_err for m in report.frames])
        )

    def test_rollout_error_at_least_one_step(self, default_record, default_split, trained_default):
        scaler, split = default_split
        model, _ = trained_default
        one_step = sg.predict_one_step(model, split.test.inputs)
        rollout = sg.predict_rollout(model, split.test.inputs[0], len(split.test))
        rep_one = cp.build_report(default_record, one_step, split.test.target_times, scaler)
        rep_roll = cp.build_report(default_record, rollout, split.test.target_times, scaler)
        assert rep_roll.mean_mse >= rep_one.mean_mse


class TestTableSlice:
    def test_selected_cells(self, default_record):
        rows = cp.table_slice(default_record, [0.0, 0.5, 1.0], [0, 2, 4])
        by_index = {int(r[0]): r for r in rows}
        assert by_index[0][2] == "7.73e-24"
        assert by_index[2][3] == "1.30e-14"
        assert by_index[4][4] == "7.36e-09"

    def test_x_column_format(self, default_record):
        rows = cp.table_slice(default_record, [0.0], [0, 1, 2])
        assert [r[1] for r in rows] == ["-5.000", "-4.950", "-4.899"]

    def test_time_snapping_within_half_step(self, small_record):
        # 0.26 snaps to the recorded 0.25 frame
        rows = cp.table_slice(small_record, [0.26], [0])
        exact = cp.table_slice(small_record, [0.25], [0])
        assert rows == exact

    def test_unrecorded_time_rejected(self, small_record):
        # the run records t up to 1.0 only
        with pytest.raises(ConfigError):
            cp.table_slice(small_record, [1.2], [0])

    def test_index_out_of_range(self, small_record):
        with pytest.raises(ConfigError):
            cp.table_slice(small_record, [0.0], [40])


class TestRenderTable:
    def test_layout(self, small_record):
        text = cp.render_table(small_record, [0.0, 0.5], [0, 1])
        lines = text.splitlines()
        assert lines[0].split() == ["Index", "x", "t=0.00", "t=0.50"]
        assert len(lines) == 4  # header, rule, two rows


class TestReportCsv:
    def test_layout_and_footer(self, small_record, tmp_path):
        frames = small_record.density_matrix()
        scaler = dsm.fit_scaler(frames)
        scaled = dsm.transform(scaler, frames[1:4])
        report = cp.build_report(small_record, scaled, small_record.times[1:4], scaler)
        path = tmp_path / "report.csv"
        cp.write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,mse,mae,max_abs_err,peak_position_err"
        assert len(lines) == 5
        assert lines[-1].startswith("mean,")
        mean_mse = float(lines[-1].split(",")[1])
        assert mean_mse == report.mean_mse


class TestSnapshotCsv:
    def test_layout_and_clamping(self, small_record, tmp_path):
        grid = small_record.config.grid
        truth = small_record.densities[3]
        pred = truth.copy()
        pred[0] = -0.5  # must be clamped in the output
        path = tmp_path / "snapshot_0.15.csv"
        cp.write_snapshot_csv(grid, truth, pred, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,ctqw_density,ml_density"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert float(first[0]) == grid.nodes[0]
        assert float(first[2]) == 0.0

    def test_width_mismatch(self, small_record, tmp_path):
        grid = small_record.config.grid
        with pytest.raises(ValueError):
            cp.write_snapshot_csv(grid, np.zeros(40), np.zeros(39), tmp_path / "s.csv")
