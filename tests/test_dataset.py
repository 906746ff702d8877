import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qwave import dataset as dsm

# every finite float, with the edges of the 17-digit format drawn explicitly
_finite = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestScaler:
    def test_fit_extrema(self):
        s = dsm.fit_scaler(np.array([[0.0, 2.0], [1.0, 4.0]]))
        assert s.min == 0.0
        assert s.max == 4.0

    def test_endpoints_map_to_unit_interval(self):
        s = dsm.Scaler(2.0, 6.0)
        assert dsm.transform(s, np.array(2.0)) == 0.0
        assert dsm.transform(s, np.array(6.0)) == 1.0

    def test_no_clamping(self):
        s = dsm.Scaler(1.0, 3.0)
        assert dsm.transform(s, np.array(5.0)) == pytest.approx(2.0)
        assert dsm.transform(s, np.array(-1.0)) == pytest.approx(-1.0)

    def test_degenerate_maps_to_zero(self):
        s = dsm.fit_scaler(np.full((3, 4), 7.0))
        out = dsm.transform(s, np.full((2, 4), 7.0))
        assert np.array_equal(out, np.zeros((2, 4)))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(11)
        frames = rng.uniform(1e-24, 0.05, size=(20, 30))
        s = dsm.fit_scaler(frames)
        back = dsm.inverse_transform(s, dsm.transform(s, frames))
        assert np.max(np.abs(back - frames) / np.abs(frames)) < 1e-12

    # positive frames at most 1e3 and at least 1e-200: below that, (v - min)/span
    # underflows to subnormals and the relative error is no longer rounding's
    @given(st.lists(st.floats(min_value=1e-200, max_value=1e3), min_size=1, max_size=40))
    def test_inverse_is_within_rounding(self, values):
        frames = np.array(values)
        s = dsm.fit_scaler(frames)
        back = dsm.inverse_transform(s, dsm.transform(s, frames))
        np.testing.assert_allclose(back, frames, rtol=1e-12, atol=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dsm.Scaler(2.0, 1.0)
        with pytest.raises(ValueError):
            dsm.Scaler(float("nan"), 1.0)
        with pytest.raises(ValueError):
            dsm.fit_scaler(np.empty((0, 5)))

    def test_sidecar_round_trip_bitwise(self, tmp_path):
        s = dsm.Scaler(4.5799e-24, 0.040044110148012686)
        path = tmp_path / "scaler.txt"
        dsm.save_scaler(s, path)
        back = dsm.load_scaler(path)
        assert back.min == s.min
        assert back.max == s.max

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_finite, _finite)
    def test_sidecar_round_trips_any_finite_bounds(self, tmp_path, a, b):
        s = dsm.Scaler(min(a, b), max(a, b))
        path = tmp_path / "scaler.txt"
        dsm.save_scaler(s, path)
        back = dsm.load_scaler(path)
        assert np.array([back.min, back.max]).tobytes() == np.array([s.min, s.max]).tobytes()

    def test_sidecar_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("lo=1\nhi=2\n")
        with pytest.raises(ValueError):
            dsm.load_scaler(path)


class TestWindowize:
    def test_enumeration(self):
        frames = np.arange(5.0)[:, None]  # 5 frames of width 1
        ds = dsm.windowize(frames, 2)
        assert len(ds) == 3
        assert np.array_equal(ds.inputs[:, :, 0], [[0, 1], [1, 2], [2, 3]])
        assert np.array_equal(ds.targets[:, 0], [2, 3, 4])

    def test_single_pair_boundary(self):
        ds = dsm.windowize(np.zeros((5, 3)), 4)
        assert len(ds) == 1

    def test_default_run_arithmetic(self):
        ds = dsm.windowize(np.zeros((101, 4)), 4)
        assert len(ds) == 97

    def test_values_bit_identical_to_source(self):
        rng = np.random.default_rng(12)
        frames = rng.uniform(size=(9, 6))
        ds = dsm.windowize(frames, 3)
        for k in range(len(ds)):
            assert np.array_equal(ds.inputs[k], frames[k : k + 3])
            assert np.array_equal(ds.targets[k], frames[k + 3])

    def test_inputs_are_a_read_only_view_of_the_frames(self):
        frames = np.random.default_rng(21).uniform(size=(2001, 200))
        scaled = dsm.transform(dsm.Scaler(0.0, 2.0), frames)
        ds = dsm.windowize(scaled, 4)
        assert np.shares_memory(ds.inputs, scaled)
        assert not ds.inputs.flags.writeable
        with pytest.raises(ValueError):
            ds.inputs[0, 0, 0] = 1.0
        for k in (0, 1, 998, len(ds) - 1):
            assert np.array_equal(ds.inputs[k], scaled[k : k + 4])

    def test_target_times(self):
        frames = np.zeros((6, 2))
        times = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        ds = dsm.windowize(frames, 2, times=times)
        assert np.array_equal(ds.target_times, [0.2, 0.3, 0.4, 0.5])

    def test_errors(self):
        with pytest.raises(ValueError):
            dsm.windowize(np.zeros((3, 2)), 0)
        with pytest.raises(ValueError):
            dsm.windowize(np.zeros((3, 2)), 3)
        with pytest.raises(ValueError):
            dsm.windowize(np.zeros((5, 2)), 2, times=np.zeros(4))


def _split(frames, lookback, fraction):
    """prepare_split on raw frames through the identity scaler, times 0, 1, ..."""
    times = np.arange(len(frames), dtype=float)
    return dsm.prepare_split(frames, times, lookback, fraction, dsm.Scaler(0.0, 1.0))


class TestSplit:
    def test_floor_arithmetic(self):
        sd = _split(np.zeros((12, 2)), 2, 0.8)  # M = 10
        assert len(sd.train) == 8
        assert len(sd.test) == 2

    def test_default_run_split(self):
        sd = _split(np.zeros((101, 2)), 4, 0.8)  # M = 97
        assert len(sd.train) == 77
        assert len(sd.test) == 20

    def test_chronological_and_lossless(self):
        rng = np.random.default_rng(13)
        frames = rng.uniform(size=(15, 3))
        ds = dsm.windowize(frames, 3)
        sd = _split(frames, 3, 0.6)
        assert np.max(sd.train.target_times) < np.min(sd.test.target_times)
        rebuilt = np.concatenate([sd.train.targets, sd.test.targets])
        assert np.array_equal(rebuilt, ds.targets)

    def test_fraction_range(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                _split(np.zeros((6, 2)), 2, bad)


class TestTrainFrameCount:
    def test_default_run(self):
        assert dsm.train_frame_count(101, 4, 0.8) == 81

    def test_matches_split_boundary(self):
        # scaler fit region must cover exactly the frames train windows touch
        n_frames, lookback = 30, 5
        sd = _split(np.zeros((n_frames, 2)), lookback, 0.7)
        last_train_frame = len(sd.train) - 1 + lookback
        assert dsm.train_frame_count(n_frames, lookback, 0.7) == last_train_frame + 1

    def test_errors(self):
        with pytest.raises(ValueError):
            dsm.train_frame_count(4, 4, 0.8)
        with pytest.raises(ValueError):
            dsm.train_frame_count(10, 2, 1.0)


class TestPrepareSplit:
    def test_wires_scaling_windowing_split(self, default_record, default_config):
        frames = default_record.density_matrix()
        times = default_record.times
        n_fit = dsm.train_frame_count(len(frames), 4, 0.8)
        scaler = dsm.fit_scaler(frames[:n_fit])
        sd = dsm.prepare_split(frames, times, 4, 0.8, scaler)
        assert len(sd.train) == 77
        assert len(sd.test) == 20
        assert sd.test.target_times[0] == pytest.approx(4.05)
        assert sd.test.target_times[-1] == pytest.approx(5.0)
        # train inputs stay inside [0,1]; test may exceed 1 but only slightly
        assert sd.train.inputs.min() >= 0.0
        assert sd.train.inputs.max() <= 1.0 + 1e-12
