import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qwave import dataset as dsm
from qwave import surrogate as sg
from qwave.errors import NumericalError

from conftest import float64_model, small_frames


def _zero_model(input_dim=3, hidden_dim=2):
    model = sg.init_model(input_dim, hidden_dim, 0)
    for k in sg.PARAM_KEYS:
        model.params[k] = np.zeros_like(model.params[k])
    return model


class TestInitModel:
    def test_same_seed_bitwise_identical(self):
        a = sg.init_model(10, 8, 42)
        b = sg.init_model(10, 8, 42)
        for k in sg.PARAM_KEYS:
            assert np.array_equal(a.params[k], b.params[k])

    def test_uniform_bound(self):
        model = sg.init_model(20, 64, 1)
        bound = 1.0 / math.sqrt(64)
        assert bound == 0.125
        for g in sg.GATES:
            for kind in ("W", "U"):
                w = model.params[f"{kind}_{g}"]
                assert np.max(np.abs(w)) <= bound
                assert np.max(np.abs(w)) > 0.5 * bound  # draws actually fill the range

    def test_bias_convention(self):
        model = sg.init_model(5, 4, 3)
        assert np.array_equal(model.params["b_f"], np.ones(4))
        for g in ("i", "c", "o"):
            assert np.array_equal(model.params[f"b_{g}"], np.zeros(4))
        assert np.array_equal(model.params["b_out"], np.zeros(5))

    def test_shapes(self):
        model = sg.init_model(7, 3, 0)
        assert model.params["W_i"].shape == (3, 7)
        assert model.params["U_o"].shape == (3, 3)
        assert model.params["W_out"].shape == (7, 3)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            sg.init_model(0, 4, 0)
        with pytest.raises(ValueError):
            sg.init_model(4, 0, 0)


class TestForward:
    def test_zero_network_outputs_zero(self):
        model = _zero_model()
        pred, tape = sg.forward(model, np.ones((2, 4, 3)))
        assert np.array_equal(pred, np.zeros((2, 3)))
        assert len(tape.inputs) == 4

    def test_single_unit_hand_computation(self):
        # 1 input, 1 hidden unit, 1 step: the whole recurrence collapses to
        # scalar gate arithmetic, checked against independent scalar math
        # (in float64, which that math is in)
        model = float64_model(sg.init_model(1, 1, 0))
        values = {
            "W_i": 0.5, "U_i": 0.3, "b_i": 0.1,
            "W_f": 0.7, "U_f": 0.2, "b_f": 1.0,
            "W_c": 0.2, "U_c": 0.4, "b_c": 0.05,
            "W_o": 0.3, "U_o": 0.6, "b_o": 0.2,
            "W_out": 1.5, "b_out": -0.25,
        }
        for k, v in values.items():
            model.params[k] = np.full_like(model.params[k], v)
        x = 0.8

        def sig(z):
            return 1.0 / (1.0 + math.exp(-z))

        i = sig(0.5 * x + 0.1)
        g = math.tanh(0.2 * x + 0.05)
        o = sig(0.3 * x + 0.2)
        c1 = i * g  # f * c0 vanishes: c0 = 0
        h1 = o * math.tanh(c1)
        expected = 1.5 * h1 - 0.25

        pred, _ = sg.forward(model, np.array([[[x]]]))
        assert pred[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_deterministic(self):
        model = sg.init_model(6, 5, 9)
        window = np.random.default_rng(14).uniform(size=(2, 3, 6))
        p1, _ = sg.forward(model, window)
        p2, _ = sg.forward(model, window)
        assert np.array_equal(p1, p2)

    def test_shape_errors(self):
        model = sg.init_model(4, 3, 0)
        for shape in ((1, 2, 5), (1, 0, 4), (0, 2, 4), (2, 4)):
            with pytest.raises(ValueError):
                sg.forward(model, np.ones(shape))

    def test_tape_records_every_step(self):
        model = sg.init_model(3, 2, 1)
        _, tape = sg.forward(model, np.random.default_rng(15).uniform(size=(7, 5, 3)))
        assert tape.hiddens.shape == (6, 7, 2)  # h_0 .. h_5, time-major
        assert tape.cells.shape == (5, 7, 2)
        assert tape.gates.shape == (5, 7, 4 * 2)  # the four gates stacked per step

    def test_batch_rows_match_single_windows(self):
        # B = 1 runs the same code; a window's prediction does not depend on
        # the other windows of its batch beyond float64 rounding
        model = float64_model(sg.init_model(200, 64, 8))
        windows = np.random.default_rng(22).uniform(size=(20, 4, 200))
        batched, _ = sg.forward(model, windows)
        for k, window in enumerate(windows):
            single, _ = sg.forward(model, window[None])
            _assert_close(batched[k], single[0])


class TestMse:
    def test_examples(self):
        assert sg.mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        assert sg.mse(np.array([1.0, 1.0]), np.array([0.0, 0.0])) == 1.0
        assert sg.mse(np.array([2.0, 0.0]), np.array([0.0, 0.0])) == 2.0
        # a batch: the mean of the per-row MSEs
        assert sg.mse(np.array([[1.0, 1.0], [2.0, 0.0]]), np.zeros((2, 2))) == 1.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sg.mse(np.ones(3), np.ones(4))


class TestBackward:
    def test_zero_loss_gives_zero_gradients(self):
        model = sg.init_model(4, 3, 2)
        window = np.random.default_rng(16).uniform(size=(2, 3, 4))
        pred, tape = sg.forward(model, window)
        grads = sg.backward(model, tape, pred)  # target == prediction
        for k in sg.PARAM_KEYS:
            assert np.array_equal(grads[k], np.zeros_like(grads[k]))

    def test_head_bias_gradient_closed_form(self):
        model = sg.init_model(4, 3, 3)
        window = np.random.default_rng(17).uniform(size=(3, 2, 4))
        target = np.random.default_rng(18).uniform(size=(3, 4))
        pred, tape = sg.forward(model, window)
        grads = sg.backward(model, tape, target)
        # d(batch mean MSE)/d b_out = sum over the batch of 2 (p - y) / (B N)
        assert np.allclose(grads["b_out"], np.sum(2.0 * (pred - target) / 12.0, axis=0), atol=1e-16)

    def test_matches_finite_differences(self):
        # central differences at step 1e-5 need float64 to resolve the loss
        model = float64_model(sg.init_model(3, 4, 5))
        rng = np.random.default_rng(19)
        window = rng.uniform(size=(2, 3, 3))
        target = rng.uniform(size=(2, 3))
        _, tape = sg.forward(model, window)
        grads = sg.backward(model, tape, target)
        step = 1e-5
        for key in sg.PARAM_KEYS:
            theta = model.params[key]
            fd = np.zeros_like(theta)
            it = np.nditer(theta, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = theta[idx]
                theta[idx] = orig + step
                up = sg.mse(sg.forward(model, window)[0], target)
                theta[idx] = orig - step
                dn = sg.mse(sg.forward(model, window)[0], target)
                theta[idx] = orig
                fd[idx] = (up - dn) / (2.0 * step)
            denom = max(float(np.max(np.abs(fd))), 1e-8)
            assert np.max(np.abs(grads[key] - fd)) / denom <= 1e-4, key

    def test_mismatched_tape_rejected(self):
        model = sg.init_model(4, 3, 6)
        other = sg.init_model(5, 3, 6)
        _, tape = sg.forward(other, np.ones((1, 2, 5)))
        with pytest.raises(ValueError):
            sg.backward(model, tape, np.zeros((1, 4)))
        _, tape = sg.forward(model, np.ones((2, 2, 4)))
        with pytest.raises(ValueError):
            sg.backward(model, tape, np.zeros((3, 4)))  # one target too many


# ------------------------------------------------------------------ reference
# A four-gate, per-key LSTM and Adam written out gate by gate: the reference
# that the stacked layout and the flat-vector Adam must reproduce.


def _ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_forward(p, window):
    hidden = p["U_i"].shape[0]
    h, c = np.zeros(hidden), np.zeros(hidden)
    steps = []
    for x in window:
        i = _ref_sigmoid(p["W_i"] @ x + p["U_i"] @ h + p["b_i"])
        f = _ref_sigmoid(p["W_f"] @ x + p["U_f"] @ h + p["b_f"])
        g = np.tanh(p["W_c"] @ x + p["U_c"] @ h + p["b_c"])
        o = _ref_sigmoid(p["W_o"] @ x + p["U_o"] @ h + p["b_o"])
        c_prev, h_prev = c, h
        c = f * c + i * g
        h = o * np.tanh(c)
        steps.append((x, i, f, g, o, c, c_prev, h_prev))
    return p["W_out"] @ h + p["b_out"], steps, h


def _ref_backward(p, window, target):
    pred, steps, h_last = _ref_forward(p, window)
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    d_pred = 2.0 * (pred - target) / len(pred)
    grads["W_out"] = np.outer(d_pred, h_last)
    grads["b_out"] = d_pred
    dh = p["W_out"].T @ d_pred
    dc_carry = np.zeros_like(dh)
    for x, i, f, g, o, c, c_prev, h_prev in reversed(steps):
        tanh_c = np.tanh(c)
        dc = dh * o * (1.0 - tanh_c**2) + dc_carry
        d_pre = {
            "o": dh * tanh_c * o * (1.0 - o),
            "f": dc * c_prev * f * (1.0 - f),
            "i": dc * g * i * (1.0 - i),
            "c": dc * i * (1.0 - g**2),
        }
        dh = np.zeros_like(dh)
        for gate, d in d_pre.items():
            grads[f"W_{gate}"] += np.outer(d, x)
            grads[f"U_{gate}"] += np.outer(d, h_prev)
            grads[f"b_{gate}"] += d
            dh += p[f"U_{gate}"].T @ d
        dc_carry = dc * f
    return pred, grads


def _ref_adam(state, params, grads):
    """Per-key Adam; state is {"step", "m", "v"} with dict moments."""
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, state["lr"]
    state["step"] += 1
    bc1 = 1.0 - beta1 ** state["step"]
    bc2 = 1.0 - beta2 ** state["step"]
    new = {}
    for k, theta in params.items():
        g = grads[k]
        state["m"][k] = beta1 * state["m"][k] + (1.0 - beta1) * g
        state["v"][k] = beta2 * state["v"][k] + (1.0 - beta2) * g**2
        new[k] = theta - lr * (state["m"][k] / bc1) / (np.sqrt(state["v"][k] / bc2) + eps)
    return new


def _as_dict(params):
    return {k: params[k] for k in sg.PARAM_KEYS}


def _assert_close(got, want, rel=1e-12):
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= rel * scale


def _random_model(rng, input_dim, hidden_dim, seed):
    """A float64 model, so the reference's float64 arithmetic matches to 1e-12."""
    model = float64_model(sg.init_model(input_dim, hidden_dim, seed))
    for k in sg.PARAM_KEYS:  # nudge off the init so no block is trivially zero
        model.params[k] = model.params[k] + rng.normal(0.0, 0.3, model.params[k].shape)
    return model


_dims = st.tuples(
    st.integers(1, 12), st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1)
)


class TestFusedAgainstReference:
    @given(_dims)
    def test_forward_and_gradients_match(self, dims):
        input_dim, hidden_dim, n_steps, seed = dims
        rng = np.random.default_rng(seed)
        model = _random_model(rng, input_dim, hidden_dim, seed)
        window = rng.uniform(size=(n_steps, input_dim))
        target = rng.uniform(size=input_dim)
        pred, tape = sg.forward(model, window[None])
        grads = sg.backward(model, tape, target[None])
        ref_pred, ref_grads = _ref_backward(_as_dict(model.params), window, target)
        _assert_close(pred[0], ref_pred)
        for k in sg.PARAM_KEYS:
            _assert_close(grads[k], ref_grads[k])

    @given(_dims, st.integers(1, 6))
    def test_batch_gradient_is_the_mean_of_pair_gradients(self, dims, n_batch):
        input_dim, hidden_dim, n_steps, seed = dims
        rng = np.random.default_rng(seed)
        model = _random_model(rng, input_dim, hidden_dim, seed)
        windows = rng.uniform(size=(n_batch, n_steps, input_dim))
        targets = rng.uniform(size=(n_batch, input_dim))
        preds, tape = sg.forward(model, windows)
        grads = sg.backward(model, tape, targets)
        refs = [_ref_backward(_as_dict(model.params), w, y) for w, y in zip(windows, targets)]
        _assert_close(preds, np.stack([pred for pred, _ in refs]))
        for k in sg.PARAM_KEYS:
            _assert_close(grads[k], np.mean([ref[k] for _, ref in refs], axis=0))

    @given(_dims)
    def test_every_key_is_a_view_of_the_flat_vector(self, dims):
        input_dim, hidden_dim, n_steps, seed = dims
        rng = np.random.default_rng(seed)
        model = _random_model(rng, input_dim, hidden_dim, seed)
        _, tape = sg.forward(model, rng.uniform(size=(2, n_steps, input_dim)))
        grads = sg.backward(model, tape, rng.uniform(size=(2, input_dim)))
        for params in (model.params, grads):
            covered = np.zeros(params.flat.size, dtype=int)
            for k in sg.PARAM_KEYS:
                assert np.shares_memory(params[k], params.flat), k
                marker = np.zeros(params.flat.size)
                params_k = sg.Params(marker, input_dim, hidden_dim)[k]
                params_k[...] = 1.0
                (owned,) = np.nonzero(marker)
                covered[owned] += 1
            assert np.all(covered == 1)  # the keys tile the vector exactly

    @given(_dims)
    def test_adam_matches_per_key_reference(self, dims):
        input_dim, hidden_dim, n_steps, seed = dims
        rng = np.random.default_rng(seed)
        model = _random_model(rng, input_dim, hidden_dim, seed)
        ref_params = {k: model.params[k].copy() for k in sg.PARAM_KEYS}
        ref_state = {
            "lr": 1e-2, "step": 0,
            "m": {k: np.zeros_like(v) for k, v in ref_params.items()},
            "v": {k: np.zeros_like(v) for k, v in ref_params.items()},
        }
        state = sg.init_adam(model.params.flat, lr=1e-2)
        for _ in range(3):
            grads = sg.Params(rng.normal(size=model.params.flat.size), input_dim, hidden_dim)
            sg.adam_step(state, model.params.flat, grads.flat)
            ref_params = _ref_adam(ref_state, ref_params, grads)
        m = sg.Params(state.m, input_dim, hidden_dim)
        v = sg.Params(state.v, input_dim, hidden_dim)
        for k in sg.PARAM_KEYS:
            _assert_close(model.params[k], ref_params[k])
            _assert_close(m[k], ref_state["m"][k])
            _assert_close(v[k], ref_state["v"][k])


# float32's machine epsilon; the float32 pass stays within 64 of it of the
# float64 pass (measured worst: 13 for predictions, 24 for gradients, over
# 3000 random models of the sizes below)
_F32_TOL = 64 * float(np.finfo(np.float32).eps)


class TestFloat32:
    """The shipped dtype: init_model and load_checkpoint give float32 models."""

    @given(_dims, st.integers(1, 6))
    def test_agrees_with_the_same_model_in_float64(self, dims, n_batch):
        input_dim, hidden_dim, n_steps, seed = dims
        rng = np.random.default_rng(seed)
        model = sg.init_model(input_dim, hidden_dim, seed)
        for k in sg.PARAM_KEYS:
            model.params[k] = model.params[k] + rng.normal(0.0, 0.3, model.params[k].shape)
        wide = float64_model(model)
        windows = rng.uniform(size=(n_batch, n_steps, input_dim))
        targets = rng.uniform(size=(n_batch, input_dim))
        (pred, tape), (pred64, tape64) = sg.forward(model, windows), sg.forward(wide, windows)
        grads, grads64 = sg.backward(model, tape, targets), sg.backward(wide, tape64, targets)
        assert pred.dtype == grads.flat.dtype == np.float32
        assert pred64.dtype == grads64.flat.dtype == np.float64
        _assert_close(pred, pred64, rel=_F32_TOL)
        _assert_close(grads.flat, grads64.flat, rel=_F32_TOL)

    def test_every_array_of_the_pipeline_is_float32(self, tiny_split, tmp_path):
        _, split = tiny_split
        model = sg.init_model(12, 6, 5)
        trained, history = sg.train(model, split.train, epochs=2, lr=2e-3)
        state = sg.init_adam(trained.params.flat, lr=1e-3)
        sg.save_checkpoint(trained, tmp_path / "model.ckpt")
        loaded = sg.load_checkpoint(tmp_path / "model.ckpt")
        one_step = sg.predict_one_step(loaded, split.test.inputs)
        rollout = sg.predict_rollout(loaded, split.test.inputs[0], 3)
        for array in (model.params.flat, trained.params.flat, state.m, state.v, state._work,
                      loaded.params.flat, one_step, rollout):
            assert array.dtype == np.float32
        assert all(type(v) is float for v in history.train_mse)


class TestParams:
    def test_assignment_copies_into_the_view(self):
        model = sg.init_model(3, 2, 0)
        view = model.params["U_f"]
        model.params["U_f"] = np.full((2, 2), 0.5)
        assert model.params["U_f"] is view
        assert np.shares_memory(view, model.params.flat)
        assert np.array_equal(model.params.U[2:4], np.full((2, 2), 0.5))

    def test_assignment_shape_mismatch_rejected(self):
        model = sg.init_model(3, 2, 0)
        before = model.params.flat.copy()
        with pytest.raises(ValueError, match="W_i"):
            model.params["W_i"] = np.zeros((3, 2))
        assert np.array_equal(model.params.flat, before)

    def test_views_survive_train_and_load(self, tiny_split, tmp_path):
        _, split = tiny_split
        trained, _ = sg.train(sg.init_model(12, 6, 5), split.train, epochs=2, lr=2e-3)
        sg.save_checkpoint(trained, tmp_path / "model.ckpt")
        loaded = sg.load_checkpoint(tmp_path / "model.ckpt")
        for model in (trained, loaded):
            for k in sg.PARAM_KEYS:
                assert np.shares_memory(model.params[k], model.params.flat), k
        assert np.array_equal(loaded.params.flat, trained.params.flat)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = np.array([1.0, -2.0])
        state = sg.init_adam(params, lr=0.01)
        new = params.copy()
        sg.adam_step(state, new, np.zeros(2))
        assert np.array_equal(new, params)
        assert state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        params = np.array([0.0, 0.0])
        state = sg.init_adam(params, lr=0.01)
        g = np.array([0.5, -0.25])
        sg.adam_step(state, params, g)
        # bias correction gives m_hat = g, v_hat = g^2, so step = lr * sign(g)
        assert np.allclose(params, [-0.01, 0.01], atol=1e-9)

    def test_constant_gradient_recurrences(self):
        params = np.array([1.0])
        g = np.array([0.3])
        state = sg.init_adam(params, lr=0.1)
        sg.adam_step(state, params, g)
        sg.adam_step(state, params, g)
        assert state.step == 2
        beta1, beta2 = sg._ADAM_BETA1, sg._ADAM_BETA2
        assert state.m[0] == pytest.approx((1 - beta1**2) * 0.3)
        assert state.v[0] == pytest.approx((1 - beta2**2) * 0.09)
        # both bias-corrected steps move by lr * g / (|g| + eps) = lr
        assert params[0] == pytest.approx(1.0 - 0.2, abs=1e-8)

    def test_shape_mismatch_rejected(self):
        params = np.zeros(3)
        state = sg.init_adam(params, lr=1e-3)
        with pytest.raises(ValueError):
            sg.adam_step(state, params, np.zeros(4))


class TestTrain:
    def test_zero_lr_keeps_model(self):
        # one pair, one epoch, lr 0: model unchanged, history = [initial loss]
        frames = small_frames(6, 4)
        identity = dsm.Scaler(0.0, 1.0)
        split = dsm.prepare_split(frames, np.arange(6.0), 4, 0.5, identity)  # M=2 -> 1 train pair
        model = sg.init_model(4, 3, 0)
        trained, history = sg.train(model, split.train, epochs=1, lr=0.0)
        for k in sg.PARAM_KEYS:
            assert np.array_equal(trained.params[k], model.params[k])
        initial_loss = sg.mse(sg.forward(model, split.train.inputs[:1])[0], split.train.targets[:1])
        assert history.train_mse == [initial_loss]

    def test_each_epoch_visits_every_pair_once(self, tiny_split):
        # lr 0 freezes the model, so an epoch's mean loss is the mean over the
        # pairs it visited: equal to the all-pairs mean only if each is seen once
        _, split = tiny_split
        assert len(split.train) > 1
        for seed in (3, 4):  # the model's seed also draws the pair order
            model = sg.init_model(12, 6, seed)
            _, history = sg.train(model, split.train, epochs=4, lr=0.0)
            mean_loss = sg.mse(sg.predict_one_step(model, split.train.inputs), split.train.targets)
            assert history.train_mse == pytest.approx([mean_loss] * 4, rel=1e-12), seed

    @pytest.mark.parametrize("batch_size", [1, 8, 10, 76, 77, 80])
    def test_epoch_loss_is_the_all_pairs_mean(self, default_split, batch_size, monkeypatch):
        # 77 default pairs: a short last batch must weigh its pairs, not count
        # as a whole batch mean beside the full ones
        # in float64, where batching moves each prediction by rounding only
        _, split = default_split
        assert len(split.train) == 77
        model = float64_model(sg.init_model(200, 64, 1))
        monkeypatch.setattr(sg, "_BATCH_SIZE", batch_size)
        _, history = sg.train(model, split.train, epochs=2, lr=0.0)
        mean_loss = sg.mse(sg.predict_one_step(model, split.train.inputs), split.train.targets)
        assert history.train_mse == pytest.approx([mean_loss] * 2, rel=1e-12)

    def test_one_update_per_batch(self, tiny_split, monkeypatch):
        _, split = tiny_split
        steps = []
        adam_step = sg.adam_step

        def counting(state, theta, grad):
            steps.append(state.step)
            adam_step(state, theta, grad)

        monkeypatch.setattr(sg, "adam_step", counting)
        for batch_size, per_epoch in ((1, 28), (8, 4), (28, 1), (30, 1)):
            steps.clear()
            monkeypatch.setattr(sg, "_BATCH_SIZE", batch_size)
            sg.train(sg.init_model(12, 6, 0), split.train, epochs=2, lr=1e-3)
            assert len(steps) == 2 * per_epoch, batch_size

    def test_deterministic(self, tiny_split):
        _, split = tiny_split
        model = sg.init_model(12, 6, 7)
        t1, h1 = sg.train(model, split.train, epochs=5, lr=1e-3)
        t2, h2 = sg.train(model, split.train, epochs=5, lr=1e-3)
        assert h1.train_mse == h2.train_mse
        for k in sg.PARAM_KEYS:
            assert np.array_equal(t1.params[k], t2.params[k])

    def test_pair_order_follows_the_model_seed(self, tiny_split):
        # equal weights, other seed: only the order of the 28 pairs differs
        _, split = tiny_split
        model = sg.init_model(12, 6, 7)
        other = sg.SurrogateModel(12, 6, 8)
        other.params.flat[:] = model.params.flat
        _, h1 = sg.train(model, split.train, epochs=1, lr=1e-3)
        _, h2 = sg.train(other, split.train, epochs=1, lr=1e-3)
        assert h1.train_mse != h2.train_mse

    def test_loss_decreases_on_smooth_data(self, tiny_split):
        _, split = tiny_split
        model = sg.init_model(12, 16, 42)
        _, history = sg.train(model, split.train, epochs=60, lr=1e-3)
        assert history.train_mse[-1] < history.train_mse[0] / 10.0
        assert all(np.isfinite(v) and v >= 0.0 for v in history.train_mse)

    def test_original_model_untouched(self, tiny_split):
        _, split = tiny_split
        model = sg.init_model(12, 6, 3)
        before = {k: model.params[k].copy() for k in sg.PARAM_KEYS}
        sg.train(model, split.train, epochs=1, lr=1e-3)
        for k in sg.PARAM_KEYS:
            assert np.array_equal(model.params[k], before[k])

    def test_divergence_aborts_with_diagnostics(self, tiny_split):
        _, split = tiny_split
        model = sg.init_model(12, 6, 0)
        with pytest.raises(NumericalError, match="epoch"):
            sg.train(model, split.train, epochs=2, lr=1e160)

    @staticmethod
    def _set_in_every_gradient(monkeypatch, entries):
        """Make backward write value at params[key][index] for each (key, index): value."""
        backward = sg.backward

        def poisoned(model, tape, target, out=None):
            grads = backward(model, tape, target, out)
            for (key, index), value in entries.items():
                grads[key][index] = value
            return grads

        monkeypatch.setattr(sg, "backward", poisoned)

    def test_nonfinite_gradient_names_its_parameter(self, tiny_split, monkeypatch):
        _, split = tiny_split
        self._set_in_every_gradient(monkeypatch, {("U_o", (1, 2)): math.nan})
        model = sg.init_model(12, 6, 0)
        with pytest.raises(NumericalError, match="U_o"):
            sg.train(model, split.train, epochs=1, lr=2e-3)

    def test_two_nonfinite_gradients_name_the_first_bad_parameter(self, tiny_split, monkeypatch):
        _, split = tiny_split
        self._set_in_every_gradient(monkeypatch, {("b_out", 0): math.nan, ("W_f", (0, 0)): math.inf})
        with pytest.raises(NumericalError, match="parameter W_f at epoch 1"):
            sg.train(sg.init_model(12, 6, 0), split.train, epochs=1, lr=2e-3)

    def test_finite_gradient_whose_square_overflows_trains(self, tiny_split, monkeypatch):
        # 1e20 is finite in float32, but its square, and so the gradient's dot product, is not
        _, split = tiny_split
        self._set_in_every_gradient(monkeypatch, {("U_o", (1, 2)): 1e20})
        trained, history = sg.train(sg.init_model(12, 6, 0), split.train, epochs=2, lr=2e-3)
        assert np.all(np.isfinite(trained.params.flat))
        assert np.all(np.isfinite(history.train_mse))

    def test_config_validation(self, tiny_split):
        _, split = tiny_split
        model = sg.init_model(12, 6, 0)
        for bad, match in (
            ({"epochs": 0}, "epochs must be >= 1"),
            ({"lr": -1.0}, "lr must be >= 0"),
            ({"lr": float("nan")}, "lr must be >= 0"),
        ):
            settings = {"epochs": 1, "lr": 1e-3, **bad}
            with pytest.raises(ValueError, match=match):
                sg.train(model, split.train, **settings)

    def test_empty_train_set_rejected(self):
        frames = small_frames(14, 4)
        identity = dsm.Scaler(0.0, 1.0)
        split = dsm.prepare_split(frames, np.arange(14.0), 4, 0.05, identity)  # floor(0.05 * 10) = 0 train pairs
        model = sg.init_model(4, 3, 0)
        with pytest.raises(ValueError):
            sg.train(model, split.train, epochs=1, lr=2e-3)


class TestPredict:
    def test_rollout_single_step_equals_forward(self, tiny_split):
        _, split = tiny_split
        model = sg.init_model(12, 6, 2)
        window = split.test.inputs[0]
        roll = sg.predict_rollout(model, window, 1)
        direct, _ = sg.forward(model, window[None])
        assert np.array_equal(roll[0], direct[0])

    def test_rollout_feeds_back_predictions(self, tiny_split):
        _, split = tiny_split
        model = sg.init_model(12, 6, 2)
        window = split.test.inputs[0]
        roll = sg.predict_rollout(model, window, 2)
        p1, _ = sg.forward(model, window[None])
        p2, _ = sg.forward(model, np.vstack([window[1:], p1])[None])
        assert np.array_equal(roll[1], p2[0])

    def test_rollout_past_its_lookback_matches_feedback_loop(self, tiny_split):
        # 2L + 1 steps: the last L + 1 windows hold predictions only
        _, split = tiny_split
        model = sg.init_model(12, 6, 2)
        window = split.test.inputs[0]
        n_steps = 2 * len(window) + 1
        roll = sg.predict_rollout(model, window, n_steps)
        ref, current = [], window[None]
        for _ in range(n_steps):
            pred, _ = sg.forward(model, current)
            ref.append(pred[0])
            current = np.concatenate([current[:, 1:], pred[:, None]], axis=1)
        assert roll.shape == (n_steps, 12)
        assert np.array_equal(roll, np.stack(ref))

    def test_rollout_requires_positive_steps(self, tiny_split):
        _, split = tiny_split
        model = sg.init_model(12, 6, 2)
        with pytest.raises(ValueError):
            sg.predict_rollout(model, split.test.inputs[0], 0)

    def test_rollout_rejects_a_seed_that_is_not_one_window(self, tiny_split):
        _, split = tiny_split
        model = sg.init_model(12, 6, 2)
        for seed in (split.test.inputs[0][0], split.test.inputs[:1], np.zeros((4, 11))):
            with pytest.raises(ValueError, match="seed window"):
                sg.predict_rollout(model, seed, 3)

    def test_one_step_shape(self, tiny_split):
        _, split = tiny_split
        model = sg.init_model(12, 6, 2)
        out = sg.predict_one_step(model, split.test.inputs)
        assert out.shape == (len(split.test), 12)


# one float32 value per parameter of a (2, 1) model, the edges of the 9-digit
# format drawn explicitly: the smallest subnormal and the largest finite float32
_PARAM_VALUES = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.401298464324817e-45, -1.401298464324817e-45,
                         3.4028234663852886e38, -3.4028234663852886e38]),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    min_size=sg._param_count(2, 1), max_size=sg._param_count(2, 1),
)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = sg.init_model(6, 4, 11)
        path = tmp_path / "model.ckpt"
        sg.save_checkpoint(model, path)
        back = sg.load_checkpoint(path)
        assert back.input_dim == 6
        assert back.hidden_dim == 4
        assert back.seed == 11
        for k in sg.PARAM_KEYS:
            assert np.array_equal(back.params[k], model.params[k])

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_PARAM_VALUES)
    def test_rows_equal_the_per_value_join(self, tmp_path, values):
        model = sg.init_model(2, 1, 0)
        model.params.flat[:] = values
        path = tmp_path / "model.ckpt"
        sg.save_checkpoint(model, path)
        expected = ["input_dim=2", "hidden_dim=1", "seed=0", "dtype=float32"]
        for key in sg.PARAM_KEYS:
            expected.append(f"[{key}]")
            expected += [" ".join(f"{v:.9g}" for v in row) for row in np.atleast_2d(model.params[key])]
        assert path.read_text().splitlines() == expected

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_PARAM_VALUES)
    def test_read_back_bitwise(self, tmp_path, values):
        model = sg.init_model(2, 1, 0)
        model.params.flat[:] = values
        path = tmp_path / "model.ckpt"
        sg.save_checkpoint(model, path)
        assert sg.load_checkpoint(path).params.flat.tobytes() == model.params.flat.tobytes()

    def test_float64_model_refused(self, tmp_path):
        with pytest.raises(ValueError, match="float32"):
            sg.save_checkpoint(float64_model(sg.init_model(3, 2, 0)), tmp_path / "model.ckpt")
        assert not (tmp_path / "model.ckpt").exists()

    def test_missing_section_rejected(self, tmp_path):
        model = sg.init_model(3, 2, 0)
        path = tmp_path / "model.ckpt"
        sg.save_checkpoint(model, path)
        text = path.read_text()
        truncated = text[: text.index("[W_out]")]
        path.write_text(truncated)
        with pytest.raises(ValueError):
            sg.load_checkpoint(path)

    def test_missing_header_rejected(self, tmp_path):
        model = sg.init_model(3, 2, 0)
        path = tmp_path / "model.ckpt"
        sg.save_checkpoint(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")  # drop input_dim
        with pytest.raises(ValueError):
            sg.load_checkpoint(path)

    def test_wrong_shape_rejected(self, tmp_path):
        model = sg.init_model(3, 2, 0)
        path = tmp_path / "model.ckpt"
        sg.save_checkpoint(model, path)
        path.write_text(path.read_text().replace("input_dim=3", "input_dim=4"))
        with pytest.raises(ValueError):
            sg.load_checkpoint(path)


class TestLossCsv:
    def test_train_only_layout(self, tmp_path):
        history = sg.LossHistory(train_mse=[0.5, 0.25])
        path = tmp_path / "loss.csv"
        sg.write_loss_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_mse"
        assert lines[1].startswith("1,")
        assert len(lines) == 3
