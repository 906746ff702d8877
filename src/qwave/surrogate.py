"""From-scratch LSTM with a linear head, trained by minibatched BPTT and Adam.

Gate recurrence per step t, with h_0 = c_0 = 0:

    i_t = sigmoid(W_i x_t + U_i h_{t-1} + b_i)      input gate
    f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)      forget gate
    g_t = tanh   (W_c x_t + U_c h_{t-1} + b_c)      cell candidate
    o_t = sigmoid(W_o x_t + U_o h_{t-1} + b_o)      output gate
    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)

The prediction is W_out h_L + b_out with no output nonlinearity;
densities are scaled to [0, 1] before training and negative outputs are
only clamped at reporting time.  All gradients are exact reverse-mode
accumulation through every timestep.

The four gates are stacked in GATES order into W = [W_i; W_f; W_c; W_o]
(4H x N), U (4H x H) and b (4H), the standard LSTM layout.  Every pass
works on a batch of B windows, shape (B, L, N), with B = 1 for a single
window; predictions and targets are (B, N).  The forward pass projects
all B L inputs in one matrix product, X W^T + b, and then needs one
(B, H) x (H, 4H) product per step.  The tape holds the batch time-major,
(L, B, .), so each step's slice is contiguous.  The backward pass returns
the gradient of the batch mean of the per-window MSE: it collects the
gate deltas of every step and window in one (L, B, 4H) array D and forms
dW = D^T X, dU = D^T H_prev and db = sum D once over all L B rows.

Every parameter of a model lives in one contiguous float64 vector
(`Params.flat`); W, U, b, W_out, b_out and the per-gate blocks named in
PARAM_KEYS are views into it, and gradients share the layout.  Adam,
clipping and the finiteness check are therefore a few vector operations
over the whole parameter set, taken once per batch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import atomic_text, write_csv
from .dataset import WindowedDataset
from .errors import NonFiniteError

log = logging.getLogger(__name__)

GATES = ("i", "f", "c", "o")

# fixed parameter order: gate weights, then the dense head
PARAM_KEYS = tuple(f"{kind}_{g}" for g in GATES for kind in ("W", "U", "b")) + ("W_out", "b_out")

# the stacked blocks, back to back in the flat vector
_BLOCKS = ("W", "U", "b", "W_out", "b_out")

# entries per Adam chunk: the scratch is one chunk instead of a whole
# parameter vector, which keeps train's peak RSS 0.3-0.5 MB lower at the
# defaults; chunked and whole-vector steps run at the same speed (CHANGES.md)
_ADAM_CHUNK = 16384
# Adam's moment decay rates and denominator guard, Kingma & Ba's defaults
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

# training pairs per Adam update; the default training.lr (RunConfig) was
# chosen with it in a 25-seed convergence sweep (criterion 9 and the
# one-step MSE, CHANGES.md), so the two move together
_BATCH_SIZE = 16


class Params:
    """Every LSTM parameter (or gradient) as a view into one flat vector.

    `flat` holds the blocks W (4H, N), U (4H, H), b (4H,), W_out (N, H)
    and b_out (N,) back to back; the attributes of the same names are
    views of them.  Indexed by a PARAM_KEYS entry, params["W_f"] is rows
    H:2H of W, and so on for every gate.  Assigning params[key] = array
    copies into that view and raises ValueError on a shape mismatch, so
    the flat vector stays the only storage.
    """

    def __init__(self, flat: np.ndarray, input_dim: int, hidden_dim: int):
        n, h = input_dim, hidden_dim
        shapes = {"W": (4 * h, n), "U": (4 * h, h), "b": (4 * h,), "W_out": (n, h), "b_out": (n,)}
        if flat.shape != (_param_count(n, h),) or flat.dtype != np.float64:
            raise ValueError(f"flat vector {flat.dtype}{flat.shape} does not fit N={n}, H={h}")
        self.flat = flat
        offset = 0
        for name in _BLOCKS:
            size = math.prod(shapes[name])
            setattr(self, name, flat[offset : offset + size].reshape(shapes[name]))
            offset += size
        self._views: dict[str, np.ndarray] = {}
        for k, g in enumerate(GATES):
            for kind in ("W", "U", "b"):
                self._views[f"{kind}_{g}"] = getattr(self, kind)[k * h : (k + 1) * h]
        self._views["W_out"] = self.W_out
        self._views["b_out"] = self.b_out

    def __getitem__(self, key: str) -> np.ndarray:
        return self._views[key]

    def __setitem__(self, key: str, value) -> None:
        view = self._views[key]
        value = np.asarray(value, dtype=float)
        if value.shape != view.shape:
            raise ValueError(f"parameter {key} has shape {value.shape}, expected {view.shape}")
        view[...] = value

    def key_at(self, index: int) -> str:
        """The PARAM_KEYS entry that holds flat[index]."""
        for name in _BLOCKS:
            block = getattr(self, name)
            if index < block.size:
                return name if name.endswith("_out") else f"{name}_{GATES[index * 4 // block.size]}"
            index -= block.size
        raise IndexError(f"index {index} is past the parameter vector")


def _param_count(input_dim: int, hidden_dim: int) -> int:
    """Length of the flat parameter vector for N inputs and H hidden units."""
    n, h = input_dim, hidden_dim
    return 4 * h * (n + h + 1) + n * (h + 1)


@dataclass
class SurrogateModel:
    """LSTM gate parameters plus the dense output head.

    params holds views into one zero-initialised flat vector:
    W_g is (hidden, input), U_g is (hidden, hidden), b_g is (hidden,),
    W_out is (input, hidden), b_out is (input,).
    """

    input_dim: int
    hidden_dim: int
    seed: int
    params: Params = field(init=False, repr=False)

    def __post_init__(self):
        self.params = Params(
            np.zeros(_param_count(self.input_dim, self.hidden_dim)), self.input_dim, self.hidden_dim
        )


@dataclass
class AdamState:
    """First/second moments over the flat parameter vector and the step counter."""

    m: np.ndarray
    v: np.ndarray
    lr: float
    step: int = 0
    # scratch for one chunk, so a step allocates nothing
    _work: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._work = np.empty(min(self.m.size, _ADAM_CHUNK))


@dataclass
class LossHistory:
    """Per-epoch mean training MSE (scaled units; see train)."""

    train_mse: list[float] = field(default_factory=list)


@dataclass
class Tape:
    """Per-step activations cached by forward for exact BPTT, time-major."""

    inputs: np.ndarray  # (L, B, N), the windows
    gates: np.ndarray  # (L, B, 4H) activations i, f, c (candidate), o per step, stacked
    cells: np.ndarray  # (L, B, H), c_1 .. c_L
    hiddens: np.ndarray  # (L + 1, B, H), h_0 .. h_L, so hiddens[t] is the state BEFORE step t+1
    prediction: np.ndarray  # (B, N)


def _sigmoid(x: np.ndarray) -> None:
    """Logistic function in place; exp(-|x|) cannot overflow."""
    e = np.exp(-np.abs(x))
    np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=x)


def init_model(input_dim: int, hidden_dim: int, rng_seed: int) -> SurrogateModel:
    """Seeded uniform init in [-1/sqrt(hidden), 1/sqrt(hidden)].

    Biases start at zero except the forget gate, whose bias of 1 keeps
    the cell state open early in training.  Draws are taken per key in
    PARAM_KEYS order.
    """
    if input_dim < 1 or hidden_dim < 1:
        raise ValueError(f"dimensions must be >= 1, got input={input_dim}, hidden={hidden_dim}")
    rng = np.random.default_rng(rng_seed)
    bound = 1.0 / np.sqrt(hidden_dim)
    model = SurrogateModel(int(input_dim), int(hidden_dim), int(rng_seed))
    params = model.params
    for g in GATES:
        params[f"W_{g}"] = rng.uniform(-bound, bound, size=(hidden_dim, input_dim))
        params[f"U_{g}"] = rng.uniform(-bound, bound, size=(hidden_dim, hidden_dim))
    params["b_f"] = np.ones(hidden_dim)
    params["W_out"] = rng.uniform(-bound, bound, size=(input_dim, hidden_dim))
    return model


@np.errstate(over="ignore", invalid="ignore")  # overflow ends in the non-finite check below
def forward(model: SurrogateModel, windows: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Run the recurrence over a (B, L, input_dim) batch; return (B, N) predictions and tape."""
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 3 or windows.shape[2] != model.input_dim:
        raise ValueError(
            f"windows shape {windows.shape} is not (batch, lookback, {model.input_dim})"
        )
    n_batch, n_steps, n = windows.shape
    if n_batch < 1 or n_steps < 1:
        raise ValueError("a batch needs at least one window of at least one frame")

    p = model.params
    h = model.hidden_dim
    inputs = np.ascontiguousarray(windows.transpose(1, 0, 2))
    # every step's input projection at once
    gates = (inputs.reshape(n_steps * n_batch, n) @ p.W.T).reshape(n_steps, n_batch, 4 * h)
    gates += p.b
    cells = np.empty((n_steps, n_batch, h))
    hiddens = np.zeros((n_steps + 1, n_batch, h))
    c_prev = np.zeros((n_batch, h))
    for t in range(n_steps):
        z = gates[t]
        z += hiddens[t] @ p.U.T
        g = np.tanh(z[:, 2 * h : 3 * h])
        _sigmoid(z)
        z[:, 2 * h : 3 * h] = g
        i, f, o = z[:, :h], z[:, h : 2 * h], z[:, 3 * h :]
        c = cells[t]
        np.multiply(f, c_prev, out=c)
        c += i * g
        np.multiply(o, np.tanh(c), out=hiddens[t + 1])
        c_prev = c

    prediction = hiddens[-1] @ p.W_out.T
    prediction += p.b_out
    if not np.all(np.isfinite(prediction)):
        raise NonFiniteError("non-finite activation in forward pass")
    return prediction, Tape(inputs, gates, cells, hiddens, prediction)


def mse(prediction: np.ndarray, target: np.ndarray) -> float:
    """Mean of (p - y)^2 over every entry: for (B, N) arrays, the batch mean of per-row MSE."""
    prediction = np.asarray(prediction, dtype=float)
    target = np.asarray(target, dtype=float)
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch: prediction {prediction.shape}, target {target.shape}")
    diff = (prediction - target).ravel()
    with np.errstate(over="ignore"):  # inf is caught by the caller's finiteness check
        return float(diff @ diff) / diff.size


def backward(
    model: SurrogateModel, tape: Tape, targets: np.ndarray, out: Params | None = None
) -> Params:
    """Exact gradients of mse(prediction, targets), the batch mean, laid out like model.params.

    They are written into out when given, else into a new Params.  Reuse
    pays: a fresh 650 kB vector (N = 200, H = 64) is mapped anew, and its
    pages fault on first write, which costs about as much as the arithmetic.
    """
    targets = np.asarray(targets, dtype=float)
    n, h = model.input_dim, model.hidden_dim
    n_steps, n_batch = tape.inputs.shape[:2]
    if n_steps == 0 or tape.hiddens.shape != (n_steps + 1, n_batch, h):
        raise ValueError("tape does not come from a completed forward pass")
    if tape.prediction.shape != (n_batch, n) or targets.shape != (n_batch, n):
        raise ValueError(
            f"tape/target shape mismatch: prediction {tape.prediction.shape}, "
            f"targets {targets.shape}, input_dim {n}"
        )
    if tape.inputs.shape != (n_steps, n_batch, n) or tape.gates.shape != (n_steps, n_batch, 4 * h):
        raise ValueError("tape shapes do not match this model")

    p = model.params
    grads = Params(np.empty_like(p.flat), n, h) if out is None else out

    d_pred = 2.0 * (tape.prediction - targets) / (n_batch * n)
    np.matmul(d_pred.T, tape.hiddens[-1], out=grads.W_out)
    np.sum(d_pred, axis=0, out=grads.b_out)

    # Each step's gate delta is (carried delta) * partner * (activation slope):
    #   d_i = dc * g * i(1-i),  d_f = dc * c_prev * f(1-f),
    #   d_c = dc * i * (1-g^2), d_o = dh * tanh(c) * o(1-o),
    # with dc = dh * o (1 - tanh(c)^2) + (carry from step t+1).  Partners and
    # slopes do not depend on the deltas, so they are formed for all steps first.
    a = tape.gates
    i, f, g, o = (a[..., k * h : (k + 1) * h] for k in range(4))
    tanh_c = np.tanh(tape.cells)
    slope = a * (1.0 - a)
    slope[..., 2 * h : 3 * h] = 1.0 - g**2
    partner = np.empty_like(a)
    partner[..., :h] = g
    partner[0, :, h : 2 * h] = 0.0  # c_0
    partner[1:, :, h : 2 * h] = tape.cells[:-1]
    partner[..., 2 * h : 3 * h] = i
    partner[..., 3 * h :] = tanh_c
    dc_dh = o * (1.0 - tanh_c**2)

    deltas = np.empty_like(a)
    # the same arrays with the gate index split out: (L, B, 4, H)
    partner4 = partner.reshape(n_steps, n_batch, 4, h)
    deltas4 = deltas.reshape(n_steps, n_batch, 4, h)
    dh = d_pred @ p.W_out
    dc_carry = np.zeros((n_batch, h))
    for t in range(n_steps - 1, -1, -1):
        dc = dh * dc_dh[t]
        dc += dc_carry
        np.multiply(dc[:, None, :], partner4[t, :, :3], out=deltas4[t, :, :3])
        np.multiply(dh, partner4[t, :, 3], out=deltas4[t, :, 3])
        d = deltas[t]
        d *= slope[t]
        dh = d @ p.U
        dc_carry = dc * f[t]

    rows = n_steps * n_batch
    deltas = deltas.reshape(rows, 4 * h)
    np.matmul(deltas.T, tape.inputs.reshape(rows, n), out=grads.W)
    np.matmul(deltas.T, tape.hiddens[:-1].reshape(rows, h), out=grads.U)
    np.sum(deltas, axis=0, out=grads.b)
    return grads


def _first_nonfinite(vector: np.ndarray) -> int | None:
    """Index of the first NaN or infinity in vector, or None.

    One dot product is the whole check when every entry is finite: NaN
    and infinities propagate into it.  Only a non-finite result, which
    entries above 1e154 also give by overflow, pays for the elementwise
    search.
    """
    if np.isfinite(vector @ vector):
        return None
    bad = np.flatnonzero(~np.isfinite(vector))
    return int(bad[0]) if bad.size else None


def init_adam(theta: np.ndarray, lr: float) -> AdamState:
    """Zero moments for the flat parameter vector theta."""
    return AdamState(m=np.zeros_like(theta), v=np.zeros_like(theta), lr=lr)


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of the flat vector theta, in place.

    The step lr * m_hat / (sqrt(v_hat) + eps), with m_hat = m / (1 - beta1^k)
    and v_hat = v / (1 - beta2^k), is taken in the equivalent form
    lr_k * m / (sqrt(v) + eps_k) with lr_k = lr sqrt(1 - beta2^k) / (1 - beta1^k)
    and eps_k = eps sqrt(1 - beta2^k), which folds both bias corrections
    into two scalars (Kingma & Ba 2015, section 2).  The passes run chunk
    by chunk; every entry sees the same operations as in whole-vector form.
    grad must be finite: `train` checks it, naming the parameter, before
    clipping.
    """
    if grad.shape != theta.shape or theta.shape != state.m.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match parameters {theta.shape} "
            f"and moments {state.m.shape}"
        )
    state.step += 1
    root_bc2 = math.sqrt(1.0 - _ADAM_BETA2**state.step)
    lr_k = state.lr * root_bc2 / (1.0 - _ADAM_BETA1**state.step)
    for lo in range(0, theta.size, _ADAM_CHUNK):
        hi = min(lo + _ADAM_CHUNK, theta.size)
        m, v, g, tmp = state.m[lo:hi], state.v[lo:hi], grad[lo:hi], state._work[: hi - lo]
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g^2
        m *= _ADAM_BETA1
        np.multiply(g, 1.0 - _ADAM_BETA1, out=tmp)
        m += tmp
        v *= _ADAM_BETA2
        np.square(g, out=tmp)
        tmp *= 1.0 - _ADAM_BETA2
        v += tmp
        np.sqrt(v, out=tmp)
        tmp += _ADAM_EPS * root_bc2
        np.divide(m, tmp, out=tmp)
        tmp *= lr_k
        theta[lo:hi] -= tmp


def _clip_gradients(grad: np.ndarray, max_norm: float) -> bool:
    total = np.sqrt(grad @ grad)
    if total <= max_norm:
        return False
    grad *= max_norm / total
    return True


def train(
    model: SurrogateModel, pairs: WindowedDataset, *, epochs: int, lr: float, clip_norm: float | None
) -> tuple[SurrogateModel, LossHistory]:
    """Adam updates over epochs x batches, one update per batch of pairs.

    Each epoch visits every pair exactly once, in a fresh permutation
    drawn from np.random.default_rng(model.seed) and cut into batches of
    _BATCH_SIZE pairs (the last may be shorter); a fixed chronological
    order ends every epoch pulled toward the last, nearly identical
    frames.  Only the visiting order is shuffled, never the pairs: the
    CLI passes the chronological train windows of its split.  Each batch
    takes one Adam step on the gradient of its mean pair MSE, recorded
    before the update; an epoch's entry is the sum of its pair losses
    over the pair count, the mean MSE the parameters of that epoch
    actually saw.  Gradients are clipped to norm clip_norm unless it is
    None.  Deterministic for a fixed model.seed; no dropout.  Every loss
    is taken before its update, so a forward pass over the pairs checks
    the parameters the final update leaves; it raises NonFiniteError
    naming that update rather than return weights that overflow every
    later forward pass.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not lr >= 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    if clip_norm is not None and not clip_norm > 0:
        raise ValueError(f"clip_norm must be positive when set, got {clip_norm}")
    n_pairs = len(pairs)
    if n_pairs == 0:
        raise ValueError("training set is empty")
    work = SurrogateModel(model.input_dim, model.hidden_dim, model.seed)
    theta = work.params.flat
    theta[:] = model.params.flat
    state = init_adam(theta, lr)
    history = LossHistory()
    grads = Params(np.empty_like(theta), model.input_dim, model.hidden_dim)
    clipped = 0
    rng = np.random.default_rng(model.seed)

    for epoch in range(epochs):
        total = 0.0
        order = rng.permutation(n_pairs)
        for start in range(0, n_pairs, _BATCH_SIZE):
            batch = order[start : start + _BATCH_SIZE]
            targets = pairs.targets[batch]
            pred, tape = forward(work, pairs.inputs[batch])
            loss = mse(pred, targets)
            if not np.isfinite(loss):
                raise NonFiniteError(f"loss diverged at epoch {epoch + 1}, pairs {batch.tolist()}")
            total += loss * len(batch)
            grads = backward(work, tape, targets, out=grads)
            # checked before clipping, which would spread one NaN over every parameter
            bad = _first_nonfinite(grads.flat)
            if bad is not None:
                raise NonFiniteError(
                    f"non-finite gradient for parameter {grads.key_at(bad)} "
                    f"at epoch {epoch + 1}, pairs {batch.tolist()}"
                )
            if clip_norm is not None and _clip_gradients(grads.flat, clip_norm):
                clipped += 1
            adam_step(state, theta, grads.flat)
        history.train_mse.append(total / n_pairs)

    try:
        # in training-sized batches, so the check needs no more memory than an update
        for start in range(0, n_pairs, _BATCH_SIZE):
            forward(work, pairs.inputs[start : start + _BATCH_SIZE])
    except NonFiniteError:
        raise NonFiniteError(
            f"non-finite activation in forward pass after the final update "
            f"(update {state.step}, epoch {epochs})"
        ) from None
    if clipped:
        log.warning("gradient clipping fired on %d of %d updates", clipped, state.step)
    return work, history


def predict_one_step(model: SurrogateModel, windows: np.ndarray) -> np.ndarray:
    """One prediction per ground-truth window; (M, L, N) -> (M, N), scaled units."""
    return forward(model, windows)[0]


def predict_rollout(model: SurrogateModel, seed_window: np.ndarray, n_steps: int) -> np.ndarray:
    """Autoregressive rollout: each prediction is fed back as the newest frame.

    seed_window is (L, N); output is (n_steps, N) in scaled units; the
    caller inverse-transforms.  The seed and the predictions share one
    (L + n_steps, N) buffer: step k forwards rows k to k + L - 1 as a
    batch of one window and writes its prediction to row L + k.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    seed_window = np.asarray(seed_window, dtype=float)
    if seed_window.ndim != 2 or seed_window.shape[1] != model.input_dim:
        raise ValueError(f"seed window shape {seed_window.shape} is not (lookback, {model.input_dim})")
    lookback = len(seed_window)
    frames = np.empty((lookback + n_steps, model.input_dim))
    frames[:lookback] = seed_window
    for k in range(n_steps):
        pred, _ = forward(model, frames[None, k : k + lookback])
        frames[lookback + k] = pred[0]
    return frames[lookback:]


def save_checkpoint(model: SurrogateModel, path) -> None:
    """Self-describing text checkpoint; round-trips bitwise via 17-digit floats.

    Each row is one %-format of all its values, byte for byte the
    per-value f"{v:.17g}" join.
    """
    with atomic_text(path) as fh:
        fh.write(f"input_dim={model.input_dim}\n")
        fh.write(f"hidden_dim={model.hidden_dim}\n")
        fh.write(f"seed={model.seed}\n")
        for key in PARAM_KEYS:
            tensor = np.atleast_2d(model.params[key])
            fh.write(f"[{key}]\n")
            fmt = " ".join(["%.17g"] * tensor.shape[1]) + "\n"
            for row in tensor:
                fh.write(fmt % tuple(row.tolist()))


def load_checkpoint(path) -> SurrogateModel:
    """Read a save_checkpoint file; every section must match its parameter's shape."""
    header: dict[str, int] = {}
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1]
                current = sections.setdefault(name, [])
            elif current is None:
                key, _, raw = line.partition("=")
                try:
                    header[key.strip()] = int(raw)
                except ValueError as exc:
                    raise ValueError(f"checkpoint {path} header line {line!r} is not name=int") from exc
            else:
                current.append(line)
    missing = {"input_dim", "hidden_dim", "seed"} - set(header)
    if missing:
        raise ValueError(f"checkpoint {path} is missing header fields {sorted(missing)}")
    if set(sections) != set(PARAM_KEYS):
        raise ValueError(
            f"checkpoint {path} has parameter sections {sorted(sections)}, "
            f"expected {sorted(PARAM_KEYS)}"
        )
    model = SurrogateModel(header["input_dim"], header["hidden_dim"], header["seed"])
    for key, rows in sections.items():
        try:
            tensor = np.loadtxt(rows, ndmin=2)
            model.params[key] = tensor.reshape(-1) if key.startswith("b_") else tensor
        except ValueError as exc:
            raise ValueError(f"checkpoint {path} section [{key}]: {exc}") from exc
    return model


def write_loss_csv(history: LossHistory, path) -> None:
    """Loss CSV: epoch,train_mse."""
    write_csv(path, ("epoch", "train_mse"), enumerate(history.train_mse, start=1))
