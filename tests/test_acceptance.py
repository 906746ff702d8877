"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each test prints a measured-value line, so `pytest -v` gives a one-line
pass/fail verdict per criterion with the evidence next to it.  Every
criterion is held at its stated threshold; criterion 5a compares the
spectrum with the continuum ladder corrected by the 3-point stencil's
closed-form leading bias (derived in the test), and prints the raw gap
to n + 1/2 beside it.
"""

import time

import numpy as np
import pytest

from qwave import cli
from qwave import compare as cp
from qwave import dataset as dsm
from qwave import evolve as ev
from qwave import spectral as sp
from qwave import surrogate as sg

from conftest import dense, dense_unitary, float64_model

# published density table: (index, x) rows by t columns, 3 significant figures
TABLE_T0 = ["7.73e-24", "2.10e-23", "5.66e-23", "1.51e-22", "3.97e-22"]
TABLE_T05 = ["1.27e-15", "5.33e-15", "1.30e-14", "2.62e-14", "4.83e-14"]
TABLE_T10 = ["2.66e-10", "1.08e-09", "2.48e-09", "4.54e-09", "7.36e-09"]


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_01_initial_density_cells(default_record):
    rows = cp.table_slice(default_record, [0.0], [0, 1, 2, 3, 4])
    got = [r[2] for r in rows]
    ok = got == TABLE_T0
    _verdict("criterion 1", ok, f"t=0 cells {got}")
    assert got == TABLE_T0


def test_02_evolved_density_cells(default_record):
    worst = 0.0
    for t, column in ((0.5, TABLE_T05), (1.0, TABLE_T10)):
        rows = cp.table_slice(default_record, [t], [0, 1, 2, 3, 4])
        for row, published in zip(rows, column):
            rel = abs(float(row[2]) - float(published)) / float(published)
            worst = max(worst, rel)
    ok = worst <= 0.05
    _verdict("criterion 2", ok, f"worst relative error over 10 cells {worst:.3e} (tol 5e-2)")
    assert worst <= 0.05


def test_03_conservation(default_record):
    drift = float(np.max(default_record.conservation_log))
    ok = drift <= 1e-10
    _verdict("criterion 3", ok, f"max |sum|psi|^2 - 1| = {drift:.3e} (tol 1e-10)")
    assert drift <= 1e-10


def test_04_unitarity_and_residual(default_hamiltonian, default_decomposition):
    # U from the factors the step loop applies: Q and build_propagator's phases
    q = default_decomposition.eigenvectors
    lam = default_decomposition.eigenvalues
    u = dense_unitary(q, sp.build_propagator(default_decomposition, 0.05).phases)
    unit = float(np.max(np.abs(u.conj().T @ u - np.eye(q.shape[0]))))
    h = dense(default_hamiltonian)
    resid = float(np.max(np.abs(h @ q - q * lam[None, :])))
    bound = 1e-8 * float(np.max(np.abs(h)))
    ok = unit <= 1e-10 and resid <= bound
    _verdict(
        "criterion 4", ok,
        f"|U^H U - I|_max = {unit:.3e} (tol 1e-10); "
        f"|HQ - Q Lambda|_max = {resid:.3e} (tol {bound:.3e})",
    )
    assert unit <= 1e-10
    assert resid <= bound


def test_05a_eigenvalues_near_continuum(default_grid, default_hamiltonian, default_decomposition):
    # the solver agrees with an independent dense eigensolve to 1e-9 ...
    lam = default_decomposition.eigenvalues[:6]
    oracle = np.linalg.eigvalsh(dense(default_hamiltonian))[:6]
    solver_vs_oracle = float(np.max(np.abs(lam - oracle)))
    assert solver_vs_oracle <= 1e-9 * float(np.abs(oracle).max())
    # ... so the gap to n + 1/2 is the 3-point stencil's bias, not solver error.
    # Taylor: (psi(x+dx) - 2 psi(x) + psi(x-dx))/dx^2 = psi'' + (dx^2/12) psi'''' + O(dx^4),
    # so -(1/2) Laplacian = p^2/2 - (dx^2/24) p^4 + O(dx^4).  First-order perturbation
    # with the oscillator moment <p^4>_n = (3/4)(2n^2 + 2n + 1) gives
    #     E_n(dx) = n + 1/2 - (dx^2/32)(2n^2 + 2n + 1) + O(dx^4).
    n = np.arange(6)
    continuum = n + 0.5
    target = continuum - default_grid.dx**2 / 32.0 * (2 * n**2 + 2 * n + 1)
    raw = lam - continuum
    errors = lam - target
    worst = float(np.max(np.abs(errors)))
    ok = worst <= 1e-3
    _verdict(
        "criterion 5a", ok,
        f"eigenvalue errors vs n+1/2: {[f'{e:.2e}' for e in raw]}; "
        f"vs n+1/2 - (dx^2/32)(2n^2+2n+1): {[f'{e:.2e}' for e in errors]} "
        f"(tol 1e-3 abs; solver matches dense oracle to {solver_vs_oracle:.1e})",
    )
    assert worst <= 1e-3


def _direct(decomp, psi0, t):
    """psi(t) = Q exp(-i lam t) Q^T psi(0) in one shot, from the decomposition's factors."""
    q = decomp.eigenvectors
    return q @ (np.exp(-1j * decomp.eigenvalues * t) * (q.T @ psi0))


def test_05b_density_periodicity(default_grid, default_decomposition):
    psi0 = ev.gaussian_initial(default_grid)
    at_pi = _direct(default_decomposition, psi0, float(np.pi))
    diff = float(np.max(np.abs(np.abs(at_pi) ** 2 - psi0**2)))
    ok = diff <= 1e-3
    _verdict("criterion 5b", ok, f"max-abs density change over one period {diff:.3e} (tol 1e-3)")
    assert diff <= 1e-3


def test_06_stepping_vs_direct(default_grid, default_decomposition):
    # the amplitudes run_evolution squares into its frames, at t = 1.0 and t = 5.0
    psi0 = ev.gaussian_initial(default_grid)
    u = sp.build_propagator(default_decomposition, 0.05)
    stepped = {}
    for k0, re, im in u.states(psi0, 100):
        for step in (20, 100):
            if k0 <= step < k0 + len(re):
                stepped[step] = re[step - k0] + 1j * im[step - k0]
    assert sorted(stepped) == [20, 100]
    worst = max(
        float(np.max(np.abs(psi - _direct(default_decomposition, psi0, 0.05 * step))))
        for step, psi in stepped.items()
    )
    ok = worst <= 1e-9
    _verdict("criterion 6", ok, f"max step-vs-direct deviation {worst:.3e} (tol 1e-9)")
    assert worst <= 1e-9


def test_07_gradient_gate():
    start = time.perf_counter()
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(100 + seed)
        # float64, so central differences at step 1e-5 resolve the loss
        model = float64_model(sg.init_model(3, 4, seed))
        for k in sg.PARAM_KEYS:  # nudge off the symmetric init
            model.params[k] = model.params[k] + rng.normal(0.0, 0.1, model.params[k].shape)
        window = rng.uniform(size=(3, 3, 3))  # a batch of 3 windows
        target = rng.uniform(size=(3, 3))
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
            worst = max(worst, float(np.max(np.abs(grads[key] - fd))) / denom)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4
    _verdict(
        "criterion 7", ok,
        f"worst relative gradient error {worst:.3e} over 3 seeds, batches of 3 "
        f"(tol 1e-4, {elapsed:.2f}s)",
    )
    assert worst <= 1e-4


def test_08_training_property(default_config, default_split, trained_default):
    model, history = trained_default
    ratio = history.train_mse[0] / history.train_mse[-1]
    finite = all(np.isfinite(v) for v in history.train_mse)
    # bitwise determinism: retrain from the same seed and data
    _, split = default_split
    fresh = sg.init_model(
        default_config.grid_n_points,
        default_config.training_hidden_dim,
        default_config.training_rng_seed,
    )
    retrained, rehistory = sg.train(
        fresh,
        split.train,
        epochs=default_config.training_epochs,
        lr=default_config.training_lr,
    )
    deterministic = rehistory.train_mse == history.train_mse and all(
        np.array_equal(retrained.params[k], model.params[k]) for k in sg.PARAM_KEYS
    )
    ok = ratio >= 10.0 and finite and deterministic
    _verdict(
        "criterion 8", ok,
        f"epoch MSE {history.train_mse[0]:.3e} -> {history.train_mse[-1]:.3e} "
        f"({ratio:.1f}x, need >= 10x); finite={finite}; bitwise deterministic={deterministic}",
    )
    assert ratio >= 10.0
    assert finite
    assert deterministic


def _frame_errors(scaler, split, scaled_preds) -> list[tuple[float, int]]:
    """(max_abs_err / frame peak, peak offset in cells) per test frame, negatives clamped."""
    preds = dsm.inverse_transform(scaler, scaled_preds)
    truth = dsm.inverse_transform(scaler, split.test.targets)
    errors = []
    for pred, true in zip(preds, truth):
        pred = np.clip(pred, 0.0, None)
        frac = float(np.max(np.abs(pred - true))) / float(true.max())
        errors.append((frac, abs(int(np.argmax(pred)) - int(np.argmax(true)))))
    return errors


def _in_band(errors) -> list[bool]:
    """Criterion 9's band per frame: within 5% of the frame peak, peak within 2 cells."""
    return [frac <= 0.05 and peak_err <= 2 for frac, peak_err in errors]


def _check_criterion_9(criterion: str, scaler, split, model) -> None:
    errors = _frame_errors(scaler, split, sg.predict_one_step(model, split.test.inputs))
    passing = sum(_in_band(errors))
    worst_frac = max(frac for frac, _ in errors)
    share = passing / len(errors)
    ok = share >= 0.8
    _verdict(
        criterion, ok,
        f"{passing}/{len(errors)} test frames within 5% of frame peak and 2 cells "
        f"({share:.0%}, need >= 80%; worst max_abs_err/peak {worst_frac:.3f})",
    )
    assert share >= 0.8


def test_09_surrogate_quality(default_split, trained_default):
    scaler, split = default_split
    _check_criterion_9("criterion 9", scaler, split, trained_default[0])


# the default batch size and learning rate hold criterion 9 on every seed of
# a 25-seed sweep (CHANGES.md); these five stand for it beside seed 42 above
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
def test_09_surrogate_quality_other_seeds(default_config, default_split, seed):
    scaler, split = default_split
    model, _ = sg.train(
        sg.init_model(default_config.grid_n_points, default_config.training_hidden_dim, seed),
        split.train,
        epochs=default_config.training_epochs,
        lr=default_config.training_lr,
    )
    _check_criterion_9(f"criterion 9, seed {seed}", scaler, split, model)


# The rollout feeds each prediction back as the newest frame, and it keeps
# criterion 9's band only for its first few test frames.  Measured at seed 42:
# 5 of 20 frames in band, the first out at test frame 4 (t = 4.25), worst
# max_abs_err/peak 0.097, peak within 1 cell.  Over the 25 seeds 0-23 and 42
# the first frame out is 2-6 (README).  No claim sets these limits; they pin
# seed 42's horizon and worst ratio so that a change that shortens it shows.
ROLLOUT_MIN_HORIZON = 4
ROLLOUT_MAX_WORST = 0.10


def test_09_rollout_horizon(default_split, trained_default):
    scaler, split = default_split
    rollout = sg.predict_rollout(trained_default[0], split.test.inputs[0], len(split.test))
    errors = _frame_errors(scaler, split, rollout)
    in_band = _in_band(errors)
    horizon = in_band.index(False) if not all(in_band) else len(in_band)
    worst_frac = max(frac for frac, _ in errors)
    first_out = (
        f"test frame {horizon} (t = {split.test.target_times[horizon]:.2f})"
        if horizon < len(in_band) else "none"
    )
    ok = horizon >= ROLLOUT_MIN_HORIZON and worst_frac <= ROLLOUT_MAX_WORST
    _verdict(
        "rollout horizon", ok,
        f"{sum(in_band)}/{len(in_band)} rollout frames within 5% of frame peak and 2 cells; "
        f"first out of band: {first_out}, need >= {ROLLOUT_MIN_HORIZON}; "
        f"worst max_abs_err/peak {worst_frac:.3f}, need <= {ROLLOUT_MAX_WORST:.2f}; "
        f"peak off by at most {max(peak for _, peak in errors)} cells",
    )
    assert horizon >= ROLLOUT_MIN_HORIZON
    assert worst_frac <= ROLLOUT_MAX_WORST


def test_10_pipeline_determinism(tmp_path):
    reports = []
    for name in ("first", "second"):
        out = tmp_path / name
        for argv in (
            ["simulate"],
            ["export-dataset"],
            ["train"],
            ["predict", "--mode", "one-step"],
            ["compare"],
        ):
            code = cli.main(["--io.output_dir", str(out), *argv])
            assert code == 0, f"{argv} exited {code}"
        reports.append((out / "report.csv").read_bytes())
    ok = reports[0] == reports[1]
    _verdict(
        "criterion 10", ok,
        f"two default pipeline runs, report.csv identical={ok} ({len(reports[0])} bytes)",
    )
    assert reports[0] == reports[1]
