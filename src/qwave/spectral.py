"""Real-symmetric eigendecomposition and the exact unitary propagator.

H = Q diag(lam) Q^T is computed from the Hamiltonian's two bands by the
implicit-shift QL iteration, its Givens rotations applied to Q^T in the
wavefront order of Van Zee, van de Geijn & Quintana-Orti (ACM TOMS 40(3),
2014).  The propagator is then exactly U(dt) = Q diag(exp(-i lam dt)) Q^T,
so repeated stepping carries no splitting error and stays unitary to
rounding.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .discretize import Hamiltonian
from .errors import ConvergenceError
from .state import WaveState

_EPS = float(np.finfo(float).eps)
_MAX_QL_ITER = 50
# QL applies its rotation log once it holds _FLUSH_SWEEPS * n rotations:
# levels wide enough to amortize numpy's per-call cost, a log far below Q
_FLUSH_SWEEPS = 16


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthogonal eigenvector columns of H."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class Propagator:
    """One-timestep unitary U(dt) = Q exp(-i lam dt) Q^T."""

    dt: float
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _apply_rotations(qt: np.ndarray, rows: array, cos: array, sin: array) -> None:
    """Apply logged Givens rotations, in log order, to the rows of Q^T in place.

    Rotation k maps rows (x, y) = (rows[k], rows[k] + 1) of the C-ordered
    qt to (c x - s y, s x + c y).  Each rotation's level is one past the
    last level to touch its rows, so rotations within a level touch
    disjoint rows and commute.  QL's sweeps enter that wavefront two rows
    apart, so a level splits into a few runs i, i+2, i+4, ..., and each
    run is one strided view of Q^T updated by six ufuncs: every entry
    sees the same IEEE operations in the same order as the plain loop.
    """
    if not rows:
        return
    last = [0] * qt.shape[0]
    levels = array("i")
    for i in rows:
        a, b = last[i], last[i + 1]
        last[i] = last[i + 1] = level = (a if a > b else b) + 1
        levels.append(level)
    rows, levels = np.frombuffer(rows, dtype=np.intc), np.frombuffer(levels, dtype=np.intc)
    order = np.lexsort((rows, levels))
    rows, levels = rows[order], levels[order]
    cos, sin = np.frombuffer(cos)[order, None], np.frombuffer(sin)[order, None]
    breaks = (levels[1:] != levels[:-1]) | (rows[1:] != rows[:-1] + 2)
    bounds = [0, *(np.flatnonzero(breaks) + 1).tolist(), rows.size]
    t, u = np.empty((2, int(np.max(np.diff(bounds))), qt.shape[1]))
    for lo, hi, i in zip(bounds[:-1], bounds[1:], rows[bounds[:-1]].tolist()):
        c, s, ti, ui, k = cos[lo:hi], sin[lo:hi], t[: hi - lo], u[: hi - lo], 2 * (hi - lo)
        x, y = qt[i : i + k : 2], qt[i + 1 : i + 1 + k : 2]
        np.multiply(s, x, out=ti)
        np.multiply(c, y, out=ui)
        np.add(ti, ui, out=ti)  # new y
        np.multiply(c, x, out=ui)
        np.multiply(s, y, out=x)
        np.subtract(ui, x, out=x)  # new x
        y[...] = ti


def _ql_implicit(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Implicit-shift QL (Numerical Recipes tqli) on a symmetric tridiagonal.

    d: diagonal, e: off-diagonal with e[i] coupling nodes i and i+1.
    The scalar recurrence runs on Python floats and logs its rotations;
    every _FLUSH_SWEEPS * n of them are applied to Q^T in level batches.
    Returns eigenvalues (unsorted) and Q^T, eigenvectors as rows.
    """
    n = d.shape[0]
    d = d.tolist()
    e = e.tolist() + [0.0]
    eps = _EPS
    qt = np.eye(n)
    rows, cos, sin = array("i"), array("d"), array("d")
    flush_at = _FLUSH_SWEEPS * n

    for l in range(n):
        iters = 0
        while True:
            for m in range(l, n - 1):
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= eps * dd:
                    break
            else:
                m = n - 1
            if m == l:
                break
            iters += 1
            if iters > _MAX_QL_ITER:
                raise ConvergenceError(
                    f"QL iteration for eigenvalue {l} did not converge "
                    f"within {_MAX_QL_ITER} sweeps (|e|={abs(e[l]):.3e})"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # rotation underflow: drop the shift and restart the sweep
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                rows.append(i)
                cos.append(c)
                sin.append(s)
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
            if len(rows) >= flush_at:
                _apply_rotations(qt, rows, cos, sin)
                rows, cos, sin = array("i"), array("d"), array("d")
    _apply_rotations(qt, rows, cos, sin)
    return np.array(d), qt


def eigendecompose(h: Hamiltonian) -> SpectralDecomposition:
    """Factor the tridiagonal Hamiltonian as H = Q diag(lam) Q^T.

    Eigenvalues are sorted ascending; each eigenvector column is signed
    so its largest-magnitude entry is positive, which makes the
    decomposition reproducible across runs.
    """
    lam, qt = _ql_implicit(h.diagonal, h.off_diagonal)

    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    # one unbuffered pass into C order, and Q^T freed first, to keep the peak low
    q = np.empty_like(qt)
    np.take(qt.T, order, axis=1, out=q, mode="clip")
    del qt
    # sign convention: largest-magnitude entry of each column is positive
    anchors = np.argmax(np.abs(q), axis=0)
    flip = q[anchors, np.arange(q.shape[1])] < 0.0
    q[:, flip] *= -1.0

    lam.setflags(write=False)
    q.setflags(write=False)
    return SpectralDecomposition(lam, q)


def build_propagator(decomp: SpectralDecomposition, dt: float) -> Propagator:
    """U(dt) = Q diag(exp(-i lam dt)) Q^T; dt may be zero or negative."""
    if not math.isfinite(dt):
        raise ValueError(f"time step must be finite, got {dt}")
    phases = np.exp(-1j * decomp.eigenvalues * dt)
    u = (decomp.eigenvectors * phases[None, :]) @ decomp.eigenvectors.T
    u.setflags(write=False)
    return Propagator(float(dt), u)


def apply_propagator(u: Propagator, psi: WaveState) -> WaveState:
    """Advance psi by one step: psi(t + dt) = U(dt) psi(t)."""
    if psi.amplitudes.shape != (u.n,):
        raise ValueError(
            f"state has {psi.amplitudes.shape[0]} amplitudes, propagator order is {u.n}"
        )
    amps = u.matrix @ psi.amplitudes
    amps.setflags(write=False)
    return WaveState(amps, psi.time + u.dt)


def propagate_direct(decomp: SpectralDecomposition, psi0: WaveState, t: float) -> WaveState:
    """Evaluate psi(t) = Q exp(-i lam t) Q^T psi(0) in one shot.

    Mathematically identical to repeated stepping; exposed for
    spot-checking the step loop at arbitrary times.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if psi0.amplitudes.shape != (decomp.n,):
        raise ValueError(
            f"state has {psi0.amplitudes.shape[0]} amplitudes, decomposition order is {decomp.n}"
        )
    coeffs = decomp.eigenvectors.T @ psi0.amplitudes
    amps = decomp.eigenvectors @ (np.exp(-1j * decomp.eigenvalues * t) * coeffs)
    amps.setflags(write=False)
    return WaveState(amps, psi0.time + t)


def write_eigen_csv(decomp: SpectralDecomposition, path) -> None:
    """Debug dump of (lam, Q): header, one eigenvalue row, then Q row by row."""
    n = decomp.n
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"eig_{k}" for k in range(n)) + "\n")
        fh.write(",".join(f"{v:.17g}" for v in decomp.eigenvalues) + "\n")
        for row in decomp.eigenvectors:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
