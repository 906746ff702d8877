"""Real-symmetric eigendecomposition and the exact unitary propagator.

H = Q diag(lam) Q^T is computed from the Hamiltonian's two bands.  A zero
off-diagonal splits T into unreduced blocks, and each block is solved on
its own rows by LAPACK through np.linalg.eigh, so a column is zero outside
its block and columns of different blocks are orthogonal even where their
eigenvalues coincide.  The blocks' eigenvalues merge ascending.  Every
pair must meet |H q - lam q| <= 1e-10 max|H| for the H passed in, or
ConvergenceError names the column.

When both bands are palindromes, as on a grid symmetric about 0 with an
even potential, H commutes with the row reflection J.  A short orthogonal
similarity then folds H into an even and an odd block of half the size,
and the vectors unfold as [u; Ju]/sqrt 2 and [-Jw; w]/sqrt 2, so every
eigenvector is exactly even or odd.  The near-degenerate even/odd pairs
at the top of the default spectrum (5e-11 apart) fall into different
blocks.

The propagator is then exactly U(dt) = Q diag(exp(-i lam dt)) Q^T, so
repeated stepping carries no splitting error and stays unitary to
rounding.  It is kept as its factors, Q and the phases, which the step
loop of `evolve` applies in the eigenbasis; the dense N x N complex U is
built only when `Propagator.matrix` is read, by unitarity checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifacts import write_csv
from .discretize import Hamiltonian
from .errors import ConvergenceError

# the largest accepted |H q - lam q| of a column, relative to max|H|
_RESIDUAL_BOUND = 1e-10
# eigenvector entries within this relative distance of their column's
# largest magnitude tie for the sign anchor
_SIGN_TIE = 1e-8
# entries of one work array: the column sort, the sign anchor and the
# residual check hold n x (this // n) values at a time
_BLOCK_ENTRIES = 1 << 18
# largest |lam dt| accepted: floats are 0.125 rad apart there, 1 rad from 2^52 = 4.5e15
_MAX_PHASE = 1e15


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
    """One-timestep unitary U(dt) = Q exp(-i lam dt) Q^T, kept as its factors:
    the eigenvector columns Q and the phases exp(-i lam dt)."""

    eigenvectors: np.ndarray
    phases: np.ndarray

    @property
    def n(self) -> int:
        return self.phases.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense U = (Q diag(phases)) Q^T, built on first use."""
        u = (self.eigenvectors * self.phases) @ self.eigenvectors.T
        u.setflags(write=False)
        return u


def _solve_blocks(d: np.ndarray, e: np.ndarray) -> tuple:
    """Eigenvalues (ascending) and eigenvectors of T, one unreduced block at
    a time.

    A zero e[i] splits T between rows i and i + 1.  Each block is solved on
    its own rows by LAPACK through np.linalg.eigh, and its vectors go
    straight into their rows and columns of q, so each column is zero
    outside its block.  The blocks' eigenvalues merge ascending; equal ones
    keep the blocks' row order.  Returns (lam, q, first), with first[j] the
    first row of column j's block.
    """
    n = d.size
    bounds = [0, *(np.flatnonzero(e == 0.0) + 1).tolist(), n]
    q = np.zeros((n, n))
    lam = np.empty(n)
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        t = np.diag(d[r0:r1])
        k = np.arange(r1 - r0 - 1)
        t[k + 1, k] = t[k, k + 1] = e[r0 : r1 - 1]
        try:
            lam[r0:r1], q[r0:r1, r0:r1] = np.linalg.eigh(t)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"LAPACK eigh failed on the block of rows {r0}:{r1} ({exc})") from exc
    order = np.argsort(lam, kind="stable")
    # columns into ascending order in place, a few rows at a time
    rows = max(1, _BLOCK_ENTRIES // n)
    for r0 in range(0, n, rows):
        q[r0 : r0 + rows] = q[r0 : r0 + rows, order]
    first = np.repeat(bounds[:-1], np.diff(bounds))[order]
    return lam[order], q, first


def _fold(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bands of P^T T P for palindromic bands d and e (T commutes with
    the row reflection J), split by a zero into an even and an odd block.

    With m = N // 2, P's columns are (e_i + e_{N-1-i}) / sqrt 2 for i < m,
    then for odd N the middle e_m, then (e_i - e_{N-1-i}) / sqrt 2 for
    i >= N - m.  For even N the centre coupling e[m-1] moves onto the
    diagonal, + in the even block and - in the odd one; for odd N the middle
    node couples to the even block by sqrt 2 e[m-1].  Every other entry is
    T's own.
    """
    n, m = d.size, d.size // 2
    d, e = d.copy(), e.copy()
    if n % 2:
        e[m - 1] *= math.sqrt(2.0)
    else:
        d[m - 1] += e[m - 1]
        d[m] -= e[m - 1]
    e[n - m - 1] = 0.0
    return d, e


def _unfold(q: np.ndarray, odd: np.ndarray) -> None:
    """Overwrite the eigenvectors q of _fold's bands with P q, the
    eigenvectors of T; odd marks the odd block's columns.  An even column
    [u; c] becomes [u; c; Ju] / sqrt 2 (c, for odd N only, unscaled) and an
    odd column [0; w] becomes [-Jw; w] / sqrt 2, so |q[i]| == |q[N-1-i]|
    holds bitwise."""
    n, m = q.shape[0], q.shape[0] // 2
    mirror = q[::-1]
    q[n - m :, ~odd] = mirror[n - m :, ~odd]
    q[:m, odd] = -mirror[:m, odd]
    q[:m] /= math.sqrt(2.0)
    q[n - m :] /= math.sqrt(2.0)


def _anchor_signs(q: np.ndarray) -> None:
    """Sign each column so that its first entry within a relative _SIGN_TIE
    of its largest magnitude is positive.  Not argmax: every odd
    eigenvector of a mirror-symmetric H, such as the default one, has two
    largest entries of equal magnitude, and rounding would pick between
    them."""
    n = q.shape[0]
    width = max(1, _BLOCK_ENTRIES // n)
    for c0 in range(0, q.shape[1], width):
        block = q[:, c0 : c0 + width]
        mags = np.abs(block)
        tied = mags >= (1.0 - _SIGN_TIE) * mags.max(axis=0)
        anchors = np.argmax(tied, axis=0)
        block *= np.where(block[anchors, np.arange(block.shape[1])] < 0.0, -1.0, 1.0)


def _check_residuals(h: Hamiltonian, lam: np.ndarray, q: np.ndarray, hmax: float) -> None:
    """Raise ConvergenceError unless max_i |(H q_j - lam_j q_j)_i| is within
    _RESIDUAL_BOUND * hmax for every column j.  Works on blocks of rows,
    so it holds no N x N temporary."""
    d, e = h.diagonal, h.off_diagonal
    n = d.size
    bound = _RESIDUAL_BOUND * hmax
    worst = np.zeros(n)
    rows = max(1, _BLOCK_ENTRIES // n)
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        r = (d[r0:r1, None] - lam) * q[r0:r1]
        lo, hi = max(r0, 1), min(r1, n - 1)
        r[lo - r0 :] += e[lo - 1 : r1 - 1, None] * q[lo - 1 : r1 - 1]
        r[: hi - r0] += e[r0:hi, None] * q[r0 + 1 : hi + 1]
        np.maximum(worst, np.max(np.abs(r), axis=0), out=worst)
    failed = np.flatnonzero(~(worst <= bound))
    if failed.size:
        j = int(failed[0])
        raise ConvergenceError(
            f"eigenvector {j} (eigenvalue {lam[j]:.17g}) has residual |Hq - lam q| = "
            f"{worst[j]:.3e}, above {bound:.3e} ({_RESIDUAL_BOUND:g} max|H|)"
        )


def eigendecompose(h: Hamiltonian) -> SpectralDecomposition:
    """Factor the tridiagonal Hamiltonian as H = Q diag(lam) Q^T.

    Eigenvalues are ascending, and each eigenvector column is signed so
    that the first entry within a relative _SIGN_TIE of its largest
    magnitude is positive, which makes the decomposition reproducible
    across runs.  Palindromic bands are folded into their even and odd
    blocks first, so every eigenvector of a mirror-symmetric H is exactly
    even or odd.  Raises ConvergenceError if an eigenpair misses its
    residual bound.
    """
    d, e = h.diagonal, h.off_diagonal
    n = d.size
    hmax = max(float(np.max(np.abs(d))), float(np.max(np.abs(e), initial=0.0)))
    if hmax == 0.0:
        lam, q = np.zeros(n), np.eye(n)
    else:
        folded = n > 1 and np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])
        if folded:
            d, e = _fold(d, e)
        lam, q, first = _solve_blocks(d, e)
        if folded:
            _unfold(q, first >= n - n // 2)
        _anchor_signs(q)
    _check_residuals(h, lam, q, hmax)

    lam.setflags(write=False)
    q.setflags(write=False)
    return SpectralDecomposition(lam, q)


def build_propagator(decomp: SpectralDecomposition, dt: float) -> Propagator:
    """U(dt) = Q diag(exp(-i lam dt)) Q^T as its factors; dt may be zero or
    negative, and max|lam dt| at most _MAX_PHASE.  O(N) new memory: the phases."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, with a dt not finite
        angle = decomp.eigenvalues * dt
    turn = float(np.max(np.abs(angle), initial=0.0))
    if not turn <= _MAX_PHASE:
        raise ValueError(
            f"time step {dt!r} turns a phase by {turn:.3g} rad per step; the bound is {_MAX_PHASE:.0e}"
        )
    phases = np.empty(decomp.n, dtype=complex)
    phases.real, phases.imag = np.cos(angle), -np.sin(angle)
    phases.setflags(write=False)
    return Propagator(decomp.eigenvectors, phases)


def write_eigen_csv(decomp: SpectralDecomposition, path) -> None:
    """Debug dump of (lam, Q): header, one eigenvalue row, then Q row by row."""
    rows = itertools.chain([decomp.eigenvalues], decomp.eigenvectors)
    write_csv(path, (f"eig_{k}" for k in range(decomp.n)), (row.tolist() for row in rows))
