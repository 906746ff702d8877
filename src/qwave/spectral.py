"""Real-symmetric eigendecomposition and the exact unitary propagator.

H = Q diag(lam) Q^T is computed from the Hamiltonian's two bands.  When
both bands are palindromes, as on a grid symmetric about 0 with an even
potential, H commutes with the row reflection J, and a short orthogonal
similarity P first folds it into an even and an odd block of half the
size.  A zero off-diagonal splits the (folded) bands into unreduced
blocks, and each block is solved on its own rows by LAPACK through
np.linalg.eigh.  Every block pair must meet |T v - lam v| <= 1e-10 max|H|
against the block's own bands, or ConvergenceError names the eigenvector.

The decomposition keeps these blocks: their eigenvalues, their
block-sized vectors and where each pair sits in the ascending spectrum.
It steps a state on them alone (`SpectralDecomposition.states`), and only
in the blocks the state occupies: on a grid with a = -b the even packet
steps in the even block, and every frame mirrors bitwise.  The dense Q = P V,
V the blocks' vectors on the diagonal, is formed only when
`SpectralDecomposition.eigenvectors` is read (by --dump-eigen, the tests
and the benchmark): its columns unfold as [u; Ju]/sqrt 2 and
[-Jw; w]/sqrt 2, so every eigenvector of a mirror-symmetric H is exactly
even or odd, and the near-degenerate even/odd pairs at the top of the
default spectrum (5e-11 apart) fall into different blocks.  Q's columns
are then signed and checked against H itself.

The propagator is exactly U(dt) = Q diag(exp(-i lam dt)) Q^T, so repeated
stepping carries no splitting error and stays unitary to rounding.  It is
kept as the decomposition and the phases; the dense N x N complex U is
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
# entries of one work array: the sign anchor and the residual check hold
# n x (this // n) values at a time
_BLOCK_ENTRIES = 1 << 18
# entries of one block of steps: `states` forms the states of
# max(1, this // K) steps at a time, K the stepped eigenblocks' total size
_STEP_BLOCK_ENTRIES = 1 << 15
# largest |lam dt| accepted: floats are 0.125 rad apart there, 1 rad from 2^52 = 4.5e15
_MAX_PHASE = 1e15


@dataclass(frozen=True)
class EigenBlock:
    """One unreduced block of the (folded) bands: the rows it spans, its
    eigenvalues (ascending) and eigenvectors, and the index of each pair in
    the ascending spectrum."""

    rows: slice
    values: np.ndarray
    vectors: np.ndarray
    columns: np.ndarray


@dataclass(frozen=True)
class SpectralDecomposition:
    """H's eigenpairs, kept as the blocks of its fold.

    eigenvalues is the whole spectrum, ascending.  When folded, the blocks'
    rows are coordinates of P^T H P; otherwise they are H's own rows.
    """

    hamiltonian: Hamiltonian
    eigenvalues: np.ndarray
    blocks: tuple[EigenBlock, ...]
    folded: bool

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def fold(self, z: np.ndarray) -> None:
        """Overwrite z with P^T z along axis 0; a palindrome's odd rows become exactly 0."""
        self._butterfly(z, fold=True)

    def unfold(self, z: np.ndarray) -> None:
        """Overwrite z with P z along axis 0; where the odd rows are 0, z mirrors bitwise."""
        self._butterfly(z, fold=False)

    def _butterfly(self, z: np.ndarray, fold: bool) -> None:
        """With m = N // 2, rows i < m of z become (z_i +- z_{N-1-i}) / sqrt 2 and
        rows i >= N - m become (z_i -+ z_{N-1-i}) / sqrt 2, the upper signs for
        P^T; the middle row of odd N stays.  Nothing changes when H was not
        folded.  The one new array is a copy of z's first m rows."""
        if not self.folded:
            return
        n, m = z.shape[0], z.shape[0] // 2
        lo, hi = z[:m].copy(), z[n - m :]
        if fold:
            np.add(lo, hi[::-1], out=z[:m])
            np.subtract(hi, lo[::-1], out=hi)
        else:
            np.subtract(lo, hi[::-1], out=z[:m])
            np.add(lo[::-1], hi, out=hi)
        z[:m] /= math.sqrt(2.0)
        hi /= math.sqrt(2.0)

    def states(self, psi0: np.ndarray, phases: np.ndarray, n_steps: int):
        """Yield (k0, re, im) for steps 1..n_steps in chunks: row j of re and im
        holds Re psi and Im psi of step k0 + j, where one step multiplies
        psi by U = Q diag(phases) Q^T, phases in eigenvalue order.

        psi0 is folded to y = P^T psi0, and only the blocks whose rows of y
        are not all zero step: their coefficients c = V^T y step as
        c <- phases c.  Each chunk of max(1, _STEP_BLOCK_ENTRIES // K) steps,
        K the stepped blocks' total size, forms each block's amplitudes
        z = V c by two real products in einsum's own loops, not a BLAS GEMM,
        which splits its sums among threads and so would round by
        OPENBLAS_NUM_THREADS; the amplitudes then unfold to psi = P z.  A
        chunk is freed before the next one is formed as long as the caller
        drops its own references to re and im first.
        """
        y = psi0.copy()
        self.fold(y)
        active = [b for b in self.blocks if np.any(y[b.rows])]
        c = np.concatenate([b.vectors.T @ y[b.rows] for b in active])
        phases = phases[np.concatenate([b.columns for b in active])]
        steps = max(1, _STEP_BLOCK_ENTRIES // c.size)
        coeffs = np.empty((min(steps, n_steps), c.size), dtype=complex)
        for k0 in range(1, n_steps + 1, steps):
            chunk = coeffs[: min(steps, n_steps + 1 - k0)]
            for row in chunk:  # c is the step before: the row above, or the last chunk's last row
                np.multiply(c, phases, out=row)
                c = row
            re, im = np.zeros((len(chunk), self.n)), np.zeros((len(chunk), self.n))
            k = 0
            for b in active:
                part = slice(k, k + b.values.size)
                k = part.stop
                # contiguous copies halve einsum's time against the strided views
                im[:, b.rows] = np.einsum("ij,kj->ik", chunk.imag[:, part].copy(), b.vectors)
                re[:, b.rows] = np.einsum("ij,kj->ik", chunk.real[:, part].copy(), b.vectors)
            self.unfold(re.T)
            self.unfold(im.T)
            yield k0, re, im
            del re, im

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The dense orthogonal Q, columns in eigenvalue order, built on first read.

        Each column is signed so that the first entry within a relative
        _SIGN_TIE of its largest magnitude is positive, which makes Q
        reproducible across runs.  Raises ConvergenceError if a column
        misses its residual bound against H.
        """
        q = np.zeros((self.n, self.n))
        for block in self.blocks:
            q[block.rows, block.columns] = block.vectors
        self.unfold(q)
        _anchor_signs(q)
        d, e = self.hamiltonian.diagonal, self.hamiltonian.off_diagonal
        _check_residuals(d, e, self.eigenvalues, q, _residual_bound(d, e), range(self.n))
        q.setflags(write=False)
        return q


@dataclass(frozen=True)
class Propagator:
    """One-timestep unitary U(dt) = Q exp(-i lam dt) Q^T, kept as its factors:
    the decomposition and the phases exp(-i lam dt), in eigenvalue order."""

    decomposition: SpectralDecomposition
    phases: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense U = (Q diag(phases)) Q^T, built on first use."""
        q = self.decomposition.eigenvectors
        u = (q * self.phases) @ q.T
        u.setflags(write=False)
        return u


def _solve_blocks(d: np.ndarray, e: np.ndarray) -> list[tuple[slice, np.ndarray, np.ndarray]]:
    """(rows, lam, v) for each unreduced block of T, in row order, lam ascending.

    A zero e[i] splits T between rows i and i + 1.  Each block is solved on
    its own rows by LAPACK through np.linalg.eigh.
    """
    bounds = [0, *(np.flatnonzero(e == 0.0) + 1).tolist(), d.size]
    solved = []
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        t = np.diag(d[r0:r1])
        k = np.arange(r1 - r0 - 1)
        t[k + 1, k] = t[k, k + 1] = e[r0 : r1 - 1]
        try:
            solved.append((slice(r0, r1), *np.linalg.eigh(t)))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"LAPACK eigh failed on the block of rows {r0}:{r1} ({exc})") from exc
    return solved


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


def _residual_bound(d: np.ndarray, e: np.ndarray) -> float:
    """_RESIDUAL_BOUND * max|T| for the bands d and e."""
    return _RESIDUAL_BOUND * max(float(np.max(np.abs(d))), float(np.max(np.abs(e), initial=0.0)))


def _check_residuals(
    d: np.ndarray, e: np.ndarray, lam: np.ndarray, q: np.ndarray, bound: float, columns
) -> None:
    """Raise ConvergenceError unless max_i |(T q_j - lam_j q_j)_i| <= bound
    for every column j of q, T the tridiagonal with bands d and e; the
    message names column j as eigenvector columns[j].  Works on blocks of
    rows, so it holds no N x N temporary."""
    n = d.size
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
            f"eigenvector {columns[j]} (eigenvalue {lam[j]:.17g}) has residual |Hq - lam q| = "
            f"{worst[j]:.3e}, above {bound:.3e} ({_RESIDUAL_BOUND:g} max|H|)"
        )


def eigendecompose(h: Hamiltonian) -> SpectralDecomposition:
    """Factor the tridiagonal Hamiltonian as H = Q diag(lam) Q^T, kept as blocks.

    Palindromic bands are folded into their even and odd blocks first, so
    every eigenvector of a mirror-symmetric H is exactly even or odd.  The
    blocks' eigenvalues merge ascending; equal ones keep the blocks' row
    order.  Raises ConvergenceError if a block's eigenpair misses its
    residual bound.
    """
    d, e = h.diagonal, h.off_diagonal
    n = d.size
    bound = _residual_bound(d, e)
    folded = bound > 0.0 and n > 1 and np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])
    if folded:
        d, e = _fold(d, e)
    solved = _solve_blocks(d, e)
    lam = np.concatenate([values for _, values, _ in solved])
    order = np.argsort(lam, kind="stable")
    columns = np.empty(n, dtype=np.intp)
    columns[order] = np.arange(n)
    columns.setflags(write=False)
    blocks = []
    for rows, values, vectors in solved:
        _check_residuals(d[rows], e[rows.start : rows.stop - 1], values, vectors, bound, columns[rows])
        values.setflags(write=False)
        vectors.setflags(write=False)
        blocks.append(EigenBlock(rows, values, vectors, columns[rows]))
    lam = lam[order]
    lam.setflags(write=False)
    return SpectralDecomposition(h, lam, tuple(blocks), folded)


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
    return Propagator(decomp, phases)


def write_eigen_csv(decomp: SpectralDecomposition, path) -> None:
    """Debug dump of (lam, Q): header, one eigenvalue row, then Q row by row."""
    rows = itertools.chain([decomp.eigenvalues], decomp.eigenvectors)
    write_csv(path, (f"eig_{k}" for k in range(decomp.n)), (row.tolist() for row in rows))
