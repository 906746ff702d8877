"""Real-symmetric eigendecomposition and the exact unitary propagator.

H = Q diag(lam) Q^T is factored from H's two bands.  When both are
palindromes (a grid symmetric about 0, an even potential), H commutes
with the row reflection J, and an orthogonal P folds it into an even and
an odd block of half the size.  A zero off-diagonal splits the (folded)
bands into unreduced blocks.  Each is solved by LAPACK through
np.linalg.eigh when first read, and its pairs must meet
|T v - lam v| <= 1e-10 max|H| against its own bands, or NumericalError
names its rows and the eigenvector.

U(dt) = Q diag(exp(-i lam dt)) Q^T is exact, so stepping carries no
splitting error and stays unitary to rounding.  `Propagator.states` steps
a state in the blocks it occupies, and solves only those: on a grid with
a = -b the even packet steps in the even block, every frame mirrors
bitwise, and the odd block is never solved.  The whole spectrum, the
dense Q = P V (V the blocks' vectors on the diagonal) and the dense U are
formed only when read, by --dump-eigen, the tests and the benchmark.
Q's columns unfold as [u; Ju]/sqrt 2 and [-Jw; w]/sqrt 2, so each is
exactly even or odd, even the near-degenerate pairs at the top of the
default spectrum; they are then signed and checked against H itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifacts import write_csv
from .discretize import Hamiltonian
from .errors import NumericalError

# the largest accepted |H q - lam q| of a column, relative to max|H|
_RESIDUAL_BOUND = 1e-10
# eigenvector entries within this relative distance of their column's
# largest magnitude tie for the sign anchor
_SIGN_TIE = 1e-8
# entries of one work array: the sign anchor and the residual check hold
# n x (this // n) values at a time
_BLOCK_ENTRIES = 1 << 17
# entries of one block of steps: `states` forms the states of
# max(1, this // K) steps at a time, K the stepped eigenblocks' total size
_STEP_BLOCK_ENTRIES = 1 << 15
# largest |lam dt| accepted: floats are 0.125 rad apart there, 1 rad from 2^52 = 4.5e15
_MAX_PHASE = 1e15


@dataclass(frozen=True)
class EigenBlock:
    """One unreduced block of the (folded) bands, solved on the first read of its pairs."""

    rows: slice
    diagonal: np.ndarray
    off_diagonal: np.ndarray
    bound: float

    values = property(lambda self: self._pairs[0], doc="The eigenvalues, ascending.")
    vectors = property(lambda self: self._pairs[1], doc="The block-sized eigenvectors, by column.")

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, v) by np.linalg.eigh; NumericalError if LAPACK fails or a pair misses bound."""
        d, e = self.diagonal, self.off_diagonal
        where = f"the block of rows {self.rows.start}:{self.rows.stop}"
        t = np.diag(d)
        k = np.arange(d.size - 1)
        t[k + 1, k] = t[k, k + 1] = e
        try:
            lam, v = np.linalg.eigh(t)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"LAPACK eigh failed on {where} ({exc})") from exc
        del t  # the residual check reuses its memory
        _check_residuals(d, e, lam, v, self.bound, f" of {where}")
        lam.setflags(write=False)
        v.setflags(write=False)
        return lam, v


@dataclass(frozen=True)
class SpectralDecomposition:
    """H's eigenpairs, kept as the blocks of its fold, each solved on first use.
    When folded, the blocks' rows are coordinates of P^T H P, else H's own."""

    hamiltonian: Hamiltonian
    blocks: tuple[EigenBlock, ...]
    folded: bool

    @property
    def n(self) -> int:
        return self.hamiltonian.n

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

    eigenvalues = property(lambda self: self._spectrum[0], doc="The whole spectrum, ascending.")
    columns = property(lambda self: self._spectrum[1], doc="Each pair's index in it, by row.")

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, columns): the blocks' eigenvalues merged ascending, and where
        each pair, in row order, sits among them (block b's at columns[b.rows]).
        Equal eigenvalues keep the blocks' row order.  Solves every block."""
        lam = np.concatenate([b.values for b in self.blocks])
        order = np.argsort(lam, kind="stable")
        lam, columns = lam[order], np.argsort(order)  # columns inverts order
        lam.setflags(write=False)
        columns.setflags(write=False)
        return lam, columns

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The dense orthogonal Q, columns in eigenvalue order, built on first read.

        Each column is signed so that the first entry within a relative
        _SIGN_TIE of its largest magnitude is positive, which makes Q
        reproducible across runs.  Raises NumericalError if a column
        misses its residual bound against H.
        """
        q = np.zeros((self.n, self.n))
        for block in self.blocks:
            q[block.rows, self.columns[block.rows]] = block.vectors
        self.unfold(q)
        _anchor_signs(q)
        d, e = self.hamiltonian.diagonal, self.hamiltonian.off_diagonal
        _check_residuals(d, e, self.eigenvalues, q, _residual_bound(d, e), "")
        q.setflags(write=False)
        return q


@dataclass(frozen=True)
class Propagator:
    """One-timestep unitary U(dt) = Q exp(-i lam dt) Q^T, kept as the decomposition and dt."""

    decomposition: SpectralDecomposition
    dt: float

    # exp(-i lam dt) in eigenvalue order; solves every block
    phases = cached_property(lambda self: _phases(self.decomposition.eigenvalues, self.dt))

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense U = (Q diag(phases)) Q^T, built on first use."""
        q = self.decomposition.eigenvectors
        u = (q * self.phases) @ q.T
        u.setflags(write=False)
        return u

    def states(self, psi0: np.ndarray, n_steps: int):
        """Steps 1..n_steps of psi0 in chunks (k0, re, im): row j of re and im
        holds Re psi and Im psi of step k0 + j, one step multiplying psi by U.
        Only the blocks that y = P^T psi0 occupies are solved, and their phases
        formed (so dt is refused), before this returns; their coefficients
        c = V^T y step as c <- exp(-i lam dt) c.  Each chunk of
        max(1, _STEP_BLOCK_ENTRIES // K) steps, K their total size, forms the
        amplitudes z = V c by two real products in einsum's own loops, not a
        BLAS GEMM, whose sums would round by OPENBLAS_NUM_THREADS, and unfolds
        them to psi = P z.  A chunk is freed before the next one is formed
        once the caller drops re and im."""
        decomp = self.decomposition
        y = psi0.copy()
        decomp.fold(y)
        active = [b for b in decomp.blocks if np.any(y[b.rows])]
        phases = _phases(np.concatenate([b.values for b in active]), self.dt)
        c = np.concatenate([b.vectors.T @ y[b.rows] for b in active])
        steps = max(1, _STEP_BLOCK_ENTRIES // c.size)

        def chunks(c):
            coeffs = np.empty((min(steps, n_steps), c.size), dtype=complex)
            for k0 in range(1, n_steps + 1, steps):
                chunk = coeffs[: min(steps, n_steps + 1 - k0)]
                for row in chunk:  # c is the step before: the row above, or the last chunk's last row
                    np.multiply(c, phases, out=row)
                    c = row
                re, im = np.zeros((len(chunk), decomp.n)), np.zeros((len(chunk), decomp.n))
                k = 0
                for b in active:
                    part = slice(k, k + b.values.size)
                    k = part.stop
                    # contiguous copies halve einsum's time against the strided views
                    im[:, b.rows] = np.einsum("ij,kj->ik", chunk.imag[:, part].copy(), b.vectors)
                    re[:, b.rows] = np.einsum("ij,kj->ik", chunk.real[:, part].copy(), b.vectors)
                decomp.unfold(re.T)
                decomp.unfold(im.T)
                yield k0, re, im
                del re, im

        return chunks(c)


def _phases(lam: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i lam dt) as cos - i sin; ValueError if a |lam dt| exceeds _MAX_PHASE."""
    with np.errstate(over="ignore"):  # refused below
        angle = lam * dt
    turn = float(np.max(np.abs(angle), initial=0.0))
    if not turn <= _MAX_PHASE:
        raise ValueError(
            f"time step {dt!r} turns a phase by {turn:.3g} rad per step; the bound is {_MAX_PHASE:.0e}"
        )
    phases = np.empty(lam.size, dtype=complex)
    phases.real, phases.imag = np.cos(angle), -np.sin(angle)
    phases.setflags(write=False)
    return phases


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
    d: np.ndarray, e: np.ndarray, lam: np.ndarray, q: np.ndarray, bound: float, where: str
) -> None:
    """Raise NumericalError unless max_i |(T q_j - lam_j q_j)_i| <= bound
    for every column j of q, T the tridiagonal with bands d and e; the
    message names column j as eigenvector j, followed by where.  Works on
    blocks of rows, so it holds no N x N temporary."""
    n = d.size
    worst = np.zeros(n)
    rows = max(1, _BLOCK_ENTRIES // n)
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        r = d[r0:r1, None] - lam
        r *= q[r0:r1]
        lo, hi = max(r0, 1), min(r1, n - 1)
        r[lo - r0 :] += e[lo - 1 : r1 - 1, None] * q[lo - 1 : r1 - 1]
        r[: hi - r0] += e[r0:hi, None] * q[r0 + 1 : hi + 1]
        np.maximum(worst, np.max(np.abs(r, out=r), axis=0), out=worst)
    failed = np.flatnonzero(~(worst <= bound))
    if failed.size:
        j = int(failed[0])
        raise NumericalError(
            f"eigenvector {j}{where} (eigenvalue {lam[j]:.17g}) has residual |Hq - lam q| = "
            f"{worst[j]:.3e}, above {bound:.3e} ({_RESIDUAL_BOUND:g} max|H|)"
        )


def eigendecompose(h: Hamiltonian) -> SpectralDecomposition:
    """Fold and split the tridiagonal Hamiltonian into the unreduced blocks
    that factor H = Q diag(lam) Q^T; no block is solved here.  Palindromic
    bands are folded into an even and an odd block first, so every
    eigenvector of a mirror-symmetric H is exactly even or odd."""
    d, e = h.diagonal, h.off_diagonal
    bound = _residual_bound(d, e)
    folded = bound > 0.0 and h.n > 1 and np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])
    if folded:
        d, e = _fold(d, e)
    cuts = [0, *(np.flatnonzero(e == 0.0) + 1).tolist(), h.n]
    blocks = tuple(EigenBlock(slice(i, j), d[i:j], e[i : j - 1], bound) for i, j in zip(cuts, cuts[1:]))
    return SpectralDecomposition(h, blocks, folded)


def build_propagator(decomp: SpectralDecomposition, dt: float) -> Propagator:
    """U(dt) = Q diag(exp(-i lam dt)) Q^T as its factors; dt may be zero or
    negative but must be finite, and the phases it forms, when read or
    stepped, refuse max|lam dt| above _MAX_PHASE.  Nothing is solved here."""
    if not math.isfinite(dt):
        raise ValueError(f"time step {dt!r} is not finite")
    return Propagator(decomp, dt)


def write_eigen_csv(decomp: SpectralDecomposition, path) -> None:
    """Debug dump of (lam, Q): header, one eigenvalue row, then Q row by row."""
    rows = itertools.chain([decomp.eigenvalues], decomp.eigenvectors)
    write_csv(path, (f"eig_{k}" for k in range(decomp.n)), (row.tolist() for row in rows))
