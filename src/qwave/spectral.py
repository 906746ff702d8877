"""Real-symmetric eigendecomposition and the exact unitary propagator.

H = Q diag(lam) Q^T is computed from the Hamiltonian's two bands in
O(N^2), by the route of LAPACK's dstebz and dstein (Wilkinson, The
Algebraic Eigenvalue Problem, 1965; Demmel, Applied Numerical Linear
Algebra, 5.3, 1997).  A zero off-diagonal splits T into unreduced blocks,
and each block is solved on its own rows: Sturm-count multisection
brackets every eigenvalue to about one ulp of max|H|, and inverse
iteration with a partially pivoted LU of T - sigma I gives the
eigenvectors.  Both loop once over the block's rows per pass, with vector
operations across the block's spectrum.  Columns of one block whose
eigenvalues lie closer than 1e-3 of the 1-norm of H are orthogonalized
together, so inside a near-degenerate cluster Q holds some orthonormal
basis of the cluster's invariant subspace.  Clusters never span blocks: a
column is zero outside its block, so columns of different blocks are
orthogonal even where their eigenvalues coincide.  The blocks' eigenvalues
merge ascending.  Every pair must meet |H q - lam q| <= 1e-10 max|H| for
the H passed in, or ConvergenceError names the column.

When both bands are palindromes, as on a grid symmetric about 0 with an
even potential, H commutes with the row reflection J.  A short orthogonal
similarity then folds H into an even and an odd block of half the size,
and the vectors unfold as [u; Ju]/sqrt 2 and [-Jw; w]/sqrt 2, so every
eigenvector is exactly even or odd.  The near-degenerate even/odd pairs
at the top of the default spectrum (5e-11 apart) fall into different
blocks, and at N = 200 no block holds a cluster.

A Sturm count is the number of negative pivots of the LDL^T factor of
H - x I, read from their sign bits with no pivmin guard (Demmel, Dhillon
& Ren, 1995).  IEEE arithmetic makes the guard unnecessary: a zero pivot
divides e^2 into an infinity of the zero's sign, the next pivot becomes
an infinity of the other sign, and the one after it sees e^2 / inf = 0,
so the count is that of H - x I with the zero pivot nudged to a signed
tiny value, a backward-stable answer.  The one case IEEE cannot carry,
0 / 0, needs e^2 = 0, which inside an unreduced block means an
off-diagonal too small to square; there the division is skipped.

The propagator is then exactly U(dt) = Q diag(exp(-i lam dt)) Q^T, so
repeated stepping carries no splitting error and stays unitary to
rounding.  It is kept as its factors, Q and the phases, which the step
loop of `evolve` applies in the eigenbasis; the dense N x N complex U is
built only when `Propagator.matrix` is read, by unitarity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifacts import atomic_text
from .discretize import Hamiltonian
from .errors import ConvergenceError

_EPS = float(np.finfo(float).eps)
# interior test points per interval and sweep: a sweep cuts each interval
# to a quarter, so half the sweeps of plain bisection
_PROBES = 3
# inverse iteration: each shift's distance from its eigenvalue, relative to
# max|H|, and the number of solves
_SHIFT = 1e-14
_INVERSE_SOLVES = 3
# eigenvalues of one block closer than this times the 1-norm of T share a
# cluster (dstein's ORTOL).  On the default grid the parity blocks hold
# none at N = 200.  At N = 400 and 800 the low spectrum, spaced 2 within
# a parity, still falls under it: four clusters of 7-9 and of 33 columns
_CLUSTER_GAP = 1e-3
# the largest accepted |H q - lam q| of a column, relative to max|H|
_RESIDUAL_BOUND = 1e-10
# eigenvector entries within this relative distance of their column's
# largest magnitude tie for the sign anchor
_SIGN_TIE = 1e-8
# entries of one work array: the LU bands of a block of n rows, the sign
# anchor and the residual check hold n x (this // n) values at a time
_BLOCK_ENTRIES = 1 << 18


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


def _sturm_counts(d: list, e2: list, x: np.ndarray) -> np.ndarray:
    """The number of eigenvalues below each shift in x, all shifts at once.

    The LDL^T pivots q_i = d_i - x - e_{i-1}^2 / q_{i-1} run as one loop
    over the rows, and each row's negative pivots are read from the sign
    bit, so -0 counts as negative and +0 does not.  Where e_{i-1}^2 is zero,
    from a zero or an underflow, q_i = d_i - x.  Four ufunc calls per row.
    """
    q, t = np.empty((2, x.size))
    negative = np.empty((len(d), x.size), dtype=bool)
    # ufuncs bound once, outputs passed by position
    subtract, divide, signbit = np.subtract, np.divide, np.signbit
    with np.errstate(divide="ignore", over="ignore"):  # a zero or tiny pivot gives +-inf
        for i, row in enumerate(negative):
            if i and e2[i - 1]:
                subtract(d[i], x, t)
                divide(e2[i - 1], q, q)
                subtract(t, q, q)
            else:
                subtract(d[i], x, q)
            signbit(q, row)
    return np.count_nonzero(negative, axis=0)


def _bisect(d: np.ndarray, e: np.ndarray, radius: np.ndarray, tnorm: float) -> np.ndarray:
    """Every eigenvalue, ascending, by Sturm-count multisection (dstebz).

    An interval carries the eigenvalue counts at its ends.  Each sweep
    counts at _PROBES interior points of every interval and keeps the
    subintervals that hold an eigenvalue, so the list grows from the
    Gershgorin interval to one interval per distinct eigenvalue, each
    about an ulp of tnorm wide.  The sweep count depends only on the
    Gershgorin width, so every run does the same work.  radius holds each
    row's Gershgorin radius.
    """
    n = d.size
    e2 = (e * e).tolist()
    lower, upper = float(np.min(d - radius)), float(np.max(d + radius))
    slack = 2.0 * _EPS * n * tnorm
    lower, upper = lower - slack, upper + slack
    sweeps = math.ceil(math.log((upper - lower) / (_EPS * tnorm), _PROBES + 1))

    ends = np.array([[lower], [upper]])
    counts = np.array([[0], [n]])
    fractions = np.arange(1, _PROBES + 1)[:, None] / (_PROBES + 1)
    d = d.tolist()
    for _ in range(sweeps):
        lo, hi = ends
        probes = np.minimum(lo + fractions * (hi - lo), hi)
        below = _sturm_counts(d, e2, probes.ravel()).reshape(probes.shape)
        # monotone inside each interval, as dlaebz enforces
        below = np.maximum.accumulate(np.clip(below, counts[0], counts[1]), axis=0)
        points = np.concatenate((ends[:1], probes, ends[1:])).T
        marks = np.concatenate((counts[:1], below, counts[1:])).T
        keep = marks[:, 1:] > marks[:, :-1]
        ends = np.stack((points[:, :-1][keep], points[:, 1:][keep]))
        counts = np.stack((marks[:, :-1][keep], marks[:, 1:][keep]))
    return np.repeat(0.5 * (ends[0] + ends[1]), counts[1] - counts[0])


def _start_vectors(x: np.ndarray, first_column: int) -> None:
    """Fill x with a fixed pseudo-random start in [-1/2, 1/2).

    Entry (i, j) is splitmix64's output number i * N + first_column + j,
    its index in the full N x N start, so the values depend on neither
    the block size nor numpy's random module.
    """
    n, m = x.shape
    index = np.arange(n, dtype=np.uint64)[:, None] * np.uint64(n)
    z = (index + np.arange(first_column + 1, first_column + m + 1, dtype=np.uint64)) * np.uint64(
        0x9E3779B97F4A7C15
    )
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    np.multiply(z >> np.uint64(11), 2.0**-53, out=x)
    x -= 0.5


def _inverse_iteration(
    d: list, e: list, sigma: np.ndarray, x: np.ndarray, tol: float, clusters: list,
    bands: np.ndarray, swap: np.ndarray,
) -> None:
    """Overwrite x with _INVERSE_SOLVES solves of (T - sigma_j I) x_j = x_j,
    T unreduced: no entry of e is zero.

    T - sigma_j I is factored once per shift by elimination with partial
    pivoting (LAPACK dgttrf), one loop over the rows with vector
    operations across the shifts: row i of x holds entry i of every
    shift's vector.  Pivots smaller than tol are raised to tol, as dlagts
    does.  Each solve ends with the columns scaled to unit norm and each
    cluster of columns, a (lo, hi) range, replaced by its QR factor Q.
    Orthogonalizing after every solve, as dstein does, keeps a column whose
    shift lies nearer a cluster mate's eigenvalue than its own from
    collapsing onto the mate's vector.  bands (4 x N x m) and swap (N x m)
    are the caller's workspace for the LU.
    """
    n, m = x.shape
    u0, u1, u2, lm = bands
    t = np.empty(m)
    pivot, sub = d[0] - sigma, np.full(m, e[0] if n > 1 else 0.0)
    for i in range(n - 1):
        ei, en = e[i], (e[i + 1] if i + 2 < n else 0.0)
        below = d[i + 1] - sigma
        s = swap[i]
        np.abs(pivot, out=t)
        np.less(t, abs(ei), out=s)
        u0[i] = np.where(s, ei, pivot)
        np.divide(np.where(s, pivot, ei), u0[i], out=lm[i])
        u1[i] = np.where(s, below, sub)
        np.multiply(s, en, out=u2[i])
        np.multiply(lm[i], u1[i], out=t)
        pivot = np.where(s, sub, below) - t
        sub = np.where(s, lm[i] * -en, en)
    u0[-1] = pivot
    small = np.abs(u0) < tol
    u0[small] = np.where(u0[small] < 0.0, -tol, tol)
    swapped = swap[:-1].any(axis=1).tolist()

    multiply, subtract, divide, copyto = np.multiply, np.subtract, np.divide, np.copyto
    for _ in range(_INVERSE_SOLVES):
        for i in range(n - 1):  # forward: row swaps, then L
            xi, xn = x[i], x[i + 1]
            if swapped[i]:
                s = swap[i]
                copyto(t, xi)
                copyto(xi, xn, where=s)
                copyto(xn, t, where=s)
            multiply(lm[i], xi, t)
            subtract(xn, t, xn)
        divide(x[-1], u0[-1], x[-1])
        for i in range(n - 2, -1, -1):  # back substitution through U
            xi = x[i]
            multiply(u1[i], x[i + 1], t)
            subtract(xi, t, xi)
            if swapped[i] and i < n - 2:
                multiply(u2[i], x[i + 2], t)
                subtract(xi, t, xi)
            divide(xi, u0[i], xi)
        x /= np.sqrt(np.einsum("ij,ij->j", x, x))
        for lo, hi in clusters:
            x[:, lo:hi] = np.linalg.qr(x[:, lo:hi])[0]


def _column_chunks(lam: np.ndarray, gap: float, width: int) -> list:
    """Group one block's columns into chunks of at most width columns that
    never split a cluster, a run of eigenvalues with consecutive gaps below
    gap; a cluster wider than width is a chunk of its own.  Returns [lo, hi,
    clusters] per chunk, with its clusters of two or more columns as
    (lo, hi) ranges relative to the chunk."""
    bounds = [0, *(np.flatnonzero(np.diff(lam) >= gap) + 1).tolist(), lam.size]
    chunks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if not chunks or hi - chunks[-1][0] > width:
            chunks.append([lo, hi, []])
        chunk = chunks[-1]
        chunk[1] = hi
        if hi - lo > 1:
            chunk[2].append((lo - chunk[0], hi - chunk[0]))
    return chunks


def _solve_blocks(d: np.ndarray, e: np.ndarray, shift: float) -> tuple:
    """Eigenvalues (ascending) and eigenvectors of T, one unreduced block at
    a time, as dstebz and dstein do.

    A zero e[i] splits T between rows i and i + 1.  Each block is bisected
    and inverse-iterated on its own rows, with its clusters formed among its
    own eigenvalues, so each column is zero outside its block.  The blocks'
    eigenvalues merge ascending; equal ones keep the blocks' row order.
    Inverse iteration shifts each eigenvalue up by shift.  Returns
    (lam, q, first), with first[j] the first row of column j's block.
    """
    n = d.size
    radius = np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e])  # Gershgorin
    tnorm = max(abs(float(np.min(d - radius))), abs(float(np.max(d + radius))))
    # the tolerances are T's, not a block's: a block of tiny entries has
    # eigenvalues that are equal to within T's accuracy, so they must cluster
    norm1 = float(np.max(np.abs(d) + radius))
    bounds = [0, *(np.flatnonzero(e == 0.0) + 1).tolist(), n]
    blocks = []
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        lam = _bisect(d[r0:r1], e[r0 : r1 - 1], radius[r0:r1], tnorm)
        chunks = _column_chunks(lam, _CLUSTER_GAP * norm1, max(1, _BLOCK_ENTRIES // (r1 - r0)))
        blocks.append((r0, r1, lam, chunks))
    # block b's eigenvalues hold places r0:r1 of lam before the merge
    lam = np.concatenate([block[2] for block in blocks])
    order = np.argsort(lam, kind="stable")
    column = np.empty(n, dtype=np.intp)
    column[order] = np.arange(n)

    q = np.zeros((n, n))
    # one workspace for every chunk: freed once, it leaves the heap at the end
    rows = max(r1 - r0 for r0, r1, *_ in blocks)
    width = max(c1 - c0 for *_, chunks in blocks for c0, c1, _ in chunks)
    x, bands = np.empty((rows, width)), np.empty((4, rows, width))
    swap = np.empty((rows, width), dtype=bool)
    d, e = d.tolist(), e.tolist()
    for r0, r1, lam_b, chunks in blocks:
        k = r1 - r0
        for c0, c1, clusters in chunks:
            w = c1 - c0
            _start_vectors(x[:k, :w], c0)
            _inverse_iteration(
                d[r0:r1], e[r0 : r1 - 1], lam_b[c0:c1] + shift, x[:k, :w], _EPS * norm1,
                clusters, bands[:, :k, :w], swap[:k, :w],
            )
            q[r0:r1, column[r0 + c0 : r0 + c1]] = x[:k, :w]
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
        # a power-of-two scale, exact, puts max|T| in [1/2, 1)
        scale = math.ldexp(1.0, math.frexp(hmax)[1])
        d, e = d / scale, e / scale
        folded = n > 1 and np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])
        if folded:
            d, e = _fold(d, e)
        lam, q, first = _solve_blocks(d, e, _SHIFT * hmax / scale)
        if folded:
            _unfold(q, first >= n - n // 2)
        _anchor_signs(q)
        lam *= scale
    _check_residuals(h, lam, q, hmax)

    lam.setflags(write=False)
    q.setflags(write=False)
    return SpectralDecomposition(lam, q)


def build_propagator(decomp: SpectralDecomposition, dt: float) -> Propagator:
    """U(dt) = Q diag(exp(-i lam dt)) Q^T as its factors; dt may be zero or
    negative.  O(N): the phases are the only new array."""
    if not math.isfinite(dt):
        raise ValueError(f"time step must be finite, got {dt}")
    angle = decomp.eigenvalues * dt
    phases = np.empty(decomp.n, dtype=complex)
    phases.real, phases.imag = np.cos(angle), -np.sin(angle)
    phases.setflags(write=False)
    return Propagator(decomp.eigenvectors, phases)


def write_eigen_csv(decomp: SpectralDecomposition, path) -> None:
    """Debug dump of (lam, Q): header, one eigenvalue row, then Q row by row."""
    n = decomp.n
    with atomic_text(path) as fh:
        fh.write(",".join(f"eig_{k}" for k in range(n)) + "\n")
        fh.write(",".join(f"{v:.17g}" for v in decomp.eigenvalues) + "\n")
        for row in decomp.eigenvectors:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
