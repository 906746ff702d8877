import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import qwave
from qwave import spectral as sp
from qwave.discretize import Hamiltonian, assemble_hamiltonian, harmonic_potential, laplacian, make_grid
from qwave.errors import NumericalError

from conftest import dense, dense_unitary

# 6 lowest eigenvalues of the default 200-point Hamiltonian, frozen from an
# independent dense eigensolve (LAPACK) before this module was built
DEFAULT_LOW_EIGENVALUES = [
    0.49992107543929071,
    1.4996053294172143,
    2.4989737599561699,
    3.4980268633610119,
    4.4967706960276974,
    5.4952495150169485,
]


def _random_symmetric(n: int, seed: int) -> Hamiltonian:
    rng = np.random.default_rng(seed)
    return Hamiltonian(rng.normal(size=n), rng.normal(size=n - 1))


class TestEigendecompose:
    def test_reconstructs_matrix(self):
        for seed, n in ((0, 5), (1, 17), (2, 30)):
            h = _random_symmetric(n, seed)
            d = sp.eigendecompose(h)
            rebuilt = d.eigenvectors @ np.diag(d.eigenvalues) @ d.eigenvectors.T
            hm = dense(h)
            assert np.allclose(rebuilt, hm, atol=1e-12 * max(1.0, np.abs(hm).max()))

    def test_orthogonal_eigenvectors(self):
        d = sp.eigendecompose(_random_symmetric(25, 3))
        gram = d.eigenvectors.T @ d.eigenvectors
        assert np.max(np.abs(gram - np.eye(25))) < 1e-13

    def test_matches_lapack_dense_path(self):
        # dual route: the block solver on the bands against LAPACK on the dense form
        h = _random_symmetric(30, 4)
        d = sp.eigendecompose(h)
        lam_ref = np.linalg.eigvalsh(dense(h))
        assert np.max(np.abs(d.eigenvalues - lam_ref)) < 1e-12 * max(1.0, np.abs(lam_ref).max())

    def test_matches_lapack_tridiagonal_path(self, default_hamiltonian, default_decomposition):
        lam_ref = np.linalg.eigvalsh(dense(default_hamiltonian))
        scale = np.abs(lam_ref).max()
        assert np.max(np.abs(default_decomposition.eigenvalues - lam_ref)) < 1e-9 * scale

    def test_eigenvalues_ascending(self, default_decomposition):
        lam = default_decomposition.eigenvalues
        assert np.all(np.diff(lam) >= 0.0)

    def test_default_low_spectrum(self, default_decomposition):
        # grid-converged values, not the continuum n + 1/2
        got = default_decomposition.eigenvalues[:6]
        assert np.allclose(got, DEFAULT_LOW_EIGENVALUES, atol=1e-9)

    def test_spectral_residual_default(self, default_hamiltonian, default_decomposition):
        h = dense(default_hamiltonian)
        q = default_decomposition.eigenvectors
        lam = default_decomposition.eigenvalues
        resid = np.max(np.abs(h @ q - q * lam[None, :]))
        assert resid <= 1e-8 * np.max(np.abs(h))

    def test_sign_convention(self):
        d = sp.eigendecompose(_random_symmetric(12, 5))
        anchors = np.argmax(np.abs(d.eigenvectors), axis=0)
        assert np.all(d.eigenvectors[anchors, np.arange(12)] > 0.0)

    def test_sign_anchor_matches_eigh(self, default_hamiltonian, default_decomposition):
        # every odd eigenvector of the mirror-symmetric default H has two largest
        # entries of equal magnitude; the anchor is the first of them, so LAPACK's
        # Q under the same rule agrees column by column, save for the top doublets,
        # where any rotation within the pair is an eigenbasis
        lam = default_decomposition.eigenvalues
        q = default_decomposition.eigenvectors
        _, q_ref = np.linalg.eigh(dense(default_hamiltonian))
        mags = np.abs(q_ref)
        first = np.argmax(mags >= (1.0 - 1e-8) * mags.max(axis=0), axis=0)
        q_ref = q_ref * np.where(q_ref[first, np.arange(lam.size)] < 0.0, -1.0, 1.0)
        gap = np.minimum(np.r_[np.inf, np.diff(lam)], np.r_[np.diff(lam), np.inf])
        separated = gap > 1e-6 * np.abs(lam).max()
        assert np.count_nonzero(~separated) == 4
        assert np.max(np.abs(q - q_ref)[:, separated]) <= 1e-9

    def test_degenerate_spectrum(self):
        # identity block plus distinct entries: repeated eigenvalue 1
        h = Hamiltonian(np.array([1.0, 1.0, 1.0, 2.0, 5.0]), np.zeros(4))
        d = sp.eigendecompose(h)
        assert np.allclose(d.eigenvalues, [1.0, 1.0, 1.0, 2.0, 5.0])
        assert np.max(np.abs(d.eigenvectors.T @ d.eigenvectors - np.eye(5))) < 1e-13

    def test_nonfinite_entry_rejected(self):
        with pytest.raises(ValueError):
            sp.eigendecompose(Hamiltonian(np.array([1.0, np.nan, 1.0]), np.ones(2)))
        with pytest.raises(ValueError):
            sp.eigendecompose(Hamiltonian(np.ones(3), np.array([1.0, np.inf])))

    def test_off_diagonal_length_rejected(self):
        for wrong in (np.ones(3), np.ones(1), np.ones((2, 1))):
            with pytest.raises(ValueError):
                sp.eigendecompose(Hamiltonian(np.ones(3), wrong))

    def test_convergence_error_surfaces(self, monkeypatch):
        # a perturbed column must fail the residual check when its block is
        # solved, on first read, and the message names it
        eigh = np.linalg.eigh

        def perturbed(t):
            lam, v = eigh(t)
            v[:, 3] += 1e-6
            return lam, v

        monkeypatch.setattr(sp.np.linalg, "eigh", perturbed)
        d = sp.eigendecompose(_random_symmetric(8, 6))
        with pytest.raises(NumericalError, match=r"eigenvector 3 .* residual") as caught:
            d.eigenvalues
        assert "of the block of rows 0:8" in str(caught.value)

    def test_single_point(self):
        d = sp.eigendecompose(Hamiltonian(np.array([-3.5]), np.zeros(0)))
        assert abs(d.eigenvalues[0] + 3.5) <= 4 * np.finfo(float).eps * 3.5
        assert d.eigenvectors.tolist() == [[1.0]]

    def test_zero_matrix(self):
        d = sp.eigendecompose(Hamiltonian(np.zeros(4), np.zeros(3)))
        assert np.array_equal(d.eigenvalues, np.zeros(4))
        assert np.array_equal(d.eigenvectors, np.eye(4))

    def test_repeated_calls_bitwise_equal(self, default_hamiltonian):
        first, second = sp.eigendecompose(default_hamiltonian), sp.eigendecompose(default_hamiltonian)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)


def _assert_solves(h, lam, q, tol):
    hm = dense(h)
    scale = max(1.0, float(np.max(np.abs(hm))))
    # eigh, not eigvalsh: the values-only LAPACK path misses by 7.5e-4 on the
    # "eigvalsh_misses" band below
    assert np.max(np.abs(lam - np.linalg.eigh(hm)[0])) <= tol * scale
    assert np.max(np.abs(hm @ q - q * lam[None, :])) <= tol * scale
    assert np.max(np.abs(q.T @ q - np.eye(h.n))) <= tol


_entries = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def _tridiagonals(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.lists(_entries, min_size=n, max_size=n))
    e = draw(st.lists(_entries, min_size=n - 1, max_size=n - 1))
    return Hamiltonian(np.array(d), np.array(e))


class TestSolverProperties:
    @given(_tridiagonals())
    def test_random_tridiagonal(self, h):
        d = sp.eigendecompose(h)
        _assert_solves(h, d.eigenvalues, d.eigenvectors, 1e-12)

    def test_wilkinson_clusters(self):
        # W21+: the top pair agrees to about 7e-14
        h = Hamiltonian(np.abs(np.arange(21.0) - 10.0), np.ones(20))
        d = sp.eigendecompose(h)
        assert d.eigenvalues[-1] - d.eigenvalues[-2] < 1e-12
        _assert_solves(h, d.eigenvalues, d.eigenvectors, 1e-13)

    def test_default_top_doublets(self, default_hamiltonian, default_decomposition):
        # the top of the default spectrum holds left/right edge doublets 5.3e-11 apart
        lam = default_decomposition.eigenvalues[-20:]
        q = default_decomposition.eigenvectors[:, -20:]
        assert np.min(np.diff(lam)) < 1e-9
        hm = dense(default_hamiltonian)
        assert np.max(np.abs(hm @ q - q * lam[None, :])) <= 1e-12 * np.max(np.abs(hm))
        assert np.max(np.abs(q.T @ q - np.eye(20))) <= 1e-13

    @pytest.mark.parametrize(
        "d, e",
        [
            # bands that split into blocks, with repeated values across the blocks
            ([2.0, -1.0, 2.0, 2.0, 0.5, -1.0, 2.0, 3.0], [0.0, 0.0, 1e-3, 0.0, 0.7, 0.0, 0.0]),
            # T - sigma I has a leading pivot near 1e-14 beside a 1.5e-7 coupling:
            # elimination without row swaps loses the eigenvector near 4e-6
            ([4e-6, 1.5, -1e-8], [1.5e-7, -1.2e-6]),
            # a double eigenvalue 0 flanked by +-1e-12, one shift (1e-14 max|H|)
            # away: orthogonalizing only after the last solve misses the bound
            (
                [0.0, 0.0, -100.0, 100.0, -100.0, 0.0, 100.0, 0.0, -100.0, -100.0],
                [0.0, 0.0, 1e-10, 1e-10, 0.0, 1e-10, 1.0, 1.0, 0.0],
            ),
            # a palindrome whose fold leaves a block coupled by the smallest normal
            # number: its eigenvalues agree to T's accuracy, so they must share a
            # cluster even though the block's own 1-norm is tiny
            (
                [0.0] * 6 + [-0.0, 0.0, -0.0] + [0.0] * 6,
                [0.0] * 5 + [2.2250738585072014e-308, 1.0, 1.0, 2.2250738585072014e-308] + [0.0] * 5,
            ),
            # couplings of 2e-261 and 8e-161 beside ones: the eigenvalues +-2 of
            # the last three rows hold to the last bit
            (
                [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0, 1.0, 2.25624114e-261, 2.0, 8.10949246e-161],
            ),
        ],
        ids=[
            "zero_off_diagonals", "small_pivot_needs_row_swap", "shift_lands_on_a_neighbour",
            "tiny_block_in_a_fold", "eigvalsh_misses",
        ],
    )
    def test_hard_bands(self, d, e):
        h = Hamiltonian(np.array(d), np.array(e))
        out = sp.eigendecompose(h)
        _assert_solves(h, out.eigenvalues, out.eigenvectors, 1e-13)

    def test_glued_wilkinson_clusters(self):
        # four W21+ joined by 1e-10 couplings: clusters of four and eight columns
        w = np.abs(np.arange(21.0) - 10.0)
        d = np.tile(w, 4)
        e = np.concatenate([np.r_[np.ones(20), 1e-10]] * 3 + [np.ones(20)])
        h = Hamiltonian(d, e)
        out = sp.eigendecompose(h)
        assert out.eigenvalues[-1] - out.eigenvalues[-8] < 1e-9
        _assert_solves(h, out.eigenvalues, out.eigenvectors, 1e-13)


    def test_split_wilkinson_pairs(self):
        # two W21+ split by a zero coupling: every eigenvalue is exactly double,
        # beside the near-degenerate top pairs of each copy
        w = np.abs(np.arange(21.0) - 10.0)
        h = Hamiltonian(np.r_[w, w], np.r_[np.ones(20), 0.0, np.ones(20)])
        out = sp.eigendecompose(h)
        assert np.max(np.abs(out.eigenvalues[0::2] - out.eigenvalues[1::2])) < 1e-12
        _assert_solves(h, out.eigenvalues, out.eigenvectors, 1e-13)


# integers make exact zero pivots and zero couplings likely
_band_entries = st.one_of(st.integers(-3, 3).map(float), _entries)


@st.composite
def _split_bands(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.lists(_band_entries, min_size=n, max_size=n))
    e = draw(st.lists(st.one_of(st.just(0.0), _band_entries), min_size=n - 1, max_size=n - 1))
    return Hamiltonian(np.array(d), np.array(e))


@st.composite
def _palindromes(draw, sizes):
    n = draw(sizes)
    d = draw(st.lists(_band_entries, min_size=(n + 1) // 2, max_size=(n + 1) // 2))
    e = draw(st.lists(_band_entries, min_size=n // 2, max_size=n // 2))
    d = d + d[: n // 2][::-1]
    e = e + e[: (n - 1) // 2][::-1]
    return Hamiltonian(np.array(d), np.array(e))


class TestParityFold:
    @pytest.mark.parametrize(
        "sizes",
        [st.integers(1, 20).map(lambda k: 2 * k), st.integers(2, 20).map(lambda k: 2 * k + 1), st.just(3)],
        ids=["even", "odd", "three"],
    )
    @given(data=st.data())
    def test_palindromic_bands(self, sizes, data):
        h = data.draw(_palindromes(sizes))
        assume(np.max(np.abs(dense(h))) > 0.0)
        out = sp.eigendecompose(h)
        q = out.eigenvectors
        _assert_solves(h, out.eigenvalues, q, 1e-10)
        # every column exactly even or odd
        assert np.array_equal(np.abs(q), np.abs(q[::-1]))
        # fold is P^T and the blocks are Q's columns in its coordinates, up to sign
        x = np.linspace(-1.0, 2.0, h.n) ** 3
        y = x.copy()
        out.fold(y)
        back = y.copy()
        out.unfold(back)
        assert np.allclose(back, x, rtol=0.0, atol=1e-14 * np.abs(x).max())
        coefficients = np.abs(q.T @ x)
        for b in out.blocks:
            got = np.abs(b.vectors.T @ y[b.rows])
            assert np.allclose(got, coefficients[out.columns[b.rows]], rtol=0.0, atol=1e-12)

    def test_default_grid_folds_into_two_blocks(self, default_hamiltonian, monkeypatch):
        solved = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(sp.np.linalg, "eigh", lambda t: solved.append(t.shape) or eigh(t))
        out = sp.eigendecompose(default_hamiltonian)
        n = default_hamiltonian.n
        assert solved == []  # each block waits for its first read
        assert out.folded and [b.rows for b in out.blocks] == [slice(0, n // 2), slice(n // 2, n)]
        assert "eigenvectors" not in vars(out)  # the dense Q waits for its first read
        q = out.eigenvectors
        assert solved == [(n // 2, n // 2)] * 2  # the even and the odd block, unreduced
        even = np.all(q == q[::-1], axis=0)
        odd = np.all(q == -q[::-1], axis=0)
        assert np.all(even ^ odd)
        assert np.count_nonzero(even) == n // 2

    def test_asymmetric_grid_is_not_folded(self, monkeypatch):
        grid = make_grid(-6.0, 5.0, 200)
        h = assemble_hamiltonian(laplacian(grid), harmonic_potential(grid))

        def refuse(d, e):
            raise AssertionError("bands of an asymmetric grid were folded")

        monkeypatch.setattr(sp, "_fold", refuse)
        out = sp.eigendecompose(h)
        _assert_solves(h, out.eigenvalues, out.eigenvectors, 1e-10)
        u = dense_unitary(out.eigenvectors, sp.build_propagator(out, 0.05).phases)
        assert np.max(np.abs(u.conj().T @ u - np.eye(h.n))) <= 1e-10


class TestSplitBlocks:
    def test_copies_of_one_block_stay_apart(self):
        # an exact cross-block degeneracy: each eigenvalue twice, once per copy
        rng = np.random.default_rng(12)
        k = 9
        d, e = rng.normal(size=k), rng.normal(size=k - 1)
        h = Hamiltonian(np.r_[d, d], np.r_[e, 0.0, e])
        assert not np.array_equal(h.diagonal, h.diagonal[::-1])
        out = sp.eigendecompose(h)
        lam, q = out.eigenvalues, out.eigenvectors
        assert np.array_equal(lam[0::2], lam[1::2])
        _assert_solves(h, lam, q, 1e-10)
        on_first = np.all(q[k:] == 0.0, axis=0)
        on_second = np.all(q[:k] == 0.0, axis=0)
        assert np.all(on_first ^ on_second)
        assert np.count_nonzero(on_first) == k

    @given(_split_bands())
    def test_columns_live_in_their_blocks(self, h):
        e = h.off_diagonal
        # palindromes are folded first, which mirrors each column
        assume(not (np.array_equal(h.diagonal, h.diagonal[::-1]) and np.array_equal(e, e[::-1])))
        out = sp.eigendecompose(h)
        q = out.eigenvectors
        _assert_solves(h, out.eigenvalues, q, 1e-10)
        block = np.cumsum(np.r_[0, e == 0.0])  # each row's block number
        for j in range(h.n):
            assert np.unique(block[q[:, j] != 0.0]).size == 1


class TestLazySolve:
    """Each block is solved on its first read, so stepping solves only the
    blocks the packet occupies; the order of reads must not move a bit."""

    @given(st.one_of(_split_bands(), _palindromes(st.integers(1, 30))), st.data())
    def test_reads_before_and_after_stepping_agree(self, h, data):
        psi0 = np.array(data.draw(st.lists(_band_entries, min_size=h.n, max_size=h.n)))
        y = psi0.copy()
        read_first, step_first = sp.eigendecompose(h), sp.eigendecompose(h)
        read_first.fold(y)
        assume(np.any(y))
        read = (read_first.eigenvalues, read_first.columns, read_first.eigenvectors)
        stepped = [
            [np.r_[re, im] for _, re, im in sp.build_propagator(d, 0.05).states(psi0, 3)]
            for d in (read_first, step_first)
        ]
        solved = [("_pairs" in vars(b)) for b in step_first.blocks]
        assert solved == [np.any(y[b.rows]) for b in step_first.blocks]  # the packet's blocks alone
        for before, after in zip(read, (step_first.eigenvalues, step_first.columns, step_first.eigenvectors)):
            assert np.array_equal(before, after) and np.array_equal(np.signbit(before), np.signbit(after))
        assert all(np.array_equal(a, b) for a, b in zip(*stepped, strict=True))


class TestPropagator:
    def test_unitary(self, default_decomposition):
        d = default_decomposition
        u = dense_unitary(d.eigenvectors, sp.build_propagator(d, 0.05).phases)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d.n))) <= 1e-10

    def test_zero_step_is_identity(self, default_decomposition):
        d = default_decomposition
        u = dense_unitary(d.eigenvectors, sp.build_propagator(d, 0.0).phases)
        assert np.max(np.abs(u - np.eye(d.n))) < 1e-12

    def test_forward_backward_cancel(self):
        d = sp.eigendecompose(_random_symmetric(10, 7))
        uf, ub = (dense_unitary(d.eigenvectors, sp.build_propagator(d, dt).phases) for dt in (0.3, -0.3))
        assert np.max(np.abs(ub @ uf - np.eye(10))) < 1e-12

    def test_nonfinite_dt_rejected(self, default_decomposition):
        with pytest.raises(ValueError):
            sp.build_propagator(default_decomposition, float("nan"))

    def test_factors_and_lazy_matrix(self):
        d = sp.eigendecompose(_random_symmetric(10, 11))
        u = sp.build_propagator(d, 0.3)
        assert u.decomposition is d
        assert np.array_equal(u.phases, np.exp(-0.3j * d.eigenvalues))
        assert "matrix" not in vars(u)  # not built until read
        q = d.eigenvectors
        assert np.max(np.abs(u.matrix - dense_unitary(q, u.phases))) < 1e-14
        assert u.matrix is u.matrix


class TestEigenCsv:
    def test_layout(self, tmp_path):
        d = sp.eigendecompose(_random_symmetric(4, 10))
        path = tmp_path / "eigen.csv"
        sp.write_eigen_csv(d, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "eig_0,eig_1,eig_2,eig_3"
        assert len(lines) == 1 + 1 + 4
        lam_back = np.array([float(v) for v in lines[1].split(",")])
        assert np.array_equal(lam_back, d.eigenvalues)


class TestHarmonicOracle:
    def test_small_grid_spectrum_against_lapack(self):
        # dual route on a non-default grid too
        grid = make_grid(-4.0, 4.0, 80)
        h = assemble_hamiltonian(laplacian(grid), harmonic_potential(grid))
        d = sp.eigendecompose(h)
        lam_ref = np.linalg.eigvalsh(dense(h))
        assert np.max(np.abs(d.eigenvalues - lam_ref)) < 1e-9 * np.abs(lam_ref).max()


def test_simulate_leaves_numpy_random_unloaded(tmp_path):
    # numpy.random's first import costs several MB resident, and no stage
    # of simulate needs it
    code = (
        "import sys; from qwave.cli import main; "
        f"main(['simulate', '--grid.n_points', '40', '--io.output_dir', {str(tmp_path)!r}]); "
        "print('numpy.random' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(qwave.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "False"
