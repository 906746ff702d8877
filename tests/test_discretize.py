import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qwave import discretize as dz

from conftest import dense

_sizes = st.integers(3, 400)
_ends = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=False)


class TestMakeGrid:
    def test_default_spacing_and_endpoints(self):
        grid = dz.make_grid(-5.0, 5.0, 200)
        assert grid.dx == pytest.approx(10.0 / 199)
        assert grid.nodes[0] == -5.0
        assert grid.nodes[-1] == pytest.approx(5.0)
        assert grid.nodes.shape == (200,)

    def test_nodes_are_uniform(self):
        grid = dz.make_grid(-2.0, 3.0, 57)
        steps = np.diff(grid.nodes)
        assert np.allclose(steps, grid.dx, rtol=0, atol=1e-14)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            dz.make_grid(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            dz.make_grid(2.0, -2.0, 10)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            dz.make_grid(-1.0, 1.0, 2)

    @given(st.floats(1e-6, 1e6, allow_nan=False, allow_subnormal=False), _sizes)
    def test_symmetric_domain_gives_mirrored_nodes(self, b, n):
        # the fold of a mirror-symmetric H needs bands that are exact palindromes
        nodes = dz.make_grid(-b, b, n).nodes
        assert np.array_equal(nodes, -nodes[::-1])
        v = dz.harmonic_potential(dz.make_grid(-b, b, n))
        assert np.array_equal(v, v[::-1])

    @given(_ends, _ends, _sizes)
    def test_increasing_with_ends_on_the_domain(self, a, b, n):
        a, b = min(a, b), max(a, b)
        # spacing well above the rounding of the coordinates themselves
        assume(b - a > 1e-6 * n * max(abs(a), abs(b), 1.0))
        nodes = dz.make_grid(a, b, n).nodes
        assert nodes.shape == (n,)
        assert np.all(np.diff(nodes) > 0.0)
        assert abs(nodes[0] - a) <= 4 * np.spacing(abs(a))
        assert abs(nodes[-1] - b) <= 4 * np.spacing(abs(b))

    def test_nodes_immutable(self):
        grid = dz.make_grid(-1.0, 1.0, 5)
        with pytest.raises(ValueError):
            grid.nodes[0] = 99.0


class TestLaplacian:
    def test_stencil_values(self):
        grid = dz.make_grid(-1.0, 1.0, 5)
        lap = dz.laplacian(grid)
        s = 1.0 / grid.dx**2
        mat = dense(lap)
        assert np.allclose(np.diag(mat), -2.0 * s)
        assert np.allclose(np.diag(mat, 1), s)
        assert np.allclose(np.diag(mat, -1), s)

    def test_dirichlet_truncation(self):
        # no wrap-around coupling between the endpoints
        lap = dz.laplacian(dz.make_grid(-1.0, 1.0, 6))
        assert dense(lap)[0, -1] == 0.0
        assert dense(lap)[-1, 0] == 0.0

    def test_symmetric(self):
        lap = dz.laplacian(dz.make_grid(-3.0, 1.0, 17))
        assert np.array_equal(dense(lap), dense(lap).T)


class TestPotential:
    def test_harmonic_values(self):
        grid = dz.make_grid(-5.0, 5.0, 200)
        v = dz.harmonic_potential(grid)
        assert v[0] == pytest.approx(12.5)
        assert v[-1] == pytest.approx(12.5)
        assert np.min(v) >= 0.0
        assert np.allclose(v, 0.5 * grid.nodes**2)


class TestHamiltonian:
    def test_assembly_formula(self):
        grid = dz.make_grid(-1.0, 1.0, 7)
        lap = dz.laplacian(grid)
        v = dz.harmonic_potential(grid)
        h = dz.assemble_hamiltonian(lap, v)
        assert np.allclose(dense(h), -0.5 * dense(lap) + np.diag(v))
        assert np.array_equal(dense(h), dense(h).T)

    def test_default_corner_entries(self, default_hamiltonian):
        # independently derived: 1/dx^2 + 12.5 and -1/(2 dx^2) at dx = 10/199
        dx = 10.0 / 199
        mat = dense(default_hamiltonian)
        assert mat[0, 0] == pytest.approx(1.0 / dx**2 + 12.5)
        assert mat[0, 1] == pytest.approx(-0.5 / dx**2)
        assert mat[0, 0] == pytest.approx(408.51, rel=1e-4)
        assert mat[0, 1] == pytest.approx(-198.005, rel=1e-4)

    def test_stored_as_bands(self):
        grid = dz.make_grid(-5.0, 5.0, 800)
        h = dz.assemble_hamiltonian(dz.laplacian(grid), dz.harmonic_potential(grid))
        assert h.diagonal.nbytes + h.off_diagonal.nbytes == 8 * (800 + 799)
        assert not h.diagonal.flags.writeable and not h.off_diagonal.flags.writeable
        # h.matrix, the dense form the benchmark reads, holds the bands
        assert np.array_equal(np.diag(h.matrix), h.diagonal)
        assert np.array_equal(np.diag(h.matrix, -1), h.off_diagonal)

    def test_dimension_mismatch_rejected(self):
        lap = dz.laplacian(dz.make_grid(-1.0, 1.0, 5))
        with pytest.raises(ValueError):
            dz.assemble_hamiltonian(lap, np.zeros(6))
