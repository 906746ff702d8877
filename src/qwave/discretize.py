"""Spatial grid, finite-difference Laplacian, and Hamiltonian assembly.

Natural units ħ = m = 1 throughout.  The domain [a, b] is sampled on N
uniform nodes spaced dx = (b - a)/(N - 1), laid out from both ends so that
they are symmetric about (a + b)/2; the wavefunction
is pinned to zero at both endpoints (Dirichlet), which the truncated
tridiagonal stencil encodes with no extra bookkeeping.  Operators are
stored as their (diagonal, off_diagonal) bands, O(N) instead of O(N^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform 1D spatial grid.

    Attributes
    ----------
    a, b : domain endpoints, b > a
    n_points : number of nodes N (>= 3)
    dx : node spacing (b - a)/(N - 1)
    nodes : array of N coordinates, nodes[i] = a + i*dx to rounding
    """

    a: float
    b: float
    n_points: int
    dx: float
    nodes: np.ndarray


@dataclass(frozen=True)
class _Tridiagonal:
    """Real symmetric tridiagonal operator, kept as read-only copies of its
    bands: off_diagonal[i] couples nodes i and i+1.  Bands that are not
    finite or not of shapes (n,) and (n-1,) raise ValueError.  `matrix`
    builds the dense form on demand, for oracles and tests."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        d, e = bands = [np.array(b, dtype=float) for b in (self.diagonal, self.off_diagonal)]
        if d.ndim != 1 or e.shape != (d.size - 1,) or not all(np.isfinite(b).all() for b in bands):
            raise ValueError(
                f"{type(self).__name__} bands must be finite with shapes (n,) and (n-1,), "
                f"got {d.shape} and {e.shape}"
            )
        for name, band in zip(("diagonal", "off_diagonal"), bands):
            band.setflags(write=False)
            object.__setattr__(self, name, band)

    @property
    def n(self) -> int:
        return self.diagonal.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        mat = np.diag(self.diagonal) + np.diag(self.off_diagonal, 1) + np.diag(self.off_diagonal, -1)
        mat.setflags(write=False)
        return mat


@dataclass(frozen=True)
class Laplacian(_Tridiagonal):
    """Second-derivative operator: tridiagonal stencil (1, -2, 1)/dx^2."""


@dataclass(frozen=True)
class Hamiltonian(_Tridiagonal):
    """Real symmetric tridiagonal H = -(1/2) L + diag(V)."""


def make_grid(a: float, b: float, n_points: int) -> Grid:
    """Build a uniform grid on [a, b] with n_points nodes.

    The lower half is a + i*dx and the upper half its mirror b - i*dx, with
    (a + b)/2 in the middle when n_points is odd.  So the ends are a and b
    exactly, and for a = -b, nodes[i] == -nodes[N-1-i] bitwise, which keeps
    an even potential's Hamiltonian an exact palindrome.
    """
    if not b > a:
        raise ValueError(f"domain endpoints must satisfy b > a, got a={a}, b={b}")
    if n_points < 3:
        raise ValueError(f"grid needs at least 3 points for an interior node, got {n_points}")
    dx = (b - a) / (n_points - 1)
    half = n_points // 2
    offsets = dx * np.arange(half, dtype=float)
    nodes = np.empty(n_points)
    nodes[:half] = a + offsets
    nodes[n_points - half :] = (b - offsets)[::-1]
    if n_points % 2:
        nodes[half] = 0.5 * (a + b)
    nodes.setflags(write=False)
    return Grid(float(a), float(b), int(n_points), dx, nodes)


def laplacian(grid: Grid) -> Laplacian:
    """Finite-difference Laplacian on the grid, Dirichlet boundaries.

    Interior rows apply (psi[i+1] - 2 psi[i] + psi[i-1])/dx^2; the stencil
    is exact for quadratics, so applying it to samples of x^2 gives 2 on
    every interior node.
    """
    scale = 1.0 / grid.dx**2
    return Laplacian(np.full(grid.n_points, -2.0 * scale), np.full(grid.n_points - 1, scale))


def harmonic_potential(grid: Grid) -> np.ndarray:
    """V(x) = x^2 / 2 on the grid nodes, the shipped potential."""
    return 0.5 * grid.nodes**2


def assemble_hamiltonian(lap: Laplacian, potential: np.ndarray) -> Hamiltonian:
    """H = -(1/2) L + diag(V), band by band; symmetric by construction."""
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (lap.n,):
        raise ValueError(f"potential has shape {potential.shape}, Laplacian order is {lap.n}")
    return Hamiltonian(-0.5 * lap.diagonal + potential, -0.5 * lap.off_diagonal)
