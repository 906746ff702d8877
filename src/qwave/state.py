"""Wavefunction state and its probability density."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WaveState:
    """Complex amplitude vector over the grid nodes at one time instant."""

    amplitudes: np.ndarray
    time: float


def density(psi: WaveState) -> np.ndarray:
    """|psi|^2 = Re(psi)^2 + Im(psi)^2; invariant under a global phase."""
    dens = np.abs(psi.amplitudes) ** 2
    dens.setflags(write=False)
    return dens
