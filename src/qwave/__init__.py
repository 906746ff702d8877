"""Quantum-walk simulation of a 1D harmonic well with an LSTM surrogate.

The pipeline: discretize the Hamiltonian, evolve a Gaussian packet with
the exact spectral propagator, window the density frames into a
supervised dataset, train a from-scratch LSTM to predict the next
frame, and compare predictions against the simulation.
"""

__version__ = "0.1.0"
