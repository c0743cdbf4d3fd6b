"""Batched quantum-trajectory (Monte Carlo wavefunction) backend.

Unravels each Kraus channel into stochastic pure-state jumps and evolves many
trajectories in lockstep as one ``(B, 2^n)`` state array, making noisy
sampling feasible at qubit counts where a dense ``4^n`` density matrix is
not.  The state-vector backend's noisy sampling runs the same engine.
"""

from .simulator import TrajectorySimulator

__all__ = ["TrajectorySimulator"]
