"""Variational workloads: QAOA Max-Cut, VQE 2D Ising, classical optimizers."""

from .ising import IsingModel2D, square_grid_ising
from .loop import VariationalLoop, VariationalRun
from .maxcut import MaxCutProblem, random_regular_maxcut, ring_maxcut
from .optimizer import NelderMeadOptimizer, OptimizationResult
from .qaoa import QAOACircuit, qaoa_maxcut_circuit
from .vqe import VQECircuit

__all__ = [
    "MaxCutProblem",
    "random_regular_maxcut",
    "ring_maxcut",
    "IsingModel2D",
    "square_grid_ising",
    "QAOACircuit",
    "qaoa_maxcut_circuit",
    "VQECircuit",
    "NelderMeadOptimizer",
    "OptimizationResult",
    "VariationalLoop",
    "VariationalRun",
]
