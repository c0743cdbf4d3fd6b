"""The hybrid quantum-classical variational loop.

Ties together an ansatz (QAOA or VQE), a simulator backend and a classical
optimizer: each optimizer iteration binds the current parameters, draws
samples from the circuit's output distribution, and evaluates the problem
objective on those samples.  The knowledge-compilation backend compiles
the parameterized circuit once (through the simulator's compile cache) and
samples the compiled circuit at every iteration — the
compile-once/rebind-per-iteration economics the paper's toolchain is
designed around.  Every other backend samples the resolved circuit.
Iteration ``k`` samples with ``seed + k``.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..simulator.base import Simulator
from ..simulator.kc_simulator import CompiledCircuit, KnowledgeCompilationSimulator
from .optimizer import NelderMeadOptimizer, OptimizationResult
from .qaoa import QAOACircuit
from .vqe import VQECircuit

Ansatz = Union[QAOACircuit, VQECircuit]


class VariationalRun:
    """Result of a full variational optimization."""

    def __init__(
        self,
        optimization: OptimizationResult,
        best_samples,
        objective_trace: List[float],
        num_circuit_executions: int,
    ):
        self.optimization = optimization
        self.best_samples = best_samples
        self.objective_trace = objective_trace
        self.num_circuit_executions = num_circuit_executions

    @property
    def best_value(self) -> float:
        return self.optimization.best_value

    @property
    def best_parameters(self) -> np.ndarray:
        return self.optimization.best_parameters

    def __repr__(self) -> str:
        return (
            f"VariationalRun(best_value={self.best_value:.4f}, "
            f"executions={self.num_circuit_executions})"
        )


class VariationalLoop:
    """Runs a hybrid optimization of an ansatz on a simulator backend."""

    def __init__(
        self,
        ansatz: Ansatz,
        simulator: Simulator,
        samples_per_evaluation: int = 256,
        optimizer: Optional[NelderMeadOptimizer] = None,
        seed: Optional[int] = None,
    ):
        self.ansatz = ansatz
        self.simulator = simulator
        self.samples_per_evaluation = samples_per_evaluation
        self.optimizer = optimizer or NelderMeadOptimizer(max_iterations=40)
        self.seed = seed
        self._compiled: Optional[CompiledCircuit] = None
        self._executions = 0
        self._trace: List[float] = []
        if isinstance(simulator, KnowledgeCompilationSimulator):
            # Compile the parameterized circuit structure once; every
            # objective evaluation below re-binds parameters only.
            self._compiled = simulator.compile_circuit(ansatz.circuit)

    # ------------------------------------------------------------------
    def _sample(self, resolver):
        self._executions += 1
        seed = None if self.seed is None else self.seed + self._executions
        if self._compiled is not None:
            # Gibbs sampling against the shared compile: warm chains when
            # unseeded, one fresh stream per seed otherwise.
            return self.simulator.sample(
                self._compiled, self.samples_per_evaluation, resolver=resolver, seed=seed
            )
        resolved = self.ansatz.circuit.resolve_parameters(resolver)
        return self.simulator.sample(resolved, self.samples_per_evaluation, seed=seed)

    def objective(self, parameters: np.ndarray) -> float:
        resolver = self.ansatz.resolver(list(parameters))
        samples = self._sample(resolver)
        value = self.ansatz.objective_from_samples(samples)
        self._trace.append(value)
        return value

    def run(self, initial_parameters: Optional[np.ndarray] = None) -> VariationalRun:
        if initial_parameters is None:
            rng = np.random.default_rng(self.seed)
            initial_parameters = rng.uniform(0.1, 1.0, size=self.ansatz.num_parameters)
        result = self.optimizer.minimize(self.objective, initial_parameters)
        best_resolver = self.ansatz.resolver(list(result.best_parameters))
        best_samples = self._sample(best_resolver)
        return VariationalRun(result, best_samples, list(self._trace), self._executions)
