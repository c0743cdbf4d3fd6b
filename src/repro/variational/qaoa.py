"""QAOA ansatz circuits for Max-Cut (Farhi et al., the paper's first workload).

A ``p``-iteration QAOA circuit is::

    |psi(gamma, beta)> = prod_{k=p..1} U_B(beta_k) U_C(gamma_k) H^{(x n)} |0...0>

where ``U_C(gamma) = exp(-i gamma C)`` applies a ZZ rotation per graph edge
and ``U_B(beta) = exp(-i beta B)`` applies an Rx rotation per qubit.  The
circuits are built with *symbolic* parameters so the knowledge-compilation
simulator can compile once and re-bind angles on every optimizer iteration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import Circuit
from ..circuits.gates import H, Rx, ZZ
from ..circuits.parameters import ParamResolver, Symbol
from ..circuits.qubits import LineQubit, Qubit
from .maxcut import MaxCutProblem


class QAOACircuit:
    """A QAOA Max-Cut ansatz with symbolic (gamma_k, beta_k) parameters."""

    def __init__(self, problem: MaxCutProblem, iterations: int = 1):
        if iterations < 1:
            raise ValueError("QAOA requires at least one iteration")
        self.problem = problem
        self.iterations = iterations
        self.qubits: List[Qubit] = LineQubit.range(problem.num_vertices)
        self.gammas: List[Symbol] = [Symbol(f"gamma{k}") for k in range(iterations)]
        self.betas: List[Symbol] = [Symbol(f"beta{k}") for k in range(iterations)]
        self.circuit = self._build()

    def _build(self) -> Circuit:
        circuit = Circuit()
        circuit.append(H(q) for q in self.qubits)
        for k in range(self.iterations):
            gamma = self.gammas[k]
            beta = self.betas[k]
            for u, v in self.problem.edges:
                circuit.append(ZZ(2 * gamma)(self.qubits[u], self.qubits[v]))
            for qubit in self.qubits:
                circuit.append(Rx(2 * beta)(qubit))
        return circuit

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return 2 * self.iterations

    def resolver(self, parameters: Sequence[float]) -> ParamResolver:
        """Map a flat parameter vector [gamma_0..gamma_{p-1}, beta_0..beta_{p-1}]."""
        if len(parameters) != self.num_parameters:
            raise ValueError(
                f"expected {self.num_parameters} parameters, got {len(parameters)}"
            )
        assignment: Dict[Symbol, float] = {}
        for k in range(self.iterations):
            assignment[self.gammas[k]] = float(parameters[k])
            assignment[self.betas[k]] = float(parameters[self.iterations + k])
        return ParamResolver(assignment)

    def objective_from_samples(self, samples) -> float:
        """Mean cost (negative cut) over a :class:`SampleResult`."""
        if len(samples) == 0:
            raise ValueError("no samples")
        # Integer cuts sum exactly, as the per-shot float loop did.
        return float(-self.problem.cut_values(list(samples)).sum()) / len(samples)

    def objective_from_distribution(self, distribution: Sequence[float]) -> float:
        return -self.problem.expected_cut(distribution)

    def __repr__(self) -> str:
        return (
            f"QAOACircuit(vertices={self.problem.num_vertices}, iterations={self.iterations}, "
            f"gates={self.circuit.gate_count()})"
        )


def qaoa_maxcut_circuit(
    problem: MaxCutProblem,
    gammas: Sequence[float],
    betas: Sequence[float],
) -> Circuit:
    """A concrete (non-symbolic) QAOA circuit for fixed angles."""
    if len(gammas) != len(betas):
        raise ValueError("gammas and betas must have the same length")
    ansatz = QAOACircuit(problem, iterations=len(gammas))
    resolver = ansatz.resolver(list(gammas) + list(betas))
    return ansatz.circuit.resolve_parameters(resolver)
