"""Figure 3: the sharply-peaked output distribution of a QAOA circuit.

Four panels in the paper: (a) measurement probability vs. output bitstring,
(b) measurement probabilities sorted by rank, (c) the rank distribution
recovered by ideal (direct) sampling, (d) the rank distribution recovered by
Gibbs sampling on the compiled arithmetic circuit.  This experiment produces
all four series for a QAOA Max-Cut circuit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..sampling import empirical_distribution
from ..simulator.kc_simulator import KnowledgeCompilationSimulator
from ..simulator.results import sample_from_probabilities
from ..statevector import StateVectorSimulator
from ..variational import QAOACircuit, random_regular_maxcut
from .common import ExperimentResult


def run(
    num_qubits: int = 10,
    iterations: int = 1,
    gamma: float = 0.6,
    beta: float = 0.4,
    num_samples: int = 4000,
    seed: int = 3,
    top_k: int = 16,
) -> ExperimentResult:
    """Generate the four Figure 3 series (reported for the top-ranked outcomes)."""
    problem = random_regular_maxcut(num_qubits, seed=seed)
    ansatz = QAOACircuit(problem, iterations=iterations)
    resolver = ansatz.resolver([gamma] * iterations + [beta] * iterations)

    exact_state = StateVectorSimulator().simulate(ansatz.circuit, resolver).state_vector
    exact_probabilities = np.abs(exact_state) ** 2

    rng = np.random.default_rng(seed)
    ideal_samples = sample_from_probabilities(
        ansatz.qubits, exact_probabilities, num_samples, rng
    )
    ideal_empirical = ideal_samples.empirical_distribution()

    kc = KnowledgeCompilationSimulator(seed=seed)
    compiled = kc.compile_circuit(ansatz.circuit)
    gibbs_samples = kc.sample(compiled, num_samples, resolver=resolver, seed=seed)
    gibbs_empirical = gibbs_samples.empirical_distribution()

    order = np.argsort(exact_probabilities)[::-1]
    rows: List[Dict] = []
    for rank in range(min(top_k, len(order))):
        index = int(order[rank])
        rows.append(
            {
                "rank": rank,
                "bitstring": format(index, f"0{num_qubits}b"),
                "measurement_probability": float(exact_probabilities[index]),
                "ideal_sampling_probability": float(ideal_empirical[index]),
                "gibbs_sampling_probability": float(gibbs_empirical[index]),
            }
        )
    top_mass = float(np.sort(exact_probabilities)[::-1][: max(1, 2 ** num_qubits // 64)].sum())
    rows.append(
        {
            "rank": "top 1/64 of outcomes",
            "bitstring": "-",
            "measurement_probability": top_mass,
            "ideal_sampling_probability": float(np.sort(ideal_empirical)[::-1][: max(1, 2 ** num_qubits // 64)].sum()),
            "gibbs_sampling_probability": float(np.sort(gibbs_empirical)[::-1][: max(1, 2 ** num_qubits // 64)].sum()),
        }
    )
    return ExperimentResult(
        "figure3_peaked_distribution",
        "QAOA output distribution is sharply peaked; sampling recovers the peak (Figure 3)",
        rows,
    )


# Harness entry points (see repro.experiments.runner).
QUICK_RUNS = [("run", {"num_qubits": 6, "num_samples": 800})]
FULL_RUNS = [("run", {"num_qubits": 10, "num_samples": 4000})]
