"""Figure 7: sampling error (KL divergence) vs. number of samples.

Two panels: a noise-free QAOA circuit (16 qubits in the paper) and a noisy
QAOA circuit (8 qubits, 0.5% depolarizing noise after each gate).  For each,
the KL divergence between the exact measurement distribution and the
empirical distribution of (a) ideal direct sampling and (b) Gibbs sampling on
the compiled arithmetic circuit is reported as the number of samples grows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..circuits import depolarize
from ..densitymatrix import DensityMatrixSimulator
from ..sampling import empirical_distribution, kl_divergence
from ..sampling.gibbs import GibbsSampler
from ..simulator.kc_simulator import KnowledgeCompilationSimulator
from ..simulator.results import sample_from_probabilities
from ..statevector import StateVectorSimulator
from ..variational import QAOACircuit, random_regular_maxcut
from .common import ExperimentResult


def _qaoa_setup(num_qubits: int, noisy: bool, noise_probability: float, seed: int):
    problem = random_regular_maxcut(num_qubits, seed=seed)
    ansatz = QAOACircuit(problem, iterations=1)
    resolver = ansatz.resolver([0.6, 0.4])
    circuit = ansatz.circuit.resolve_parameters(resolver)
    if noisy:
        circuit = circuit.with_noise(lambda: depolarize(noise_probability))
    return ansatz, circuit


def _exact_distribution(circuit) -> np.ndarray:
    if circuit.has_noise:
        return DensityMatrixSimulator().simulate(circuit).probabilities()
    state = StateVectorSimulator().simulate(circuit).state_vector
    return np.abs(state) ** 2


def run(
    num_qubits: int = 8,
    noisy: bool = False,
    noise_probability: float = 0.005,
    sample_counts: Optional[Sequence[int]] = None,
    seed: int = 5,
    num_chains: Optional[int] = None,
) -> ExperimentResult:
    """KL divergence of ideal vs Gibbs sampling as the sample count grows.

    ``num_chains`` sets the Gibbs chain-ensemble size (None lets the sampler
    choose); all samples are drawn with batched many-chain passes.
    """
    if sample_counts is None:
        sample_counts = [10, 30, 100, 300, 1000, 3000]
    ansatz, circuit = _qaoa_setup(num_qubits, noisy, noise_probability, seed)
    exact = _exact_distribution(circuit)

    rng = np.random.default_rng(seed)
    kc = KnowledgeCompilationSimulator(seed=seed)
    compiled = kc.compile_circuit(circuit)
    sampler = GibbsSampler(compiled, rng=np.random.default_rng(seed + 1))

    max_samples = max(sample_counts)
    ideal_samples = sample_from_probabilities(ansatz.qubits, exact, max_samples, rng).samples
    gibbs_samples = sampler.sample(max_samples, burn_in_sweeps=4, num_chains=num_chains).samples

    rows: List[Dict] = []
    for count in sample_counts:
        ideal_empirical = empirical_distribution(ideal_samples[:count], num_qubits)
        gibbs_empirical = empirical_distribution(gibbs_samples[:count], num_qubits)
        rows.append(
            {
                "samples": count,
                "kl_ideal_sampling": kl_divergence(exact, ideal_empirical),
                "kl_gibbs_sampling": kl_divergence(exact, gibbs_empirical),
                "noisy": noisy,
                "qubits": num_qubits,
            }
        )
    label = "noisy" if noisy else "noise-free"
    return ExperimentResult(
        f"figure7_sampling_error_{label}",
        f"KL divergence vs samples for a {label} {num_qubits}-qubit QAOA circuit (Figure 7)",
        rows,
    )


def run_both(
    ideal_qubits: int = 8,
    noisy_qubits: int = 4,
    sample_counts: Optional[Sequence[int]] = None,
    seed: int = 5,
) -> List[ExperimentResult]:
    """Both Figure 7 panels (sizes default to laptop-scale reductions)."""
    return [
        run(ideal_qubits, noisy=False, sample_counts=sample_counts, seed=seed),
        run(noisy_qubits, noisy=True, sample_counts=sample_counts, seed=seed),
    ]


# Harness entry points (see repro.experiments.runner).
QUICK_RUNS = [("run_both", {"ideal_qubits": 6, "noisy_qubits": 3, "sample_counts": [10, 100, 500]})]
FULL_RUNS = [("run_both", {"ideal_qubits": 8, "noisy_qubits": 4})]
