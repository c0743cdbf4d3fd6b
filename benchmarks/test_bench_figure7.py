"""Figure 7: sampling-error convergence (KL divergence vs. number of samples).

Benchmarks the Gibbs sampler and the ideal (direct) sampler drawing the same
number of samples from a QAOA circuit, and records the resulting KL
divergences in ``extra_info`` so the benchmark output regenerates the
figure's two series.
"""

import numpy as np
import pytest

from repro.circuits import depolarize
from repro.densitymatrix import DensityMatrixSimulator
from repro.sampling import empirical_distribution, kl_divergence
from repro.sampling.gibbs import GibbsSampler
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.simulator.results import sample_from_probabilities
from repro.statevector import StateVectorSimulator
from repro.variational import QAOACircuit, random_regular_maxcut

NUM_SAMPLES = 1000


def _ideal_setup(num_qubits=8, seed=5):
    ansatz = QAOACircuit(random_regular_maxcut(num_qubits, seed=seed), iterations=1)
    circuit = ansatz.circuit.resolve_parameters(ansatz.resolver([0.6, 0.4]))
    exact = np.abs(StateVectorSimulator().simulate(circuit).state_vector) ** 2
    return ansatz, circuit, exact


def _noisy_setup(num_qubits=4, seed=5):
    ansatz = QAOACircuit(random_regular_maxcut(num_qubits, seed=seed), iterations=1)
    circuit = ansatz.circuit.resolve_parameters(ansatz.resolver([0.6, 0.4]))
    noisy = circuit.with_noise(lambda: depolarize(0.005))
    exact = DensityMatrixSimulator().simulate(noisy).probabilities()
    return ansatz, noisy, exact


def test_ideal_qaoa_gibbs_sampling_error(benchmark):
    ansatz, circuit, exact = _ideal_setup()
    compiled = KnowledgeCompilationSimulator(seed=5).compile_circuit(circuit)

    def draw():
        sampler = GibbsSampler(compiled, rng=np.random.default_rng(5))
        return sampler.sample(NUM_SAMPLES, burn_in_sweeps=4)

    samples = benchmark(draw)
    empirical = empirical_distribution(samples.samples, ansatz.problem.num_vertices)
    benchmark.extra_info["kl_gibbs"] = round(kl_divergence(exact, empirical), 4)
    benchmark.extra_info["samples"] = NUM_SAMPLES
    benchmark.extra_info["qubits"] = ansatz.problem.num_vertices


def test_ideal_qaoa_direct_sampling_error(benchmark):
    ansatz, circuit, exact = _ideal_setup()
    qubits = ansatz.qubits

    def draw():
        return sample_from_probabilities(qubits, exact, NUM_SAMPLES, np.random.default_rng(5))

    samples = benchmark(draw)
    empirical = empirical_distribution(samples.samples, len(qubits))
    benchmark.extra_info["kl_ideal"] = round(kl_divergence(exact, empirical), 4)
    benchmark.extra_info["samples"] = NUM_SAMPLES


def test_noisy_qaoa_gibbs_sampling_error(benchmark):
    ansatz, noisy, exact = _noisy_setup()
    compiled = KnowledgeCompilationSimulator(seed=7).compile_circuit(noisy)

    def draw():
        sampler = GibbsSampler(compiled, rng=np.random.default_rng(7))
        return sampler.sample(NUM_SAMPLES // 2, burn_in_sweeps=4)

    samples = benchmark(draw)
    empirical = empirical_distribution(samples.samples, ansatz.problem.num_vertices)
    benchmark.extra_info["kl_gibbs_noisy"] = round(kl_divergence(exact, empirical), 4)
    benchmark.extra_info["qubits"] = ansatz.problem.num_vertices
