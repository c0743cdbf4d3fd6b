"""Batched-engine benchmarks: many-chain Gibbs sampling and vectorized queries.

Compares, on the Figure 7 QAOA workloads (ideal 8-qubit and noisy 4-qubit):

* scalar-chain Gibbs sampling (``num_chains=1``, a fresh sampler per draw —
  the seed's cost model of one circuit pass per sample) against the
  batched chain ensemble (warm reuse across calls, the variational-loop usage);
* looped per-amplitude ``state_vector`` reconstruction against the chunked
  batched reconstruction.

``extra_info`` records the measured speedup ratios; the dedicated ratio test
asserts the tentpole acceptance criterion (>= 5x sampling throughput at 512
repetitions).
"""

import time

import numpy as np
import pytest

from repro.circuits import depolarize
from repro.linalg.tensor_ops import index_to_bits
from repro.sampling.gibbs import GibbsSampler
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.variational import QAOACircuit, random_regular_maxcut

REPETITIONS = 512
ENSEMBLE_CHAINS = 32


@pytest.fixture(scope="module")
def compiled_ideal():
    ansatz = QAOACircuit(random_regular_maxcut(8, seed=5), iterations=1)
    circuit = ansatz.circuit.resolve_parameters(ansatz.resolver([0.6, 0.4]))
    return KnowledgeCompilationSimulator(seed=5).compile_circuit(circuit)


@pytest.fixture(scope="module")
def compiled_noisy():
    ansatz = QAOACircuit(random_regular_maxcut(4, seed=5), iterations=1)
    circuit = ansatz.circuit.resolve_parameters(ansatz.resolver([0.6, 0.4]))
    return KnowledgeCompilationSimulator(seed=7).compile_circuit(
        circuit.with_noise(lambda: depolarize(0.005))
    )


def test_scalar_chain_sampling(benchmark, compiled_ideal):
    """Seed-style scalar path: one chain, fresh sampler (cold burn-in) per draw."""

    def draw():
        sampler = GibbsSampler(compiled_ideal, rng=np.random.default_rng(5))
        return sampler.sample(REPETITIONS, burn_in_sweeps=4, num_chains=1)

    result = benchmark(draw)
    assert len(result.samples) == REPETITIONS
    benchmark.extra_info["samples"] = REPETITIONS
    benchmark.extra_info["num_chains"] = 1


def test_batched_ensemble_sampling(benchmark, compiled_ideal):
    """Warm chain ensemble: burn-in paid once, recording passes only per draw."""
    sampler = GibbsSampler(compiled_ideal, rng=np.random.default_rng(5))
    sampler.sample(REPETITIONS, burn_in_sweeps=4, num_chains=ENSEMBLE_CHAINS)

    def draw():
        return sampler.sample(REPETITIONS, burn_in_sweeps=4, num_chains=ENSEMBLE_CHAINS)

    result = benchmark(draw)
    assert len(result.samples) == REPETITIONS
    benchmark.extra_info["samples"] = REPETITIONS
    benchmark.extra_info["num_chains"] = ENSEMBLE_CHAINS


def test_sampling_speedup_ratio(compiled_ideal):
    """Acceptance criterion: >= 5x sampling throughput from the batched ensemble."""

    def best_of(callable_, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            callable_()
            best = min(best, time.perf_counter() - start)
        return best

    def scalar_draw():
        sampler = GibbsSampler(compiled_ideal, rng=np.random.default_rng(5))
        sampler.sample(REPETITIONS, burn_in_sweeps=4, num_chains=1)

    warm = GibbsSampler(compiled_ideal, rng=np.random.default_rng(5))
    warm.sample(REPETITIONS, burn_in_sweeps=4, num_chains=ENSEMBLE_CHAINS)

    def ensemble_draw():
        warm.sample(REPETITIONS, burn_in_sweeps=4, num_chains=ENSEMBLE_CHAINS)

    scalar_seconds = best_of(scalar_draw)
    ensemble_seconds = best_of(ensemble_draw)
    speedup = scalar_seconds / ensemble_seconds
    print(
        f"\nsample({REPETITIONS}): scalar {REPETITIONS / scalar_seconds:.0f}/s, "
        f"ensemble {REPETITIONS / ensemble_seconds:.0f}/s, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0


def test_noisy_ensemble_sampling(benchmark, compiled_noisy):
    """Noisy Figure 7 panel: ensemble throughput with noise-branch selectors."""
    sampler = GibbsSampler(compiled_noisy, rng=np.random.default_rng(7))
    sampler.sample(REPETITIONS, burn_in_sweeps=4, num_chains=ENSEMBLE_CHAINS)

    def draw():
        return sampler.sample(REPETITIONS, burn_in_sweeps=4, num_chains=ENSEMBLE_CHAINS)

    result = benchmark(draw)
    assert len(result.samples) == REPETITIONS
    benchmark.extra_info["num_chains"] = ENSEMBLE_CHAINS
    benchmark.extra_info["noise_channels"] = len(compiled_noisy.noise_variables)


def test_batched_state_vector(benchmark, compiled_ideal):
    """Chunked batched reconstruction of all 2^n amplitudes."""
    state = benchmark(compiled_ideal.state_vector)
    benchmark.extra_info["dim"] = len(state)


def test_looped_state_vector(benchmark, compiled_ideal):
    """Seed-style reconstruction: one scalar amplitude query per bitstring."""
    n = compiled_ideal.num_qubits

    def loop():
        return np.asarray(
            [compiled_ideal.amplitude(index_to_bits(i, n)) for i in range(2 ** n)]
        )

    state = benchmark(loop)
    np.testing.assert_allclose(state, compiled_ideal.state_vector(), atol=1e-10)


def test_state_vector_speedup_ratio(compiled_ideal):
    """Report the batched-vs-looped reconstruction ratio."""
    n = compiled_ideal.num_qubits
    start = time.perf_counter()
    looped = np.asarray(
        [compiled_ideal.amplitude(index_to_bits(i, n)) for i in range(2 ** n)]
    )
    looped_seconds = time.perf_counter() - start
    start = time.perf_counter()
    batched = compiled_ideal.state_vector()
    batched_seconds = time.perf_counter() - start
    np.testing.assert_allclose(batched, looped, atol=1e-10)
    speedup = looped_seconds / batched_seconds
    print(f"\nstate_vector: looped {looped_seconds * 1e3:.1f} ms, "
          f"batched {batched_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x")
    assert speedup >= 3.0
