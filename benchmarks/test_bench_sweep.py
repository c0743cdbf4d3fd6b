"""Compile-once parameter-sweep engine vs. per-point recompilation.

A Figure 8-style workload — the QAOA Max-Cut ansatz — swept over 20+
parameter points.  The acceptance criteria of the sweep engine:

* the compile-once path (one topology compile + per-point weight
  re-binding) is >= 5x faster than recompiling the resolved circuit at
  every point (it measures far higher: the exponential compile happens
  once instead of 20+ times);
* cached-vs-fresh results agree to 1e-10 at every point.
"""

import time

import numpy as np
import pytest

from repro.api.device import Device
from repro.knowledge.cache import CompiledCircuitCache
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.variational import QAOACircuit, random_regular_maxcut

NUM_QUBITS = 6
NUM_POINTS = 24


@pytest.fixture(scope="module")
def ansatz():
    return QAOACircuit(random_regular_maxcut(NUM_QUBITS, seed=9), iterations=1)


@pytest.fixture(scope="module")
def sweep_points(ansatz):
    rng = np.random.default_rng(7)
    grid = rng.uniform(0.15, 1.4, size=(NUM_POINTS, ansatz.num_parameters))
    return [ansatz.resolver(list(row)) for row in grid]


def _per_point_recompile(ansatz, sweep_points):
    """The old figure-harness cost model: fresh compile per parameter point."""
    outputs = []
    for resolver in sweep_points:
        simulator = KnowledgeCompilationSimulator(seed=1, cache=None)
        resolved = ansatz.circuit.resolve_parameters(resolver)
        outputs.append(simulator.compile_circuit(resolved).probabilities())
    return np.stack(outputs)


def _kc_device():
    """A KC device over a private cache, and its simulator."""
    simulator = KnowledgeCompilationSimulator(seed=1, cache=CompiledCircuitCache())
    return simulator, Device("knowledge_compilation", instances={"knowledge_compilation": simulator})


def _run_sweep(dev, ansatz, sweep_points):
    return dev.run(
        ansatz.circuit, params=sweep_points, observables=["probabilities"], sampling="gibbs"
    ).result()


def _compile_once_sweep(ansatz, sweep_points):
    simulator, dev = _kc_device()
    simulator.compile_circuit(ansatz.circuit)
    return _run_sweep(dev, ansatz, sweep_points).probabilities()


class TestSweepSpeedup:
    def test_cached_sweep_at_least_5x_and_exact(self, ansatz, sweep_points):
        start = time.perf_counter()
        fresh = _per_point_recompile(ansatz, sweep_points)
        recompile_seconds = time.perf_counter() - start

        start = time.perf_counter()
        cached = _compile_once_sweep(ansatz, sweep_points)
        sweep_seconds = time.perf_counter() - start

        assert np.max(np.abs(cached - fresh)) < 1e-10
        speedup = recompile_seconds / max(sweep_seconds, 1e-9)
        assert speedup >= 5.0, (
            f"compile-once sweep only {speedup:.1f}x faster "
            f"({recompile_seconds:.2f}s recompile vs {sweep_seconds:.2f}s sweep)"
        )


class TestSweepThroughput:
    def test_benchmark_sweep(self, benchmark, ansatz, sweep_points):
        simulator, dev = _kc_device()
        compiled = simulator.compile_circuit(ansatz.circuit)  # compile outside the timer

        result = benchmark(lambda: _run_sweep(dev, ansatz, sweep_points))
        benchmark.extra_info["points"] = NUM_POINTS
        benchmark.extra_info["qubits"] = NUM_QUBITS
        benchmark.extra_info["ac_nodes"] = compiled.arithmetic_circuit.num_nodes
        assert len(result) == NUM_POINTS
        totals = result.probabilities().sum(axis=1)
        assert np.allclose(totals, 1.0, atol=1e-9)
