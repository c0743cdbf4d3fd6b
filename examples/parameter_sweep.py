"""Compile-once parameter sweeps: one compile, many parameter points.

The knowledge-compilation pipeline's economics are "compile once, query
many": the exponential CNF -> d-DNNF compile depends only on the circuit's
*topology* (gate classes + qubit wiring), so sweeping the gate angles —
energy landscapes, optimizer traces, figure harnesses — re-binds weights
into one shared arithmetic circuit instead of recompiling.

Run with::

    python examples/parameter_sweep.py
"""

import time

import numpy as np

from repro import CompiledCircuitCache, Device, KnowledgeCompilationSimulator
from repro.variational import QAOACircuit, random_regular_maxcut


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A QAOA Max-Cut ansatz: one gamma and one beta angle per layer.
    # ------------------------------------------------------------------
    problem = random_regular_maxcut(6, seed=9)
    ansatz = QAOACircuit(problem, iterations=1)
    print(f"Ansatz: {ansatz.circuit.num_qubits} qubits, "
          f"{ansatz.circuit.gate_count()} gates, {ansatz.num_parameters} parameters")

    # ------------------------------------------------------------------
    # 2. A knowledge-compilation device over our own simulator.  Compile
    #    the topology once, up front (through the simulator's cache).
    # ------------------------------------------------------------------
    cache = CompiledCircuitCache()
    simulator = KnowledgeCompilationSimulator(seed=11, cache=cache)
    dev = Device("knowledge_compilation", instances={"knowledge_compilation": simulator})
    start = time.perf_counter()
    compiled = simulator.compile_circuit(ansatz.circuit)
    compile_seconds = time.perf_counter() - start
    print(f"Compiled once in {compile_seconds:.3f}s "
          f"({compiled.arithmetic_circuit.num_nodes} AC nodes)")

    # ------------------------------------------------------------------
    # 3. Sweep 25 (gamma, beta) points.  Every point is a weight re-binding
    #    plus vectorized upward passes — no recompilation.
    # ------------------------------------------------------------------
    gammas = np.linspace(0.1, 1.3, 25)
    betas = np.linspace(1.2, 0.2, 25)
    points = [{"gamma0": g, "beta0": b} for g, b in zip(gammas, betas)]

    start = time.perf_counter()
    result = dev.run(
        ansatz.circuit,
        params=points,
        observables=["probabilities", "expectation"],
        objective=ansatz.objective_from_distribution,
        repetitions=200,   # also draw Gibbs samples per point
        seed=3,
        sampling="gibbs",
    ).result()
    sweep_seconds = time.perf_counter() - start
    print(f"Swept {len(result)} points in {sweep_seconds:.3f}s "
          f"({1e3 * sweep_seconds / len(result):.1f} ms/point)")

    energies = result.expectations()
    best = int(np.argmin(energies))
    print(f"Best point: gamma={gammas[best]:.3f}, beta={betas[best]:.3f}, "
          f"objective={energies[best]:.4f}")
    top_counts = sorted(result.counts()[best].items(), key=lambda kv: -kv[1])[:3]
    print(f"Top sampled cuts there: {top_counts}")

    # ------------------------------------------------------------------
    # 4. The same topology at *new* values is a cache hit — even when the
    #    circuit arrives fully resolved (e.g. from an external frontend).
    # ------------------------------------------------------------------
    resolved = ansatz.circuit.resolve_parameters(ansatz.resolver([0.45, 0.85]))
    compiled_view = simulator.compile_circuit(resolved)  # no recompile
    print(f"Cache after resolved-circuit query: {cache.stats}")
    print(f"P(best cut) at new point: {compiled_view.probabilities()[best]:.4f}")

    # ------------------------------------------------------------------
    # 5. Fan points out over worker processes: the compiled artifact is
    #    persisted to disk and each worker hydrates it (identical results,
    #    deterministic seeding).
    # ------------------------------------------------------------------
    parallel = dev.run(
        ansatz.circuit,
        params=points,
        observables=["probabilities"],
        repetitions=200,
        seed=3,
        jobs=2,
        sampling="gibbs",
    ).result()
    identical = np.array_equal(parallel.probabilities(), result.probabilities())
    print(f"Parallel sweep matches serial exactly: {identical}")


if __name__ == "__main__":
    main()
