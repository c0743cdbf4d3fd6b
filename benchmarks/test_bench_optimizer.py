"""Optimizer pass pipeline: compile-size and sweep-time reductions.

Two workloads, mirroring how the paper's figures exercise the compiler:

* **Light-cone pruning** (Figure 7-style per-observable evaluation): a QAOA
  circuit measured on a single problem edge.  Only the gates in that edge's
  reverse light cone can influence the measured marginal, so the compile
  with ``optimize="auto"`` encodes a fraction of the Bayesian network — the
  CNF and the compiled arithmetic circuit shrink accordingly.

* **Rotation fusion** (Figure 8-style parameter sweep): a "naively
  compiled" ansatz in which every rotation arrives split into two
  half-angle rotations — the textbook artifact of gate-set lowering.  The
  fusion pass merges each pair exactly (affine parameter arithmetic), so
  the knowledge compile sees half the rotation count and every sweep point
  pays less per evaluation.  The benchmark times the full compile+sweep
  with the optimizer off and on.

Results are emitted as machine-readable ``BENCH_optimizer.json`` in the
benchmark output directory (``BENCH_OUTPUT_DIR``, see ``conftest.py``).  The structural assertions (gate counts, AC nodes, CNF
clauses) are exact and always enforced; the wall-clock speedup floor can be
relaxed on shared CI runners via ``BENCH_OPTIMIZER_MIN_SPEEDUP``.
"""

import os
import time

import numpy as np

from repro.api.device import Device
from repro.bench import emit_bench
from repro.circuits import Circuit, measure
from repro.circuits.gates import _RotationGate
from repro.circuits.passes import default_pipeline
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.variational import QAOACircuit, random_regular_maxcut

NUM_QUBITS = 8
SWEEP_POINTS = 40

_BENCH_NAME = "BENCH_optimizer.json"

_MIN_SPEEDUP = float(os.environ.get("BENCH_OPTIMIZER_MIN_SPEEDUP", "1.0"))


def _qaoa(seed=5, iterations=1):
    return QAOACircuit(random_regular_maxcut(NUM_QUBITS, seed=seed), iterations=iterations)


def _split_rotations(circuit):
    """The gate-set-lowering artifact: every rotation as two half-angle halves."""
    split = Circuit()
    for operation in circuit.all_operations():
        gate = operation.gate
        if isinstance(gate, _RotationGate):
            half = type(gate)(0.5 * gate.angle)
            split.append([half(*operation.qubits), half(*operation.qubits)])
        else:
            split.append(operation)
    return split


def _edge_observable_circuit(ansatz):
    """The resolved QAOA circuit measured on one problem edge only."""
    circuit = ansatz.circuit.resolve_parameters(ansatz.resolver([0.6, 0.4]))
    edge = ansatz.problem.edges[0]
    qubits = ansatz.qubits
    measured = Circuit(circuit.all_operations())
    measured.append(measure(qubits[edge[0]], qubits[edge[1]], key="edge"))
    return measured


class TestLightConeCompileSize:
    def test_edge_observable_compile_shrinks(self):
        ansatz = _qaoa()
        circuit = _edge_observable_circuit(ansatz)
        simulator = KnowledgeCompilationSimulator(cache=None)

        baseline = simulator.compile_circuit(circuit).compilation_metrics()
        optimized = simulator.compile_circuit(circuit, optimize="auto").compilation_metrics()
        stats = simulator.last_optimization

        assert stats is not None and stats.changed
        assert optimized["gates"] < baseline["gates"]
        assert optimized["ac_nodes"] < baseline["ac_nodes"]
        assert optimized["cnf_clauses"] < baseline["cnf_clauses"]

        self.__class__.metrics = {
            "workload": f"qaoa maxcut n={NUM_QUBITS}, single-edge observable",
            "gates": {"off": baseline["gates"], "auto": optimized["gates"]},
            "cnf_clauses": {"off": baseline["cnf_clauses"], "auto": optimized["cnf_clauses"]},
            "ac_nodes": {"off": baseline["ac_nodes"], "auto": optimized["ac_nodes"]},
            "ac_size_bytes": {
                "off": baseline["ac_size_bytes"],
                "auto": optimized["ac_size_bytes"],
            },
            "ac_nodes_reduction": round(1 - optimized["ac_nodes"] / baseline["ac_nodes"], 3),
        }


def _compile_and_sweep(circuit, points):
    """One knowledge compile of ``circuit``, then every point against it."""
    simulator = KnowledgeCompilationSimulator(cache=None)
    dev = Device("knowledge_compilation", instances={"knowledge_compilation": simulator})
    compiled = dev.ensure_compiled(circuit)
    return compiled, dev.run(circuit, params=points, sampling="gibbs").result().rows


class TestFusionSweepTime:
    def test_split_rotation_sweep_speeds_up(self, bench_output_dir):
        ansatz = _qaoa(iterations=1)
        split = _split_rotations(ansatz.circuit)
        rng = np.random.default_rng(7)
        points = [
            ansatz.resolver(list(row))
            for row in rng.uniform(0.1, 1.3, size=(SWEEP_POINTS, ansatz.num_parameters))
        ]

        start = time.perf_counter()
        plain_compiled, plain_rows = _compile_and_sweep(split, points)
        plain_seconds = time.perf_counter() - start

        start = time.perf_counter()
        optimization = default_pipeline().run(split)
        optimized_compiled, optimized_rows = _compile_and_sweep(optimization.circuit, points)
        optimized_seconds = time.perf_counter() - start

        stats = optimization.stats
        assert stats.removed > 0
        plain_metrics = plain_compiled.compilation_metrics()
        optimized_metrics = optimized_compiled.compilation_metrics()
        assert optimized_metrics["gates"] < plain_metrics["gates"]
        assert optimized_metrics["ac_nodes"] < plain_metrics["ac_nodes"]

        for plain_row, optimized_row in zip(plain_rows, optimized_rows):
            np.testing.assert_allclose(
                optimized_row["probabilities"], plain_row["probabilities"], atol=1e-10
            )

        speedup = plain_seconds / max(optimized_seconds, 1e-9)
        payload = {
            "benchmark": "circuit_rewrite_optimizer",
            "light_cone_compile": getattr(TestLightConeCompileSize, "metrics", None),
            "fusion_sweep": {
                "workload": (
                    f"qaoa maxcut n={NUM_QUBITS}, rotations split into half-angle "
                    f"pairs, {SWEEP_POINTS}-point sweep"
                ),
                "operations": {
                    "off": stats.operations_before,
                    "auto": stats.operations_after,
                },
                "ac_nodes": {
                    "off": plain_metrics["ac_nodes"],
                    "auto": optimized_metrics["ac_nodes"],
                },
                "sweep_seconds": {
                    "off": round(plain_seconds, 4),
                    "auto": round(optimized_seconds, 4),
                },
                "speedup": round(speedup, 3),
            },
        }
        emit_bench(bench_output_dir / _BENCH_NAME, payload)

        assert speedup >= _MIN_SPEEDUP, (
            f"optimized sweep only {speedup:.2f}x vs floor {_MIN_SPEEDUP} "
            f"({plain_seconds:.2f}s off vs {optimized_seconds:.2f}s auto); "
            f"see {_BENCH_NAME}"
        )
