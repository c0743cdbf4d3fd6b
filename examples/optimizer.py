"""Circuit-rewrite optimizer: smaller compiles, same answers, one shared key.

The pass pipeline (light-cone pruning, adjacent-gate fusion with exact
rotation merging, commutation-based cancellation) rewrites a circuit before
the knowledge compile.  Every rewrite decision is *value-blind* — it looks
only at gate classes and wiring, never at angle values — so an optimized
symbolic ansatz and an optimized resolved instance still share one
``circuit_topology_key``, and therefore one compiled artifact.

This example sweeps a QAOA Max-Cut ansatz whose rotations arrive split into
half-angle pairs (the classic gate-set-lowering artifact) with the
optimizer off and on, prints the per-pass rewrite statistics, and shows the
symbolic/resolved topology keys coinciding.

Run with::

    python examples/optimizer.py
"""

import time

import numpy as np

from repro import (
    Device,
    KnowledgeCompilationSimulator,
    circuit_topology_key,
    default_pipeline,
    optimize_circuit,
)
from repro.circuits import Circuit
from repro.circuits.gates import _RotationGate
from repro.variational import QAOACircuit, random_regular_maxcut


def split_rotations(circuit: Circuit) -> Circuit:
    """Lower every rotation into two half-angle rotations (naive compile)."""
    lowered = Circuit()
    for operation in circuit.all_operations():
        gate = operation.gate
        if isinstance(gate, _RotationGate):
            half = type(gate)(0.5 * gate.angle)
            lowered.append([half(*operation.qubits), half(*operation.qubits)])
        else:
            lowered.append(operation)
    return lowered


def compile_and_sweep(circuit: Circuit, points):
    """Compile ``circuit`` once, then evaluate every point against it."""
    simulator = KnowledgeCompilationSimulator(cache=None)
    dev = Device("knowledge_compilation", instances={"knowledge_compilation": simulator})
    compiled = dev.ensure_compiled(circuit)
    return compiled, dev.run(circuit, params=points, sampling="gibbs").result().rows


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The workload: a QAOA ansatz, naively lowered.
    # ------------------------------------------------------------------
    problem = random_regular_maxcut(8, seed=5)
    ansatz = QAOACircuit(problem, iterations=1)
    lowered = split_rotations(ansatz.circuit)
    print(f"Ansatz: {lowered.num_qubits} qubits, {lowered.gate_count()} gates "
          f"after naive lowering ({ansatz.circuit.gate_count()} before)")

    # ------------------------------------------------------------------
    # 2. Sweep with the optimizer off, then on.  Same 30 points.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(7)
    points = [
        ansatz.resolver(list(row))
        for row in rng.uniform(0.1, 1.3, size=(30, ansatz.num_parameters))
    ]

    start = time.perf_counter()
    plain, plain_rows = compile_and_sweep(lowered, points)
    plain_seconds = time.perf_counter() - start

    start = time.perf_counter()
    optimization = default_pipeline().run(lowered)
    optimized, optimized_rows = compile_and_sweep(optimization.circuit, points)
    optimized_seconds = time.perf_counter() - start

    stats = optimization.stats
    print("\nRewrite statistics (optimize='auto'):")
    for line in stats.summary().splitlines():
        print(f"  {line}")

    print(f"\nCompile size: {plain.arithmetic_circuit.num_nodes} AC nodes off, "
          f"{optimized.arithmetic_circuit.num_nodes} on")
    print(f"Sweep time:   {plain_seconds:.3f}s off, {optimized_seconds:.3f}s on "
          f"({plain_seconds / max(optimized_seconds, 1e-9):.2f}x)")

    # ------------------------------------------------------------------
    # 3. Same answers: every point agrees to 1e-10.
    # ------------------------------------------------------------------
    worst = max(
        float(np.max(np.abs(a["probabilities"] - b["probabilities"])))
        for a, b in zip(plain_rows, optimized_rows)
    )
    assert worst < 1e-10
    print(f"\nMax |p_off - p_auto| over 30 points: {worst:.2e}")

    # ------------------------------------------------------------------
    # 4. Value-blindness: the optimized symbolic ansatz and an optimized
    #    resolved instance share one topology key (and so one compile).
    # ------------------------------------------------------------------
    resolved = lowered.resolve_parameters(points[0])
    key_symbolic = circuit_topology_key(optimize_circuit(lowered).circuit)
    key_resolved = circuit_topology_key(optimize_circuit(resolved).circuit)
    assert key_symbolic == key_resolved
    print(f"Shared topology key (symbolic == resolved): {key_symbolic[:16]}...")


if __name__ == "__main__":
    main()
