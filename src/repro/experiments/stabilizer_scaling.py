"""Stabilizer-backend scaling: Clifford workloads far beyond dense reach.

Every dense backend in the matrix pays ``2^n`` (or ``(B, 2^n)``) state cost
and the knowledge-compilation backend pays a structure-dependent compile, so
none of them reach 50+ qubits on generic circuits.  The Clifford workloads
of the validation suite — GHZ preparation, hidden shift, the Clifford
skeleton of random circuit sampling — are ``O(poly(n))`` on the stabilizer
tableau, and this experiment demonstrates the scaling: time to draw
``num_samples`` measurement records as the qubit count grows, through
``repro.device("auto")`` so the per-circuit routing decision is part of
what is measured.

At qubit counts where the dense baseline is still feasible the state-vector
time is reported alongside for reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..algorithms import ghz_circuit, hidden_shift_circuit, random_clifford_circuit
from ..api.device import device
from ..statevector import StateVectorSimulator
from .common import ExperimentResult, time_callable

#: Largest qubit count the dense reference column is computed for.
DENSE_REFERENCE_CAP = 12


def _instance(workload: str, num_qubits: int, seed: int):
    if workload == "ghz":
        return ghz_circuit(num_qubits)
    if workload == "hidden_shift":
        shift = [(seed >> (i % 16)) & 1 ^ (i & 1) for i in range(num_qubits)]
        return hidden_shift_circuit(shift)
    if workload == "random_clifford":
        return random_clifford_circuit(num_qubits, depth=max(20, num_qubits), seed=seed)
    raise ValueError(f"unknown workload {workload!r}")


def run(
    workloads: Sequence[str] = ("ghz", "hidden_shift", "random_clifford"),
    qubit_counts: Optional[Sequence[int]] = None,
    num_samples: int = 1000,
    seed: int = 7,
) -> ExperimentResult:
    """Sampling time vs. qubit count for Clifford workloads via hybrid dispatch."""
    if qubit_counts is None:
        qubit_counts = [8, 16, 32, 64]
    rows: List[Dict] = []
    for workload in workloads:
        for num_qubits in qubit_counts:
            if workload == "hidden_shift" and num_qubits % 2:
                num_qubits += 1
            instance = _instance(workload, num_qubits, seed)
            dev = device("auto", seed=seed)
            _, elapsed = time_callable(
                lambda: dev.sample(instance.circuit, num_samples, seed=seed)
            )
            row: Dict = {
                "workload": workload,
                "qubits": num_qubits,
                "gates": instance.circuit.gate_count(),
                "samples": num_samples,
                "routed_backend": dev.decide(instance.circuit, repetitions=num_samples).backend,
                "hybrid_seconds": round(elapsed, 4),
            }
            if num_qubits <= DENSE_REFERENCE_CAP:
                dense = StateVectorSimulator(seed=seed)
                _, dense_elapsed = time_callable(
                    lambda: dense.sample(instance.circuit, num_samples, seed=seed)
                )
                row["state_vector_seconds"] = round(dense_elapsed, 4)
            rows.append(row)
    return ExperimentResult(
        "stabilizer_scaling",
        "Clifford-workload sampling time vs qubits (stabilizer via hybrid dispatch)",
        rows,
    )


# Harness entry points (see repro.experiments.runner).
QUICK_RUNS = [
    ("run", {"qubit_counts": [8, 16], "num_samples": 200}),
]
FULL_RUNS = [
    ("run", {"qubit_counts": [8, 16, 32, 64], "num_samples": 1000}),
]
