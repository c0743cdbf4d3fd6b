"""Figure 8: sampling performance for ideal (noise-free) circuits.

Four panels in the paper: QAOA and VQE, one and two algorithm iterations,
plotting the time to draw 1000 samples against the number of qubits for
three backends — a state-vector simulator (qsim), a tensor-network simulator
(qTorch) and the knowledge-compilation simulator.

This experiment reproduces the sweep at configurable (laptop-scale) sizes.
Knowledge-compilation timings separate the one-off compile cost from the
per-iteration sampling cost, since in the variational setting the compiled
circuit is reused across every optimizer iteration (the paper's headline
feature); the reported ``sample_seconds`` is the apples-to-apples
"draw N samples for one parameter binding" number.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..api.device import device
from ..simulator.kc_simulator import KnowledgeCompilationSimulator
from ..statevector import StateVectorSimulator
from ..tensornetwork import TensorNetworkSimulator
from ..variational import QAOACircuit, VQECircuit, random_regular_maxcut, square_grid_ising
from .common import ExperimentResult, time_callable


def _qaoa_ansatz(num_qubits: int, iterations: int, seed: int) -> QAOACircuit:
    return QAOACircuit(random_regular_maxcut(num_qubits, seed=seed), iterations=iterations)


def _vqe_ansatz(num_qubits: int, iterations: int, seed: int) -> VQECircuit:
    return VQECircuit(square_grid_ising(num_qubits, seed=seed), iterations=iterations)


def _parameters_for(ansatz, rng: np.random.Generator) -> Sequence[float]:
    return rng.uniform(0.2, 0.9, size=ansatz.num_parameters)


def run(
    workload: str = "qaoa",
    iterations: int = 1,
    qubit_counts: Optional[Sequence[int]] = None,
    num_samples: int = 1000,
    seed: int = 9,
    backends: Optional[Sequence[str]] = None,
    tensor_network_sample_cap: int = 40,
) -> ExperimentResult:
    """One Figure 8 panel: time to draw ``num_samples`` vs. qubit count.

    ``tensor_network_sample_cap`` bounds the number of samples actually drawn
    by the tensor-network backend (its per-sample contraction cost makes full
    1000-sample runs impractical at larger sizes); the reported time is
    extrapolated linearly to ``num_samples``, which is conservative towards
    the baseline.
    """
    if workload not in ("qaoa", "vqe"):
        raise ValueError("workload must be 'qaoa' or 'vqe'")
    if qubit_counts is None:
        qubit_counts = [4, 6, 8, 10] if workload == "qaoa" else [4, 6, 9]
    if backends is None:
        backends = ["state_vector", "tensor_network", "knowledge_compilation"]

    rng = np.random.default_rng(seed)
    rows: List[Dict] = []
    for num_qubits in qubit_counts:
        ansatz = (
            _qaoa_ansatz(num_qubits, iterations, seed)
            if workload == "qaoa"
            else _vqe_ansatz(num_qubits, iterations, seed)
        )
        parameters = _parameters_for(ansatz, rng)
        resolver = ansatz.resolver(list(parameters))
        resolved_circuit = ansatz.circuit.resolve_parameters(resolver)

        row: Dict = {
            "workload": workload,
            "iterations": iterations,
            "qubits": num_qubits,
            "gates": ansatz.circuit.gate_count(),
            "samples": num_samples,
        }
        if "state_vector" in backends:
            simulator = StateVectorSimulator(seed=seed)
            _, elapsed = time_callable(
                lambda: simulator.sample(resolved_circuit, num_samples, seed=seed)
            )
            row["state_vector_seconds"] = round(elapsed, 4)
        if "hybrid" in backends:
            # The dispatcher route: QAOA/VQE angles are generically
            # non-Clifford, so this measures classification overhead plus the
            # fallback backend; the routed backend is reported per row.
            dev = device("auto", seed=seed)
            _, elapsed = time_callable(
                lambda: dev.sample(resolved_circuit, num_samples, seed=seed)
            )
            row["hybrid_seconds"] = round(elapsed, 4)
            row["hybrid_route"] = dev.decide(resolved_circuit, repetitions=num_samples).backend
        if "tensor_network" in backends:
            simulator = TensorNetworkSimulator(seed=seed)
            capped = min(num_samples, tensor_network_sample_cap)
            _, elapsed = time_callable(
                lambda: simulator.sample(resolved_circuit, capped, seed=seed, burn_in=4)
            )
            row["tensor_network_seconds"] = round(elapsed * (num_samples / capped), 4)
        if "knowledge_compilation" in backends:
            simulator = KnowledgeCompilationSimulator(order_method="hypergraph", seed=seed)
            compiled, compile_elapsed = time_callable(
                lambda: simulator.compile_circuit(ansatz.circuit)
            )
            _, sample_elapsed = time_callable(
                lambda: simulator.sample(compiled, num_samples, resolver=resolver, seed=seed)
            )
            row["knowledge_compilation_seconds"] = round(sample_elapsed, 4)
            row["knowledge_compilation_compile_seconds"] = round(compile_elapsed, 4)
            row["ac_nodes"] = compiled.arithmetic_circuit.num_nodes
        rows.append(row)
    return ExperimentResult(
        f"figure8_{workload}_iterations{iterations}",
        f"Ideal-circuit sampling time vs qubits ({workload.upper()}, {iterations} iteration(s))",
        rows,
    )


def run_all_panels(
    qaoa_qubits: Optional[Sequence[int]] = None,
    vqe_qubits: Optional[Sequence[int]] = None,
    num_samples: int = 1000,
    seed: int = 9,
) -> List[ExperimentResult]:
    """All four Figure 8 panels."""
    results = []
    for iterations in (1, 2):
        results.append(run("qaoa", iterations, qaoa_qubits, num_samples, seed))
        results.append(run("vqe", iterations, vqe_qubits, num_samples, seed))
    return results


# Harness entry points (see repro.experiments.runner): quick mode runs two
# reduced panels, the full harness all four.
QUICK_RUNS = [
    ("run", {"workload": "qaoa", "iterations": 1, "qubit_counts": [4, 6, 8], "num_samples": 200}),
    ("run", {"workload": "vqe", "iterations": 1, "qubit_counts": [4, 6], "num_samples": 200}),
]
FULL_RUNS = [("run_all_panels", {"num_samples": 1000})]
