"""Unified benchmark harness: every headline workload, one ``BENCH_all.json``.

One seeded run measures the repository's five headline performance claims
and emits a single machine-readable artifact (committed at the repository root, regenerated per PR):

* **api** — batched ``Device.run()`` vs a per-circuit ``sample()`` loop
  (the ``BENCH_api.json`` workload);
* **sweep** — compile-once parameter sweep vs per-point recompilation;
* **stabilizer** — 56-qubit depth-120 Clifford sampling latency;
* **optimizer** — circuit-rewrite pipeline compile/sweep reductions
  (the ``BENCH_optimizer.json`` workload);
* **robustness** — fault-free overhead of retries + checkpointing
  (the ``BENCH_robustness.json`` workload).

Every workload is seeded; wall-clock numbers vary by machine but the
schema and the seeded circuits do not.  ``tools/check_bench_trajectory.py``
gates a fresh run against the committed artifact's floors.

Usage::

    PYTHONPATH=src python benchmarks/bench_all.py
    PYTHONPATH=src python benchmarks/bench_all.py --only api,stabilizer

``--only`` exists for local iteration; a partial artifact fails the
trajectory check, so it cannot be committed unnoticed.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.bench import emit_bench  # noqa: E402

SECTIONS = ("api", "sweep", "stabilizer", "optimizer", "robustness")

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_all.json"


def _qaoa_workload(num_points, seed=13):
    """The shared-topology QAOA sweep behind the api/robustness workloads."""
    from repro.variational import QAOACircuit, random_regular_maxcut

    ansatz = QAOACircuit(random_regular_maxcut(6, seed=9), iterations=1)
    rng = np.random.default_rng(seed)
    grid = rng.uniform(0.15, 1.4, size=(num_points, ansatz.num_parameters))
    return ansatz, [ansatz.resolver(list(row)) for row in grid]


def bench_api():
    """Batched ``Device.run()`` vs the legacy per-circuit ``sample()`` loop."""
    from repro.api.device import Device
    from repro.knowledge.cache import CompiledCircuitCache
    from repro.simulator.kc_simulator import KnowledgeCompilationSimulator

    num_points, repetitions = 100, 64
    ansatz, points = _qaoa_workload(num_points)

    simulator = KnowledgeCompilationSimulator(seed=1, cache=CompiledCircuitCache())
    start = time.perf_counter()
    for index, resolver in enumerate(points):
        simulator.sample(ansatz.circuit, repetitions, resolver=resolver, seed=index)
    loop_seconds = time.perf_counter() - start

    dev = Device(
        backend="knowledge_compilation",
        instances={
            "knowledge_compilation": KnowledgeCompilationSimulator(
                seed=1, cache=CompiledCircuitCache()
            )
        },
    )
    start = time.perf_counter()
    rows = dev.run(ansatz.circuit, params=points, repetitions=repetitions, seed=0).result()
    batched_seconds = time.perf_counter() - start
    assert len(rows) == num_points

    speedup = loop_seconds / max(batched_seconds, 1e-9)
    return {
        "workload": f"qaoa maxcut n=6, {num_points}-point batch, {repetitions} shots",
        "per_circuit_loop_seconds": round(loop_seconds, 6),
        "batched_run_seconds": round(batched_seconds, 6),
        "speedup": round(speedup, 3),
    }


def bench_sweep():
    """Compile-once parameter sweep vs per-point recompilation."""
    from repro.api.device import Device
    from repro.knowledge.cache import CompiledCircuitCache
    from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
    from repro.variational import QAOACircuit, random_regular_maxcut

    num_points = 24
    ansatz = QAOACircuit(random_regular_maxcut(6, seed=9), iterations=1)
    rng = np.random.default_rng(7)
    grid = rng.uniform(0.15, 1.4, size=(num_points, ansatz.num_parameters))
    points = [ansatz.resolver(list(row)) for row in grid]

    start = time.perf_counter()
    fresh = []
    for resolver in points:
        simulator = KnowledgeCompilationSimulator(seed=1, cache=None)
        resolved = ansatz.circuit.resolve_parameters(resolver)
        fresh.append(simulator.compile_circuit(resolved).probabilities())
    recompile_seconds = time.perf_counter() - start

    simulator = KnowledgeCompilationSimulator(seed=1, cache=CompiledCircuitCache())
    dev = Device("knowledge_compilation", instances={"knowledge_compilation": simulator})
    dev.ensure_compiled(ansatz.circuit)  # the one compile, outside the timer
    start = time.perf_counter()
    cached = (
        dev.run(ansatz.circuit, params=points, observables=["probabilities"], sampling="gibbs")
        .result()
        .probabilities()
    )
    sweep_seconds = time.perf_counter() - start
    assert float(np.max(np.abs(cached - np.stack(fresh)))) < 1e-10

    speedup = recompile_seconds / max(sweep_seconds, 1e-9)
    return {
        "workload": f"qaoa maxcut n=6, {num_points}-point sweep",
        "per_point_recompile_seconds": round(recompile_seconds, 6),
        "compile_once_sweep_seconds": round(sweep_seconds, 6),
        "speedup": round(speedup, 3),
    }


def bench_stabilizer():
    """56-qubit depth-120 Clifford sampling latency on the tableau backend."""
    from repro.algorithms import random_clifford_circuit
    from repro.stabilizer import StabilizerSimulator

    num_qubits, depth, num_samples = 56, 120, 1000
    circuit = random_clifford_circuit(num_qubits, depth, seed=23).circuit
    simulator = StabilizerSimulator(seed=7)
    start = time.perf_counter()
    samples = simulator.sample(circuit, num_samples, seed=7)
    elapsed = time.perf_counter() - start
    assert len(samples) == num_samples
    return {
        "workload": f"random clifford n={num_qubits} depth={depth}, {num_samples} shots",
        "sampling_seconds": round(elapsed, 6),
        "budget_seconds": 1.0,
    }


def bench_optimizer():
    """Circuit-rewrite pipeline: fusion sweep speedup + light-cone reduction."""
    from repro.api.device import Device
    from repro.circuits import Circuit, measure
    from repro.circuits.gates import _RotationGate
    from repro.circuits.passes import default_pipeline
    from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
    from repro.variational import QAOACircuit, random_regular_maxcut

    num_points = 40
    ansatz = QAOACircuit(random_regular_maxcut(8, seed=5), iterations=1)

    # Light-cone pruning on a single-edge observable (structural metrics).
    resolved = ansatz.circuit.resolve_parameters(ansatz.resolver([0.6, 0.4]))
    edge = ansatz.problem.edges[0]
    measured = Circuit(resolved.all_operations())
    measured.append(measure(ansatz.qubits[edge[0]], ansatz.qubits[edge[1]], key="edge"))
    compiler = KnowledgeCompilationSimulator(cache=None)
    baseline = compiler.compile_circuit(measured).compilation_metrics()
    pruned = compiler.compile_circuit(measured, optimize="auto").compilation_metrics()

    # Rotation fusion on the half-angle-split ansatz, timed over a sweep.
    split = Circuit()
    for operation in ansatz.circuit.all_operations():
        gate = operation.gate
        if isinstance(gate, _RotationGate):
            half = type(gate)(0.5 * gate.angle)
            split.append([half(*operation.qubits), half(*operation.qubits)])
        else:
            split.append(operation)
    rng = np.random.default_rng(7)
    grid = rng.uniform(0.1, 1.3, size=(num_points, ansatz.num_parameters))
    points = [ansatz.resolver(list(row)) for row in grid]

    def sweep(circuit):
        simulator = KnowledgeCompilationSimulator(cache=None)
        dev = Device("knowledge_compilation", instances={"knowledge_compilation": simulator})
        return dev.run(circuit, params=points, sampling="gibbs").result()

    start = time.perf_counter()
    plain = sweep(split)
    plain_seconds = time.perf_counter() - start

    start = time.perf_counter()
    optimized = sweep(default_pipeline().run(split).circuit)
    optimized_seconds = time.perf_counter() - start
    assert float(np.max(np.abs(optimized.probabilities() - plain.probabilities()))) < 1e-10

    speedup = plain_seconds / max(optimized_seconds, 1e-9)
    return {
        "workload": (
            f"qaoa maxcut n=8, rotations split into half-angle pairs, "
            f"{num_points}-point sweep"
        ),
        "light_cone_ac_nodes_reduction": round(
            1 - pruned["ac_nodes"] / baseline["ac_nodes"], 3
        ),
        "fusion_sweep_seconds": {
            "off": round(plain_seconds, 4),
            "auto": round(optimized_seconds, 4),
        },
        "speedup": round(speedup, 3),
    }


def bench_robustness():
    """Fault-free overhead of retries + checkpointing vs a plain run."""
    from repro.api.device import Device
    from repro.api.faults import RetryPolicy
    from repro.knowledge.cache import CompiledCircuitCache
    from repro.simulator.kc_simulator import KnowledgeCompilationSimulator

    num_points, repetitions, runs = 100, 64, 5
    ansatz, points = _qaoa_workload(num_points)

    def make_device():
        return Device(
            backend="knowledge_compilation",
            instances={
                "knowledge_compilation": KnowledgeCompilationSimulator(
                    seed=1, cache=CompiledCircuitCache()
                )
            },
        )

    plain_dev, guarded_dev = make_device(), make_device()
    for dev in (plain_dev, guarded_dev):
        dev.run(ansatz.circuit, params=points[:1], repetitions=4, seed=0).result()

    with tempfile.TemporaryDirectory(prefix="bench-robustness-") as tmp:
        checkpoints = iter(
            [Path(tmp) / f"journal-{run}" for run in range(runs)]
        )
        best_plain = best_guarded = None
        plain_counts = guarded_counts = None
        for _ in range(runs):
            start = time.perf_counter()
            plain_counts = plain_dev.run(
                ansatz.circuit, params=points, repetitions=repetitions, seed=0
            ).result().counts()
            elapsed = time.perf_counter() - start
            best_plain = elapsed if best_plain is None else min(best_plain, elapsed)

            checkpoint = next(checkpoints)
            checkpoint.mkdir()
            start = time.perf_counter()
            guarded_counts = guarded_dev.run(
                ansatz.circuit,
                params=points,
                repetitions=repetitions,
                seed=0,
                retry=RetryPolicy(),
                checkpoint=str(checkpoint),
            ).result().counts()
            elapsed = time.perf_counter() - start
            best_guarded = (
                elapsed if best_guarded is None else min(best_guarded, elapsed)
            )
        assert plain_counts == guarded_counts

    overhead = best_guarded / max(best_plain, 1e-9) - 1.0
    return {
        "workload": f"qaoa maxcut n=6, {num_points}-point batch, best of {runs}",
        "plain_seconds": round(best_plain, 6),
        "fault_tolerant_seconds": round(best_guarded, 6),
        "overhead_fraction": round(overhead, 4),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="BENCH_all.json path"
    )
    parser.add_argument(
        "--only",
        default=None,
        help=f"comma-separated subset of sections to run ({', '.join(SECTIONS)})",
    )
    options = parser.parse_args(argv)
    selected = SECTIONS if options.only is None else tuple(options.only.split(","))
    unknown = set(selected) - set(SECTIONS)
    if unknown:
        parser.error(f"unknown sections: {sorted(unknown)}")

    runners = {
        "api": bench_api,
        "sweep": bench_sweep,
        "stabilizer": bench_stabilizer,
        "optimizer": bench_optimizer,
        "robustness": bench_robustness,
    }
    payload = {"benchmark": "bench_all", "schema_version": 1}
    metrics = {}
    for section in SECTIONS:
        if section not in selected:
            continue
        print(f"[bench_all] {section} ...", flush=True)
        start = time.perf_counter()
        payload[section] = runners[section]()
        print(
            f"[bench_all] {section} done in {time.perf_counter() - start:.1f}s",
            flush=True,
        )
    if "api" in payload:
        metrics["api_speedup"] = payload["api"]["speedup"]
    if "sweep" in payload:
        metrics["sweep_speedup"] = payload["sweep"]["speedup"]
    if "stabilizer" in payload:
        metrics["stabilizer_seconds"] = payload["stabilizer"]["sampling_seconds"]
    if "optimizer" in payload:
        metrics["optimizer_speedup"] = payload["optimizer"]["speedup"]
    if "robustness" in payload:
        metrics["robustness_overhead"] = payload["robustness"]["overhead_fraction"]
    payload["metrics"] = metrics

    emit_bench(options.output, payload)
    print(f"[bench_all] wrote {options.output}")
    for name, value in metrics.items():
        print(f"  {name}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
