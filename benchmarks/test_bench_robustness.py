"""Fault-free overhead of the fault-tolerant policy.

On the 100-point BENCH_api workload (shared-topology QAOA sweep, exact
sampling on one compile), a submission that carries retries *and* durable
checkpointing — but suffers no faults — must cost at most 10% more wall
clock than a plain submission.  Both run on the same engine: ``jobs=1``
submissions take the scheduler's inline loop whatever their policy (the
device's live simulator instances and their compile cache are reused;
payloads never pickle), so the difference is the policy's own cost, kept
small by checkpointing rows as single appends to one write-ahead log (no
per-item file create/rename, no per-row fsync — the per-record content
fingerprint catches torn writes on load instead).

Plain and guarded runs are interleaved and each takes the best of several
attempts, so slow drift in machine load cancels out of the ratio.  Results
are emitted as machine-readable ``BENCH_robustness.json`` in the benchmark
output directory (``BENCH_OUTPUT_DIR``, see ``conftest.py``) so CI can track
the overhead trajectory.
"""

import os
import time

import numpy as np
import pytest

from repro.api.device import Device
from repro.bench import emit_bench
from repro.api.faults import RetryPolicy
from repro.knowledge.cache import CompiledCircuitCache
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.variational import QAOACircuit, random_regular_maxcut

NUM_QUBITS = 6
NUM_POINTS = 100
REPETITIONS = 64
# CI overrides the ceiling (shared runners make wall-clock ratios flaky)
# while keeping the bit-identical-results assertion active.
MAX_OVERHEAD = float(os.environ.get("BENCH_ROBUSTNESS_MAX_OVERHEAD", "0.10"))

_BENCH_NAME = "BENCH_robustness.json"


@pytest.fixture(scope="module")
def ansatz():
    return QAOACircuit(random_regular_maxcut(NUM_QUBITS, seed=9), iterations=1)


@pytest.fixture(scope="module")
def sweep_points(ansatz):
    rng = np.random.default_rng(13)
    grid = rng.uniform(0.15, 1.4, size=(NUM_POINTS, ansatz.num_parameters))
    return [ansatz.resolver(list(row)) for row in grid]


def _device():
    simulator = KnowledgeCompilationSimulator(seed=1, cache=CompiledCircuitCache())
    return Device(
        backend="knowledge_compilation",
        instances={"knowledge_compilation": simulator},
    )


def _best_of_interleaved(runs, *fns):
    """Best wall clock for each of ``fns``, measured in alternation."""
    best = [None] * len(fns)
    results = [None] * len(fns)
    for _ in range(runs):
        for position, fn in enumerate(fns):
            start = time.perf_counter()
            results[position] = fn()
            elapsed = time.perf_counter() - start
            if best[position] is None or elapsed < best[position]:
                best[position] = elapsed
    return best, results


class TestFaultFreeOverhead:
    def test_retries_and_checkpointing_cost_at_most_10_percent(
        self, ansatz, sweep_points, tmp_path_factory, bench_output_dir
    ):
        plain_dev = _device()
        guarded_dev = _device()
        # Warm both devices (compile + caches) outside the timed region.
        plain_dev.run(
            ansatz.circuit, params=sweep_points[:1], repetitions=4, seed=0
        ).result()
        guarded_dev.run(
            ansatz.circuit, params=sweep_points[:1], repetitions=4, seed=0
        ).result()

        def plain():
            job = plain_dev.run(
                ansatz.circuit, params=sweep_points, repetitions=REPETITIONS, seed=0
            )
            return job.result()

        # Journal directories are pre-created so the timed region measures
        # the engine, not pytest's tmp-dir bookkeeping.
        checkpoints = iter(
            [tmp_path_factory.mktemp(f"journal-{run}") for run in range(8)]
        )
        def guarded():
            checkpoint = next(checkpoints)
            job = guarded_dev.run(
                ansatz.circuit,
                params=sweep_points,
                repetitions=REPETITIONS,
                seed=0,
                retry=RetryPolicy(),
                checkpoint=str(checkpoint),
            )
            return job.result()

        (plain_seconds, guarded_seconds), (plain_result, guarded_result) = (
            _best_of_interleaved(7, plain, guarded)
        )

        assert len(plain_result) == len(guarded_result) == NUM_POINTS
        # Fault tolerance must not change results: bit-identical samples.
        assert plain_result.counts() == guarded_result.counts()

        overhead = guarded_seconds / max(plain_seconds, 1e-9) - 1.0
        emit_bench(
            bench_output_dir / _BENCH_NAME,
            {
                "benchmark": "fault_tolerant_run_overhead_vs_plain_run",
                "qubits": NUM_QUBITS,
                "points": NUM_POINTS,
                "repetitions": REPETITIONS,
                "plain_seconds": round(plain_seconds, 6),
                "fault_tolerant_seconds": round(guarded_seconds, 6),
                "overhead_fraction": round(overhead, 4),
                "max_overhead_fraction": MAX_OVERHEAD,
                "points_per_second_plain": round(NUM_POINTS / plain_seconds, 3),
                "points_per_second_fault_tolerant": round(
                    NUM_POINTS / guarded_seconds, 3
                ),
            },
        )

        assert overhead <= MAX_OVERHEAD, (
            f"retries+checkpointing cost {overhead:.1%} on the fault-free path "
            f"({plain_seconds:.2f}s plain vs {guarded_seconds:.2f}s guarded); "
            f"see {_BENCH_NAME}"
        )
