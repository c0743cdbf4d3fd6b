"""Job lifecycle tests: cancellation, error propagation, seeding parity.

The satellite contract of the Device/Job redesign:

* cancelling a job mid-batch stops not-yet-started tasks, keeps completed
  rows reachable, and makes ``result()`` raise ``JobCancelledError``;
* a worker exception crosses the process boundary with its **original**
  type (the remote traceback attached as ``__cause__``);
* serial (``jobs=1``), pooled (``jobs>1``) and async (``block=False``)
  runs of the same seeded batch are bit-identical under every policy —
  plain, retried, partial and checkpointed (``seed + index`` fan-out is
  independent of scheduling);
* a plain pooled job contains a SIGKILLed worker: only that task fails,
  with ``WorkerCrashedError``, and the other tasks keep their rows;
* pooled knowledge-compilation tasks rebind the compile shipped in their
  payload with the device simulator's own settings, under ``fork`` and
  ``spawn`` alike.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro import (
    CNOT,
    ZZ,
    Circuit,
    Device,
    H,
    JobCancelledError,
    JobTimeoutError,
    KnowledgeCompilationSimulator,
    LineQubit,
    ParamResolver,
    RetryPolicy,
    Rx,
    Symbol,
    TransientError,
    UnsupportedCircuitError,
    depolarize,
    device,
)
from repro.api import scheduler
from repro.errors import BackendCapabilityError, JobError, WorkerCrashedError


def _echo_task(payload):
    return [(payload["index"], payload["value"])]


def _slow_task(payload):
    time.sleep(payload.get("sleep", 0.2))
    return [(payload["index"], payload["value"])]


def _failing_task(payload):
    raise UnsupportedCircuitError(f"boom on {payload['index']}")


def _killed_task(payload):
    # Outlive the other tasks, then die without reporting.
    time.sleep(payload["sleep"])
    os.kill(os.getpid(), signal.SIGKILL)


class TestSchedulerLifecycle:
    def test_inline_job_is_done_immediately(self):
        job = scheduler.submit([(_echo_task, {"index": i, "value": i * i}) for i in range(4)])
        assert job.status() == scheduler.DONE
        assert job.result() == [0, 1, 4, 9]

    def test_async_job_completes_in_background(self):
        tasks = [(_echo_task, {"index": i, "value": i}) for i in range(6)]
        job = scheduler.submit(tasks, jobs=2, block=False)
        assert job.result(timeout=60) == list(range(6))
        assert job.status() == scheduler.DONE

    def test_cancel_mid_batch_keeps_partial_results(self):
        # One worker, staggered tasks: cancel as soon as the first row lands.
        tasks = [(_slow_task, {"index": i, "value": i, "sleep": 0.3}) for i in range(8)]
        job = scheduler.submit(tasks, jobs=1, block=False)
        deadline = time.time() + 30
        while not job.partial_results() and time.time() < deadline:
            time.sleep(0.02)
        assert job.cancel()
        job.wait(timeout=30)
        assert job.status() == scheduler.CANCELLED
        partial = job.partial_results()
        assert 1 <= len(partial) < len(tasks)
        with pytest.raises(JobCancelledError):
            job.result()
        # Cancelling a finished job is a no-op.
        assert not job.cancel()

    def test_worker_failure_reraises_original_type(self):
        tasks = [(_echo_task, {"index": 0, "value": 0}), (_failing_task, {"index": 1})]
        job = scheduler.submit(tasks, jobs=2, block=True)
        assert job.status() == scheduler.FAILED
        with pytest.raises(UnsupportedCircuitError, match="boom on 1"):
            job.result()
        # The remote traceback rides along as the cause.
        try:
            job.result()
        except UnsupportedCircuitError as error:
            assert "worker traceback" in str(error.__cause__)

    def test_inline_failure_reraises_original_type(self):
        job = scheduler.submit([(_failing_task, {"index": 0})])
        with pytest.raises(UnsupportedCircuitError):
            job.result()

    def test_plain_pooled_job_contains_sigkilled_worker(self):
        tasks = [(_echo_task, {"index": i, "value": i * 10}) for i in (0, 2, 3)]
        tasks.insert(1, (_killed_task, {"index": 1, "sleep": 1.5}))
        job = scheduler.submit(tasks, jobs=2)
        assert job.status() == scheduler.FAILED
        with pytest.raises(WorkerCrashedError) as excinfo:
            job.result()
        assert isinstance(excinfo.value.__cause__, JobError)
        assert job.partial_results() == {0: 0, 2: 20, 3: 30}
        assert len(job.failures()) == 1

    def test_stream_yields_rows_in_arrival_order(self):
        tasks = [(_echo_task, {"index": i, "value": -i}) for i in range(5)]
        job = scheduler.submit(tasks, jobs=2, block=False)
        rows = dict(job.stream(timeout=60))
        assert rows == {i: -i for i in range(5)}


@pytest.fixture(scope="module")
def mixed_batch():
    q = LineQubit.range(3)
    bell = Circuit([H(q[0]), CNOT(q[0], q[1])])
    rotated = [
        Circuit([H(q[0]), Rx(0.1 + 0.2 * k)(q[1]), CNOT(q[1], q[2])]) for k in range(4)
    ]
    noisy = bell.with_noise(lambda: depolarize(0.05))
    return [bell, noisy, *rotated, bell, noisy]


@pytest.fixture(scope="module")
def plain_serial_run(mixed_batch):
    result = device("auto", seed=11).run(mixed_batch, repetitions=40, seed=17).result()
    return result.backends(), result.counts()


class TestDeviceJobLifecycle:
    @pytest.mark.parametrize("policy", ["plain", "retry", "partial", "checkpoint"])
    def test_serial_parallel_and_async_runs_are_identical(
        self, mixed_batch, plain_serial_run, policy, tmp_path
    ):
        runs = {}
        for label, kwargs in {
            "serial": dict(jobs=1, block=True),
            "parallel": dict(jobs=2, block=True),
            "async": dict(jobs=2, block=False),
        }.items():
            options = {
                "plain": {},
                "retry": {"retry": RetryPolicy()},
                "partial": {"on_error": "partial"},
                "checkpoint": {"checkpoint": str(tmp_path / label)},
            }[policy]
            job = device("auto", seed=11).run(
                mixed_batch, repetitions=40, seed=17, **kwargs, **options
            )
            result = job.result(timeout=120)
            runs[label] = (result.backends(), result.counts())
        assert runs["serial"] == runs["parallel"] == runs["async"] == plain_serial_run

    def test_worker_exception_keeps_original_type_through_device(self, mixed_batch):
        noisy = mixed_batch[1]
        job = device("kc", seed=0).run(
            [noisy, noisy], repetitions=10, sampling="exact", jobs=2, block=False
        )
        with pytest.raises(BackendCapabilityError, match="exact sampling"):
            job.result(timeout=120)
        assert job.status() == scheduler.FAILED

    def test_device_job_cancellation(self, mixed_batch):
        # Enough repetitions that the single worker cannot drain the queue
        # before cancel() lands.
        job = device("auto", seed=3).run(
            mixed_batch * 6, repetitions=2000, seed=5, jobs=1, block=False
        )
        job.cancel()
        job.wait(timeout=120)
        assert job.status() == scheduler.CANCELLED
        with pytest.raises(JobCancelledError):
            job.result()
        assert len(job.partial_results()) < len(mixed_batch) * 6

    def test_streaming_partial_results(self, mixed_batch):
        job = device("auto", seed=1).run(
            mixed_batch, repetitions=10, seed=2, jobs=2, block=False
        )
        seen = sorted(index for index, _row in job.stream(timeout=120))
        assert seen == list(range(len(mixed_batch)))


class TestJobTimeouts:
    def test_wait_timeout_raises_job_timeout_error(self):
        tasks = [(_slow_task, {"index": 0, "value": 0, "sleep": 5.0})]
        job = scheduler.submit(tasks, jobs=1, block=False)
        try:
            with pytest.raises(JobTimeoutError):
                job.wait(timeout=0.1)
        finally:
            job.cancel()
            job.wait(timeout=60)

    def test_result_timeout_raises_job_timeout_error(self):
        tasks = [(_slow_task, {"index": 0, "value": 0, "sleep": 5.0})]
        job = scheduler.submit(tasks, jobs=1, block=False)
        try:
            with pytest.raises(JobTimeoutError):
                job.result(timeout=0.1)
        finally:
            job.cancel()
            job.wait(timeout=60)

    def test_job_timeout_error_is_timeout_error_compatible(self):
        # Callers catching the builtin TimeoutError keep working.
        tasks = [(_slow_task, {"index": 0, "value": 0, "sleep": 5.0})]
        job = scheduler.submit(tasks, jobs=1, block=False)
        try:
            with pytest.raises(TimeoutError):
                job.wait(timeout=0.1)
        finally:
            job.cancel()
            job.wait(timeout=60)

    def test_wait_returns_true_on_completion(self):
        job = scheduler.submit([(_echo_task, {"index": 0, "value": 7})])
        assert job.wait(timeout=1) is True
        assert job.wait() is True  # terminal jobs never block


class TestCancelRaces:
    def test_cancel_mid_item_keeps_completed_partials(self):
        # Fault-tolerant pooled engine: cancel while an item is mid-flight;
        # rows completed before the cancel stay reachable.
        tasks = [
            (_slow_task, {"index": i, "value": i, "sleep": 0.05 if i < 2 else 2.0}, (i,), f"item-{i}")
            for i in range(6)
        ]
        job = scheduler.submit(
            tasks, jobs=1, block=False, retry=scheduler.RetryPolicy(max_attempts=1)
        )
        deadline = time.time() + 30
        while len(job.partial_results()) < 2 and time.time() < deadline:
            time.sleep(0.02)
        assert job.cancel()
        job.wait(timeout=60)
        assert job.status() == scheduler.CANCELLED
        partial = job.partial_results()
        assert 2 <= len(partial) < len(tasks)
        assert partial[0] == 0 and partial[1] == 1
        with pytest.raises(JobCancelledError):
            job.result()

    def test_cancel_after_completion_is_noop(self):
        job = scheduler.submit([(_echo_task, {"index": 0, "value": 1})])
        assert job.status() == scheduler.DONE
        assert not job.cancel()
        assert job.status() == scheduler.DONE
        assert job.result() == [1]  # result still reachable after the no-op

    def test_double_cancel_is_idempotent(self):
        tasks = [(_slow_task, {"index": i, "value": i, "sleep": 0.5}) for i in range(4)]
        job = scheduler.submit(tasks, jobs=1, block=False)
        first = job.cancel()
        second = job.cancel()
        assert first
        assert not second
        job.wait(timeout=60)
        assert job.status() == scheduler.CANCELLED

    def test_cancel_during_retry_backoff_stops_promptly(self):
        # The inline resilient loop must observe the cancel while sleeping
        # out a retry delay instead of burning the full attempt budget.
        def _always_transient(payload):
            raise TransientError("never succeeds")

        policy = scheduler.RetryPolicy(
            max_attempts=50, backoff_base=0.2, backoff_factor=1.0, jitter=0.0
        )
        tasks = [(_always_transient, {"index": 0}, (0,), "item-0")]
        started = time.time()

        import threading

        job_holder = {}

        def _cancel_soon():
            deadline = time.time() + 10
            while "job" not in job_holder and time.time() < deadline:
                time.sleep(0.01)
            time.sleep(0.3)
            job_holder["job"].cancel()

        canceller = threading.Thread(target=_cancel_soon)
        canceller.start()
        job = scheduler.submit(tasks, jobs=2, block=False, retry=policy)
        job_holder["job"] = job
        job.wait(timeout=60)
        canceller.join()
        assert job.status() == scheduler.CANCELLED
        assert time.time() - started < 30

    def test_cancelled_fault_tolerant_job_raises_cancelled_not_job_error(self):
        tasks = [
            (_slow_task, {"index": i, "value": i, "sleep": 1.0}, (i,), f"item-{i}")
            for i in range(4)
        ]
        job = scheduler.submit(
            tasks, jobs=1, block=False, retry=scheduler.RetryPolicy(max_attempts=2)
        )
        job.cancel()
        job.wait(timeout=60)
        with pytest.raises(JobCancelledError):
            job.result()


def _noisy_sweep():
    """A noisy ansatz and four parameter points sharing one compile."""
    q = LineQubit.range(2)
    circuit = Circuit(
        [H(q[0]), ZZ(Symbol("g"))(q[0], q[1]), Rx(Symbol("b"))(q[1])]
    ).with_noise(lambda: depolarize(0.02))
    points = [ParamResolver({"g": 0.3 + 0.2 * k, "b": 1.1 - 0.15 * k}) for k in range(4)]
    return circuit, points


class TestPooledKnowledgeCompilation:
    @pytest.mark.parametrize("construction", ["instance", "options"])
    def test_pooled_workers_sample_with_the_device_burn_in(self, construction):
        def build():
            if construction == "options":
                return device("kc", seed=4, burn_in_sweeps=9)
            simulator = KnowledgeCompilationSimulator(burn_in_sweeps=9)
            return Device(
                "knowledge_compilation",
                seed=4,
                instances={"knowledge_compilation": simulator},
            )

        circuit, points = _noisy_sweep()
        options = dict(params=points, repetitions=60, seed=23, sampling="gibbs")
        serial = build().run(circuit, jobs=1, **options).result()
        pooled = build().run(circuit, jobs=2, **options).result(timeout=120)
        assert serial.counts() == pooled.counts()

    def test_spawned_workers_match_serial_run(self, monkeypatch):
        # Spawned workers receive their payload pickled, compile included.
        circuit, points = _noisy_sweep()
        options = dict(
            params=points,
            observables=["probabilities", "samples"],
            repetitions=60,
            seed=23,
            sampling="gibbs",
        )
        serial = device("kc", seed=4).run(circuit, jobs=1, **options).result()
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(scheduler.multiprocessing, "get_context", lambda *args: spawn)
        pooled = device("kc", seed=4).run(circuit, jobs=2, **options).result(timeout=120)
        assert np.array_equal(serial.probabilities(), pooled.probabilities())
        assert serial.counts() == pooled.counts()
