"""Async job scheduling: one engine, run inline or over worker processes.

The execution layer behind :meth:`repro.api.device.Device.run` and the
experiment harness.  A :class:`Job` owns a set of *tasks* — picklable
``(function, payload)`` pairs where ``function`` is module-level and returns
``[(item_index, row), ...]`` — and runs them through one engine with two
lanes:

* the **inline loop** (``jobs <= 1`` with ``block=True`` and no
  ``item_timeout``) runs the tasks one after another in this process, so
  payloads may carry live objects and nothing is pickled;
* the **pooled dispatcher** (everything else) runs every task attempt in a
  **dedicated worker process**, at most ``jobs`` at a time.  Killed workers
  take down only their own task: a worker that dies without reporting —
  SIGKILL, OOM — fails its task with a
  :class:`~repro.errors.WorkerCrashedError`, and a worker that exceeds
  ``item_timeout`` seconds of wall clock is killed and its task fails with a
  :class:`~repro.errors.JobTimeoutError`.

The handle reports progress the same way in both lanes:

* ``Job.status()`` reports ``pending`` / ``running`` / ``done`` /
  ``failed`` / ``cancelled``;
* ``Job.result()`` blocks for completion and returns the assembled rows in
  item order;
* ``Job.partial_results()`` and ``Job.stream()`` expose per-item rows as
  tasks complete (streaming partial results);
* ``Job.cancel()`` cancels every not-yet-started task and kills the workers
  still running; completed rows stay available through
  ``partial_results()``.

Policies
--------
What happens when a task fails is the submission's *policy*, not a
different engine:

* **plain** (the default): no retries, fail fast.  The first failure stops
  dispatch (tasks already running finish and keep their rows) and
  ``Job.result()`` re-raises the **original exception type** — the worker
  catches the error, returns it as data, and the parent re-raises it with
  the worker traceback attached as the ``__cause__`` (a
  :class:`~repro.errors.JobError` carrying the formatted remote traceback).
  Unpicklable exceptions degrade to a :class:`~repro.errors.JobError`
  describing the original.
* **fault tolerant** (any of ``retry`` / ``item_timeout`` / ``journal`` /
  ``on_error="partial"`` passed to :func:`submit`): each task re-runs under
  its :class:`~repro.api.faults.RetryPolicy` (exponential backoff,
  deterministic jitter, retryable-error classification); the task's payload
  is re-dispatched verbatim, so retried items keep their original
  ``seed + index`` and a faulted run converges to the bit-identical
  fault-free result.  A task that exhausts its retries becomes an
  :class:`~repro.api.faults.ItemFailure` record and the job *keeps going*.
  ``Job.result(on_error="raise")`` (the default) then raises a
  :class:`~repro.errors.JobError` aggregating every record, while
  ``on_error="partial"`` returns the successful rows (failures stay
  inspectable on ``Job.failures()``).

Every completed row checkpoints to the optional
:class:`~repro.api.journal.JobJournal` the moment it lands, so a later
:func:`~repro.api.journal.resume_job` replays nothing already done.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
import traceback
from collections import deque
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import (
    InvalidRequestError,
    JobCancelledError,
    JobError,
    JobTimeoutError,
    WorkerCrashedError,
)
from .faults import ItemFailure, RetryPolicy

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Poll interval of the pooled dispatcher (seconds).
_POLL_SECONDS = 0.05


class _RemoteFailure:
    """A worker exception captured as data so its type survives the pool."""

    def __init__(self, error: BaseException):
        self.traceback = "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        )
        try:
            pickle.dumps(error)
            self.error: BaseException = error
        except Exception:
            self.error = JobError(f"unpicklable worker error: {error!r}")


def run_task(task: Tuple[Callable, Any]):
    """Module-level worker entry point: run one task, capture failures as data.

    Accepts the plain ``(function, payload)`` pair and the extended
    ``(function, payload, indices, key)`` form interchangeably.
    """
    function, payload = task[0], task[1]
    try:
        return function(payload)
    except BaseException as error:  # noqa: BLE001 - repackaged for the parent
        return _RemoteFailure(error)


class _Task:
    """Bookkeeping for one task: its identity, attempts and live worker."""

    __slots__ = (
        "function",
        "payload",
        "indices",
        "key",
        "attempts",
        "not_before",
        "process",
        "conn",
        "deadline",
    )

    def __init__(self, position: int, task: Sequence):
        self.function, self.payload = task[0], task[1]
        self.indices: Tuple[int, ...] = (
            tuple(task[2]) if len(task) > 2 and task[2] is not None else ()
        )
        self.key: str = task[3] if len(task) > 3 and task[3] else f"task-{position}"
        self.attempts = 0
        self.not_before = 0.0
        self.process = None
        self.conn = None
        self.deadline: Optional[float] = None

    def start(self) -> Tuple[Callable, Any]:
        """The pair to run next; dict payloads learn their attempt number."""
        payload = self.payload
        if isinstance(payload, dict):
            payload = dict(payload, attempt=self.attempts)
        self.attempts += 1
        return (self.function, payload)


def _child_entry(conn, function, payload) -> None:
    """Entry point of a dedicated worker process."""
    outcome = run_task((function, payload))
    try:
        conn.send(outcome)
    except Exception as error:  # unpicklable rows degrade to a typed failure
        try:
            conn.send(_RemoteFailure(JobError(f"unpicklable worker result: {error!r}")))
        except Exception:  # reprolint: disable=broad-except -- worker is dying; the parent sees the closed pipe as a crash and re-dispatches
            pass
    finally:
        conn.close()


class Job:
    """Handle on one batch submission (see the module docstring).

    Created by :func:`submit`; not constructed directly by users.
    """

    def __init__(self, assemble: Optional[Callable[[List[Tuple[int, Any]]], Any]] = None):
        self._assemble = assemble
        self._lock = threading.Condition()
        self._rows: Dict[int, Any] = {}
        self._status = PENDING
        self._failures: List[ItemFailure] = []
        # True once the engine has stopped: no row arrives and no worker
        # runs after this.
        self._settled = False
        # The policy, set by submit().
        self._on_error = "raise"
        self._fail_fast = True
        self._journal = None
        #: Journal identifier when the submission checkpoints (else ``None``).
        self.job_id: Optional[str] = None

    # ------------------------------------------------------------------
    # The engine.
    # ------------------------------------------------------------------
    def _halted(self) -> bool:
        """Start nothing new: cancelled, or a fail-fast job that failed."""
        with self._lock:
            return self._status == CANCELLED or (self._fail_fast and bool(self._failures))

    def _settle(self, task: _Task, outcome: Any, retry: Optional[RetryPolicy]) -> bool:
        """Record one attempt's outcome; ``True`` when the task must run again."""
        if not isinstance(outcome, _RemoteFailure):
            self._record(outcome)
            return False
        error = outcome.error
        if retry is not None and retry.is_retryable(error) and task.attempts < retry.max_attempts:
            return True
        with self._lock:
            self._failures.append(
                ItemFailure(task.indices, error, task.attempts, outcome.traceback)
            )
            self._lock.notify_all()
        return False

    def _finish(self) -> None:
        with self._lock:
            if self._status == RUNNING:
                self._status = FAILED if self._failures else DONE
            self._settled = True
            self._lock.notify_all()

    def _run_inline(self, tasks: List[_Task], retry: Optional[RetryPolicy]) -> None:
        """The inline loop: run ``tasks`` one after another in this process."""
        try:
            for task in tasks:
                while not self._halted() and self._settle(task, run_task(task.start()), retry):
                    time.sleep(retry.delay(task.attempts, key=task.key))
        finally:
            self._finish()

    def _dispatch(
        self,
        tasks: List[_Task],
        jobs: int,
        retry: Optional[RetryPolicy],
        item_timeout: Optional[float],
    ) -> None:
        """The pooled dispatcher: one worker process per task attempt."""
        context = multiprocessing.get_context()
        pending: deque = deque(tasks)
        delayed: List[_Task] = []
        running: Dict[Any, _Task] = {}

        def spawn(task: _Task) -> None:
            function, payload = task.start()
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_child_entry, args=(child_conn, function, payload), daemon=True
            )
            process.start()
            child_conn.close()
            task.process, task.conn = process, parent_conn
            task.deadline = (
                time.monotonic() + item_timeout if item_timeout is not None else None
            )
            running[parent_conn] = task

        def reap(task: _Task, kill: bool = False) -> None:
            if kill:
                task.process.kill()
            running.pop(task.conn, None)
            try:
                task.conn.close()
            except OSError:
                pass
            task.process.join(timeout=5)
            task.process = task.conn = None

        def settle(task: _Task, outcome: Any) -> None:
            if self._settle(task, outcome, retry):
                task.not_before = time.monotonic() + retry.delay(task.attempts, key=task.key)
                delayed.append(task)

        def fail(task: _Task, error_type: type, detail: str, kill: bool = False) -> None:
            """Reap a worker that will not report and fail its attempt."""
            reap(task, kill)
            settle(task, _RemoteFailure(error_type(f"{detail} (attempt {task.attempts})")))

        try:
            while True:
                with self._lock:
                    if self._status == CANCELLED:
                        break
                if self._halted():
                    # Fail fast: start nothing new; running tasks finish.
                    pending.clear()
                    delayed.clear()
                now = time.monotonic()
                for task in [t for t in delayed if t.not_before <= now]:
                    delayed.remove(task)
                    pending.append(task)
                while pending and len(running) < jobs:
                    spawn(pending.popleft())
                if not running:
                    if not delayed:
                        break
                    time.sleep(_POLL_SECONDS)
                    continue
                for conn in connection_wait(list(running), timeout=_POLL_SECONDS):
                    task = running[conn]
                    try:
                        outcome = conn.recv()
                    except (EOFError, OSError):  # died before (or while) reporting
                        fail(task, WorkerCrashedError,
                             f"worker for {task.key} died without reporting a result")
                        continue
                    reap(task)
                    settle(task, outcome)
                now = time.monotonic()
                for conn, task in list(running.items()):
                    process = task.process
                    if not process.is_alive():
                        if conn.poll():
                            # Exited normally with its result still buffered
                            # in the pipe; the next connection_wait drains it.
                            continue
                        fail(task, WorkerCrashedError,
                             f"worker for {task.key} crashed with exit code {process.exitcode}")
                    elif task.deadline is not None and now > task.deadline:
                        fail(task, JobTimeoutError,
                             f"{task.key} exceeded its {item_timeout}s item timeout; worker killed",
                             kill=True)
        finally:
            # Cancelled (or dispatcher failure): kill whatever still runs.
            for task in list(running.values()):
                reap(task, kill=True)
            self._finish()

    def _record(self, rows: Any) -> None:
        with self._lock:
            for index, row in rows:
                self._rows[index] = row
                if self._journal is not None:
                    self._journal.checkpoint_row(index, row)
            self._lock.notify_all()

    def _raise(self, failures: List[ItemFailure]) -> None:
        """Raise for terminal ``failures`` as the submission's policy says."""
        first = failures[0]
        if self._fail_fast:
            raise first.error from JobError(f"worker traceback:\n{first.traceback}")
        summary = "; ".join(f.describe() for f in failures[:5])
        if len(failures) > 5:
            summary += f"; ... {len(failures) - 5} more"
        raise JobError(
            f"{len(failures)} item(s) failed after retries: {summary}",
            failures=failures,
        ) from first.error

    # ------------------------------------------------------------------
    # Public lifecycle API.
    # ------------------------------------------------------------------
    def status(self) -> str:
        """One of ``pending`` / ``running`` / ``done`` / ``failed`` / ``cancelled``."""
        with self._lock:
            return self._status

    def done(self) -> bool:
        """True once no further rows will arrive."""
        with self._lock:
            return self._settled

    def failures(self) -> List[ItemFailure]:
        """Per-item terminal failure records (pre-dispatch rejections included)."""
        with self._lock:
            return list(self._failures)

    def cancel(self) -> bool:
        """Cancel every not-yet-started task and kill running workers.

        Rows completed before the cancel remain available via
        :meth:`partial_results`.  Idempotent: returns ``True`` only on the
        call that actually cancelled, ``False`` once the job is already
        terminal.
        """
        with self._lock:
            if self._status in (DONE, FAILED, CANCELLED):
                return False
            self._status = CANCELLED
            self._lock.notify_all()
        return True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state.

        Returns ``True`` on completion; raises :class:`JobTimeoutError`
        (TimeoutError-compatible) when ``timeout`` seconds elapse first.
        """
        with self._lock:
            if not self._lock.wait_for(lambda: self._settled, timeout=timeout):
                raise JobTimeoutError(
                    f"job still {self._status} after {timeout}s "
                    f"({len(self._rows)} item(s) completed)"
                )
        return True

    def result(self, timeout: Optional[float] = None, on_error: Optional[str] = None) -> Any:
        """Assembled rows in item order; raises on failure or cancellation.

        Parameters
        ----------
        timeout:
            Seconds to wait for completion.
        on_error:
            ``"raise"`` (default) raises when any item failed terminally —
            the original exception type for plain jobs, a
            :class:`~repro.errors.JobError` aggregating every per-item
            :class:`~repro.api.faults.ItemFailure` for fault-tolerant jobs.
            ``"partial"`` returns the successfully completed rows instead;
            the records stay available via :meth:`failures`.  Defaults to
            the submission's ``on_error``.

        Raises
        ------
        JobCancelledError
            If :meth:`cancel` was called before completion.
        JobTimeoutError
            If the job is still running after ``timeout`` seconds
            (``TimeoutError``-compatible).
        Exception
            A worker failure re-raised with its original type, the remote
            traceback attached as ``__cause__``.
        """
        if on_error is None:
            on_error = self._on_error
        if on_error not in ("raise", "partial"):
            raise InvalidRequestError(f"on_error must be 'raise' or 'partial', got {on_error!r}")
        self.wait(timeout)
        with self._lock:
            if self._status == CANCELLED:
                raise JobCancelledError(
                    f"job cancelled with {len(self._rows)} item(s) completed; "
                    "use partial_results() to retrieve them"
                )
            if on_error == "raise" and self._failures:
                self._raise(self._failures)
            rows = sorted(self._rows.items())
        return self._assemble(rows) if self._assemble else [row for _, row in rows]

    def partial_results(self) -> Dict[int, Any]:
        """Item-index -> row for every item completed so far (streaming reads)."""
        with self._lock:
            return dict(self._rows)

    def stream(self, timeout: Optional[float] = None) -> Iterator[Tuple[int, Any]]:
        """Yield ``(item_index, row)`` pairs as they complete, in arrival order.

        Stops once the job reaches a terminal state; failures raise as
        :meth:`result` does, after every already-completed row has been
        yielded.
        """
        seen: set = set()
        while True:
            with self._lock:
                fresh = [(i, row) for i, row in sorted(self._rows.items()) if i not in seen]
                terminal = self._settled
                if not fresh and not terminal:
                    if not self._lock.wait(timeout):
                        raise JobTimeoutError("no job progress before timeout")
                    continue
            for index, row in fresh:
                seen.add(index)
                yield index, row
            if terminal and not fresh:
                failures = self.failures()
                if failures and self._on_error == "raise":
                    self._raise(failures)
                return

    def __repr__(self) -> str:
        with self._lock:
            extra = f" failures={len(self._failures)}" if self._failures else ""
            return f"<Job status={self._status} completed={len(self._rows)}{extra}>"


def runs_inline(jobs: int, block: bool, item_timeout: Optional[float]) -> bool:
    """Whether :func:`submit` runs a non-empty task list on the inline loop."""
    return jobs <= 1 and block and item_timeout is None


def fault_tolerant(retry, item_timeout, journal, on_error: str, prefailures=()) -> bool:
    """Whether :func:`submit` applies the fault-tolerant policy, not the plain one."""
    return bool(
        retry is not None
        or item_timeout is not None
        or journal is not None
        or on_error == "partial"
        or prefailures
    )


def submit(
    tasks: Sequence,
    jobs: int = 1,
    block: bool = True,
    assemble: Optional[Callable[[List[Tuple[int, Any]]], Any]] = None,
    retry: Optional[RetryPolicy] = None,
    item_timeout: Optional[float] = None,
    on_error: str = "raise",
    journal=None,
    preloaded_rows: Optional[Sequence[Tuple[int, Any]]] = None,
    prefailures: Optional[Sequence[ItemFailure]] = None,
) -> Job:
    """Run ``tasks`` and return the :class:`Job` handle.

    Tasks are ``(function, payload)`` pairs, optionally extended to
    ``(function, payload, indices, key)`` — ``indices`` names the batch item
    indices the task covers (for failure records) and ``key`` is a stable
    identity used for deterministic backoff jitter.

    ``jobs <= 1`` with ``block=True`` runs the inline loop in this process
    (no worker processes, no pickling of results).  Everything else runs on
    the pooled dispatcher with up to ``max(1, jobs)`` worker processes; with
    ``block=True`` the call waits for completion before returning, with
    ``block=False`` it returns immediately and the job completes in the
    background.  ``item_timeout`` needs a worker process to kill a stuck
    task, so it selects the pooled dispatcher even for ``jobs=1``.

    The policy (see the module docstring) is plain — no retries, fail fast,
    original exception types — unless any of ``retry`` / ``item_timeout`` /
    ``journal`` / ``on_error="partial"`` / ``prefailures`` is given.
    ``preloaded_rows`` (e.g. journal checkpoints from a previous life of
    the job) and ``prefailures`` (pre-dispatch rejections) seed the job
    before any task runs.
    """
    if on_error not in ("raise", "partial"):
        raise InvalidRequestError(f"on_error must be 'raise' or 'partial', got {on_error!r}")
    job = Job(assemble=assemble)
    job._on_error = on_error
    job._fail_fast = not fault_tolerant(retry, item_timeout, journal, on_error, prefailures)
    job._journal = journal
    job.job_id = None if journal is None else journal.job_id
    job._rows.update(preloaded_rows or ())
    job._failures.extend(prefailures or ())
    job._status = RUNNING
    states = [_Task(position, task) for position, task in enumerate(tasks)]
    if not states or runs_inline(jobs, block, item_timeout):
        job._run_inline(states, retry)
        return job
    threading.Thread(
        target=job._dispatch,
        args=(states, max(1, jobs), retry, item_timeout),
        daemon=True,
        name="repro-job-dispatcher",
    ).start()
    if block:
        job.wait()
    return job
