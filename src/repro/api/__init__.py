"""Unified execution API: ``repro.device() -> Device.run() -> Job``.

The public surface of the execution layer:

* :func:`~repro.api.device.device` / :class:`~repro.api.device.Device` —
  open an execution endpoint by backend name (or ``"auto"`` for
  capability-driven routing) and submit circuits, circuit lists or sweep
  specs;
* :class:`~repro.api.scheduler.Job` — the async handle with
  ``status()`` / ``result()`` / ``cancel()`` / ``partial_results()``;
* :class:`~repro.api.results.BatchResult` — per-item rows of a batch;
* the backend registry — :func:`register_backend`,
  :func:`backend_capabilities`, :func:`list_backends`,
  :func:`capability_matrix` — where every backend declares what it can do;
* fault tolerance — :class:`~repro.api.faults.RetryPolicy`,
  :class:`~repro.api.faults.ItemFailure`,
  :class:`~repro.api.faults.FaultInjector`,
  :class:`~repro.api.journal.JobJournal` and
  :func:`~repro.api.journal.resume_job` (see ``docs/robustness.md``).
"""

from .capabilities import BackendCapabilities
from .device import EXACT_SAMPLING_QUBITS, Device, device
from .faults import DEFAULT_RETRYABLE, NO_RETRY, FaultInjector, ItemFailure, RetryPolicy
from .journal import JOB_DIR_ENV, JobJournal, new_job_id, resume_job
from .registry import (
    REGISTRY,
    BackendRegistry,
    backend_capabilities,
    capability_matrix,
    create_backend,
    list_backends,
    register_backend,
)
from .results import BatchResult
from .routing import BackendDecision, select_backend
from .scheduler import Job

__all__ = [
    "BackendCapabilities",
    "BackendDecision",
    "BackendRegistry",
    "BatchResult",
    "DEFAULT_RETRYABLE",
    "Device",
    "EXACT_SAMPLING_QUBITS",
    "FaultInjector",
    "ItemFailure",
    "JOB_DIR_ENV",
    "Job",
    "JobJournal",
    "NO_RETRY",
    "REGISTRY",
    "RetryPolicy",
    "backend_capabilities",
    "capability_matrix",
    "create_backend",
    "device",
    "list_backends",
    "new_job_id",
    "register_backend",
    "resume_job",
    "select_backend",
]
