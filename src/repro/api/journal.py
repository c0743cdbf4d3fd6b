"""Persistent job journal: checkpoint/resume for ``Device.run`` batches.

A :class:`JobJournal` is a per-job directory holding one *manifest*
describing the submission well enough to re-create it, plus an append-only
*write-ahead log* of content-fingerprinted item checkpoints.  The
durability discipline:

* the manifest is written to a temporary name and published with
  ``os.replace``, so a reader (or a crash) can never observe a torn pickle;
* every item record in the log carries the SHA-256 of its own pickled
  bytes; a record whose re-hashed bytes disagree (truncation mid-append,
  corruption, torn storage) loads as *missing* and the item simply re-runs
  — corruption can cost work, never correctness.

Item checkpoints land on the hot path of every fault-tolerant run, which is
why they share one log file instead of a file per item: appending a record
is a single ``write`` on a descriptor opened once per journal, roughly an
order of magnitude cheaper than a create + rename pair per item, and it is
what keeps the fault-free overhead of checkpointing within the benchmark
budget (see ``benchmarks/test_bench_robustness.py``).  For the same reason a
record stores a row's sample bits as plain bytes: pickling the
:class:`~repro.simulator.results.SampleResult` itself costs a class lookup
per qubit, and its ``counts`` histogram one string per distinct shot, which
together cost more than the rest of the record (see :func:`_record`).

Because every observable is deterministic given the item's parameter binding
and its ``seed + index`` (samples are seeded draws, probabilities and state
vectors are pure functions), :func:`resume_job` after SIGKILL replays nothing
already checkpointed and still returns results bit-identical to an
uninterrupted run.

Layout under ``directory``::

    <directory>/<job_id>/manifest.pkl       # the submission spec
    <directory>/<job_id>/rows.wal           # append-only item checkpoints

The default directory comes from the ``REPRO_JOB_DIR`` environment variable.
Only resume journals you trust: entries are Python pickles.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import uuid
from typing import Any, Dict, Optional, Tuple

from ..atomicio import atomic_write_bytes
from ..circuits.qubits import LineQubit
from ..errors import JobError
from ..simulator.results import SampleResult, _unpack_samples

#: Environment variable naming the default journal directory.
JOB_DIR_ENV = "REPRO_JOB_DIR"

#: On-disk journal format; bump on incompatible changes.
JOURNAL_FORMAT = 1

#: Name of the per-job item-checkpoint log.
WAL_NAME = "rows.wal"

#: Leading bytes of every item record; doubles as the format version tag.
_WAL_MAGIC = b"RJW1"

#: Record header: magic, payload length, SHA-256 digest of the payload.
_WAL_HEADER = struct.Struct(">4sI32s")


def _record(index: int, row: Any) -> Tuple:
    """The pickled form of one checkpoint: builtins only on the common path.

    A dict row whose ``samples`` is a packed :class:`SampleResult` over line
    qubits is stored with its ``samples`` entry (and ``counts``, if present)
    set to ``None`` and the bits alongside as ``(qubit indices, packed bits,
    shots)``; :func:`_restore` rebuilds both entries in place, so key order
    and values come back unchanged.  ``counts`` is, by the row contract of
    ``Device`` (``_record_samples``), the histogram of ``samples``.  Any
    other row is stored as it is.
    """
    samples = row.get("samples") if isinstance(row, dict) else None
    if not isinstance(samples, SampleResult):
        return (index, row)
    packed = getattr(samples, "_packed", None)  # absent on results pickled before packing
    if packed is None or not all(type(qubit) is LineQubit for qubit in samples.qubits):
        return (index, row)
    stored = dict(row)
    stored["samples"] = None
    if "counts" in stored:
        stored["counts"] = None
    bits = (tuple([qubit.index for qubit in samples.qubits]), packed, len(samples.samples))
    return (index, stored, bits)


def _restore(record: Tuple) -> Tuple[Any, Any]:
    """Inverse of :func:`_record`: ``(index, row)``."""
    if len(record) == 2:
        return record[0], record[1]
    index, row, (indices, packed, shots) = record
    samples = _unpack_samples([LineQubit(i) for i in indices], packed, shots)
    row["samples"] = samples
    if "counts" in row:
        row["counts"] = samples.bitstring_counts()
    return index, row


def new_job_id() -> str:
    """A fresh collision-resistant job identifier."""
    return uuid.uuid4().hex[:12]


def _atomic_write(path: str, data: bytes) -> None:
    """Publish ``data`` at ``path`` via the audited atomic-write helper.

    Manifests are written once per job (item checkpoints go through the
    ``O_APPEND`` WAL instead), so the helper's fsync-before-rename cost is
    off the hot path; its pid-qualified temp name keeps concurrent resumers
    from clobbering each other's half-written temporaries.
    """
    atomic_write_bytes(path, data)


class JobJournal:
    """Checkpoint store for one job (see the module docstring).

    Parameters
    ----------
    directory:
        Root journal directory; the job's subdirectory is created on first
        write.
    job_id:
        Identifier of the job within ``directory``; generated when omitted.
    """

    def __init__(self, directory: str, job_id: Optional[str] = None):
        self.directory = os.fspath(directory)
        self.job_id = job_id or new_job_id()
        self.path = os.path.join(self.directory, self.job_id)
        self._prepared = False
        self._wal_fd: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def wal_path(self) -> str:
        return os.path.join(self.path, WAL_NAME)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.path, "manifest.pkl")

    def _prepare(self) -> None:
        if not self._prepared:
            os.makedirs(self.path, exist_ok=True)
            self._prepared = True

    def _write(self, path: str, record: Dict[str, Any]) -> None:
        self._prepare()
        _atomic_write(path, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))

    @staticmethod
    def _read(path: str) -> Optional[Dict[str, Any]]:
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                record = pickle.load(handle)
        except Exception:  # reprolint: disable=broad-except -- a corrupt or foreign manifest degrades to "no manifest"; resume re-runs from scratch
            return None
        if not isinstance(record, dict) or record.get("format") != JOURNAL_FORMAT:
            return None
        return record

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        """Persist the submission spec (atomic; overwrites an existing one)."""
        self._write(
            self.manifest_path,
            {"format": JOURNAL_FORMAT, "job_id": self.job_id, "manifest": manifest},
        )

    def has_manifest(self) -> bool:
        return os.path.exists(self.manifest_path)

    def load_manifest(self) -> Optional[Dict[str, Any]]:
        """The stored submission spec, or ``None`` when absent/unreadable."""
        record = self._read(self.manifest_path)
        return None if record is None else record["manifest"]

    # ------------------------------------------------------------------
    # Item checkpoints (append-only write-ahead log)
    # ------------------------------------------------------------------
    def checkpoint_row(self, index: int, row: Any) -> None:
        """Durably record one finished item (single append, fingerprinted).

        The record — header plus payload — goes out in one ``write`` on an
        ``O_APPEND`` descriptor, so it is fully on its way to the page cache
        before the next item starts; a crash (even SIGKILL) after this call
        returns cannot lose it.  Checkpointing is best-effort: an unwritable
        directory or an unpicklable row degrades to "not checkpointed" (the
        item re-runs on resume) instead of failing the job.
        """
        try:
            payload = pickle.dumps(_record(int(index), row), protocol=pickle.HIGHEST_PROTOCOL)
            header = _WAL_HEADER.pack(
                _WAL_MAGIC, len(payload), hashlib.sha256(payload).digest()
            )
            if self._wal_fd is None:
                self._prepare()
                self._wal_fd = os.open(
                    self.wal_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            os.write(self._wal_fd, header + payload)
        except Exception:  # reprolint: disable=broad-except -- checkpointing is best-effort by contract; a lost checkpoint only re-runs the item on resume
            pass

    def close(self) -> None:
        """Release the log descriptor (reopened lazily on the next append)."""
        if self._wal_fd is not None:
            try:
                os.close(self._wal_fd)
            except OSError:
                pass
            self._wal_fd = None

    def __del__(self):
        self.close()

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_wal_fd"] = None  # descriptors do not cross process boundaries
        return state

    def _scan(self) -> Dict[int, Tuple[int, int, Any]]:
        """Parse the log; index -> (payload offset, payload length, row).

        Validation is per record: a fingerprint or unpickling failure skips
        just that record (its length header still locates the next one); a
        bad magic or an out-of-range length ends the scan — that is either
        the torn tail of an interrupted append or corruption severe enough
        that no later boundary can be trusted.  Later records win on
        duplicate indices, so a resumed run simply appends.
        """
        rows: Dict[int, Tuple[int, int, Any]] = {}
        try:
            with open(self.wal_path, "rb") as handle:
                data = handle.read()
        except OSError:
            return rows
        offset = 0
        while offset + _WAL_HEADER.size <= len(data):
            magic, length, digest = _WAL_HEADER.unpack_from(data, offset)
            start = offset + _WAL_HEADER.size
            if magic != _WAL_MAGIC or length > len(data) - start:
                break
            payload = data[start : start + length]
            offset = start + length
            if hashlib.sha256(payload).digest() != digest:
                continue
            try:
                index, row = _restore(pickle.loads(payload))
            except Exception:  # reprolint: disable=broad-except -- the fingerprint localises damage to this record; skipping it re-runs one item
                continue
            if isinstance(index, int):
                rows[index] = (start, length, row)
        return rows

    def load_row(self, index: int) -> Optional[Any]:
        """The checkpointed row for ``index``; ``None`` on miss or corruption."""
        entry = self._scan().get(index)
        return None if entry is None else entry[2]

    def load_rows(self) -> Dict[int, Any]:
        """Every valid checkpointed row, keyed by item index."""
        return {index: row for index, (_, _, row) in self._scan().items()}

    def completed_indices(self):
        """Indices with a valid checkpoint (validates every record)."""
        return set(self._scan())

    def __repr__(self) -> str:
        return f"JobJournal(job_id={self.job_id!r}, path={self.path!r})"


def resume_job(
    job_id: str,
    directory: Optional[str] = None,
    jobs: Optional[int] = None,
    block: bool = True,
):
    """Resume a checkpointed :meth:`~repro.api.device.Device.run` batch.

    Re-creates the device and submission from the job's manifest and re-runs
    *only* the items without a valid checkpoint; already-checkpointed rows
    are loaded, not recomputed (a fully checkpointed job performs zero
    compiles and zero evaluations).  Returns the resumed
    :class:`~repro.api.scheduler.Job`, whose result is bit-identical to an
    uninterrupted run.

    Parameters
    ----------
    job_id:
        The identifier under which the original run checkpointed
        (``Job.job_id``).
    directory:
        The journal directory of the original run; defaults to the
        ``REPRO_JOB_DIR`` environment variable.
    jobs, block:
        Override the original worker count / run the resume asynchronously.

    Raises
    ------
    JobError
        When no readable manifest exists for ``job_id``, or the job was
        submitted with cost-model routing, an option that has been removed.
    """
    directory = directory or os.environ.get(JOB_DIR_ENV)
    if not directory:
        raise JobError(
            "resume_job needs a journal directory: pass directory=... or set "
            f"the {JOB_DIR_ENV} environment variable"
        )
    journal = JobJournal(directory, job_id)
    manifest = journal.load_manifest()
    if manifest is None:
        raise JobError(f"no job manifest for job_id {job_id!r} under {directory!r}")

    from .device import Device

    spec = dict(manifest["device"])
    # Older manifests record the routing policy; rules routing, their
    # default, is now the only one, so only that value resumes faithfully.
    routing = spec.pop("routing", "rules")
    if routing != "rules":
        raise JobError(
            f"job {job_id!r} was submitted with routing={routing!r}, an option "
            "that has been removed; only rules routing remains, so it cannot resume"
        )
    device = Device(**spec)
    kwargs = dict(manifest["run"])
    if jobs is not None:
        kwargs["jobs"] = jobs
    return device.run(
        kwargs.pop("circuits"),
        checkpoint=directory,
        job_id=job_id,
        block=block,
        **kwargs,
    )


__all__ = ["JOB_DIR_ENV", "JobJournal", "new_job_id", "resume_job"]
