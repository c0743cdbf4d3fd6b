"""Checkpoint/resume tests: the job journal and ``repro.resume_job``.

The durability contract:

* every finished item is checkpointed atomically with a content
  fingerprint; a resumed job loads checkpoints *before* routing, so
  already-done items cost zero compiles and zero evaluations;
* killing the driver process mid-batch (SIGKILL — no cleanup handlers) and
  resuming produces results **bit-identical** to an uninterrupted run;
* a corrupted checkpoint record is detected by its fingerprint and only
  that item re-runs — corruption can cost work, never correctness.
"""

import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import (
    CNOT,
    Circuit,
    H,
    JobError,
    LineQubit,
    Rx,
    Symbol,
    device,
    measure,
    resume_job,
)
import importlib

# ``repro.api`` re-exports the ``device()`` factory under the same name as
# the module, so fetch the module itself for monkeypatching.
device_module = importlib.import_module("repro.api.device")
from repro.api.journal import _WAL_HEADER, _WAL_MAGIC, JOB_DIR_ENV, JobJournal, new_job_id

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _ghz(n=3):
    qubits = LineQubit.range(n)
    ops = [H(qubits[0])]
    ops += [CNOT(qubits[i], qubits[i + 1]) for i in range(n - 1)]
    ops.append(measure(*qubits))
    return Circuit(ops)


def _rows_equal(a, b):
    return all(
        np.array_equal(
            np.asarray(a[i]["samples"].samples), np.asarray(b[i]["samples"].samples)
        )
        for i in range(len(a))
    )


class _EvaluationCounter:
    """Wrap ``_evaluate_items`` and count the items actually evaluated."""

    def __init__(self, monkeypatch):
        self.items = []
        original = device_module._evaluate_items

        def counting(sim, backend, circuits, items, ctx, **kwargs):
            self.items.extend(index for index, *_ in items)
            return original(sim, backend, circuits, items, ctx, **kwargs)

        monkeypatch.setattr(device_module, "_evaluate_items", counting)


class TestJobJournal:
    def test_checkpoint_roundtrip(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.checkpoint_row(3, {"index": 3, "value": "x"})
        assert journal.load_row(3) == {"index": 3, "value": "x"}
        assert journal.load_row(4) is None
        assert journal.completed_indices() == {3}

    def test_corrupted_checkpoint_loads_as_missing(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.checkpoint_row(0, {"value": 1})
        with open(journal.wal_path, "r+b") as handle:
            handle.seek(-5, os.SEEK_END)
            handle.write(b"XXXXX")
        assert journal.load_row(0) is None
        assert journal.load_rows() == {}

    def test_truncated_checkpoint_loads_as_missing(self, tmp_path):
        # A crash mid-append leaves a torn tail record; it must read as
        # missing while every record before it stays valid.
        journal = JobJournal(str(tmp_path))
        journal.checkpoint_row(0, {"value": 1})
        journal.checkpoint_row(1, {"value": 2})
        size = os.path.getsize(journal.wal_path)
        with open(journal.wal_path, "r+b") as handle:
            handle.truncate(size - 7)
        assert journal.load_row(1) is None
        assert journal.load_row(0) == {"value": 1}

    def test_unrecognized_log_ignored(self, tmp_path):
        # A file that is not a journal log (wrong magic / foreign format)
        # yields no checkpoints instead of crashing the resume.
        journal = JobJournal(str(tmp_path))
        os.makedirs(journal.path, exist_ok=True)
        with open(journal.wal_path, "wb") as handle:
            pickle.dump({"format": 999, "index": 0, "payload": b""}, handle)
        assert journal.load_row(0) is None
        assert journal.load_rows() == {}

    def test_corrupt_record_is_skipped_not_fatal(self, tmp_path):
        # Flipping bytes inside one record's payload invalidates only that
        # record: the length header still locates the next boundary.
        journal = JobJournal(str(tmp_path))
        for index in range(3):
            journal.checkpoint_row(index, {"value": index})
        start, length, _row = journal._scan()[1]
        with open(journal.wal_path, "r+b") as handle:
            handle.seek(start + length // 2)
            handle.write(b"\xff\xfe\xfd")
        assert journal.completed_indices() == {0, 2}

    def test_duplicate_records_latest_wins(self, tmp_path):
        # A resumed run appends; on replay the newest record for an index
        # is authoritative.
        journal = JobJournal(str(tmp_path))
        journal.checkpoint_row(0, {"value": "stale"})
        journal.checkpoint_row(0, {"value": "fresh"})
        assert journal.load_row(0) == {"value": "fresh"}

    def test_unpicklable_row_degrades_to_not_checkpointed(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.checkpoint_row(0, {"bad": lambda: None})
        assert journal.load_row(0) is None

    def test_sample_rows_round_trip_with_counts_and_key_order(self, tmp_path):
        job = device("auto", seed=4).run([_ghz()] * 2, repetitions=16)
        rows = job.result().rows
        journal = JobJournal(str(tmp_path))
        for row in rows:
            journal.checkpoint_row(row["index"], row)
        for row in rows:
            loaded = journal.load_row(row["index"])
            assert list(loaded) == list(row)
            assert loaded["counts"] == row["counts"]
            assert loaded["samples"].qubits == row["samples"].qubits
            assert loaded["samples"].samples == row["samples"].samples
            assert {k: v for k, v in loaded.items() if k not in ("samples", "counts")} == {
                k: v for k, v in row.items() if k not in ("samples", "counts")
            }

    def test_line_qubit_sample_records_pickle_no_globals(self, tmp_path):
        import pickletools

        row = device("auto", seed=4).run([_ghz()], repetitions=16).result().rows[0]
        journal = JobJournal(str(tmp_path))
        journal.checkpoint_row(0, row)
        with open(journal.wal_path, "rb") as handle:
            payload = handle.read()[_WAL_HEADER.size :]
        opcodes = {op.name for op, _, _ in pickletools.genops(payload)}
        assert not opcodes & {"GLOBAL", "STACK_GLOBAL", "REDUCE", "NEWOBJ"}

    def test_trajectory_sample_records_pickle_no_globals(self, tmp_path):
        import pickletools

        from repro.circuits import depolarize

        noisy = _ghz().with_noise(lambda: depolarize(0.05))
        row = device("trajectory", seed=4).run([noisy], repetitions=16).result().rows[0]
        journal = JobJournal(str(tmp_path))
        journal.checkpoint_row(0, row)
        with open(journal.wal_path, "rb") as handle:
            payload = handle.read()[_WAL_HEADER.size :]
        opcodes = {op.name for op, _, _ in pickletools.genops(payload)}
        assert not opcodes & {"GLOBAL", "STACK_GLOBAL", "REDUCE", "NEWOBJ"}
        assert journal.load_row(0)["samples"].samples == row["samples"].samples

    def test_other_sample_rows_are_stored_as_they_are(self, tmp_path):
        from repro.circuits import GridQubit
        from repro.simulator.results import SampleResult

        qubits = [GridQubit(0, 0), GridQubit(0, 1)]
        samples = SampleResult(qubits, np.array([[0, 1], [1, 1]]))
        row = {"index": 0, "samples": samples, "counts": samples.bitstring_counts()}
        journal = JobJournal(str(tmp_path))
        journal.checkpoint_row(0, row)
        loaded = journal.load_row(0)
        assert loaded["samples"].qubits == qubits
        assert loaded["samples"].samples == samples.samples
        assert loaded["counts"] == {"01": 1, "11": 1}

    def test_records_written_as_index_row_pairs_still_load(self, tmp_path):
        import hashlib

        row = device("auto", seed=4).run([_ghz()], repetitions=8).result().rows[0]
        journal = JobJournal(str(tmp_path))
        journal.checkpoint_row(1, {"value": 1})  # creates the log
        payload = pickle.dumps((0, row), protocol=pickle.HIGHEST_PROTOCOL)
        header = _WAL_HEADER.pack(_WAL_MAGIC, len(payload), hashlib.sha256(payload).digest())
        with open(journal.wal_path, "ab") as handle:
            handle.write(header + payload)
        loaded = journal.load_row(0)
        assert loaded["counts"] == row["counts"]
        assert loaded["samples"].samples == row["samples"].samples
        assert journal.load_row(1) == {"value": 1}

    def test_manifest_roundtrip(self, tmp_path):
        journal = JobJournal(str(tmp_path), "abc123")
        assert not journal.has_manifest()
        journal.write_manifest({"device": {"backend": "auto"}, "run": {}})
        assert journal.has_manifest()
        assert journal.load_manifest()["device"] == {"backend": "auto"}

    def test_job_ids_are_unique(self):
        assert new_job_id() != new_job_id()


class TestCheckpointedRuns:
    def test_job_id_requires_checkpoint(self):
        with pytest.raises(ValueError):
            device("auto").run([_ghz()], repetitions=4, job_id="abc")

    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        circuit = _ghz()
        clean = device("auto", seed=9).run([circuit] * 4, repetitions=32).result()
        job = device("auto", seed=9).run(
            [circuit] * 4, repetitions=32, checkpoint=str(tmp_path)
        )
        assert _rows_equal(job.result(), clean)
        journal = JobJournal(str(tmp_path), job.job_id)
        assert journal.completed_indices() == {0, 1, 2, 3}

    def test_resume_fully_checkpointed_job_evaluates_nothing(
        self, tmp_path, monkeypatch
    ):
        circuit = _ghz()
        job = device("auto", seed=9).run(
            [circuit] * 4, repetitions=32, checkpoint=str(tmp_path)
        )
        original = job.result()

        counter = _EvaluationCounter(monkeypatch)
        resumed = resume_job(job.job_id, directory=str(tmp_path))
        assert counter.items == []
        assert _rows_equal(resumed.result(), original)

    def test_resume_reruns_only_missing_items(self, tmp_path, monkeypatch):
        circuit = _ghz()
        job = device("auto", seed=9).run(
            [circuit] * 5, repetitions=32, checkpoint=str(tmp_path)
        )
        original = job.result()
        # Drop item 2's checkpoint by rewriting the log without it.
        journal = JobJournal(str(tmp_path), job.job_id)
        rows = journal.load_rows()
        os.unlink(journal.wal_path)
        rewritten = JobJournal(str(tmp_path), job.job_id)
        for index, row in rows.items():
            if index != 2:
                rewritten.checkpoint_row(index, row)
        rewritten.close()

        counter = _EvaluationCounter(monkeypatch)
        resumed = resume_job(job.job_id, directory=str(tmp_path))
        assert counter.items == [2]
        assert _rows_equal(resumed.result(), original)

    def test_resume_reruns_corrupted_item_only(self, tmp_path, monkeypatch):
        circuit = _ghz()
        job = device("auto", seed=9).run(
            [circuit] * 4, repetitions=32, checkpoint=str(tmp_path)
        )
        original = job.result()
        journal = JobJournal(str(tmp_path), job.job_id)
        start, length, _row = journal._scan()[1]
        with open(journal.wal_path, "r+b") as handle:
            handle.seek(start + length - 3)
            handle.write(b"zzz")

        counter = _EvaluationCounter(monkeypatch)
        resumed = resume_job(job.job_id, directory=str(tmp_path))
        assert counter.items == [1]
        assert _rows_equal(resumed.result(), original)

    def test_resume_uses_environment_directory(self, tmp_path, monkeypatch):
        circuit = _ghz()
        job = device("auto", seed=9).run(
            [circuit] * 2, repetitions=16, checkpoint=str(tmp_path)
        )
        original = job.result()
        monkeypatch.setenv(JOB_DIR_ENV, str(tmp_path))
        resumed = resume_job(job.job_id)
        assert _rows_equal(resumed.result(), original)

    def test_resume_without_manifest_raises(self, tmp_path):
        with pytest.raises(JobError):
            resume_job("nonexistent", directory=str(tmp_path))

    def test_resume_without_directory_raises(self, monkeypatch):
        monkeypatch.delenv(JOB_DIR_ENV, raising=False)
        with pytest.raises(JobError):
            resume_job("whatever")

    def test_pooled_checkpointed_run_matches_plain_run(self, tmp_path):
        circuit = _ghz()
        clean = device("auto", seed=9).run([circuit] * 6, repetitions=16).result()
        job = device("auto", seed=9).run(
            [circuit] * 6, repetitions=16, jobs=2, checkpoint=str(tmp_path)
        )
        assert _rows_equal(job.result(timeout=120), clean)
        journal = JobJournal(str(tmp_path), job.job_id)
        assert journal.completed_indices() == set(range(6))

    def test_sweep_checkpoint_plumbs_through(self, tmp_path):
        theta = Symbol("theta")
        qubits = LineQubit.range(2)
        circuit = Circuit(
            [Rx(theta).on(qubits[0]), CNOT(qubits[0], qubits[1]), measure(*qubits)]
        )
        points = [{"theta": value} for value in (0.1, 0.7, 1.3)]
        options = dict(params=points, repetitions=16, seed=4, sampling="gibbs")
        result = (
            device("knowledge_compilation")
            .run(circuit, checkpoint=str(tmp_path), job_id="sweep-1", **options)
            .result()
        )
        journal = JobJournal(str(tmp_path), "sweep-1")
        assert journal.completed_indices() == {0, 1, 2}
        clean = device("knowledge_compilation").run(circuit, **options).result()
        for row, clean_row in zip(result.rows, clean.rows):
            assert np.array_equal(
                np.asarray(row["samples"].samples),
                np.asarray(clean_row["samples"].samples),
            )


class TestCrashRecovery:
    def test_sigkilled_driver_resumes_bit_identical(self, tmp_path):
        """SIGKILL the driver process mid-batch; resume must replay nothing
        already checkpointed and converge to the uninterrupted result."""
        job_id = "crash-test-job"
        script = f"""
import sys
sys.path.insert(0, {REPO_SRC!r})
from repro import FaultInjector, device
from repro.circuits import CNOT, Circuit, H, LineQubit, measure

qubits = LineQubit.range(3)
ops = [H(qubits[0])] + [CNOT(qubits[i], qubits[i + 1]) for i in range(2)]
ops.append(measure(*qubits))
circuit = Circuit(ops)

# The injector SIGKILLs *this* process when it reaches item 3: items 0-2
# are checkpointed, the rest are not, and no cleanup code runs.
device("auto", seed=21).run(
    [circuit] * 6,
    repetitions=32,
    checkpoint={str(tmp_path)!r},
    job_id={job_id!r},
    fault_injector=FaultInjector(kill={{3: 1}}),
)
print("UNREACHABLE")
"""
        process = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode == -signal.SIGKILL
        assert "UNREACHABLE" not in process.stdout

        journal = JobJournal(str(tmp_path), job_id)
        checkpointed = journal.completed_indices()
        assert checkpointed == {0, 1, 2}

        resumed = resume_job(job_id, directory=str(tmp_path)).result()
        clean = device("auto", seed=21).run([_ghz()] * 6, repetitions=32).result()
        assert _rows_equal(resumed, clean)

    def test_second_resume_after_crash_evaluates_nothing(self, tmp_path, monkeypatch):
        circuit = _ghz()
        job = device("auto", seed=21).run(
            [circuit] * 4, repetitions=16, checkpoint=str(tmp_path)
        )
        job.result()
        # First resume replays nothing; so does a second one.
        for _ in range(2):
            counter = _EvaluationCounter(monkeypatch)
            resumed = resume_job(job.job_id, directory=str(tmp_path))
            assert counter.items == []
            assert resumed.done()


class TestManifestCompatibility:
    """Manifests written while ``Device`` still took a ``routing`` option."""

    @staticmethod
    def _mixed():
        qubits = LineQubit.range(3)
        rotated = Circuit([Rx(0.4).on(qubits[0]), CNOT(qubits[0], qubits[1]), measure(*qubits)])
        return [_ghz(), rotated, _ghz(), rotated]

    @staticmethod
    def _write_legacy_manifest(directory, job_id, circuits, routing):
        """A manifest in the older format: the device spec names its routing."""
        run = {
            "observables": ("samples",), "repetitions": 32, "seed": 0, "jobs": 1,
            "qubit_order": None, "initial_bits": None, "objective": None,
            "sampling": "auto", "retry": None, "item_timeout": None,
            "on_error": "raise", "memory_budget": None,
        }
        journal = JobJournal(str(directory), job_id)
        journal.write_manifest(
            {
                "device": {
                    "backend": "auto", "seed": 9, "fallback": None,
                    "noisy_fallback": None, "backend_options": {}, "routing": routing,
                },
                "run": dict(run, circuits=list(circuits), params=[None] * len(circuits)),
            }
        )
        return journal

    def test_new_manifests_do_not_record_routing(self, tmp_path):
        job = device("auto", seed=9).run([_ghz()], repetitions=8, checkpoint=str(tmp_path))
        job.result()
        manifest = JobJournal(str(tmp_path), job.job_id).load_manifest()
        assert "routing" not in manifest["device"]

    def test_rules_manifest_resumes_bit_identical(self, tmp_path, monkeypatch):
        circuits = self._mixed()
        clean = device("auto", seed=9).run(circuits, repetitions=32).result()
        assert set(clean.backends()) == {"stabilizer", "state_vector"}
        journal = self._write_legacy_manifest(tmp_path, "legacy-rules", circuits, "rules")
        for index in (0, 1):
            journal.checkpoint_row(index, clean[index])
        journal.close()

        counter = _EvaluationCounter(monkeypatch)
        resumed = resume_job("legacy-rules", directory=str(tmp_path)).result()
        assert sorted(counter.items) == [2, 3]
        assert resumed.backends() == clean.backends()
        assert _rows_equal(resumed, clean)

    def test_cost_manifest_raises_typed_error(self, tmp_path):
        self._write_legacy_manifest(tmp_path, "legacy-cost", [_ghz()], "cost")
        with pytest.raises(JobError, match="routing='cost'"):
            resume_job("legacy-cost", directory=str(tmp_path))
