"""Batch result container returned by ``Job.result()``.

A batch is a list of per-item *rows* — plain dicts so they cross process
boundaries cheaply.  Every row carries at least ``index``, ``parameters``,
``backend`` and ``reason``, plus one entry per requested observable:

``probabilities`` / ``state_vector``
    Dense ndarrays.
``samples`` / ``counts``
    The :class:`~repro.simulator.results.SampleResult` and its
    bitstring-count histogram.
``expectation``
    Scalar objective value.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..errors import MissingObservableError


class BatchResult:
    """Per-item results of one :meth:`repro.api.device.Device.run` batch.

    List-like over rows (dicts, in item order); the accessors below stack
    per-item observables across the batch.
    """

    def __init__(self, rows: List[Dict[str, Any]]):
        self.rows = sorted(rows, key=lambda row: row["index"])

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index: int) -> Dict[str, Any]:
        return self.rows[index]

    def _stack(self, key: str) -> np.ndarray:
        if not self.rows or key not in self.rows[0]:
            raise MissingObservableError(f"batch did not record {key!r}")
        return np.stack([row[key] for row in self.rows])

    def probabilities(self) -> np.ndarray:
        """``(num_items, 2**n)`` matrix of output distributions."""
        return self._stack("probabilities")

    def state_vectors(self) -> np.ndarray:
        """``(num_items, 2**n)`` matrix of final state vectors (ideal circuits)."""
        return self._stack("state_vector")

    def expectations(self) -> np.ndarray:
        """``(num_items,)`` vector of objective expectations."""
        if not self.rows or "expectation" not in self.rows[0]:
            raise MissingObservableError("batch did not record 'expectation'")
        return np.asarray([row["expectation"] for row in self.rows], dtype=float)

    def counts(self) -> List[Dict[str, int]]:
        """Per-item sampled bitstring counts."""
        if not self.rows or "counts" not in self.rows[0]:
            raise MissingObservableError("batch did not record 'counts'")
        return [row["counts"] for row in self.rows]

    def sample_results(self) -> List[Any]:
        """Per-item :class:`~repro.simulator.results.SampleResult` objects."""
        if not self.rows or "samples" not in self.rows[0]:
            raise MissingObservableError("batch did not record 'samples'")
        return [row["samples"] for row in self.rows]

    def backends(self) -> List[str]:
        """The backend each item actually ran on, in item order."""
        return [row["backend"] for row in self.rows]

    def timings(self) -> List[Dict[str, Any]]:
        """Per-item runtime telemetry, in item order.

        Each entry carries ``index``, ``backend`` and ``elapsed_seconds``
        (measured around the item's evaluation).
        """
        return [
            {
                "index": row["index"],
                "backend": row["backend"],
                "elapsed_seconds": row.get("elapsed_seconds"),
            }
            for row in self.rows
        ]

    def __repr__(self) -> str:
        keys = (
            sorted(set(self.rows[0]) - {"index", "parameters", "backend", "reason"})
            if self.rows
            else []
        )
        return f"{type(self).__name__}(items={len(self.rows)}, observables={keys})"
