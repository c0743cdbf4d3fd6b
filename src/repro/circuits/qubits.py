"""Qubit identifiers used throughout the circuit IR.

Qubits are lightweight, hashable, totally-ordered identifiers.  The
simulators map each qubit to a bit position in basis-state indices using the
ordering defined here (sorted order unless the caller supplies an explicit
qubit order), with the first qubit occupying the most-significant bit, which
mirrors the convention used by the paper's Cirq front-end.
"""

from __future__ import annotations

import functools
from typing import Iterable, List, Tuple


@functools.total_ordering
class Qubit:
    """Base class for qubit identifiers.

    Subclasses must provide a ``_comparison_key`` that is unique per qubit
    and orderable against other qubits of any kind.
    """

    def _comparison_key(self) -> Tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Qubit):
            return NotImplemented
        return self._comparison_key() == other._comparison_key()

    def __lt__(self, other: "Qubit") -> bool:
        if not isinstance(other, Qubit):
            return NotImplemented
        return self._comparison_key() < other._comparison_key()

    def __hash__(self) -> int:
        return hash(self._comparison_key())


class LineQubit(Qubit):
    """A qubit identified by an integer position on a line."""

    def __init__(self, index: int):
        self.index = int(index)

    def _comparison_key(self) -> Tuple:
        return ("line", self.index)

    def __reduce__(self):
        return (type(self), (self.index,))

    def __repr__(self) -> str:
        return f"LineQubit({self.index})"

    def __str__(self) -> str:
        return f"q{self.index}"

    @staticmethod
    def range(*args: int) -> List["LineQubit"]:
        """Return ``LineQubit`` instances for ``range(*args)``."""
        return [LineQubit(i) for i in range(*args)]


class GridQubit(Qubit):
    """A qubit identified by (row, col) coordinates on a 2D grid.

    Used by the VQE 2D-Ising workload where each qubit encodes a grid point.
    """

    def __init__(self, row: int, col: int):
        self.row = int(row)
        self.col = int(col)

    def _comparison_key(self) -> Tuple:
        return ("grid", self.row, self.col)

    def __reduce__(self):
        return (type(self), (self.row, self.col))

    def __repr__(self) -> str:
        return f"GridQubit({self.row}, {self.col})"

    def __str__(self) -> str:
        return f"q({self.row},{self.col})"

    @staticmethod
    def rect(rows: int, cols: int) -> List["GridQubit"]:
        """Return qubits covering a ``rows x cols`` rectangle in row-major order."""
        return [GridQubit(r, c) for r in range(rows) for c in range(cols)]


class NamedQubit(Qubit):
    """A qubit identified by an arbitrary string name (ancillas, etc.)."""

    def __init__(self, name: str):
        self.name = str(name)

    def _comparison_key(self) -> Tuple:
        return ("named", self.name)

    def __reduce__(self):
        return (type(self), (self.name,))

    def __repr__(self) -> str:
        return f"NamedQubit({self.name!r})"

    def __str__(self) -> str:
        return self.name


def sorted_qubits(qubits: Iterable[Qubit]) -> List[Qubit]:
    """Return the qubits in canonical (sorted) order, without duplicates."""
    seen = set()
    unique = []
    for q in qubits:
        if q not in seen:
            seen.add(q)
            unique.append(q)
    return sorted(unique)
