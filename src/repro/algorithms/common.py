"""Shared helpers for the quantum-algorithm benchmark suite.

Each algorithm module exposes a builder returning an :class:`AlgorithmInstance`
holding the circuit, the qubits carrying the answer, and a predicate/value
describing the expected outcome, so that a single validation harness can run
the whole suite against any simulator backend (Section 3.3.1 / Appendix A.6
of the paper).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import CNOT, CZ, H, X
from ..circuits.qubits import LineQubit, Qubit
from ..linalg.tensor_ops import bits_to_index


#: Builders skip materializing dense ``2^n`` expected distributions beyond
#: this register width: the stabilizer backend runs instances at widths where
#: a dense array (unlike ``expected_bitstring``-style checks) cannot exist.
DENSE_EXPECTATION_QUBITS = 16


class AlgorithmInstance:
    """A named benchmark circuit plus its expected behaviour."""

    def __init__(
        self,
        name: str,
        circuit: Circuit,
        qubits: Sequence[Qubit],
        expected_distribution: Optional[np.ndarray] = None,
        expected_bitstring: Optional[Tuple[int, ...]] = None,
        description: str = "",
        metadata: Optional[Dict] = None,
    ):
        self.name = name
        self.circuit = circuit
        self.qubits = list(qubits)
        self.expected_distribution = expected_distribution
        self.expected_bitstring = expected_bitstring
        self.description = description
        self.metadata = metadata or {}

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_clifford(self) -> bool:
        """True when every gate in the circuit is Clifford (noise ignored).

        Builders whose circuits are Clifford by construction (Bell/GHZ,
        Deutsch–Jozsa, Bernstein–Vazirani, Simon, hidden shift, the Clifford
        RCS skeleton) also advertise it as ``metadata["clifford"] = True``;
        this property is the ground truth derived from the gate metadata,
        so the hybrid dispatcher and the advertisement can be cross-checked.
        """
        from ..circuits.clifford import is_clifford

        return is_clifford(self.circuit)

    def __repr__(self) -> str:
        return f"AlgorithmInstance({self.name!r}, qubits={self.num_qubits})"


def deterministic_distribution(bits: Sequence[int]) -> np.ndarray:
    """A distribution with all mass on one bitstring."""
    distribution = np.zeros(2 ** len(bits))
    distribution[bits_to_index(bits)] = 1.0
    return distribution


def apply_oracle_from_bitmask(
    circuit: Circuit, controls: Sequence[Qubit], target: Qubit, mask: Sequence[int]
) -> None:
    """Append CNOTs implementing f(x) = mask . x (mod 2) into ``target``.

    The standard phase/bit oracle used by Bernstein–Vazirani and hidden-shift
    style benchmarks.
    """
    for qubit, bit in zip(controls, mask):
        if bit:
            circuit.append(CNOT(qubit, target))
