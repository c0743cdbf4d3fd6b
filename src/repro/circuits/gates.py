"""Quantum gates and operations.

A :class:`Gate` is a reusable description of a unitary (possibly
parameterized by symbols); applying it to concrete qubits with
:meth:`Gate.on` yields an :class:`Operation` that can be appended to a
circuit.

Two structural properties of a gate's unitary matter to the
knowledge-compilation pipeline:

* *monomial* (generalized permutation) unitaries — exactly one non-zero
  entry per row and column — compile to deterministic conditional amplitude
  tables and therefore to plain CNF clauses without weight variables;
* non-monomial unitaries (Hadamard, rotations about X/Y, ...) compile to
  weighted table entries.

The helpers :func:`is_monomial_matrix` and :func:`monomial_action` expose
that structure.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .parameters import (
    ParameterExpression,
    ParameterValue,
    ParamResolver,
    Symbol,
    is_parameterized,
    parameter_symbols,
    resolve,
)
from .qubits import Qubit

_ATOL = 1e-9


def is_monomial_matrix(matrix: np.ndarray, atol: float = _ATOL) -> bool:
    """Return True if ``matrix`` has exactly one non-zero entry per row and column."""
    nonzero = np.abs(matrix) > atol
    return bool(np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1))


def monomial_action(matrix: np.ndarray, atol: float = _ATOL) -> Tuple[List[int], List[complex]]:
    """Decompose a monomial unitary into a basis-state permutation plus phases.

    Returns ``(perm, phases)`` such that the gate maps input basis state ``i``
    to ``phases[i] * |perm[i]>``.
    """
    if not is_monomial_matrix(matrix, atol):
        raise ValueError("matrix is not monomial (one non-zero per row/column)")
    dim = matrix.shape[0]
    perm: List[int] = [0] * dim
    phases: List[complex] = [0j] * dim
    for col in range(dim):
        rows = np.nonzero(np.abs(matrix[:, col]) > atol)[0]
        row = int(rows[0])
        perm[col] = row
        phases[col] = complex(matrix[row, col])
    return perm, phases


class Gate:
    """Base class for quantum gates."""

    def __init__(self, name: str, num_qubits: int):
        self._name = name
        self._num_qubits = int(num_qubits)

    @property
    def name(self) -> str:
        return self._name

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        """Return the gate's unitary matrix (resolving symbols if needed)."""
        raise NotImplementedError

    @property
    def parameters(self) -> FrozenSet[Symbol]:
        """Free symbols appearing in this gate."""
        return frozenset()

    @property
    def is_parameterized(self) -> bool:
        return bool(self.parameters)

    def resolve(self, resolver: ParamResolver) -> "Gate":
        """Return a copy of this gate with symbols replaced by numbers."""
        return self

    def clifford_ops(self, resolver: Optional[ParamResolver] = None):
        """Tableau metadata: the gate as stabilizer primitives, or ``None``.

        Returns a tuple of :class:`repro.circuits.clifford.CliffordOp`
        primitives (``H``/``S``/``SDG``/``X``/``Y``/``Z``/``CNOT``/``CZ``/
        ``SWAP`` on gate-local qubit indices) equivalent to this gate's
        unitary up to global phase, or ``None`` when the gate is not (or not
        recognizably) Clifford.  Recognition is semantic — ``Rz(k*pi/2)``
        and friends qualify at Clifford angles — see
        :func:`repro.circuits.clifford.gate_clifford_ops`.
        """
        from .clifford import gate_clifford_ops

        return gate_clifford_ops(self, resolver)

    @property
    def is_clifford(self) -> bool:
        """True if the gate (at its current parameters) is a Clifford gate."""
        return self.clifford_ops() is not None

    def is_monomial(self, resolver: Optional[ParamResolver] = None) -> bool:
        """True if the gate's unitary is a generalized permutation matrix.

        Parameterized gates report structural monomiality, i.e. whether the
        unitary is monomial for *every* parameter value (diagonal and
        controlled-phase style gates are; X/Y rotations are not).
        """
        if self.is_parameterized and resolver is None:
            return self._structurally_monomial()
        return is_monomial_matrix(self.unitary(resolver))

    def _structurally_monomial(self) -> bool:
        return False

    def on(self, *qubits: Qubit) -> "Operation":
        return Operation(self, qubits)

    def __call__(self, *qubits: Qubit) -> "Operation":
        return self.on(*qubits)

    def __repr__(self) -> str:
        return f"<Gate {self._name}>"

    def __str__(self) -> str:
        return self._name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        if self.is_parameterized or other.is_parameterized:
            return self is other
        return (
            self.num_qubits == other.num_qubits
            and np.allclose(self.unitary(), other.unitary(), atol=_ATOL)
        )

    def __hash__(self) -> int:
        return hash((self._name, self._num_qubits))


class MatrixGate(Gate):
    """A gate defined by an explicit unitary matrix."""

    def __init__(self, name: str, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        dim = matrix.shape[0]
        if matrix.shape != (dim, dim) or dim & (dim - 1):
            raise ValueError("matrix must be square with power-of-two dimension")
        if not np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-7):
            raise ValueError(f"matrix for gate {name!r} is not unitary")
        super().__init__(name, dim.bit_length() - 1)
        self._matrix = matrix

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        return self._matrix.copy()


class _ConstantGate(Gate):
    """Internal helper for gates with fixed matrices (no unitarity re-check)."""

    def __init__(self, name: str, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        super().__init__(name, matrix.shape[0].bit_length() - 1)
        self._matrix = matrix

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        return self._matrix.copy()


_SQRT_HALF = 1.0 / math.sqrt(2.0)

I = _ConstantGate("I", np.eye(2))
X = _ConstantGate("X", np.array([[0, 1], [1, 0]]))
Y = _ConstantGate("Y", np.array([[0, -1j], [1j, 0]]))
Z = _ConstantGate("Z", np.array([[1, 0], [0, -1]]))
H = _ConstantGate("H", np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]]))
S = _ConstantGate("S", np.array([[1, 0], [0, 1j]]))
SDG = _ConstantGate("SDG", np.array([[1, 0], [0, -1j]]))
T = _ConstantGate("T", np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]]))
TDG = _ConstantGate("TDG", np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]]))

CNOT = _ConstantGate(
    "CNOT",
    np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
)
CZ = _ConstantGate("CZ", np.diag([1, 1, 1, -1]).astype(complex))
SWAP = _ConstantGate(
    "SWAP",
    np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
)
ISWAP = _ConstantGate(
    "ISWAP",
    np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]),
)
TOFFOLI = _ConstantGate(
    "TOFFOLI",
    np.block(
        [
            [np.eye(6), np.zeros((6, 2))],
            [np.zeros((2, 6)), np.array([[0, 1], [1, 0]])],
        ]
    ),
)
CCZ = _ConstantGate("CCZ", np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex))
FREDKIN = _ConstantGate(
    "FREDKIN",
    np.array(
        [
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
        ]
    ),
)


class _RotationGate(Gate):
    """Base class for single-parameter rotation gates."""

    def __init__(self, name: str, angle: ParameterValue):
        super().__init__(name, self._NUM_QUBITS)
        self.angle = angle

    _NUM_QUBITS = 1

    @property
    def parameters(self) -> FrozenSet[Symbol]:
        return parameter_symbols(self.angle)

    def resolve(self, resolver: ParamResolver) -> "Gate":
        if not self.is_parameterized:
            return self
        return type(self)(resolve(self.angle, resolver))

    def _resolved_angle(self, resolver: Optional[ParamResolver]) -> float:
        return resolve(self.angle, resolver)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.angle})"

    def __str__(self) -> str:
        return f"{self._name}({self.angle})"


class Rx(_RotationGate):
    """Rotation about the X axis: exp(-i angle X / 2)."""

    def __init__(self, angle: ParameterValue):
        super().__init__("Rx", angle)

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        theta = self._resolved_angle(resolver)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


class Ry(_RotationGate):
    """Rotation about the Y axis: exp(-i angle Y / 2)."""

    def __init__(self, angle: ParameterValue):
        super().__init__("Ry", angle)

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        theta = self._resolved_angle(resolver)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)


class Rz(_RotationGate):
    """Rotation about the Z axis: exp(-i angle Z / 2).  Monomial for all angles."""

    def __init__(self, angle: ParameterValue):
        super().__init__("Rz", angle)

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        theta = self._resolved_angle(resolver)
        return np.array(
            [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]], dtype=complex
        )

    def _structurally_monomial(self) -> bool:
        return True


class PhaseShift(_RotationGate):
    """diag(1, exp(i angle)).  Monomial for all angles."""

    def __init__(self, angle: ParameterValue):
        super().__init__("P", angle)

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        theta = self._resolved_angle(resolver)
        return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=complex)

    def _structurally_monomial(self) -> bool:
        return True


class CPhase(_RotationGate):
    """Controlled phase: diag(1, 1, 1, exp(i angle)).  Monomial."""

    _NUM_QUBITS = 2

    def __init__(self, angle: ParameterValue):
        super().__init__("CP", angle)

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        theta = self._resolved_angle(resolver)
        return np.diag([1, 1, 1, cmath.exp(1j * theta)]).astype(complex)

    def _structurally_monomial(self) -> bool:
        return True


class ZZ(_RotationGate):
    """Two-qubit Ising coupling exp(-i angle Z⊗Z / 2).  Diagonal, hence monomial.

    This is the workhorse entangling gate of both the QAOA Max-Cut and the
    VQE Ising ansatz circuits in the paper's evaluation.
    """

    _NUM_QUBITS = 2

    def __init__(self, angle: ParameterValue):
        super().__init__("ZZ", angle)

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        theta = self._resolved_angle(resolver)
        minus = cmath.exp(-1j * theta / 2)
        plus = cmath.exp(1j * theta / 2)
        return np.array(
            [[minus, 0, 0, 0], [0, plus, 0, 0], [0, 0, plus, 0], [0, 0, 0, minus]], dtype=complex
        )

    def _structurally_monomial(self) -> bool:
        return True


class XX(_RotationGate):
    """Two-qubit coupling exp(-i angle X⊗X / 2) (not monomial)."""

    _NUM_QUBITS = 2

    def __init__(self, angle: ParameterValue):
        super().__init__("XX", angle)

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        theta = self._resolved_angle(resolver)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        matrix = np.eye(4, dtype=complex) * c
        anti = -1j * s
        for i in range(4):
            matrix[i, 3 - i] = anti
        for i in range(4):
            matrix[i, i] = c
        return matrix


class ControlledGate(Gate):
    """A gate controlled on one additional qubit (control is the first qubit)."""

    def __init__(self, sub_gate: Gate):
        super().__init__(f"C{sub_gate.name}", sub_gate.num_qubits + 1)
        self.sub_gate = sub_gate

    @property
    def parameters(self) -> FrozenSet[Symbol]:
        return self.sub_gate.parameters

    def resolve(self, resolver: ParamResolver) -> "Gate":
        return ControlledGate(self.sub_gate.resolve(resolver))

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        sub = self.sub_gate.unitary(resolver)
        dim = sub.shape[0]
        full = np.eye(2 * dim, dtype=complex)
        full[dim:, dim:] = sub
        return full

    def _structurally_monomial(self) -> bool:
        return self.sub_gate._structurally_monomial()


class PermutationGate(Gate):
    """A gate permuting computational basis states, with optional phases.

    Used to express classical reversible arithmetic (e.g. modular
    multiplication in Shor's algorithm) compactly; always monomial.
    """

    def __init__(
        self,
        name: str,
        num_qubits: int,
        permutation: Sequence[int],
        phases: Optional[Sequence[complex]] = None,
    ):
        super().__init__(name, num_qubits)
        dim = 2 ** num_qubits
        permutation = list(permutation)
        if sorted(permutation) != list(range(dim)):
            raise ValueError("permutation must be a permutation of basis-state indices")
        self.permutation = permutation
        self.phases = [complex(p) for p in phases] if phases is not None else [1.0 + 0j] * dim
        for phase in self.phases:
            if abs(abs(phase) - 1.0) > 1e-7:
                raise ValueError("phases must have unit magnitude")

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        dim = len(self.permutation)
        matrix = np.zeros((dim, dim), dtype=complex)
        for src, dst in enumerate(self.permutation):
            matrix[dst, src] = self.phases[src]
        return matrix

    def _structurally_monomial(self) -> bool:
        return True


class MeasurementGate(Gate):
    """Computational-basis measurement of one or more qubits.

    Measurements are terminal in this toolchain: simulators sample the final
    wavefunction (or compiled arithmetic circuit) once all unitary/noise
    operations have been applied.
    """

    def __init__(self, num_qubits: int, key: str = ""):
        super().__init__("M", num_qubits)
        self.key = key

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        raise TypeError("MeasurementGate has no unitary")

    def __repr__(self) -> str:
        return f"MeasurementGate(num_qubits={self.num_qubits}, key={self.key!r})"


def measure(*qubits: Qubit, key: str = "") -> "Operation":
    """Convenience constructor for a measurement operation on ``qubits``."""
    if not qubits:
        raise ValueError("measure requires at least one qubit")
    return MeasurementGate(len(qubits), key or ",".join(str(q) for q in qubits)).on(*qubits)


class Operation:
    """A gate applied to a specific tuple of qubits."""

    def __init__(self, gate: Gate, qubits: Iterable[Qubit]):
        qubits = tuple(qubits)
        if len(qubits) != gate.num_qubits:
            raise ValueError(
                f"Gate {gate.name} acts on {gate.num_qubits} qubits, got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise ValueError("Operation qubits must be distinct")
        self.gate = gate
        self.qubits = qubits

    @property
    def is_measurement(self) -> bool:
        return isinstance(self.gate, MeasurementGate)

    @property
    def parameters(self) -> FrozenSet[Symbol]:
        return self.gate.parameters

    @property
    def is_parameterized(self) -> bool:
        return self.gate.is_parameterized

    def unitary(self, resolver: Optional[ParamResolver] = None) -> np.ndarray:
        return self.gate.unitary(resolver)

    def resolve(self, resolver: ParamResolver) -> "Operation":
        return Operation(self.gate.resolve(resolver), self.qubits)

    def with_qubits(self, *qubits: Qubit) -> "Operation":
        return Operation(self.gate, qubits)

    def __repr__(self) -> str:
        targets = ", ".join(str(q) for q in self.qubits)
        return f"{self.gate}({targets})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operation):
            return NotImplemented
        return self.gate == other.gate and self.qubits == other.qubits

    def __hash__(self) -> int:
        return hash((self.gate.name, self.qubits))


def standard_gate_by_name(name: str) -> Gate:
    """Look up a constant standard gate by its canonical name."""
    table: Dict[str, Gate] = {
        "I": I,
        "X": X,
        "Y": Y,
        "Z": Z,
        "H": H,
        "S": S,
        "SDG": SDG,
        "T": T,
        "TDG": TDG,
        "CNOT": CNOT,
        "CX": CNOT,
        "CZ": CZ,
        "SWAP": SWAP,
        "ISWAP": ISWAP,
        "TOFFOLI": TOFFOLI,
        "CCX": TOFFOLI,
        "CCZ": CCZ,
        "FREDKIN": FREDKIN,
        "CSWAP": FREDKIN,
    }
    try:
        return table[name.upper()]
    except KeyError as exc:
        raise KeyError(f"Unknown standard gate: {name}") from exc
