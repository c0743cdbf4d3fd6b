"""Clifford-gate recognition and circuit classification.

The stabilizer backend (:mod:`repro.stabilizer`) simulates circuits whose
gates all lie in the Clifford group — the normalizer of the Pauli group,
generated by ``H``, ``S`` and ``CNOT`` — in ``O(poly(n))`` time and memory
via the Aaronson–Gottesman tableau.  This module is the *classification*
layer that makes automatic dispatch possible:

* every gate can report its **tableau metadata** through
  :meth:`repro.circuits.gates.Gate.clifford_ops` (which delegates to
  :func:`gate_clifford_ops` here): a sequence of :class:`CliffordOp`
  primitives — ``H``/``S``/``SDG``/``X``/``Y``/``Z``/``CNOT``/``CZ``/``SWAP``
  on the gate's *local* qubit indices — equivalent to the gate's unitary up
  to global phase, or ``None`` when the gate is not Clifford;
* recognition is **semantic**, not syntactic: a single-qubit unitary is
  matched (up to global phase) against the full 24-element single-qubit
  Clifford group, so ``Rz(k*pi/2)``, ``Rx(k*pi/2)``, ``Ry(k*pi/2)``,
  ``PhaseShift(k*pi/2)`` and arbitrary :class:`MatrixGate` instances are all
  recognized at Clifford angles.  Mirroring the angle canonicalization of
  :mod:`repro.circuits.topology` (which probes rotation families to decide
  whether a concrete angle is structurally generic), the classifier resolves
  angles through the same :func:`~repro.circuits.parameters.resolve`
  machinery and keys its cache by the gate's resolved matrix — never by the
  angle's textual form;
* two-qubit gates are handled by a template library (``CNOT`` in both
  orientations, ``CY``, ``SWAP``, ``ISWAP`` and its inverse) plus two
  generic constructions: any *diagonal* two-qubit Clifford factors as
  ``S^a (x) S^b`` times ``CZ^c`` (covering ``CZ``, ``CPhase(k*pi)``,
  ``ZZ(k*pi/2)`` and products thereof), and an ``(H (x) H)``-conjugated
  diagonal covers the ``XX(k*pi/2)`` family;
* :func:`channel_pauli_mixture` recognizes noise channels that are
  probabilistic mixtures of single-qubit Paulis (bit/phase flip,
  depolarizing) — the class the stabilizer backend can unravel
  stochastically;
* :func:`classify_circuit` rolls both up into the dispatch decision
  consumed by :func:`repro.api.routing.select_backend`.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit
from .gates import Gate, MeasurementGate, Operation
from .noise import NoiseChannel, NoiseOperation
from .parameters import ParamResolver

_ATOL = 1e-9

#: Primitive operations the stabilizer tableau implements directly.
CLIFFORD_PRIMITIVES = ("X", "Y", "Z", "H", "S", "SDG", "CNOT", "CZ", "SWAP")


class CliffordOp(NamedTuple):
    """One tableau primitive acting on (gate-local or circuit-global) qubit indices."""

    name: str
    qubits: Tuple[int, ...]


_SQRT_HALF = 1.0 / math.sqrt(2.0)

_PRIMITIVE_1Q: Dict[str, np.ndarray] = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
}

_PAULI_1Q: Dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": _PRIMITIVE_1Q["X"],
    "Y": _PRIMITIVE_1Q["Y"],
    "Z": _PRIMITIVE_1Q["Z"],
}


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, atol: float = _ATOL) -> bool:
    """True if ``a`` equals ``b`` times a unit-magnitude scalar."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    anchor = np.unravel_index(int(np.argmax(np.abs(b))), b.shape)
    if abs(a[anchor]) < atol or abs(b[anchor]) < atol:
        return False
    phase = a[anchor] / b[anchor]
    if abs(abs(phase) - 1.0) > 1e-7:
        return False
    return bool(np.allclose(a, phase * b, atol=atol))


def _phase_normalized_key(matrix: np.ndarray, decimals: int = 6) -> bytes:
    """Dedupe key: normalize the largest entry to be real-positive, round, pack."""
    anchor = np.unravel_index(int(np.argmax(np.abs(matrix))), matrix.shape)
    phase = matrix[anchor] / abs(matrix[anchor])
    normalized = np.round(matrix / phase, decimals) + 0.0  # +0.0 folds -0.0 into +0.0
    return normalized.tobytes()


def _sequence_unitary(ops: Sequence[CliffordOp], num_qubits: int) -> np.ndarray:
    """Dense unitary of a primitive sequence (first op applied first)."""
    from ..linalg.tensor_ops import expand_operator

    total = np.eye(2 ** num_qubits, dtype=complex)
    for op in ops:
        matrix = _PRIMITIVE_1Q[op.name] if len(op.qubits) == 1 else _PRIMITIVE_2Q[op.name]
        total = expand_operator(matrix, list(op.qubits), num_qubits) @ total
    return total


_PRIMITIVE_2Q: Dict[str, np.ndarray] = {
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def _build_single_qubit_library() -> List[Tuple[np.ndarray, Tuple[CliffordOp, ...]]]:
    """The 24 single-qubit Cliffords (up to phase) with shortest primitive sequences.

    Breadth-first closure over the primitives, seeded with the named gates so
    matches prefer ``("X",)`` over the equivalent ``("H","Z","H")``.
    """
    library: List[Tuple[np.ndarray, Tuple[CliffordOp, ...]]] = []
    seen: Dict[bytes, Tuple[CliffordOp, ...]] = {}

    def add(matrix: np.ndarray, ops: Tuple[CliffordOp, ...]) -> bool:
        key = _phase_normalized_key(matrix)
        if key in seen:
            return False
        seen[key] = ops
        library.append((matrix, ops))
        return True

    add(np.eye(2, dtype=complex), ())
    for name, matrix in _PRIMITIVE_1Q.items():
        add(matrix, (CliffordOp(name, (0,)),))
    frontier = list(library)
    while frontier:
        next_frontier = []
        for matrix, ops in frontier:
            for name in ("H", "S"):
                candidate = _PRIMITIVE_1Q[name] @ matrix
                extended = ops + (CliffordOp(name, (0,)),)
                if add(candidate, extended):
                    next_frontier.append((candidate, extended))
        frontier = next_frontier
    if len(library) != 24:  # pragma: no cover - sanity guard
        raise AssertionError(f"single-qubit Clifford closure has {len(library)} elements")
    return library


_SINGLE_QUBIT_LIBRARY = _build_single_qubit_library()


def _two_qubit_templates() -> List[Tuple[np.ndarray, Tuple[CliffordOp, ...]]]:
    """Named two-qubit Cliffords that are neither diagonal nor H(x)H-diagonal."""
    templates: List[Tuple[CliffordOp, ...]] = [
        (CliffordOp("CNOT", (0, 1)),),
        (CliffordOp("CNOT", (1, 0)),),
        (CliffordOp("SWAP", (0, 1)),),
        # CY = S_target . CX . SDG_target (conjugating the flip by S).
        (CliffordOp("SDG", (1,)), CliffordOp("CNOT", (0, 1)), CliffordOp("S", (1,))),
        (CliffordOp("SDG", (0,)), CliffordOp("CNOT", (1, 0)), CliffordOp("S", (0,))),
        # ISWAP = (S (x) S) . CZ . SWAP; its inverse swaps S for SDG.
        (
            CliffordOp("S", (0,)),
            CliffordOp("S", (1,)),
            CliffordOp("CZ", (0, 1)),
            CliffordOp("SWAP", (0, 1)),
        ),
        (
            CliffordOp("SDG", (0,)),
            CliffordOp("SDG", (1,)),
            CliffordOp("CZ", (0, 1)),
            CliffordOp("SWAP", (0, 1)),
        ),
    ]
    return [(_sequence_unitary(ops, 2), ops) for ops in templates]


_TWO_QUBIT_TEMPLATES = _two_qubit_templates()

_H_TENSOR_H = np.kron(_PRIMITIVE_1Q["H"], _PRIMITIVE_1Q["H"])


def _quarter_turns(angle: float) -> Optional[int]:
    """``angle / (pi/2)`` as an integer mod 4, or ``None`` if off-grid."""
    turns = angle / (math.pi / 2.0)
    nearest = round(turns)
    if abs(turns - nearest) > 1e-7:
        return None
    return int(nearest) % 4


def _s_power(turns: int, qubit: int) -> Tuple[CliffordOp, ...]:
    """``S**turns`` on ``qubit`` as primitives (turns taken mod 4)."""
    return {
        0: (),
        1: (CliffordOp("S", (qubit,)),),
        2: (CliffordOp("Z", (qubit,)),),
        3: (CliffordOp("SDG", (qubit,)),),
    }[turns % 4]


def _diagonal_ops(diagonal: np.ndarray) -> Optional[Tuple[CliffordOp, ...]]:
    """Factor a diagonal two-qubit Clifford as S-powers plus an optional CZ.

    With phases relative to the ``|00>`` entry, a diagonal unitary is Clifford
    iff the ``|01>`` and ``|10>`` phases are quarter turns and the ``|11>``
    phase equals their sum plus a multiple of pi (the CZ bit).
    """
    if not np.allclose(np.abs(diagonal), 1.0, atol=_ATOL):
        return None
    relative = diagonal / diagonal[0]
    turns_01 = _quarter_turns(cmath.phase(relative[1]))
    turns_10 = _quarter_turns(cmath.phase(relative[2]))
    if turns_01 is None or turns_10 is None:
        return None
    interaction = cmath.phase(relative[3] / (relative[1] * relative[2]))
    half_turns = interaction / math.pi
    nearest = round(half_turns)
    if abs(half_turns - nearest) > 1e-7:
        return None
    # Qubit 0 is the most-significant bit: index 1 = |01> carries qubit 1's phase.
    ops = _s_power(turns_01, 1) + _s_power(turns_10, 0)
    if int(nearest) % 2:
        ops = ops + (CliffordOp("CZ", (0, 1)),)
    return ops


def _match_two_qubit(matrix: np.ndarray) -> Optional[Tuple[CliffordOp, ...]]:
    for template, ops in _TWO_QUBIT_TEMPLATES:
        if equal_up_to_global_phase(matrix, template):
            return ops
    if np.allclose(matrix, np.diag(np.diagonal(matrix)), atol=_ATOL):
        return _diagonal_ops(np.diagonal(matrix).astype(complex))
    conjugated = _H_TENSOR_H @ matrix @ _H_TENSOR_H
    if np.allclose(conjugated, np.diag(np.diagonal(conjugated)), atol=_ATOL):
        inner = _diagonal_ops(np.diagonal(conjugated).astype(complex))
        if inner is None:
            return None
        hh = (CliffordOp("H", (0,)), CliffordOp("H", (1,)))
        return hh + inner + hh
    return None


#: Classification cache keyed by the gate's *resolved, phase-normalized*
#: unitary bytes (rounded near the matching tolerance), so repeated
#: classification of any angle — including resolved parameterized gates —
#: is one dict probe instead of a scan over the Clifford library.  Bounded:
#: cleared wholesale past ``_CLASSIFY_CACHE_MAX`` entries.
_CLASSIFY_CACHE: Dict[Tuple[int, bytes], Optional[Tuple[CliffordOp, ...]]] = {}
_CLASSIFY_CACHE_MAX = 4096
#: Front memo keyed by the resolved unitary's *exact* bytes: a repeated
#: matrix skips building the rounded key.  It only stores what the rounded
#: path returned, and has the same bound.
_EXACT_CLASSIFY_CACHE: Dict[Tuple[int, bytes], Optional[Tuple[CliffordOp, ...]]] = {}
_CACHE_MISS = object()


def _remember(cache: Dict, key, value) -> None:
    if len(cache) >= _CLASSIFY_CACHE_MAX:
        cache.clear()
    cache[key] = value


def _classify_matrix(num_qubits: int, matrix: np.ndarray) -> Optional[Tuple[CliffordOp, ...]]:
    key = (num_qubits, _phase_normalized_key(matrix, decimals=9))
    cached = _CLASSIFY_CACHE.get(key, _CACHE_MISS)
    if cached is not _CACHE_MISS:
        return cached  # type: ignore[return-value]
    result: Optional[Tuple[CliffordOp, ...]] = None
    if num_qubits == 1:
        for template, ops in _SINGLE_QUBIT_LIBRARY:
            if equal_up_to_global_phase(matrix, template):
                result = ops
                break
    else:
        result = _match_two_qubit(matrix)
    _remember(_CLASSIFY_CACHE, key, result)
    return result


def gate_clifford_ops(
    gate: Gate, resolver: Optional[ParamResolver] = None
) -> Optional[Tuple[CliffordOp, ...]]:
    """Tableau metadata for ``gate``: primitives on local indices, or ``None``.

    ``None`` means "not recognized as Clifford" — for gates on more than two
    qubits, parameterized gates without a resolver, and genuinely
    non-Clifford unitaries (``T``, generic rotations, ``TOFFOLI``, ...).
    """
    if isinstance(gate, MeasurementGate):
        return None
    if gate.num_qubits > 2:
        return None
    if gate.is_parameterized and resolver is None:
        return None
    try:
        matrix = gate.unitary(resolver)
    except (TypeError, ValueError):
        return None
    exact = (gate.num_qubits, np.asarray(matrix, dtype=complex).tobytes())
    cached = _EXACT_CLASSIFY_CACHE.get(exact, _CACHE_MISS)
    if cached is not _CACHE_MISS:
        return cached  # type: ignore[return-value]
    result = _classify_matrix(gate.num_qubits, matrix)
    _remember(_EXACT_CLASSIFY_CACHE, exact, result)
    return result


def operation_clifford_ops(
    operation: Operation,
    positions: Sequence[int],
    resolver: Optional[ParamResolver] = None,
) -> Optional[Tuple[CliffordOp, ...]]:
    """The operation's primitives rewritten onto circuit-global qubit positions."""
    ops = gate_clifford_ops(operation.gate, resolver)
    if ops is None:
        return None
    return tuple(
        CliffordOp(op.name, tuple(positions[local] for local in op.qubits)) for op in ops
    )


def channel_pauli_mixture(
    channel: NoiseChannel, resolver: Optional[ParamResolver] = None
) -> Optional[List[Tuple[float, str]]]:
    """``(probability, pauli_name)`` pairs for single-qubit Pauli mixtures.

    Returns ``None`` for multi-qubit channels, non-mixture channels
    (amplitude/phase damping) and mixtures with non-Pauli components.
    """
    if channel.num_qubits != 1 or not channel.is_mixture:
        return None
    try:
        components = channel.mixture(resolver)
    except (TypeError, ValueError):
        return None
    recognized: List[Tuple[float, str]] = []
    for probability, unitary in components:
        name = None
        for pauli, matrix in _PAULI_1Q.items():
            if equal_up_to_global_phase(unitary, matrix):
                name = pauli
                break
        if name is None:
            return None
        recognized.append((float(probability), name))
    return recognized


class CircuitClass(NamedTuple):
    """Dispatch-relevant classification of one circuit.

    ``clifford`` — every unitary gate recognized as Clifford;
    ``pauli_noise`` — every noise operation a single-qubit Pauli mixture
    (vacuously true without noise); ``has_noise`` — any noise present;
    ``blocker`` — a human-readable description of the first operation that
    keeps the circuit off the stabilizer path, or ``None``.
    """

    clifford: bool
    pauli_noise: bool
    has_noise: bool
    blocker: Optional[str]


def classify_circuit(
    circuit: Circuit, resolver: Optional[ParamResolver] = None
) -> CircuitClass:
    """Classify ``circuit`` for stabilizer-vs-dense dispatch."""
    clifford = True
    pauli_noise = True
    has_noise = False
    blocker: Optional[str] = None
    for operation in circuit.all_operations():
        if operation.is_measurement:
            continue
        if isinstance(operation, NoiseOperation):
            has_noise = True
            if pauli_noise and channel_pauli_mixture(operation.channel, resolver) is None:
                pauli_noise = False
                if blocker is None:
                    blocker = f"non-Pauli noise channel {operation!r}"
            continue
        if clifford and gate_clifford_ops(operation.gate, resolver) is None:
            clifford = False
            if blocker is None:
                blocker = f"non-Clifford gate {operation!r}"
    return CircuitClass(clifford, pauli_noise, has_noise, blocker)


def is_clifford(circuit: Circuit, resolver: Optional[ParamResolver] = None) -> bool:
    """True if every unitary gate in ``circuit`` is Clifford (noise ignored)."""
    return classify_circuit(circuit, resolver).clifford


def is_pauli_noise(circuit: Circuit, resolver: Optional[ParamResolver] = None) -> bool:
    """True if every noise operation is a single-qubit Pauli mixture."""
    return classify_circuit(circuit, resolver).pauli_noise
