"""Shared rewrite rules: merge, cancellation, identity and commutation tests.

The rules split by gate kind to keep every decision **value-blind** for
rotation families:

* :class:`~repro.circuits.gates._RotationGate` instances (symbolic *or*
  concrete) only interact through class-based rules — same-class merge
  (``Rz(a) . Rz(b) -> Rz(a + b)``, exact for every family in the gate set)
  and probe-angle structural diagonality — so a symbolic ansatz and its
  resolved instances rewrite identically;
* constant gates may use numeric tests (inverse-pair products, diagonality,
  matrix commutators), memoized by **matrix value**, never by object
  identity, so a mutated gate object can never hit a stale entry;
* the one concrete-angle rule — dropping a gate whose unitary is the
  identity up to global phase — applies only where the canonicalizer's
  degenerate-angle carve-out already keys the gate by matrix
  (:func:`~repro.circuits.topology._liftable_concrete_angle` is false), so
  topology-key sharing between symbolic and resolved circuits survives.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..clifford import equal_up_to_global_phase
from ..gates import CNOT, ControlledGate, Gate, Operation, Rx, X, _RotationGate
from ..noise import NoiseOperation
from ..parameters import add_parameter_values
from ..topology import _PROBE_ANGLES, _liftable_concrete_angle

_ATOL = 1e-9

#: Sentinel returned by :func:`try_merge` when the pair cancels outright.
CANCEL = object()

#: Rotation families whose unitary is invariant under swapping their qubits
#: (diagonal with a symmetric diagonal), so operations match on qubit *set*.
_SYMMETRIC_FAMILY_NAMES = ("ZZ", "CP")

# ---------------------------------------------------------------------------
# Value-keyed facts about constant gates.
# ---------------------------------------------------------------------------
#: Numeric facts about constant gates (identity, diagonality, equality with
#: CNOT or X) and constant-gate pairs (cancellation, commutation), keyed by
#: the predicate plus each unitary's dimension and exact bytes (never by
#: object identity, so a mutated gate object can never hit a stale entry).
#: Only one- and two-qubit unitaries are memoized, which keeps every key
#: small; the memo is cleared wholesale past ``_FACTS_MAX`` entries.
_FACTS: Dict[tuple, bool] = {}
_FACTS_MAX = 4096
_FACTS_MAX_DIM = 4

_CNOT_MATRIX = CNOT.unitary(None)
_X_MATRIX = X.unitary(None)


def _matrix_is_diagonal(matrix: np.ndarray) -> bool:
    off = matrix - np.diag(np.diag(matrix))
    return bool(np.all(np.abs(off) <= _ATOL))


def _is_identity(matrix: np.ndarray) -> bool:
    return equal_up_to_global_phase(matrix, np.eye(matrix.shape[0]))


# ``Gate.__eq__`` against CNOT and X, as matrix predicates.
def _is_cnot_matrix(matrix: np.ndarray) -> bool:
    return matrix.shape == _CNOT_MATRIX.shape and bool(
        np.allclose(matrix, _CNOT_MATRIX, atol=_ATOL)
    )


def _is_x_matrix(matrix: np.ndarray) -> bool:
    return bool(np.allclose(matrix, _X_MATRIX, atol=_ATOL))


def _cancels(first: np.ndarray, second: np.ndarray) -> bool:
    return _is_identity(second @ first)


def _commutator_vanishes(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.allclose(a @ b, b @ a, atol=_ATOL))


def _fact(predicate: Callable[..., bool], *gates: Gate) -> bool:
    """``predicate`` of the gates' unitaries, memoized by value."""
    matrices = [np.asarray(gate.unitary(None), dtype=complex) for gate in gates]
    key = (predicate, *[(matrix.shape[0], matrix.tobytes()) for matrix in matrices])
    cached = _FACTS.get(key)
    if cached is None:
        cached = predicate(*matrices)
        if max(matrix.shape[0] for matrix in matrices) <= _FACTS_MAX_DIM:
            if len(_FACTS) >= _FACTS_MAX:
                _FACTS.clear()
            _FACTS[key] = cached
    return cached


# ---------------------------------------------------------------------------
# Structural diagonality.
# ---------------------------------------------------------------------------
#: Per rotation *class* (an immutable property, safe to key by class).
_DIAGONAL_CLASS_CACHE: Dict[type, bool] = {}


def _rotation_class_diagonal(gate_class: type) -> bool:
    cached = _DIAGONAL_CLASS_CACHE.get(gate_class)
    if cached is None:
        cached = all(
            _matrix_is_diagonal(gate_class(angle).unitary(None)) for angle in _PROBE_ANGLES
        )
        _DIAGONAL_CLASS_CACHE[gate_class] = cached
    return cached


def structurally_diagonal(gate: Gate) -> bool:
    """Whether the gate's unitary is diagonal for *every* parameter value.

    Rotation families answer per class (probed at the canonicalizer's fixed
    generic angles, concrete and symbolic instances alike); constant gates
    answer numerically with a value-keyed memo; other parameterized gates
    conservatively answer ``False``.
    """
    if isinstance(gate, _RotationGate):
        return _rotation_class_diagonal(type(gate))
    if isinstance(gate, ControlledGate):
        return structurally_diagonal(gate.sub_gate)
    if gate.is_parameterized:
        return False
    try:
        return _fact(_matrix_is_diagonal, gate)
    except TypeError:  # measurement gates have no unitary
        return False


# ---------------------------------------------------------------------------
# Identity removal.
# ---------------------------------------------------------------------------
def removable_identity(operation: Operation) -> bool:
    """True if the operation may be dropped (unitary = global phase only).

    Parameterized gates are never removable.  Concrete rotation-family gates
    are removable only when their angle is *degenerate* in the
    canonicalizer's sense (not liftable to a generic symbol — ``Rz(0)`` is,
    ``Rz(4*pi)`` = ``-I`` is not: the latter shares the generic zero/one
    pattern and keeps sharing the lifted compile instead).
    """
    if operation.is_measurement or isinstance(operation, NoiseOperation):
        return False
    gate = operation.gate
    if gate.is_parameterized:
        return False
    if isinstance(gate, _RotationGate) and _liftable_concrete_angle(gate):
        return False
    return _fact(_is_identity, gate)


# ---------------------------------------------------------------------------
# Merging and cancellation.
# ---------------------------------------------------------------------------
def _rotation_qubits_match(prev: Operation, cur: Operation) -> bool:
    if prev.qubits == cur.qubits:
        return True
    return (
        prev.gate.name in _SYMMETRIC_FAMILY_NAMES
        and set(prev.qubits) == set(cur.qubits)
    )


def _merge_rotations(
    gate_class: type, prev: Operation, cur: Operation, prev_angle, cur_angle
):
    angle = add_parameter_values(prev_angle, cur_angle)
    merged = gate_class(angle)
    wrapped: Gate = merged
    if isinstance(prev.gate, ControlledGate):
        wrapped = ControlledGate(merged)
    operation = Operation(wrapped, prev.qubits)
    if removable_identity(operation):
        return CANCEL
    return operation


def try_merge(prev: Operation, cur: Operation):
    """Merge or cancel two unitary-gate operations, ``prev`` before ``cur``.

    Returns a merged :class:`Operation` (placed on ``prev``'s qubits),
    :data:`CANCEL` when the pair multiplies to the identity up to global
    phase, or ``None`` when the pair must be left alone.  Callers guarantee
    adjacency (or commutation of everything in between).
    """
    prev_gate, cur_gate = prev.gate, cur.gate
    # Same-family rotations: exact angle addition, symbolic or concrete.
    if (
        isinstance(prev_gate, _RotationGate)
        and type(prev_gate) is type(cur_gate)
        and _rotation_qubits_match(prev, cur)
    ):
        return _merge_rotations(type(prev_gate), prev, cur, prev_gate.angle, cur_gate.angle)
    # Controlled rotations of the same family (control is qubit 0 for both).
    if (
        isinstance(prev_gate, ControlledGate)
        and isinstance(cur_gate, ControlledGate)
        and isinstance(prev_gate.sub_gate, _RotationGate)
        and type(prev_gate.sub_gate) is type(cur_gate.sub_gate)
        and prev.qubits == cur.qubits
    ):
        return _merge_rotations(
            type(prev_gate.sub_gate), prev, cur, prev_gate.sub_gate.angle, cur_gate.sub_gate.angle
        )
    # Constant-gate inverse pairs (H.H, T.TDG, CNOT.CNOT, ...).  Rotation
    # instances are excluded even when concrete: a numeric product test
    # would cancel generic-angle pairs (e.g. Rz(t).P(-t)) that their
    # symbolic twins cannot, splitting the shared topology key.
    if (
        not isinstance(prev_gate, _RotationGate)
        and not isinstance(cur_gate, _RotationGate)
        and not prev_gate.is_parameterized
        and not cur_gate.is_parameterized
        and prev.qubits == cur.qubits
    ):
        if _fact(_cancels, prev_gate, cur_gate):
            return CANCEL
    return None


# ---------------------------------------------------------------------------
# Commutation.
# ---------------------------------------------------------------------------
def _is_cnot(gate: Gate) -> bool:
    return gate is CNOT or (not gate.is_parameterized and _fact(_is_cnot_matrix, gate))


def _x_axis_1q(gate: Gate) -> bool:
    return gate is X or isinstance(gate, Rx) or (
        not gate.is_parameterized and gate.num_qubits == 1 and _fact(_is_x_matrix, gate)
    )


def commutes(a: Operation, b: Operation) -> bool:
    """Sufficient (never necessary) structural commutation test.

    Rules, all value-blind for rotation families:

    * disjoint qubits always commute;
    * two structurally diagonal gates commute however they overlap;
    * a diagonal gate on a CNOT's control commutes with the CNOT, an
      X-family gate on its target likewise; two CNOTs sharing only controls
      (or only targets) commute;
    * constant gates on the same qubit tuple fall back to a numeric
      commutator test.
    """
    if not set(a.qubits).intersection(b.qubits):
        return True
    if a.is_measurement or b.is_measurement:
        return False
    if isinstance(a, NoiseOperation) or isinstance(b, NoiseOperation):
        return False
    if structurally_diagonal(a.gate) and structurally_diagonal(b.gate):
        return True
    for cnot, other in ((a, b), (b, a)):
        if not _is_cnot(cnot.gate):
            continue
        control, target = cnot.qubits
        if _is_cnot(other.gate):
            shared = set(cnot.qubits).intersection(other.qubits)
            if shared == {control} and other.qubits[0] == control:
                return True
            if shared == {target} and other.qubits[1] == target:
                return True
            continue
        if len(other.qubits) == 1:
            if other.qubits[0] == control and structurally_diagonal(other.gate):
                return True
            if other.qubits[0] == target and _x_axis_1q(other.gate):
                return True
    if (
        a.qubits == b.qubits
        and not a.gate.is_parameterized
        and not b.gate.is_parameterized
        and not isinstance(a.gate, _RotationGate)
        and not isinstance(b.gate, _RotationGate)
    ):
        return _fact(_commutator_vanishes, a.gate, b.gate)
    return False
