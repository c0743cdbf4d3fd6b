"""Circuit topology fingerprints and parameter canonicalization.

The knowledge-compilation pipeline compiles circuit *structure* — gate
classes and qubit wiring — while numeric parameters are re-bound per query.
Two circuits that differ only in rotation angles therefore share one compiled
arithmetic circuit, provided the cache can (a) recognize the shared topology
and (b) translate each circuit's concrete angles into the weight binding of
the shared compile.  This module supplies both halves:

* :func:`canonicalize_circuit` rewrites every parameterized-family gate angle
  (symbolic *or* concrete) to a fresh canonical symbol ``__p{i}``, producing
  a *template* circuit whose compiled form is valid for **any** angle values,
  plus the per-slot binding that recovers the original values;
* :attr:`CanonicalCircuit.topology_key` is a content hash of everything that
  determines compiled structure (wiring, gate classes, constant-gate
  matrices, noise-channel Kraus data, initial bits) and **nothing** that does
  not (angle values, symbol names, qubit names).

A QAOA ansatz carrying symbols, the same ansatz resolved at twenty different
parameter points, and a structurally identical circuit built from scratch all
map to one key — the compile-once/sweep-many contract of the paper.

A variational loop also re-submits the *same* circuit many times, so
:func:`canonicalize_circuit` memoizes its result by the circuit's exact
content (:func:`_circuit_content_key`); ``docs/caching.md`` §1 states the
rules.

Lifting a concrete angle to a symbol is always *correct* (the generic
structure evaluates exactly at every binding) but can be mildly *pessimal*
at degenerate values: ``Rx(0)`` compiles to the identity's tiny structure
when compiled directly, while the lifted template keeps the generic
``cos/sin`` weight entries bound to ``1``/``0``.  The trade is deliberate —
one reusable compile beats twenty bespoke ones.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit, Moment
from .gates import (
    ControlledGate,
    Gate,
    MatrixGate,
    MeasurementGate,
    Operation,
    PermutationGate,
    _ConstantGate,
    _RotationGate,
)
from .noise import NoiseChannel, NoiseOperation
from .parameters import ParameterExpression, ParameterValue, ParamResolver, Symbol, resolve
from .qubits import Qubit

#: Bump when the canonical description changes, so keys built under
#: different descriptions never collide.
TOPOLOGY_FORMAT_VERSION = 1

_ROUND_DIGITS = 12


class _SymbolAllocator:
    """Allocates the canonical ``__p{i}`` symbols and records their bindings."""

    def __init__(self) -> None:
        self.bindings: List[Tuple[str, ParameterValue]] = []

    def new_symbol(self, original: ParameterValue) -> Symbol:
        name = f"__p{len(self.bindings)}"
        self.bindings.append((name, original))
        return Symbol(name)


def _matrix_token(matrix: np.ndarray) -> Tuple:
    matrix = np.asarray(matrix, dtype=complex)
    return ("mat", matrix.shape, np.round(matrix, _ROUND_DIGITS).tobytes())


_STRUCTURE_ATOL = 1e-9
#: Fixed generic probe angles (arbitrary irrational-ish values) classifying a
#: rotation class's structural zero/one pattern.
_PROBE_ANGLES = (0.7316421, 1.9431753, 2.5147169)


def _entry_masks(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(is_zero, is_one) masks of a unitary's entries, mirroring the encoder."""
    matrix = np.asarray(matrix, dtype=complex)
    return (
        np.abs(matrix) <= _STRUCTURE_ATOL,
        np.abs(matrix - 1.0) <= _STRUCTURE_ATOL,
    )


def _liftable_concrete_angle(gate: "_RotationGate") -> bool:
    """Whether a concrete rotation angle may be lifted to a symbol.

    Lifting is structure-preserving only when the concrete unitary's
    zero/one entry pattern equals the gate class's *generic* pattern (the
    intersection over random probe angles, exactly how the CNF encoder
    classifies parameterized tables).  Degenerate angles — ``Ry(0)`` is the
    identity, ``Rx(pi)`` is monomial — compile to genuinely smaller
    structures when kept concrete, and lifting them would silently change
    compiled artifacts (e.g. which output bits unit propagation forces); such
    gates are keyed by their matrix instead.
    """
    try:
        concrete = gate.unitary(None)
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return False
    zero, one = _entry_masks(concrete)
    generic_zero = np.ones_like(zero)
    generic_one = np.ones_like(one)
    for angle in _PROBE_ANGLES:
        probe_zero, probe_one = _entry_masks(type(gate)(angle).unitary(None))
        generic_zero &= probe_zero
        generic_one &= probe_one
    return bool(np.array_equal(zero, generic_zero) and np.array_equal(one, generic_one))


def _rewrite_gate(gate: Gate, alloc: _SymbolAllocator) -> Tuple[Gate, Tuple]:
    """Return ``(template_gate, signature)`` for one gate.

    The signature captures exactly the structural identity of the gate; the
    template gate is the original with angle slots replaced by canonical
    symbols (or the original object when nothing needs rewriting).
    """
    if isinstance(gate, _RotationGate):
        # Every rotation-family angle — symbolic expression or generic
        # concrete number — becomes its own canonical symbol.  The signature
        # carries only the gate class, making the key angle-value
        # independent.  Degenerate concrete angles (see
        # :func:`_liftable_concrete_angle`) keep their exact matrix.
        if gate.is_parameterized or _liftable_concrete_angle(gate):
            return type(gate)(alloc.new_symbol(gate.angle)), ("rot", type(gate).__name__)
        return gate, _matrix_token(gate.unitary())
    if isinstance(gate, ControlledGate):
        inner, inner_signature = _rewrite_gate(gate.sub_gate, alloc)
        template = gate if inner is gate.sub_gate else ControlledGate(inner)
        return template, ("ctrl", inner_signature)
    if isinstance(gate, MeasurementGate):
        return gate, ("meas", gate.num_qubits)
    if isinstance(gate, PermutationGate):
        # Keyed by permutation + phases directly; materializing the unitary
        # would be O(4^k) for the wide arithmetic gates of Shor's algorithm.
        phases = tuple(complex(np.round(p, _ROUND_DIGITS)) for p in gate.phases)
        return gate, ("perm", tuple(gate.permutation), phases)
    if not gate.is_parameterized:
        return gate, _matrix_token(gate.unitary())
    # Unknown parameterized gate class: no rewrite.  Keying by repr (which
    # names the class, its values and symbol names) keeps correctness — two
    # circuits share a template only when these gates are literally equal and
    # the pass-through resolver covers their symbols.
    return gate, ("opaque", type(gate).__name__, repr(gate))


def _noise_signature(operation: NoiseOperation) -> Tuple:
    channel = operation.channel
    if channel.is_parameterized:
        # Symbolic noise stays symbolic in the template (probe resolvers would
        # otherwise sample probabilities outside [0, 1]); the repr-based key
        # means sharing requires literally matching channel definitions, and
        # the user's own resolver passes through to bind them.
        symbols = tuple(sorted(s.name for s in channel.parameters))
        return ("noise_sym", type(channel).__name__, repr(channel), symbols)
    kraus = np.asarray(channel.kraus_operators(None), dtype=complex)
    return ("noise", type(channel).__name__, kraus.shape, np.round(kraus, _ROUND_DIGITS).tobytes())


# ---------------------------------------------------------------------------
# Exact circuit content, the key of the front-end memos.
# ---------------------------------------------------------------------------
#: Canonical forms by ``(content, qubit order, initial bits)``; the value is
#: ``(template, bindings, topology_key, check)``.  Cleared wholesale past
#: ``_CANONICAL_MEMO_MAX`` entries, and by
#: :func:`repro.knowledge.cache.configure_default`.
_CANONICAL_MEMO: Dict[tuple, tuple] = {}
_CANONICAL_MEMO_MAX = 128

#: Gate classes whose unitary is the stored ``_matrix`` itself.
_STORED_MATRIX_GATES = (MatrixGate, _ConstantGate)


def _value_token(value: ParameterValue) -> Optional[Tuple]:
    """An exact, immutable token of a parameter value, or ``None``.

    Numbers key by type and value, and a zero by its sign as well
    (``0.0 == -0.0``, but their unitaries differ in sign bits).  Symbols and
    affine expressions key by their names and exact coefficients, copied out
    so that a later in-place edit of the expression cannot reach the key.
    """
    if isinstance(value, (float, int)):
        return (type(value), value) if value else (type(value), str(value))
    if isinstance(value, Symbol):
        return (type(value), value.name)
    if isinstance(value, ParameterExpression):
        tokens = [(symbol.name, _value_token(c)) for symbol, c in value._sorted_terms()]
        tokens.append(("", _value_token(value.offset)))
        if any(token is None for _, token in tokens):
            return None
        return (type(value), tuple(tokens))
    return None


def _gate_content(gate: Gate) -> Optional[Tuple]:
    """Everything about ``gate`` that a rewrite or canonical form can observe."""
    if type(gate) in _STORED_MATRIX_GATES:
        # Read the stored matrix instead of copying it through unitary().
        matrix = gate._matrix  # type: ignore[attr-defined]
        return (type(gate), gate._name, matrix.shape, matrix.dtype, matrix.tobytes())
    if isinstance(gate, _RotationGate):
        angle = _value_token(gate.angle)
        return None if angle is None else (type(gate), gate._name, angle)
    if isinstance(gate, ControlledGate):
        inner = _gate_content(gate.sub_gate)
        return None if inner is None else (type(gate), gate._name, inner)
    if isinstance(gate, MeasurementGate):
        return (type(gate), gate.num_qubits, gate.key)
    if isinstance(gate, PermutationGate):
        phases = np.asarray(gate.phases, dtype=complex).tobytes()
        return (type(gate), gate._name, gate.num_qubits, tuple(gate.permutation), phases)
    if gate.is_parameterized:
        return None
    matrix = np.asarray(gate.unitary(None))
    return (type(gate), gate._name, matrix.shape, matrix.dtype, matrix.tobytes())


def _noise_content(channel: NoiseChannel) -> Optional[Tuple]:
    """A concrete channel's exact Kraus bytes (``None`` for symbolic noise).

    The repr carries the channel's own parameters (``p`` rather than
    ``sqrt(p / 3)``), which two channels can differ in at the last bit while
    their Kraus operators round to the same bytes.
    """
    if channel.is_parameterized:
        return None
    kraus = np.asarray(channel.kraus_operators(None), dtype=complex)
    return (type(channel), channel.name, repr(channel), kraus.shape, kraus.tobytes())


def _circuit_content_key(circuit: Circuit) -> Optional[Tuple]:
    """The exact content of ``circuit``, or ``None`` when it cannot be keyed.

    One tuple per moment, holding a ``gate content, qubits`` pair of entries
    per operation.  Every value is exact: numbers compare by value, matrices
    and Kraus operators by their bytes, and qubits by their identifiers.
    Nothing keys by object identity or by a rounded value, so a gate mutated
    in place gives a different key.  Symbolic noise and parameterized gates
    of unknown classes give ``None``.
    """
    moments = []
    for moment in circuit.moments:
        entries: List = []
        for operation in moment.operations:
            if isinstance(operation, NoiseOperation):
                content = _noise_content(operation.channel)
            else:
                content = _gate_content(operation.gate)
            if content is None:
                return None
            entries.append(content)
            entries.append(tuple(operation.qubits))
        moments.append(tuple(entries))
    return tuple(moments)


def _canonical_check(
    template: Circuit, bindings: Sequence[Tuple[str, ParameterValue]]
) -> Optional[Tuple]:
    """The content a stored canonical form must still have to be reused.

    A template shares operations, and its bindings share angle objects, with
    the circuit that first filled the memo entry; this key changes if any of
    them is mutated afterwards.
    """
    template_key = _circuit_content_key(template)
    tokens = tuple((name, _value_token(value)) for name, value in bindings)
    if template_key is None or any(token is None for _, token in tokens):
        return None
    return template_key, tokens


def bind_canonical_parameters(
    bindings: Sequence[Tuple[str, ParameterValue]],
    resolver: Optional[ParamResolver],
) -> Optional[ParamResolver]:
    """Translate a caller resolver into canonical-symbol assignments.

    The single implementation behind :meth:`CanonicalCircuit.bind` and
    :meth:`repro.simulator.kc_simulator.CompiledCircuit.effective_resolver`:
    every canonical symbol gets the value of its original expression under
    ``resolver``, merged over the caller's own assignments so symbols the
    canonicalization left untouched (e.g. symbolic noise strengths) still
    resolve.  With no bindings, ``resolver`` passes through unchanged.

    Raises
    ------
    ValueError
        If an original value is symbolic and ``resolver`` is ``None``.
    """
    if not bindings:
        return resolver
    merged: Dict[str, float] = {} if resolver is None else resolver.as_dict()
    for name, original in bindings:
        merged[name] = resolve(original, resolver)
    return ParamResolver(merged)


class CanonicalCircuit:
    """A circuit rewritten over canonical parameter symbols.

    Attributes
    ----------
    circuit:
        The original circuit the canonical form was derived from.
    template:
        The rewritten circuit: identical moment structure, with every
        rotation-family angle replaced by a canonical ``__p{i}`` symbol.
        This is what the knowledge compiler actually compiles.
    bindings:
        ``(canonical_name, original_value)`` pairs, one per rewritten angle
        slot, in order of appearance.  ``original_value`` is the slot's
        original :data:`ParameterValue` — a number, a :class:`Symbol` or an
        affine :class:`ParameterExpression`.
    topology_key:
        Hex SHA-256 digest of the structural description.  Equal keys mean
        the compiled artifact is interchangeable modulo weight re-binding.
    """

    def __init__(
        self,
        circuit: Circuit,
        template: Circuit,
        bindings: List[Tuple[str, ParameterValue]],
        topology_key: str,
    ):
        self.circuit = circuit
        self.template = template
        self.bindings = bindings
        self.topology_key = topology_key

    @property
    def is_rewritten(self) -> bool:
        """True if any gate parameter was lifted to a canonical symbol."""
        return bool(self.bindings)

    def bind(self, resolver: Optional[ParamResolver]) -> Optional[ParamResolver]:
        """Translate a resolver over the original circuit to the template.

        Returns a resolver assigning every canonical symbol the value of its
        original expression under ``resolver`` (concrete originals need no
        resolver at all), merged over the caller's own assignments so that
        non-rewritten symbols — e.g. symbolic noise strengths — still
        resolve.

        Raises
        ------
        ValueError
            If an original angle is symbolic and ``resolver`` is ``None``
            (the same contract as querying an unresolved circuit directly).
        """
        return bind_canonical_parameters(self.bindings, resolver)

    def __repr__(self) -> str:
        return (
            f"CanonicalCircuit(key={self.topology_key[:12]}..., "
            f"lifted={len(self.bindings)})"
        )


def canonicalize_circuit(
    circuit: Circuit,
    qubit_order: Optional[Sequence[Qubit]] = None,
    initial_bits: Optional[Sequence[int]] = None,
) -> CanonicalCircuit:
    """Compute the canonical form and topology key of ``circuit``.

    Parameters
    ----------
    circuit:
        The circuit to fingerprint (parameterized or fully resolved).
    qubit_order:
        The qubit order the compile will use (defaults to the circuit's
        sorted qubits); qubits enter the key by *position*, not name.
    initial_bits:
        Initial computational-basis bits baked into the compile (part of the
        key: different initial states compile to different structures).

    Returns
    -------
    CanonicalCircuit
        Template + bindings + key; see the class docstring.  A circuit whose
        exact content was canonicalized before, under the same qubit order
        and initial bits, gets the memoized template, bindings and key.
    """
    order = list(qubit_order) if qubit_order is not None else None
    bits = tuple(int(b) for b in initial_bits) if initial_bits is not None else None
    content = _circuit_content_key(circuit)
    key = None
    if content is not None:
        key = (content, None if order is None else tuple(order), bits)
        entry = _CANONICAL_MEMO.get(key)
        if entry is not None:
            template, bindings, topology_key, check = entry
            if _canonical_check(template, bindings) == check:
                return CanonicalCircuit(circuit, template, list(bindings), topology_key)
    canonical = _canonical_form(circuit, order, bits)
    if key is not None:
        check = _canonical_check(canonical.template, canonical.bindings)
        if check is not None:
            if len(_CANONICAL_MEMO) >= _CANONICAL_MEMO_MAX:
                _CANONICAL_MEMO.clear()
            _CANONICAL_MEMO[key] = (
                canonical.template, tuple(canonical.bindings), canonical.topology_key, check
            )
    return canonical


def _canonical_form(
    circuit: Circuit, qubit_order: Optional[List[Qubit]], initial_bits: Optional[Tuple[int, ...]]
) -> CanonicalCircuit:
    """The unmemoized body of :func:`canonicalize_circuit`."""
    qubits = qubit_order if qubit_order is not None else circuit.all_qubits()
    position_of: Dict[Qubit, int] = {qubit: index for index, qubit in enumerate(qubits)}
    alloc = _SymbolAllocator()

    description: List = [TOPOLOGY_FORMAT_VERSION, len(qubits), initial_bits]
    template = Circuit()
    for moment in circuit.moments:
        new_operations: List[Operation] = []
        for operation in moment:
            # Qubits absent from an explicit qubit_order are an error later in
            # the pipeline; surface it here with the same vocabulary.
            try:
                positions = tuple(position_of[qubit] for qubit in operation.qubits)
            except KeyError as error:
                raise ValueError(f"operation {operation!r} uses a qubit outside qubit_order") from error
            if isinstance(operation, NoiseOperation):
                description.append((_noise_signature(operation), positions))
                new_operations.append(operation)
                continue
            template_gate, signature = _rewrite_gate(operation.gate, alloc)
            description.append((signature, positions))
            new_operations.append(
                operation if template_gate is operation.gate else Operation(template_gate, operation.qubits)
            )
        # Preserve the exact moment structure: operation order determines
        # Bayesian-network node insertion order and hence CNF numbering.
        template.moments.append(Moment(new_operations))

    digest = hashlib.sha256(repr(description).encode("utf-8")).hexdigest()
    return CanonicalCircuit(circuit, template, alloc.bindings, digest)


def circuit_topology_key(
    circuit: Circuit,
    qubit_order: Optional[Sequence[Qubit]] = None,
    initial_bits: Optional[Sequence[int]] = None,
) -> str:
    """The topology fingerprint alone (see :func:`canonicalize_circuit`)."""
    return canonicalize_circuit(circuit, qubit_order, initial_bits).topology_key
