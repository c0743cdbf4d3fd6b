"""Per-circuit backend routing shared by ``Device`` and ``HybridSimulator``.

:func:`select_backend` is the single routing rule of the code base: it
classifies one circuit (via :func:`repro.circuits.clifford.classify_circuit`)
and names the backend that should run it.  ``Device`` extends the rule with
observable-aware constraints (dense reconstruction caps, phase-consistent
state vectors) in :meth:`repro.api.device.Device` — both layers produce
:class:`BackendDecision` records so callers can assert *why* a circuit went
where it did.

Routing rules
-------------
* all gates Clifford, no noise  -> ``stabilizer`` for both entry points;
* all gates Clifford, all noise single-qubit Pauli mixtures ->
  ``stabilizer`` for ``sample`` (stochastic Pauli unravelling); ``simulate``
  falls back, because a tableau holds a pure stabilizer state, not a mixed
  state;
* anything else -> the fallback backend **if it is capable of the item**;
  an incapable fallback (e.g. a noisy 20-qubit ``simulate`` against the
  13-qubit density matrix) is replaced by the cheapest capable backend in
  :data:`FALLBACK_PREFERENCE` order, and
  :class:`~repro.errors.BackendCapabilityError` is raised only when *no*
  registered backend can serve the item.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from ..circuits.circuit import Circuit
from ..circuits.clifford import CircuitClass, classify_circuit
from ..circuits.parameters import ParamResolver
from ..errors import BackendCapabilityError
from .capabilities import capability_violation

#: Static cheapest-first substitution order used when the requested
#: fallback cannot serve an item: dense ``2^n`` state first, then batched
#: Monte Carlo trajectories, the ``4^n`` density matrix, contraction-based
#: and compile-heavy backends, and finally the (input-restricted) tableau.
FALLBACK_PREFERENCE: Tuple[str, ...] = (
    "state_vector",
    "trajectory",
    "density_matrix",
    "tensor_network",
    "knowledge_compilation",
    "stabilizer",
)


class BackendDecision(NamedTuple):
    """One routing decision: the chosen backend name plus the reason."""

    backend: str
    reason: str


def _can_serve(
    name: str,
    classification: CircuitClass,
    num_qubits: int,
    sampling: bool,
    repetitions: int = 0,
    memory_budget: Optional[int] = None,
) -> bool:
    """Whether registered backend ``name`` can take the item, by :func:`capability_violation`."""
    from .registry import backend_capabilities

    return (
        capability_violation(
            backend_capabilities(name),
            num_qubits,
            classification.has_noise,
            ("samples",) if sampling else (),
            clifford=classification.clifford,
            pauli_noise=classification.pauli_noise,
            memory_budget=memory_budget,
            batch_size=max(1, repetitions),
        )
        is None
    )


def _capable_fallback(
    fallback: str,
    reason: str,
    circuit: Circuit,
    classification: CircuitClass,
    sampling: bool,
    repetitions: int,
    memory_budget: Optional[int],
) -> BackendDecision:
    """``fallback`` if it can serve the item, else the cheapest capable backend."""
    from .registry import REGISTRY

    num_qubits = circuit.num_qubits
    if fallback not in REGISTRY:
        # Unregistered fallbacks (attached instances, tests) keep the old
        # contract: the caller promised the backend can run the item.
        return BackendDecision(fallback, reason)
    canonical = REGISTRY.resolve(fallback)
    if _can_serve(canonical, classification, num_qubits, sampling, repetitions, memory_budget):
        return BackendDecision(canonical, reason)
    for candidate in FALLBACK_PREFERENCE:
        if candidate == canonical or candidate not in REGISTRY:
            continue
        if _can_serve(candidate, classification, num_qubits, sampling, repetitions, memory_budget):
            return BackendDecision(
                candidate,
                f"{reason}; fallback {canonical!r} cannot serve this item "
                f"({num_qubits} qubits, noisy={classification.has_noise}), "
                f"substituted cheapest capable backend",
            )
    raise BackendCapabilityError(
        f"no registered backend can serve this item: {num_qubits} qubits, "
        f"noisy={classification.has_noise}, sampling={sampling} "
        f"(fallback {canonical!r} and every substitute are incapable)"
    )


def select_backend(
    circuit: Circuit,
    resolver: Optional[ParamResolver] = None,
    fallback: str = "state_vector",
    sampling: bool = True,
    repetitions: int = 0,
    memory_budget: Optional[int] = None,
) -> BackendDecision:
    """Choose the backend for ``circuit`` by the classification rules above.

    Stabilizer for Clifford work, otherwise the cheapest *capable* backend
    starting from ``fallback``.  ``sampling=False`` asks for the
    ``simulate`` route, where noisy circuits always leave the tableau (it
    cannot represent a mixed state).

    ``repetitions`` and ``memory_budget`` refine capability filtering (the
    trajectory ensemble's batch-aware memory estimate).
    """
    classification = classify_circuit(circuit, resolver)
    if classification.clifford and classification.pauli_noise:
        if classification.has_noise:
            if sampling:
                return BackendDecision("stabilizer", "clifford + pauli-noise")
            return _capable_fallback(
                fallback,
                "noisy simulate needs a mixed-state representation",
                circuit, classification, sampling, repetitions, memory_budget,
            )
        return BackendDecision("stabilizer", "clifford")
    return _capable_fallback(
        fallback,
        classification.blocker or "non-clifford circuit",
        circuit, classification, sampling, repetitions, memory_budget,
    )

