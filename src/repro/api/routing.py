"""The one routing function of the code base: :func:`select_backend`.

``Device.decide``, ``Device.simulate``, ``Device.sample`` and the
``Device.run`` planner each make one call to it per item.
Every decision is a :class:`BackendDecision`, so callers can assert *why*
an item went where it did.

An item is a circuit plus the ``observables`` it records (any of
``"samples"``, ``"probabilities"``, ``"expectation"``, ``"state_vector"``;
the empty tuple is the ``simulate`` route, the backend's native result) at
its run width ``num_qubits`` (``len(qubit_order)`` when a run gives one).

Routing rules
-------------
* a fixed ``backend`` takes every item it declares it can serve, by
  :func:`~repro.api.capabilities.capability_violation`;
* under ``"auto"`` the circuit class
  (:func:`repro.circuits.clifford.classify_circuit`) decides:

  - all gates Clifford, no noise -> ``stabilizer``, unless the item records
    a ``state_vector`` (a tableau's amplitudes carry no consistent global
    phase) or dense probabilities over more than
    :data:`~repro.stabilizer.simulator.DENSE_PROBABILITY_QUBITS` qubits;
    those go to the fallback;
  - all gates Clifford, all noise single-qubit Pauli mixtures, samples only
    -> ``stabilizer`` (stochastic Pauli unravelling); any other observable
    needs a mixed state, which a tableau cannot hold -> the fallback;
  - anything else -> the fallback.

  The fallback is ``noisy_fallback`` for a noisy item that records more than
  samples, and ``fallback`` otherwise.  A registered fallback that cannot
  serve the item (its observables at its width) is replaced by the cheapest
  capable backend in :data:`FALLBACK_PREFERENCE` order; an unregistered name
  (an attached instance) is taken as given;
* with a ``memory_budget``, a backend whose estimated working state
  (batch-aware: the trajectory ensemble is charged
  ``min(repetitions, max_batch_size)`` rows) exceeds the budget is
  downgraded to ``trajectory`` under ``"auto"`` when that is capable within
  the budget and the item records no state vector.

An item no backend can serve raises
:class:`~repro.errors.BackendCapabilityError`, and an item over budget with
no downgrade raises :class:`~repro.errors.MemoryBudgetError`, both before
any work runs.
"""

from __future__ import annotations

from typing import Collection, NamedTuple, Optional, Tuple

from ..circuits.circuit import Circuit
from ..circuits.clifford import CircuitClass, classify_circuit
from ..circuits.parameters import ParamResolver
from ..errors import BackendCapabilityError, MemoryBudgetError
from ..stabilizer.simulator import DENSE_PROBABILITY_QUBITS
from .capabilities import capability_violation
from .registry import REGISTRY, backend_capabilities

#: Static cheapest-first substitution order used when the requested
#: fallback cannot serve an item: dense ``2^n`` state first, then batched
#: Monte Carlo trajectories, the ``4^n`` density matrix, and the
#: contraction-based and compile-heavy backends.  The tableau is no
#: substitute: the rules already send it every item it serves, and reach the
#: fallback only for items it must not take.
FALLBACK_PREFERENCE: Tuple[str, ...] = (
    "state_vector",
    "trajectory",
    "density_matrix",
    "tensor_network",
    "knowledge_compilation",
)


class BackendDecision(NamedTuple):
    """One routing decision: the chosen backend name plus the reason."""

    backend: str
    reason: str


def _violation(
    name: str,
    classification: CircuitClass,
    num_qubits: int,
    observables: Collection[str],
) -> Optional[str]:
    """Why registered backend ``name`` cannot take the item, or ``None``."""
    return capability_violation(
        backend_capabilities(name),
        num_qubits,
        classification.has_noise,
        observables,
        clifford=classification.clifford,
        pauli_noise=classification.pauli_noise,
    )


def _capable_fallback(
    fallback: str,
    reason: str,
    classification: CircuitClass,
    num_qubits: int,
    observables: Collection[str],
) -> BackendDecision:
    """``fallback`` if it can serve the item, else the cheapest capable backend."""
    if fallback not in REGISTRY:
        # An unregistered fallback (an attached instance) declares no
        # capabilities: the caller promised the backend can run the item.
        return BackendDecision(fallback, reason)
    canonical = REGISTRY.resolve(fallback)
    problem = _violation(canonical, classification, num_qubits, observables)
    if problem is None:
        return BackendDecision(canonical, reason)
    for candidate in FALLBACK_PREFERENCE:
        if candidate == canonical or candidate not in REGISTRY:
            continue
        if _violation(candidate, classification, num_qubits, observables) is None:
            return BackendDecision(
                candidate,
                f"{reason}; fallback {canonical!r} cannot serve this item "
                f"({num_qubits} qubits, noisy={classification.has_noise}), "
                f"substituted cheapest capable backend",
            )
    raise BackendCapabilityError(
        f"no registered backend can serve this item: {num_qubits} qubits, "
        f"noisy={classification.has_noise}, observables={sorted(observables)} "
        f"(fallback {canonical!r}: {problem}; every substitute is incapable too)"
    )


def _within_budget(
    decision: BackendDecision,
    circuit: Circuit,
    num_qubits: int,
    observables: Collection[str],
    repetitions: int,
    budget: Optional[int],
    may_downgrade: bool,
) -> BackendDecision:
    """``decision`` if its estimated working state fits ``budget``, else the downgrade."""
    if budget is None or decision.backend not in REGISTRY:
        return decision
    batch = max(1, repetitions)
    estimate = backend_capabilities(decision.backend).estimated_memory_bytes(
        num_qubits, batch_size=batch
    )
    if estimate is None or estimate <= budget:
        return decision
    if (
        may_downgrade
        and "state_vector" not in observables
        and capability_violation(
            backend_capabilities("trajectory"),
            num_qubits,
            circuit.has_noise,
            observables,
            memory_budget=budget,
            batch_size=batch,
        )
        is None
    ):
        return BackendDecision(
            "trajectory",
            f"memory budget: {decision.backend} needs ~{estimate:,} B "
            f"(> {budget:,} B); downgraded to trajectory",
        )
    raise MemoryBudgetError(
        f"work item needs ~{estimate:,} B on backend {decision.backend!r} "
        f"({num_qubits} qubits), exceeding the {budget:,} B memory budget, "
        "and no cheaper capable backend exists"
    )


def _auto_route(
    circuit: Circuit,
    resolver: Optional[ParamResolver],
    observables: Collection[str],
    num_qubits: int,
    fallback: str,
    noisy_fallback: str,
) -> BackendDecision:
    """The ``"auto"`` rules of the module docstring, before the memory budget."""
    classification = classify_circuit(circuit, resolver)
    sampling = bool(observables) and all(o == "samples" for o in observables)
    if classification.has_noise and not sampling:
        fallback = noisy_fallback
    if classification.clifford and classification.pauli_noise:
        if not classification.has_noise:
            if "state_vector" in observables:
                reason = "state-vector observable needs phase-consistent amplitudes"
            elif (
                "probabilities" in observables or "expectation" in observables
            ) and num_qubits > DENSE_PROBABILITY_QUBITS:
                reason = f"dense probabilities capped at {DENSE_PROBABILITY_QUBITS} qubits"
            else:
                return BackendDecision("stabilizer", "clifford")
        elif sampling:
            return BackendDecision("stabilizer", "clifford + pauli-noise")
        else:
            reason = "noisy simulate needs a mixed-state representation"
    else:
        reason = classification.blocker or "non-clifford circuit"
    return _capable_fallback(fallback, reason, classification, num_qubits, observables)


def select_backend(
    circuit: Circuit,
    resolver: Optional[ParamResolver] = None,
    *,
    observables: Collection[str] = ("samples",),
    num_qubits: Optional[int] = None,
    repetitions: int = 0,
    memory_budget: Optional[int] = None,
    backend: str = "auto",
    fallback: str = "state_vector",
    noisy_fallback: Optional[str] = None,
) -> BackendDecision:
    """Route one item by the rules above.

    ``backend``, ``fallback`` and ``noisy_fallback`` are a device's routing
    configuration: a fixed backend name or ``"auto"``, and the backends of
    the non-Clifford route (``noisy_fallback`` defaults to ``fallback``).
    ``num_qubits`` defaults to the circuit's own width.  ``repetitions``
    sizes the batch that batch-aware memory estimates charge.
    """
    width = circuit.num_qubits if num_qubits is None else num_qubits
    if backend == "auto":
        decision = _auto_route(
            circuit, resolver, observables, width, fallback, noisy_fallback or fallback
        )
    else:
        decision = BackendDecision(backend, "fixed backend")
        if backend in REGISTRY:
            problem = capability_violation(
                backend_capabilities(backend), width, circuit.has_noise, observables
            )
            if problem is not None:
                raise BackendCapabilityError(problem)
    return _within_budget(
        decision, circuit, width, observables, repetitions, memory_budget,
        may_downgrade=backend == "auto",
    )
