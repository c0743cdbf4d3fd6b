"""Declared backend capabilities consumed by the registry and router.

Each backend registers one :class:`BackendCapabilities` record describing
what it can actually do.  :func:`capability_violation` is the one predicate
over those records: the router treats its ``None`` as "capable", and
:meth:`repro.api.device.Device` validates every work item with it *before*
running anything, so capability violations surface as
:class:`~repro.errors.BackendCapabilityError` with the backend and limit
named instead of a deep backend-specific failure.

The records intentionally describe the *existing* backends — they are the
single source of truth behind ``docs/api.md``'s capability matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, Optional, Tuple

#: Noise-support levels, from none to arbitrary Kraus channels.
NOISE_NONE = "none"
NOISE_PAULI = "pauli"
NOISE_GENERAL = "general"


@dataclass(frozen=True)
class BackendCapabilities:
    """What one backend declares it can simulate.

    Attributes
    ----------
    name:
        Registry name (matches ``Simulator.name``).
    max_qubits:
        Hard qubit ceiling enforced before execution, or ``None`` for
        "polynomial cost, effectively unbounded".  Dense backends declare
        the count at which their state no longer fits laptop memory.
    noise:
        ``"none"`` (ideal circuits only), ``"pauli"`` (single-qubit Pauli
        mixtures), or ``"general"`` (arbitrary Kraus channels).
    clifford_only:
        Only Clifford-group gates are accepted (the stabilizer tableau).
    mixed_state:
        ``simulate`` can return a mixed state for noisy circuits.  Backends
        without it must refuse noisy ``simulate`` calls (sampling may still
        be supported through trajectory unravelling).
    batched_sampling:
        The backend has a natively batched sampling path, so grouping many
        work items onto one instance beats a per-item loop.
    noisy_sampling:
        ``sample`` handles noisy circuits (even when ``mixed_state`` is
        false, e.g. by quantum trajectories).
    memory_exponent:
        Memory-cost metadata for pre-dispatch budgeting: the backend's
        working state scales as ``16 * (2**memory_exponent)**n`` bytes
        (``1`` for a dense ``2^n`` state vector, ``2`` for a ``4^n`` density
        matrix / superoperator).  ``None`` means polynomial in ``n`` —
        exempt from memory-budget guards.
    batch_memory:
        The backend's working state carries a leading batch axis (the
        trajectory backend's lockstep ``(B, 2^n)`` ensemble), so its
        footprint scales with the number of simultaneous shots, not just
        ``n``.  The state-vector backend runs the same trajectory engine
        but caps each chunk at ``2**16`` amplitudes (``max(1, 2**16 >> n)``
        rows, one row past 16 qubits), so it keeps this ``False``.
    max_batch_size:
        Cap on the simultaneous batch: larger submissions are processed in
        chunks of this many rows, bounding peak memory at
        ``O(max_batch_size * 2^(memory_exponent * n))``.  ``None`` leaves
        the batch axis unbounded.
    default_item_timeout:
        Suggested per-item wall-clock budget (seconds) for fault-tolerant
        submissions that pass ``item_timeout="auto"``; ``None`` leaves items
        unbounded on this backend.
    description:
        One-line human-readable summary for the capability matrix.
    """

    name: str
    max_qubits: Optional[int] = None
    noise: str = NOISE_NONE
    clifford_only: bool = False
    mixed_state: bool = False
    batched_sampling: bool = False
    noisy_sampling: bool = False
    memory_exponent: Optional[int] = None
    batch_memory: bool = False
    max_batch_size: Optional[int] = None
    default_item_timeout: Optional[float] = None
    description: str = ""
    aliases: Tuple[str, ...] = field(default_factory=tuple)

    def supports_noise(self) -> bool:
        return self.noise != NOISE_NONE

    def estimated_memory_bytes(self, num_qubits: int, batch_size: int = 1) -> Optional[int]:
        """Estimated dense working-state bytes for one ``num_qubits`` item.

        ``None`` when the backend's footprint is polynomial in ``n`` (the
        memory-budget guard then lets the item through).  The estimate is
        the dominant complex128 allocation — ``16 * 2**(exponent * n)`` —
        times the simultaneous batch for backends whose state carries a
        batch axis (``batch_memory``): the trajectory backend holds a
        ``(B, 2^n)`` ensemble, clamped at ``max_batch_size`` rows by its
        chunked execution.  Backends without a batch axis ignore
        ``batch_size``.
        """
        if self.memory_exponent is None:
            return None
        per_row = 16 * (1 << (self.memory_exponent * num_qubits))
        if not self.batch_memory:
            return per_row
        rows = max(1, batch_size)
        if self.max_batch_size is not None:
            rows = min(rows, self.max_batch_size)
        return per_row * rows

    def matrix_row(self) -> Dict[str, object]:
        """Plain-dict row for the docs capability matrix."""
        return {
            "backend": self.name,
            "max_qubits": "poly(n)" if self.max_qubits is None else self.max_qubits,
            "noise": self.noise,
            "clifford_only": self.clifford_only,
            "mixed_state": self.mixed_state,
            "batched_sampling": self.batched_sampling,
            "noisy_sampling": self.noisy_sampling,
            "memory": (
                "poly(n)"
                if self.memory_exponent is None
                else f"16*{1 << self.memory_exponent}^n B"
            ),
        }


def capability_violation(
    caps: BackendCapabilities,
    num_qubits: int,
    noisy: bool,
    observables: Collection[str] = (),
    clifford: Optional[bool] = None,
    pauli_noise: bool = False,
    memory_budget: Optional[int] = None,
    batch_size: int = 1,
) -> Optional[str]:
    """The first declared limit one work item violates on ``caps``, or ``None``.

    ``observables`` names what the item records (``"samples"``,
    ``"probabilities"``, ``"expectation"``, ``"state_vector"``).  A noisy
    item needs noise support, noisy samples need ``noisy_sampling``, a noisy
    output distribution needs ``mixed_state``, and a noisy item has no state
    vector.  A noisy item with no observables (a ``simulate`` route) does
    not need ``mixed_state``: pure-state backends serve it by stochastic
    unravelling.  ``clifford`` (checked only when known) and
    ``pauli_noise`` describe the circuit for Clifford-only backends, which
    take noise only as sampled Pauli mixtures.  ``memory_budget`` bounds the
    estimated working state of a ``batch_size``-shot batch.
    """
    name = caps.name
    if caps.max_qubits is not None and num_qubits > caps.max_qubits:
        return (
            f"backend {name!r} is capped at {caps.max_qubits} qubits "
            f"(work item has {num_qubits})"
        )
    if noisy:
        if not caps.supports_noise():
            return (
                f"backend {name!r} supports ideal circuits only; "
                "route noisy work to a noise-capable backend"
            )
        if "state_vector" in observables:
            return "noisy circuits have no state vector; request 'probabilities' instead"
        if "samples" in observables and not caps.noisy_sampling:
            return f"backend {name!r} cannot sample noisy circuits"
        if (
            "probabilities" in observables or "expectation" in observables
        ) and not caps.mixed_state:
            return (
                f"backend {name!r} cannot produce a mixed-state output "
                "distribution; use density_matrix, trajectory or knowledge_compilation"
            )
    if caps.clifford_only and clifford is not None:
        if not clifford:
            return f"backend {name!r} accepts Clifford circuits only"
        if noisy and not (pauli_noise and "samples" in observables):
            return f"backend {name!r} takes noise only as sampled Pauli mixtures"
    if memory_budget is not None:
        estimate = caps.estimated_memory_bytes(num_qubits, batch_size=batch_size)
        if estimate is not None and estimate > memory_budget:
            return (
                f"backend {name!r} needs ~{estimate:,} B for {num_qubits} qubits "
                f"(> {memory_budget:,} B memory budget)"
            )
    return None
