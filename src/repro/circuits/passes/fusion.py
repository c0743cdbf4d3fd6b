"""Adjacent-gate fusion: rotation merging and inverse-pair cancellation.

The pass walks the operation list once, keeping an output list with holes.
For every qubit it keeps the ascending indices of the surviving operations
touching it; a new operation whose qubits' *latest* entries all name the
same surviving operation is adjacent to it on every shared wire and may
merge with it (:func:`~repro.circuits.passes.rules.try_merge`): same-family
rotations add their angles exactly (``Rz(a) . Rz(b) -> Rz(a + b)``,
symbolic or concrete), constant inverse pairs (``H . H``, ``T . TDG``,
``CNOT . CNOT``) cancel.  Merges cascade — a merged rotation may in turn
merge with the operation that became adjacent once its neighbour
disappeared — and gates whose unitary is the identity up to global phase
(under the canonicalizer's degenerate-angle carve-out) are dropped outright.

Noise channels and measurements are barriers: a channel need not commute
with a unitary, so nothing fuses across them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Tuple

from ..circuit import Circuit
from ..gates import Operation
from ..noise import NoiseOperation
from ..qubits import Qubit
from .base import Pass
from .rules import CANCEL, removable_identity, try_merge

#: Per qubit, the ascending output indices of the surviving operations on it.
Wires = Dict[Qubit, List[int]]

#: A partner-search strategy: given the output list and the per-qubit index
#: lists, return the index of a merge candidate for ``current`` (or ``None``).
PartnerFinder = Callable[[List[Optional[Operation]], Wires, Operation], Optional[int]]


def run_peephole(circuit: Circuit, find_partner: PartnerFinder) -> Tuple[Circuit, int]:
    """Generic merge/cancel peephole shared by fusion and commutation.

    Walks operations in order, keeping the surviving output (``None`` marks
    a hole) and, per qubit, the ascending indices of the surviving
    operations on it.  For each unitary-gate operation it repeatedly asks
    ``find_partner(out, wires, current)`` for an earlier surviving operation
    to merge with, applies :func:`try_merge`, and cascades until no partner
    merges.  Pure: the input circuit is never mutated, and the input object
    itself is returned when zero rewrite actions fired.
    """
    operations = circuit.all_operations()
    out: List[Optional[Operation]] = []
    wires: Wires = {}
    actions = 0

    def place(operation: Operation) -> None:
        out.append(operation)
        index = len(out) - 1
        for qubit in operation.qubits:
            wires.setdefault(qubit, []).append(index)

    def unplace(index: int) -> None:
        removed = out[index]
        assert removed is not None
        out[index] = None
        for qubit in removed.qubits:
            indices = wires[qubit]
            del indices[bisect_left(indices, index)]

    for operation in operations:
        if operation.is_measurement or isinstance(operation, NoiseOperation):
            place(operation)
            continue
        current: Optional[Operation] = operation
        while current is not None:
            partner_index = find_partner(out, wires, current)
            if partner_index is None:
                break
            partner = out[partner_index]
            assert partner is not None
            merged = try_merge(partner, current)
            if merged is None:
                break
            actions += 1
            unplace(partner_index)
            current = None if merged is CANCEL else merged
        if current is None:
            continue
        if removable_identity(current):
            actions += 1
            continue
        place(current)

    if actions == 0:
        return circuit, 0
    rewritten = Circuit()
    rewritten.append([operation for operation in out if operation is not None])
    return rewritten, actions


def _adjacent_partner(
    out: List[Optional[Operation]], wires: Wires, current: Operation
) -> Optional[int]:
    indices = {wires[qubit][-1] if wires.get(qubit) else None for qubit in current.qubits}
    if len(indices) != 1:
        return None
    (index,) = indices
    if index is None:
        return None
    partner = out[index]
    if partner is None or partner.is_measurement or isinstance(partner, NoiseOperation):
        return None
    return index


class FusionPass(Pass):
    """Merge/cancel pairs of operations adjacent on every shared wire."""

    name = "fusion"

    def rewrite(self, circuit: Circuit) -> Tuple[Circuit, int]:
        return run_peephole(circuit, _adjacent_partner)
