"""Commutation-based gate cancellation.

Fusion only sees pairs that are adjacent on every shared wire; this pass
additionally looks *through* operations that provably commute with the
incoming gate.  Scanning the surviving operations that share a qubit with
the incoming gate, latest first, every operation it commutes with (per the
structural, value-blind rules in
:func:`~repro.circuits.passes.rules.commutes`) is skipped; the first
operation that offers a merge (:func:`try_merge`) is taken; the first
operation that neither commutes nor merges blocks the search.

Merging at a distance is sound because the merged operation has the same
gate family and qubits as the gate being moved: everything it was moved past
commutes with the result too, so the merged gate may equally sit at the
partner's position.  The classic payoff is ``T(q0) . CNOT(q0,q1) . TDG(q0)``
— T is diagonal on the CNOT control, so T and TDG meet and cancel, leaving a
bare CNOT (and, downstream, a circuit the stabilizer backend can take).

Noise channels and measurements never commute past anything sharing a wire.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Tuple

from ..circuit import Circuit
from ..gates import Operation
from ..noise import NoiseOperation
from .base import Pass
from .fusion import Wires, run_peephole
from .rules import commutes, try_merge


def _shared_wire_indices(wires: Wires, current: Operation) -> Iterator[int]:
    """Indices of surviving operations sharing a qubit with ``current``, latest first."""
    lists = [reversed(wires.get(qubit, ())) for qubit in current.qubits]
    previous = None
    for index in heapq.merge(*lists, reverse=True):
        if index != previous:
            previous = index
            yield index


def _commuting_partner(
    out: List[Optional[Operation]], wires: Wires, current: Operation
) -> Optional[int]:
    for index in _shared_wire_indices(wires, current):
        earlier = out[index]
        assert earlier is not None
        if earlier.is_measurement or isinstance(earlier, NoiseOperation):
            return None
        if try_merge(earlier, current) is not None:
            return index
        if commutes(earlier, current):
            continue
        return None
    return None


class CommutationPass(Pass):
    """Cancel/merge gate pairs separated by provably commuting operations."""

    name = "commutation"

    def rewrite(self, circuit: Circuit) -> Tuple[Circuit, int]:
        return run_peephole(circuit, _commuting_partner)
