"""Clifford-prefix extraction: a circuit's maximal Clifford head.

Many ansatz circuits open with a Clifford block (the ``H`` layer of QAOA,
state-preparation ladders, encoding circuits) before any non-Clifford
rotation appears.  :func:`split_clifford_prefix` cuts a circuit into a
maximal Clifford *prefix* and the *remainder*: walking the operations in
order with a monotonically growing set of blocked qubits, an operation joins
the prefix when it is a unitary gate, none of its qubits is blocked, and it
decomposes into tableau updates (``clifford_ops``); anything else — rotation
at a non-Clifford angle, noise channel, measurement — joins the remainder
and blocks its qubits.  A prefix operation therefore never shares a wire
with any earlier remainder operation, so the reordering is exact.

Whether a rotation is Clifford depends on its *bound angle*, so this pass
is value-sensitive and deliberately not part of
:func:`~repro.circuits.passes.base.default_pipeline` (it would split the
shared topology key between a symbolic ansatz and a resolved instance that
happens to land on Clifford angles).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..circuit import Circuit
from ..gates import Operation
from ..noise import NoiseOperation
from ..parameters import ParamResolver
from ..qubits import Qubit
from .base import Pass


def split_clifford_prefix(
    circuit: Circuit, resolver: Optional[ParamResolver] = None
) -> Tuple[Circuit, Circuit]:
    """Split ``circuit`` into ``(prefix, remainder)``.

    ``prefix`` is Clifford under ``resolver`` (every gate provides
    ``clifford_ops``) and ``remainder`` holds everything else;
    concatenating ``prefix + remainder`` is exactly equivalent to the input.
    Either part may be empty.
    """
    prefix_ops: List[Operation] = []
    remainder_ops: List[Operation] = []
    blocked: Set[Qubit] = set()
    for operation in circuit.all_operations():
        if (
            not operation.is_measurement
            and not isinstance(operation, NoiseOperation)
            and not blocked.intersection(operation.qubits)
        ):
            if operation.gate.clifford_ops(resolver) is not None:
                prefix_ops.append(operation)
                continue
        remainder_ops.append(operation)
        blocked.update(operation.qubits)
    prefix = Circuit()
    prefix.append(prefix_ops)
    remainder = Circuit()
    remainder.append(remainder_ops)
    return prefix, remainder


class CliffordPrefixPass(Pass):
    """Reorder a circuit into Clifford prefix followed by the remainder.

    The rewrite is a pure reordering (no operation is added, removed or
    changed); the rewrite count is the number of operations that moved
    earlier relative to the original order.  Useful standalone when a caller
    wants the split reflected in the circuit itself; a caller that keeps the
    two halves apart calls :func:`split_clifford_prefix` directly.
    """

    name = "clifford_prefix"

    def __init__(self, resolver: Optional[ParamResolver] = None):
        self.resolver = resolver

    def rewrite(self, circuit: Circuit) -> Tuple[Circuit, int]:
        operations = circuit.all_operations()
        prefix, remainder = split_clifford_prefix(circuit, self.resolver)
        rewritten = Circuit()
        rewritten.append(prefix.all_operations() + remainder.all_operations())
        # Moment packing may interleave disjoint remainder operations back
        # between prefix operations; compare post-packing order so an
        # already-split circuit is recognized as a fixed point.
        final = rewritten.all_operations()
        if final == operations:
            return circuit, 0
        moved = sum(1 for before, after in zip(operations, final) if before is not after)
        return rewritten, moved
