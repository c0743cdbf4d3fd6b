"""Compile noisy quantum circuits into complex-valued Bayesian networks.

This is the toolchain's first program transformation (Section 3.1 of the
paper).  Qubit states become binary network nodes named ``q{i}m{k}`` (qubit
``i`` after its ``k``-th operation, matching the paper's Figure 2 naming);
noise channels introduce multi-valued ``...rv`` nodes that select a Kraus
branch.

Encoding rules
--------------
* **Initial states** — parentless nodes with deterministic tables.
* **Monomial gates** (generalized permutation unitaries: X, CNOT, CZ, Rz,
  ZZ-rotations, Toffoli, ...) — new nodes are created only for qubits whose
  basis value can change; each new node's value is a deterministic function
  of the gate's input nodes, and the input-dependent phase is attached to
  the last created node (or to a dedicated copy node when the gate is
  diagonal and no value changes).
* **Non-monomial gates** (H, Rx, Ry, XX, ...) — one new node per gate qubit;
  all but the last carry the all-ones table, and the last node's table,
  conditioned on the gate inputs and the sibling outputs, holds the full
  unitary entry.  Because amplitude tables need not be normalised this is
  exact for arbitrary unitaries.
* **Noise channels** — a parentless branch-selector node of cardinality
  equal to the number of Kraus operators, plus a new qubit node whose table
  conditioned on (input, branch) holds the Kraus operator entries.

Every gate and noise table is a :class:`GatherTable`: each entry is either a
constant (0 or 1) or one entry of the operation's unitary or Kraus stack, so
binding a parameter point is one fancy-index into the bound matrix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import _ATOL, Operation, is_monomial_matrix, monomial_action
from ..circuits.noise import NoiseOperation
from ..circuits.parameters import ParamResolver
from ..circuits.qubits import Qubit
from .network import BayesianNetwork, BayesNode


class QuantumBayesNet(BayesianNetwork):
    """A Bayesian network annotated with circuit provenance."""

    def __init__(self, qubit_order: Sequence[Qubit]):
        super().__init__()
        self.qubit_order: List[Qubit] = list(qubit_order)
        self.initial_node_of: Dict[Qubit, str] = {}
        self.final_node_of: Dict[Qubit, str] = {}
        self.noise_node_names: List[str] = []

    @property
    def num_qubits(self) -> int:
        return len(self.qubit_order)

    @property
    def final_node_names(self) -> List[str]:
        """Final qubit-state nodes, in qubit order (most significant first)."""
        return [self.final_node_of[q] for q in self.qubit_order]

    @property
    def qubit_state_node_names(self) -> List[str]:
        return [n.name for n in self.nodes if n.kind in ("initial", "qubit")]

    @property
    def internal_node_names(self) -> List[str]:
        """Qubit-state nodes that are neither initial nor final.

        These are the nodes the arithmetic-circuit compiler elides (sums
        over) because only final-state amplitudes are queried.
        """
        finals = set(self.final_node_names)
        return [
            n.name
            for n in self.nodes
            if n.kind == "qubit" and n.name not in finals
        ]

    @property
    def retained_node_names(self) -> List[str]:
        """Nodes that remain queryable after elision: final states + noise events."""
        return self.final_node_names + self.noise_node_names

    def __repr__(self) -> str:
        return (
            f"QuantumBayesNet(qubits={self.num_qubits}, nodes={self.num_nodes}, "
            f"noise_nodes={len(self.noise_node_names)})"
        )


class ConstantTable:
    """A parameter-independent table: the same entries for every resolver.

    A module-level callable rather than a lambda, so networks (and the
    compiled circuits holding them) pickle.
    """

    def __init__(self, entries: np.ndarray):
        self.entries = np.asarray(entries, dtype=complex)

    def __call__(self, resolver: Optional[ParamResolver]) -> np.ndarray:
        return self.entries.copy()


class GatherTable:
    """A conditional amplitude table gathered from its operation's matrix.

    Table slot ``s`` (C order over the table's shape) holds entry
    ``slots[s]`` of the flattened matrix source — ``op.unitary()`` or the
    stacked ``op.kraus_operators()`` — or ``constants[s]`` where
    ``slots[s] == -1``.  Monomial gates also carry ``monomial_support``,
    the flat matrix entries that must be the only non-zeros of the bound
    matrix (the reference permutation the network's structure encodes);
    any other binding raises ``ValueError``.
    """

    def __init__(
        self,
        op: Operation,
        kraus: bool,
        shape: Tuple[int, ...],
        slots: np.ndarray,
        constants: np.ndarray,
        monomial_support: Optional[np.ndarray] = None,
    ):
        self.op = op
        self.kraus = kraus
        self.shape = shape
        self.slots = slots
        self.constants = constants
        self.monomial_support = monomial_support

    @property
    def matrix_size(self) -> int:
        """Number of entries in the flattened matrix source."""
        return self.slots.size if self.kraus else 4 ** len(self.op.qubits)

    def matrix(self, resolver: Optional[ParamResolver]) -> np.ndarray:
        """The operation's bound matrix (or Kraus stack), flattened."""
        if self.kraus:
            return np.asarray(self.op.kraus_operators(resolver), dtype=complex).ravel()
        return np.asarray(self.op.unitary(resolver), dtype=complex).ravel()

    def __call__(self, resolver: Optional[ParamResolver]) -> np.ndarray:
        flat = self.matrix(resolver)
        if self.monomial_support is not None:
            require_monomial(flat, self.monomial_support)
        table = self.constants.copy()
        gathered = self.slots >= 0
        table[gathered] = flat[self.slots[gathered]]
        return table.reshape(self.shape)


def require_monomial(entries: np.ndarray, support: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``entries`` are non-zero exactly on ``support``."""
    nonzero = np.abs(entries) > _ATOL
    if np.count_nonzero(nonzero) != support.size or not nonzero[support].all():
        raise ValueError(
            "bound matrix is not monomial with the gate's reference permutation"
        )


def circuit_to_bayesnet(
    circuit: Circuit,
    qubit_order: Optional[Sequence[Qubit]] = None,
    initial_bits: Optional[Sequence[int]] = None,
) -> QuantumBayesNet:
    """Convert a (possibly noisy, possibly parameterized) circuit to a Bayesian network."""
    qubits = list(qubit_order) if qubit_order is not None else circuit.all_qubits()
    network = QuantumBayesNet(qubits)
    position_of: Dict[Qubit, int] = {q: i for i, q in enumerate(qubits)}
    if initial_bits is None:
        initial_bits = [0] * len(qubits)
    if len(initial_bits) != len(qubits):
        raise ValueError("initial_bits length must match qubit count")

    # Current BN node for each qubit, and a per-qubit operation counter used
    # for q{i}m{k} style node names.
    current_node: Dict[Qubit, str] = {}
    op_counter: Dict[Qubit, int] = {}

    for qubit, bit in zip(qubits, initial_bits):
        name = f"q{position_of[qubit]}m0"
        node = BayesNode(
            name,
            cardinality=2,
            parents=[],
            table_builder=ConstantTable(np.eye(2)[int(bit)]),
            kind="initial",
            label=f"{qubit} initial",
        )
        network.add_node(node)
        network.initial_node_of[qubit] = name
        current_node[qubit] = name
        op_counter[qubit] = 0

    for op in circuit.all_operations():
        if op.is_measurement:
            continue
        if isinstance(op, NoiseOperation):
            _add_noise_operation(network, op, current_node, op_counter, position_of)
        else:
            _add_gate_operation(network, op, current_node, op_counter, position_of)

    for qubit in qubits:
        network.final_node_of[qubit] = current_node[qubit]
    return network


# ----------------------------------------------------------------------
# Gate encoding
# ----------------------------------------------------------------------
def _next_name(qubit: Qubit, op_counter: Dict[Qubit, int], position_of: Dict[Qubit, int]) -> str:
    op_counter[qubit] += 1
    return f"q{position_of[qubit]}m{op_counter[qubit]}"


def _gate_is_monomial(op: Operation) -> bool:
    if op.gate.is_parameterized:
        return op.gate.is_monomial()
    return is_monomial_matrix(op.unitary())


def _add_gate_operation(
    network: QuantumBayesNet,
    op: Operation,
    current_node: Dict[Qubit, str],
    op_counter: Dict[Qubit, int],
    position_of: Dict[Qubit, int],
) -> None:
    if _gate_is_monomial(op):
        _add_monomial_gate(network, op, current_node, op_counter, position_of)
    else:
        _add_general_gate(network, op, current_node, op_counter, position_of)


def _add_monomial_gate(
    network: QuantumBayesNet,
    op: Operation,
    current_node: Dict[Qubit, str],
    op_counter: Dict[Qubit, int],
    position_of: Dict[Qubit, int],
) -> None:
    k = len(op.qubits)
    dim = 2 ** k
    input_nodes = [current_node[q] for q in op.qubits]
    # Determine, from the permutation structure, which qubit positions can change.
    # Use an unparameterized reference unitary: the zero pattern of a
    # structurally monomial gate does not depend on its parameters.
    reference = op.unitary(_reference_resolver(op))
    perm = np.asarray(monomial_action(reference)[0], dtype=np.int64)
    inputs = np.arange(dim)
    flipped = perm ^ inputs
    changed_positions = [j for j in range(k) if np.any((flipped >> (k - 1 - j)) & 1)]
    if not changed_positions:
        # Diagonal gate: introduce a copy node on the last qubit to carry the phase.
        changed_positions = [k - 1]

    new_nodes: Dict[int, str] = {}
    for j in changed_positions:
        qubit = op.qubits[j]
        new_nodes[j] = _next_name(qubit, op_counter, position_of)

    # Table slot (input, output bit j) is live only where output bit j is
    # bit j of perm[input]; there it holds the phase u[perm[i], i] on the
    # phase-carrying node and 1 elsewhere.
    support = perm * dim + inputs
    phase_position = changed_positions[-1]
    for j in changed_positions:
        qubit = op.qubits[j]
        name = new_nodes[j]
        live = inputs * 2 + ((perm >> (k - 1 - j)) & 1)
        slots = np.full(2 * dim, -1, dtype=np.int64)
        constants = np.zeros(2 * dim, dtype=complex)
        if j == phase_position:
            slots[live] = support
        else:
            constants[live] = 1.0
        node = BayesNode(
            name,
            cardinality=2,
            parents=list(input_nodes),
            table_builder=GatherTable(
                op, False, (2,) * (k + 1), slots, constants, monomial_support=support
            ),
            kind="qubit",
            parameters=op.parameters,
            label=f"{op.gate.name} on {qubit}",
        )
        network.add_node(node)
        current_node[qubit] = name


def _add_general_gate(
    network: QuantumBayesNet,
    op: Operation,
    current_node: Dict[Qubit, str],
    op_counter: Dict[Qubit, int],
    position_of: Dict[Qubit, int],
) -> None:
    k = len(op.qubits)
    dim = 2 ** k
    input_nodes = [current_node[q] for q in op.qubits]
    new_names: List[str] = []
    for qubit in op.qubits:
        new_names.append(_next_name(qubit, op_counter, position_of))

    # All output nodes except the last are free (all-ones) selector nodes.
    for j in range(k - 1):
        qubit = op.qubits[j]
        node = BayesNode(
            new_names[j],
            cardinality=2,
            parents=[],
            table_builder=ConstantTable(np.ones(2)),
            kind="qubit",
            label=f"{op.gate.name} output {j} on {qubit}",
        )
        network.add_node(node)
        current_node[qubit] = new_names[j]

    # The last output node carries the full unitary entry, conditioned on the
    # gate's input nodes followed by the sibling output nodes: its table is
    # ``unitary.T`` (slot ``input * dim + output`` holds ``u[output, input]``).
    slots = np.arange(dim * dim, dtype=np.int64).reshape(dim, dim).T.ravel()
    last_qubit = op.qubits[k - 1]
    node = BayesNode(
        new_names[k - 1],
        cardinality=2,
        parents=list(input_nodes) + new_names[: k - 1],
        table_builder=GatherTable(
            op, False, (2,) * (2 * k), slots, np.zeros(dim * dim, dtype=complex)
        ),
        kind="qubit",
        parameters=op.parameters,
        label=f"{op.gate.name} output {k - 1} on {last_qubit}",
    )
    network.add_node(node)
    current_node[last_qubit] = new_names[k - 1]


def _add_noise_operation(
    network: QuantumBayesNet,
    op: NoiseOperation,
    current_node: Dict[Qubit, str],
    op_counter: Dict[Qubit, int],
    position_of: Dict[Qubit, int],
) -> None:
    if len(op.qubits) != 1:
        raise NotImplementedError("only single-qubit noise channels are supported")
    qubit = op.qubits[0]
    input_node = current_node[qubit]
    num_branches = len(op.kraus_operators(_reference_resolver(op)))

    state_name = _next_name(qubit, op_counter, position_of)
    rv_name = f"{state_name}rv"

    rv_node = BayesNode(
        rv_name,
        cardinality=num_branches,
        parents=[],
        table_builder=ConstantTable(np.ones(num_branches)),
        kind="noise",
        label=f"{op.channel.name} branch on {qubit}",
    )
    network.add_node(rv_node)
    network.noise_node_names.append(rv_name)

    # table[input, branch, output] = kraus[branch][output, input]: the Kraus
    # stack transposed (2, 0, 1).
    size = 4 * num_branches
    slots = np.arange(size, dtype=np.int64).reshape(num_branches, 2, 2).transpose(2, 0, 1).ravel()
    state_node = BayesNode(
        state_name,
        cardinality=2,
        parents=[input_node, rv_name],
        table_builder=GatherTable(
            op, True, (2, num_branches, 2), slots, np.zeros(size, dtype=complex)
        ),
        kind="qubit",
        parameters=op.parameters,
        label=f"{op.channel.name} on {qubit}",
    )
    network.add_node(state_node)
    current_node[qubit] = state_name


def _reference_resolver(op: Operation) -> Optional[ParamResolver]:
    """A resolver binding any free symbols of ``op`` to an arbitrary reference value.

    Only used where the *structure* (zero pattern) of the operation matters,
    which for structurally monomial gates is parameter independent.  The
    value lies in the structure-probe range of
    :meth:`~repro.bayesnet.network.BayesianNetwork.probe_resolvers`, which
    every channel accepts (three symbolic Pauli probabilities still sum
    below 1).
    """
    symbols = op.parameters
    if not symbols:
        return None
    return ParamResolver({s: 0.2 for s in symbols})
