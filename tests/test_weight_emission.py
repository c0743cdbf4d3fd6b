"""Weight emission as a gather from the gate matrices.

Every conditional amplitude table (CPT) of a circuit-built network is a
:class:`~repro.bayesnet.from_circuit.GatherTable`, and
:class:`~repro.cnf.encoder.WeightEmitter` binds a parameter point with one
fancy-index over the bound matrices of the parameterized operations.  These
tests keep the original per-entry table loops as their own oracle and require
the emitted weights and constant factor to equal it exactly (``==``, not
``allclose``) for every gate class and every noise channel.
"""

import numpy as np
import pytest

from repro.bayesnet import BayesianNetwork, BayesNode, circuit_to_bayesnet
from repro.bayesnet.from_circuit import GatherTable
from repro.circuits import (
    CCZ,
    CNOT,
    CZ,
    FREDKIN,
    H,
    I,
    ISWAP,
    SDG,
    SWAP,
    TDG,
    TOFFOLI,
    X,
    Y,
    Z,
    S,
    T,
    AsymmetricDepolarizingChannel,
    Circuit,
    ControlledGate,
    CPhase,
    KrausChannel,
    LineQubit,
    MatrixGate,
    MixtureChannel,
    NoiseOperation,
    Operation,
    ParamResolver,
    PermutationGate,
    PhaseShift,
    Rx,
    Ry,
    Rz,
    Symbol,
    XX,
    ZZ,
    amplitude_damp,
    bit_flip,
    depolarize,
    generalized_amplitude_damp,
    is_monomial_matrix,
    monomial_action,
    phase_damp,
    phase_flip,
)
from repro.cnf import encode_bayesnet

A, B, C, G = Symbol("a"), Symbol("b"), Symbol("c"), Symbol("g")


# ----------------------------------------------------------------------
# Oracle: the per-entry table loops the gather replaced.
# ----------------------------------------------------------------------
def _bits(index, width):
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))


def _reference_resolver(op):
    symbols = op.parameters
    return ParamResolver({s: 0.789 for s in symbols}) if symbols else None


def _oracle_monomial_table(op, j, carries_phase, resolver):
    k = len(op.qubits)
    perm, phases = monomial_action(op.unitary(resolver))
    table = np.zeros((2,) * (k + 1), dtype=complex)
    for input_index in range(2 ** k):
        in_bits = _bits(input_index, k)
        out_bits = _bits(perm[input_index], k)
        table[in_bits + (out_bits[j],)] = phases[input_index] if carries_phase else 1.0
    return table


def _oracle_general_table(op, resolver):
    k = len(op.qubits)
    unitary = op.unitary(resolver)
    table = np.zeros((2,) * (2 * k), dtype=complex)
    for input_index in range(2 ** k):
        for output_index in range(2 ** k):
            table[_bits(input_index, k) + _bits(output_index, k)] = unitary[output_index, input_index]
    return table


def _oracle_noise_table(op, resolver):
    operators = op.kraus_operators(resolver)
    table = np.zeros((2, len(operators), 2), dtype=complex)
    for branch, kraus in enumerate(operators):
        for in_bit in range(2):
            for out_bit in range(2):
                table[in_bit, branch, out_bit] = kraus[out_bit, in_bit]
    return table


def _oracle_phase_position(op):
    k = len(op.qubits)
    perm, _ = monomial_action(op.unitary(_reference_resolver(op)))
    changed = [
        j for j in range(k)
        if any(_bits(perm[i], k)[j] != _bits(i, k)[j] for i in range(2 ** k))
    ]
    return changed[-1] if changed else k - 1


def _oracle_is_monomial(op):
    if op.gate.is_parameterized:
        return op.gate.is_monomial()
    return is_monomial_matrix(op.unitary())


def oracle_table(network, node, resolver):
    """The node's CPT as the per-entry loops built it."""
    builder = node.table_builder
    if not isinstance(builder, GatherTable):
        return node.table(resolver)
    op = builder.op
    if isinstance(op, NoiseOperation):
        return _oracle_noise_table(op, resolver)
    if not _oracle_is_monomial(op):
        return _oracle_general_table(op, resolver)
    qubit = network.qubit_order[int(node.name[1:].split("m")[0])]
    j = op.qubits.index(qubit)
    return _oracle_monomial_table(op, j, j == _oracle_phase_position(op), resolver)


def oracle_emit(encoding, resolver):
    """Per-node table evaluation plus gathers: the emitter's former body."""
    network = encoding.network
    order = encoding.weight_variables
    position_of = {variable: index for index, variable in enumerate(order)}
    values = np.empty(len(order), dtype=complex)
    by_node, forced_by_node = {}, {}
    for variable, reference in sorted(encoding.weight_refs.items()):
        node = network.node(reference.node_name)
        flat = int(np.ravel_multi_index(reference.entry_index, node.expected_shape(network)))
        if variable in encoding.forced_literals:
            forced_by_node.setdefault(node.name, []).append(flat)
        flats, destinations = by_node.setdefault(node.name, ([], []))
        flats.append(flat)
        destinations.append(position_of[variable])
    tables = {
        name: oracle_table(network, network.node(name), resolver).ravel()
        for name in set(by_node) | set(forced_by_node)
    }
    for name, (flats, destinations) in by_node.items():
        values[destinations] = tables[name][flats]
    constant = 1.0 + 0j
    for name, flats in forced_by_node.items():
        constant *= complex(np.prod(tables[name][flats]))
    return values, constant


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------
def _random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(matrix)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def all_gates_circuit():
    """Every gate class of ``repro.circuits.gates``, parameterized where it can be."""
    q = LineQubit.range(3)
    cycle = PermutationGate("cycle", 2, [1, 2, 3, 0], phases=[1, 1j, -1, -1j])
    ops = [H(q[0]), H(q[1]), H(q[2]),
           # 1-qubit monomial, parameterized and constant
           Rz(A)(q[0]), PhaseShift(2 * B)(q[1]), X(q[2]), Y(q[0]), Z(q[1]),
           S(q[2]), SDG(q[0]), T(q[1]), TDG(q[2]), I(q[0]),
           # 1-qubit general
           Rx(B)(q[2]), Ry(C)(q[0]), MatrixGate("u1", _random_unitary(2, 1))(q[1]),
           # 2-qubit monomial
           ZZ(A)(q[0], q[1]), CPhase(C)(q[1], q[2]), CNOT(q[2], q[0]), CZ(q[0], q[2]),
           SWAP(q[1], q[2]), ISWAP(q[0], q[1]),
           # 2-qubit general
           XX(A + B)(q[1], q[2]), MatrixGate("u2", _random_unitary(4, 2))(q[0], q[2]),
           # controlled: general and monomial sub-gates
           ControlledGate(Ry(B))(q[0], q[1]), ControlledGate(Rz(C))(q[2], q[0]),
           # permutation, and 3-qubit constants
           cycle(q[0], q[2]), TOFFOLI(q[0], q[1], q[2]), CCZ(q[2], q[1], q[0]),
           FREDKIN(q[1], q[0], q[2]), H(q[1])]
    return Circuit(ops)


def all_channels_circuit():
    """Every noise channel, including ones with symbolic parameters."""
    q = LineQubit.range(2)
    damping = [np.array([[1, 0], [0, np.sqrt(0.8)]]), np.array([[0, np.sqrt(0.2)], [0, 0]])]
    channels = [
        bit_flip(0.1), phase_flip(0.2), depolarize(0.05),
        AsymmetricDepolarizingChannel(0.01, 0.02, 0.03), phase_damp(0.3),
        amplitude_damp(0.3 * G), generalized_amplitude_damp(0.2, 0.3),
        MixtureChannel([(0.7, np.eye(2)), (0.3, X.unitary())]), KrausChannel(damping),
        bit_flip(0.2 * G),
    ]
    ops = [H(q[0]), Ry(A)(q[1]), CNOT(q[0], q[1])]
    for index, channel in enumerate(channels):
        ops.append(channel(q[index % 2]))
        ops.append(Rx(B)(q[(index + 1) % 2]))
    return Circuit(ops)


def forced_circuit():
    """Phase gates on known inputs: their weights are forced by unit propagation."""
    q = LineQubit.range(3)
    return Circuit([Rz(A)(q[0]), CPhase(B)(q[1], q[2]), PhaseShift(C)(q[2]), X(q[1]), T(q[1]),
                    ZZ(A)(q[0], q[2]), H(q[0]), Rz(B)(q[0]), CNOT(q[0], q[1])])


def _resolvers(count=6, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ParamResolver({A: rng.uniform(0, 3), B: rng.uniform(0, 3), C: rng.uniform(0, 3),
                       G: rng.uniform(0, 3)})
        for _ in range(count)
    ]


CORPUS = {
    "gates": all_gates_circuit,
    "channels": all_channels_circuit,
    "noisy-gates": lambda: all_gates_circuit().with_noise(lambda: depolarize(0.01)),
    "forced": forced_circuit,
}


@pytest.fixture(scope="module", params=sorted(CORPUS))
def encoding(request):
    return encode_bayesnet(circuit_to_bayesnet(CORPUS[request.param]()))


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def test_emitted_weights_equal_the_per_entry_oracle(encoding):
    emitter = encoding.weight_emitter()
    for resolver in _resolvers():
        values, constant = emitter.emit(resolver)
        expected_values, expected_constant = oracle_emit(encoding, resolver)
        assert values.dtype == expected_values.dtype
        assert np.array_equal(values, expected_values)
        assert constant == expected_constant


def test_gather_tables_equal_the_per_entry_oracle(encoding):
    network = encoding.network
    for resolver in _resolvers(3, seed=1):
        for node in network.nodes:
            table = node.table(resolver)
            expected = oracle_table(network, node, resolver)
            assert table.shape == expected.shape == node.expected_shape(network)
            assert np.array_equal(table, expected), node.name


def test_corpus_covers_gathers_constants_and_forced_weights():
    network = circuit_to_bayesnet(all_gates_circuit())
    builders = [n.table_builder for n in network.nodes if isinstance(n.table_builder, GatherTable)]
    assert any(b.monomial_support is not None and (b.slots >= 0).any() for b in builders)
    assert any(b.monomial_support is not None and not (b.slots >= 0).any() for b in builders)
    assert any(b.monomial_support is None and not b.kraus for b in builders)
    forced = encode_bayesnet(circuit_to_bayesnet(forced_circuit()))
    forced_weights = forced.forced_literals & set(forced.weight_refs)
    forced_nodes = {forced.weight_refs[v].node_name for v in forced_weights}
    assert any(forced.network.node(name).is_parameterized for name in forced_nodes)
    assert any(not forced.network.node(name).is_parameterized for name in forced_nodes)


def test_each_parameterized_matrix_is_evaluated_once_per_emit(encoding, monkeypatch):
    emitter = encoding.weight_emitter()
    resolver = _resolvers(1, seed=2)[0]
    calls = {}
    table_calls = []
    unitary, kraus = Operation.unitary, NoiseOperation.kraus_operators
    table = BayesNode.table

    def counting_unitary(self, *args, **kwargs):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return unitary(self, *args, **kwargs)

    def counting_kraus(self, *args, **kwargs):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return kraus(self, *args, **kwargs)

    def counting_table(self, *args, **kwargs):
        table_calls.append(self.name)
        return table(self, *args, **kwargs)

    monkeypatch.setattr(Operation, "unitary", counting_unitary)
    monkeypatch.setattr(NoiseOperation, "kraus_operators", counting_kraus)
    monkeypatch.setattr(BayesNode, "table", counting_table)
    emitter.emit(resolver)

    network = encoding.network
    weighted = {encoding.weight_refs[v].node_name for v in encoding.weight_refs}
    parameterized_ops = {
        id(network.node(name).table_builder.op): network.node(name).table_builder.op
        for name in weighted
        if network.node(name).is_parameterized
    }
    assert parameterized_ops
    assert calls == {key: 1 for key in parameterized_ops}
    assert table_calls == []


def test_non_monomial_binding_of_a_monomial_gate_raises():
    class LeakyPhase(Rz):
        """Structurally monomial by declaration, but not above angle 3."""

        def unitary(self, resolver=None):
            matrix = super().unitary(resolver)
            if self._resolved_angle(resolver) > 3.0:
                matrix[0, 1] = 0.5
            return matrix

    q = LineQubit(0)
    encoding = encode_bayesnet(circuit_to_bayesnet(Circuit([H(q), LeakyPhase(A)(q)])))
    emitter = encoding.weight_emitter()
    emitter.emit(ParamResolver({A: 1.0}))
    with pytest.raises(ValueError, match="monomial"):
        emitter.emit(ParamResolver({A: 3.1}))
    node = encoding.network.node("q0m2")
    with pytest.raises(ValueError, match="monomial"):
        node.table(ParamResolver({A: 3.1}))


def test_parameterized_node_without_a_gather_is_rejected():
    network = BayesianNetwork()
    network.add_node(BayesNode("a", 2, [], lambda r: np.ones(2)))
    network.add_node(
        BayesNode(
            "b", 2, ["a"],
            lambda r: np.array([[1.0, r.value_of(A)], [0.5, 1.0]]),
            parameters=[A],
        )
    )
    encoding = encode_bayesnet(network)
    with pytest.raises(TypeError, match="GatherTable"):
        encoding.weight_emitter()


def test_weights_dict_and_constant_factor_views_agree():
    encoding = encode_bayesnet(circuit_to_bayesnet(forced_circuit()))
    resolver = _resolvers(1, seed=3)[0]
    values, constant = encoding.weight_emitter().emit(resolver)
    weights = encoding.weights(resolver)
    assert [weights[v] for v in encoding.weight_variables] == list(values)
    assert encoding.constant_factor(resolver) == constant
