"""Tests for the Circuit and Moment containers."""

import numpy as np
import pytest

from repro.circuits import (
    CNOT,
    Circuit,
    H,
    LineQubit,
    Moment,
    TOFFOLI,
    ParamResolver,
    Rx,
    Symbol,
    X,
    Z,
    ZZ,
    depolarize,
    measure,
)
from repro.circuits.noise import NoiseOperation
from repro.linalg import expand_operator


class TestMoment:
    def test_disjoint_qubits_enforced(self):
        q = LineQubit.range(2)
        moment = Moment([H(q[0])])
        with pytest.raises(ValueError):
            moment.append(X(q[0]))
        moment.append(X(q[1]))
        assert len(moment) == 2

    def test_can_accept(self):
        q = LineQubit.range(3)
        moment = Moment([CNOT(q[0], q[1])])
        assert moment.can_accept(H(q[2]))
        assert not moment.can_accept(H(q[1]))


class TestCircuitConstruction:
    def test_earliest_packing(self):
        q = LineQubit.range(3)
        circuit = Circuit([H(q[0]), H(q[1]), CNOT(q[0], q[1]), H(q[2])])
        # H(q2) fits into the first moment even though it was appended last.
        assert circuit.depth == 2
        assert len(circuit.moments[0]) == 3

    def test_new_moment_flag(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0])])
        circuit.append(H(q[1]), new_moment=True)
        assert circuit.depth == 2

    def test_append_rejects_non_operations(self):
        circuit = Circuit()
        with pytest.raises(TypeError):
            circuit.append(["not an op"])

    def test_add_circuits(self):
        q = LineQubit.range(2)
        combined = Circuit([H(q[0])]) + Circuit([CNOT(q[0], q[1])])
        assert combined.gate_count() == 2

    def test_copy_is_independent(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0])])
        duplicate = circuit.copy()
        duplicate.append(H(q[1]))
        assert circuit.gate_count() == 1
        assert duplicate.gate_count() == 2

    def test_equality(self):
        q = LineQubit.range(2)
        assert Circuit([H(q[0])]) == Circuit([H(q[0])])
        assert Circuit([H(q[0])]) != Circuit([H(q[1])])


class TestCircuitIntrospection:
    def test_qubits_and_counts(self, qaoa_like_circuit):
        assert qaoa_like_circuit.num_qubits == 4
        assert qaoa_like_circuit.gate_count() == 11
        assert qaoa_like_circuit.is_parameterized
        assert len(qaoa_like_circuit.parameters) == 2

    def test_measurements_separated(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), measure(q[0], q[1])])
        assert len(circuit.measurement_operations()) == 1
        assert circuit.gate_count() == 1
        assert circuit.gate_count(include_measurements=True) == 2
        stripped = circuit.without_measurements()
        assert not stripped.measurement_operations()

    def test_text_diagram_mentions_gates(self, bell_circuit):
        diagram = bell_circuit.to_text_diagram()
        assert "H" in diagram
        assert "CNOT" in diagram


class TestCircuitTransformations:
    def test_resolve_parameters(self, qaoa_like_circuit, qaoa_resolver):
        resolved = qaoa_like_circuit.resolve_parameters(qaoa_resolver)
        assert not resolved.is_parameterized
        assert resolved.gate_count() == qaoa_like_circuit.gate_count()

    def test_with_noise_inserts_channel_per_qubit_per_gate(self, bell_circuit):
        noisy = bell_circuit.with_noise(lambda: depolarize(0.01))
        # H -> 1 channel, CNOT -> 2 channels.
        assert len(noisy.noise_operations()) == 3
        assert noisy.has_noise
        assert noisy.gate_count() == 2

    def test_with_noise_requires_channel(self, bell_circuit):
        with pytest.raises(TypeError):
            bell_circuit.with_noise(lambda: "not a channel")

    def test_with_noise_skips_measurements_by_default(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), CNOT(q[0], q[1]), measure(q[0], q[1])])
        noisy = circuit.with_noise(lambda: depolarize(0.01))
        assert len(noisy.noise_operations()) == 3
        assert noisy.gate_count() == circuit.gate_count()
        assert len(noisy.measurement_operations()) == 1
        assert noisy.all_operations()[-1].is_measurement

    def test_with_noise_on_measurements_when_asked(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), CNOT(q[0], q[1]), measure(q[0], q[1])])
        noisy = circuit.with_noise(lambda: depolarize(0.01), skip_measurements=False)
        # H -> 1, CNOT -> 2, the two-qubit measurement -> 2.
        assert len(noisy.noise_operations()) == 5

    def test_with_noise_covers_every_qubit_of_a_multi_qubit_gate(self):
        q = LineQubit.range(3)
        noisy = Circuit([TOFFOLI(q[0], q[1], q[2])]).with_noise(lambda: depolarize(0.02))
        targets = [op.qubits[0] for op in noisy.noise_operations()]
        assert sorted(targets) == list(q)

    def test_with_noise_adds_nothing_after_existing_channels(self):
        q = LineQubit(0)
        circuit = Circuit([H(q)])
        circuit.append(depolarize(0.1).on(q))
        noisy = circuit.with_noise(lambda: depolarize(0.01))
        # The explicit channel stays and gets no channel of its own.
        assert [op.channel.value for op in noisy.noise_operations()] == [0.01, 0.1]

    def test_with_noise_builds_a_fresh_channel_per_insertion(self, bell_circuit):
        built = []

        def factory():
            built.append(depolarize(0.01))
            return built[-1]

        noisy = bell_circuit.with_noise(factory)
        assert len(built) == 3
        assert len({id(op.channel) for op in noisy.noise_operations()}) == 3

    def test_with_noise_leaves_input_unchanged(self, bell_circuit):
        before = bell_circuit.copy()
        bell_circuit.with_noise(lambda: depolarize(0.01))
        assert bell_circuit == before
        assert not bell_circuit.has_noise

    def test_with_noise_channel_follows_each_gate_on_its_qubit(self, bell_circuit):
        q0 = LineQubit(0)
        noisy = bell_circuit.with_noise(lambda: depolarize(0.01))
        on_q0 = [op for op in noisy.all_operations() if q0 in op.qubits]
        kinds = ["noise" if isinstance(op, NoiseOperation) else str(op.gate) for op in on_q0]
        assert kinds == ["H", "noise", "CNOT", "noise"]


class TestCircuitUnitary:
    def test_bell_unitary(self, bell_circuit):
        q = LineQubit.range(2)
        expected = expand_operator(CNOT.unitary(), [0, 1], 2) @ expand_operator(H.unitary(), [0], 2)
        assert np.allclose(bell_circuit.unitary(), expected)

    def test_unitary_of_noisy_circuit_raises(self, noisy_bell_circuit):
        with pytest.raises(ValueError):
            noisy_bell_circuit.unitary()

    def test_unitary_with_resolver(self, qaoa_like_circuit, qaoa_resolver):
        unitary = qaoa_like_circuit.unitary(resolver=qaoa_resolver)
        assert np.allclose(unitary @ unitary.conj().T, np.eye(16), atol=1e-8)

    def test_unitary_respects_qubit_order(self):
        q = LineQubit.range(2)
        circuit = Circuit([X(q[1])])
        forward = circuit.unitary(qubit_order=[q[0], q[1]])
        reversed_order = circuit.unitary(qubit_order=[q[1], q[0]])
        assert np.allclose(forward, np.kron(np.eye(2), X.unitary()))
        assert np.allclose(reversed_order, np.kron(X.unitary(), np.eye(2)))
