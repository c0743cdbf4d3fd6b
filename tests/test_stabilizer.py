"""Stabilizer-backend unit tests: tableau semantics and measurement edge cases."""

import numpy as np
import pytest

from repro.circuits import CNOT, CZ, Circuit, H, LineQubit, S, T, X, measure
from repro.circuits.noise import amplitude_damp, bit_flip, depolarize
from repro.algorithms import random_clifford_circuit
from repro.stabilizer import StabilizerSimulator, Tableau, gf2_row_basis
from repro.stabilizer import tableau as tableau_module
from repro.statevector import StateVectorSimulator


@pytest.fixture
def ghz3():
    q = LineQubit.range(3)
    return Circuit([H(q[0]), CNOT(q[0], q[1]), CNOT(q[1], q[2])])


class TestMeasurementEdgeCases:
    def test_fresh_state_is_deterministic_zero(self):
        tableau = Tableau(3)
        for qubit in range(3):
            outcome, deterministic = tableau.measure(qubit)
            assert outcome == 0 and deterministic

    def test_flipped_qubit_is_deterministic_one(self):
        tableau = Tableau(2, initial_bits=[0, 1])
        assert tableau.measure(0) == (0, True)
        assert tableau.measure(1) == (1, True)

    def test_ghz_first_random_rest_deterministic(self, ghz3):
        rng = np.random.default_rng(5)
        result = StabilizerSimulator().simulate(ghz3)
        first, first_deterministic = result.measure(0, rng)
        assert first_deterministic is False
        for position in (1, 2):
            outcome, deterministic = result.measure(position, rng)
            assert deterministic is True
            assert outcome == first

    def test_repeated_measurement_is_idempotent(self, ghz3):
        rng = np.random.default_rng(9)
        result = StabilizerSimulator().simulate(ghz3)
        first, _ = result.measure(0, rng)
        for _ in range(3):
            outcome, deterministic = result.measure(0, rng)
            assert deterministic is True
            assert outcome == first

    def test_random_measurement_requires_rng_or_forced(self):
        tableau = Tableau(1)
        tableau.h(0)
        with pytest.raises(ValueError, match="rng"):
            tableau.measure(0)

    @pytest.mark.parametrize("forced", [0, 1])
    def test_forced_branch_selects_post_measurement_state(self, forced):
        tableau = Tableau(1)
        tableau.h(0)
        outcome, deterministic = tableau.measure(0, forced=forced)
        assert (outcome, deterministic) == (forced, False)
        state = tableau.state_vector()
        expected = np.zeros(2, dtype=complex)
        expected[forced] = 1.0
        np.testing.assert_allclose(np.abs(state), np.abs(expected), atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_post_measurement_state_matches_projected_statevector(self, circuit_fuzzer, seed):
        """Collapse parity: tableau post-measurement state == renormalized projection."""
        circuit = circuit_fuzzer(seed, 4, 6, alphabet="clifford")
        dense = StateVectorSimulator().simulate(circuit).state_vector
        result = StabilizerSimulator().simulate(circuit)
        rng = np.random.default_rng(seed + 100)
        outcome, _ = result.measure(0, rng)
        projected = dense.copy().reshape(2, 8)
        projected[1 - outcome] = 0.0
        projected = projected.reshape(16)
        norm = np.linalg.norm(projected)
        assert norm > 1e-9  # the sampled outcome must have support
        projected = projected / norm
        collapsed = result.tableau.state_vector()
        anchor = int(np.argmax(np.abs(projected)))
        phase = collapsed[anchor] / projected[anchor]
        np.testing.assert_allclose(phase.conjugate() * collapsed, projected, atol=1e-9)

    def test_measurement_gates_in_circuit_are_terminal(self, ghz3):
        q = LineQubit.range(3)
        with_measurements = ghz3.copy()
        with_measurements.append(measure(*q))
        counts = StabilizerSimulator(seed=2).sample(with_measurements, 500).bitstring_counts()
        assert set(counts) <= {"000", "111"}


class TestSampling:
    def test_ghz_sampling_support_and_balance(self, ghz3):
        counts = StabilizerSimulator(seed=11).sample(ghz3, 2000).bitstring_counts()
        assert set(counts) <= {"000", "111"}
        assert abs(counts["000"] / 2000 - 0.5) < 0.05

    def test_per_call_seed_reproducible(self, ghz3):
        simulator = StabilizerSimulator(seed=1)
        first = simulator.sample(ghz3, 50, seed=42).samples
        second = simulator.sample(ghz3, 50, seed=42).samples
        assert first == second

    def test_default_generator_advances(self, ghz3):
        simulator = StabilizerSimulator(seed=1)
        first = simulator.sample(ghz3, 200).samples
        second = simulator.sample(ghz3, 200).samples
        assert first != second

    def test_qubit_order_controls_bit_positions(self):
        q = LineQubit.range(2)
        circuit = Circuit([X(q[1])])
        forward = StabilizerSimulator(seed=0).sample(circuit, 10, qubit_order=[q[0], q[1]])
        reversed_order = StabilizerSimulator(seed=0).sample(
            circuit, 10, qubit_order=[q[1], q[0]]
        )
        assert all(bits == (0, 1) for bits in forward.samples)
        assert all(bits == (1, 0) for bits in reversed_order.samples)

    def test_initial_state_kwarg(self, ghz3):
        # |100> input: H takes the flipped qubit to |->, CNOTs copy nothing new;
        # the support stays {000, 011}-style -- just cross-check the dense backend.
        exact = StateVectorSimulator().simulate(ghz3, initial_state=4).probabilities()
        samples = StabilizerSimulator(seed=3).sample(ghz3, 3000, initial_state=4)
        observed = samples.empirical_distribution()
        assert np.all(observed[exact < 1e-12] == 0)

    def test_fifty_plus_qubit_ghz(self):
        qubits = LineQubit.range(60)
        circuit = Circuit([H(qubits[0])])
        for a, b in zip(qubits, qubits[1:]):
            circuit.append(CNOT(a, b))
        samples = StabilizerSimulator(seed=7).sample(circuit, 500)
        observed = {tuple(bits) for bits in samples.samples}
        assert observed <= {tuple([0] * 60), tuple([1] * 60)}
        assert len(observed) == 2


class TestNoise:
    def test_certain_bit_flip_flips_outcome(self):
        q = LineQubit(0)
        circuit = Circuit([X(q)])
        circuit.append(bit_flip(1.0).on(q))
        samples = StabilizerSimulator(seed=0).sample(circuit, 40)
        assert all(bits == (0,) for bits in samples.samples)

    def test_depolarizing_rate_on_idle_qubit(self):
        q = LineQubit(0)
        circuit = Circuit([H(q), H(q)])
        circuit.append(depolarize(0.3).on(q))
        samples = StabilizerSimulator(seed=5).sample(circuit, 5000)
        ones = sum(bits[0] for bits in samples.samples) / 5000
        assert abs(ones - 0.2) < 0.02  # X or Y branch flips: 2/3 * 0.3

    def test_simulate_refuses_noise(self):
        q = LineQubit(0)
        circuit = Circuit([H(q)])
        circuit.append(bit_flip(0.1).on(q))
        with pytest.raises(ValueError, match="ideal circuits"):
            StabilizerSimulator().simulate(circuit)

    def test_non_pauli_channel_rejected(self):
        q = LineQubit(0)
        circuit = Circuit([H(q)])
        circuit.append(amplitude_damp(0.2).on(q))
        with pytest.raises(ValueError, match="Pauli"):
            StabilizerSimulator(seed=0).sample(circuit, 10)


class TestGuards:
    def test_non_clifford_gate_named_in_error(self):
        q = LineQubit(0)
        circuit = Circuit([H(q), T(q)])
        with pytest.raises(ValueError, match=r"non-Clifford.*T"):
            StabilizerSimulator().simulate(circuit)

    def test_dense_state_vector_cap(self):
        qubits = LineQubit.range(16)
        circuit = Circuit([H(q) for q in qubits])
        result = StabilizerSimulator().simulate(circuit)
        with pytest.raises(ValueError, match="state vector capped"):
            _ = result.state_vector

    def test_dense_probability_cap(self):
        qubits = LineQubit.range(24)
        circuit = Circuit([H(q) for q in qubits])
        result = StabilizerSimulator().simulate(circuit)
        with pytest.raises(ValueError, match="probabilities capped"):
            result.probabilities()
        # Sampling still works far beyond the dense caps.
        assert len(result.sample(10, np.random.default_rng(0))) == 10

    def test_repetitions_must_be_positive(self, ghz3):
        with pytest.raises(ValueError, match="repetitions"):
            StabilizerSimulator().sample(ghz3, 0)


class TestTableauInternals:
    def test_gf2_row_basis_rank(self):
        matrix = np.array(
            [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]], dtype=bool
        )
        basis = gf2_row_basis(matrix)
        assert basis.shape == (2, 4)

    def test_support_of_stabilizer_product_state(self):
        tableau = Tableau(3)
        tableau.h(0)
        tableau.h(2)
        x0, basis = tableau.support()
        assert basis.shape[0] == 2  # two free qubits
        # Qubit 0 is the MSB (weight 4), qubit 2 the LSB (weight 1); qubit 1
        # stays pinned at 0, so the support is {000, 001, 100, 101}.
        probabilities = tableau.probabilities()
        np.testing.assert_allclose(
            probabilities, [0.25, 0.25, 0.0, 0.0, 0.25, 0.25, 0.0, 0.0], atol=1e-12
        )

    def test_entangled_support_dimension(self):
        tableau = Tableau(2)
        tableau.h(0)
        tableau.cnot(0, 1)
        _, basis = tableau.support()
        assert basis.shape[0] == 1  # Bell support {00, 11} has GF(2) dimension 1

    def test_s_gate_phase_visible_in_state(self):
        tableau = Tableau(1)
        tableau.h(0)
        tableau.s(0)
        state = tableau.state_vector()
        dense = StateVectorSimulator().simulate(
            Circuit([H(LineQubit(0)), S(LineQubit(0))])
        ).state_vector
        phase = dense[0] / state[0]
        np.testing.assert_allclose(phase * state, dense, atol=1e-9)

    def test_cz_phase_rule_matches_dense(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), H(q[1]), S(q[0]), CZ(q[0], q[1]), H(q[1])])
        dense = StateVectorSimulator().simulate(circuit).state_vector
        tableau = StabilizerSimulator().simulate(circuit).state_vector
        phase = dense[int(np.argmax(np.abs(dense)))] / tableau[int(np.argmax(np.abs(dense)))]
        np.testing.assert_allclose(phase * tableau, dense, atol=1e-9)

    def test_tableau_copy_is_independent(self):
        tableau = Tableau(2)
        duplicate = tableau.copy()
        duplicate.h(0)
        assert tableau.measure(0) == (0, True)

    def test_unknown_primitive_rejected(self):
        with pytest.raises(ValueError, match="unknown stabilizer primitive"):
            Tableau(1).apply("T", (0,))


class TestSupportMemo:
    """``Tableau.support()`` runs once per final state, keyed by the table bytes."""

    def test_probabilities_then_sample_equals_fresh_results(self):
        circuit = random_clifford_circuit(8, 10, seed=5).circuit
        simulator = StabilizerSimulator()
        used = simulator.simulate(circuit)
        probabilities = used.probabilities()
        samples = used.sample(64, np.random.default_rng(9)).samples
        np.testing.assert_array_equal(probabilities, simulator.simulate(circuit).probabilities())
        fresh = simulator.simulate(circuit).sample(64, np.random.default_rng(9)).samples
        assert samples == fresh

    def test_support_is_computed_once_per_state(self, ghz3, monkeypatch):
        calls = []
        original = tableau_module.gf2_row_basis

        def counting(rows):
            calls.append(1)
            return original(rows)

        monkeypatch.setattr(tableau_module, "gf2_row_basis", counting)
        result = StabilizerSimulator().simulate(ghz3)
        result.probabilities()
        result.sample(10, np.random.default_rng(0))
        result.tableau.state_vector()
        assert len(calls) == 1

    def test_measure_invalidates_the_memo(self, ghz3):
        result = StabilizerSimulator().simulate(ghz3)
        np.testing.assert_allclose(result.probabilities()[[0, 7]], [0.5, 0.5])
        outcome, deterministic = result.measure(0, forced=1)
        assert (outcome, deterministic) == (1, False)
        np.testing.assert_array_equal(result.probabilities(), np.eye(8)[7])
        samples = result.sample(5, np.random.default_rng(0)).samples
        assert all(bits == (1, 1, 1) for bits in samples)

    def test_gate_after_support_invalidates_the_memo(self):
        tableau = Tableau(2)
        x0, basis = tableau.support()
        assert basis.shape[0] == 0 and not x0.flags.writeable
        tableau.h(1)
        assert tableau.support()[1].shape[0] == 1
