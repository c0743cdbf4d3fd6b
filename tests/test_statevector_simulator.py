"""Tests for the state-vector simulator backend."""

import numpy as np
import pytest

from repro.circuits import (
    CNOT,
    Circuit,
    H,
    LineQubit,
    Ry,
    X,
    bit_flip,
    depolarize,
)
from repro.statevector import StateVectorSimulator


class TestIdealSimulation:
    def test_bell_state(self, bell_circuit, state_vector_simulator):
        result = state_vector_simulator.simulate(bell_circuit)
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(result.state_vector, expected)

    def test_ghz_state(self, state_vector_simulator):
        q = LineQubit.range(3)
        circuit = Circuit([H(q[0]), CNOT(q[0], q[1]), CNOT(q[1], q[2])])
        probabilities = state_vector_simulator.simulate(circuit).probabilities()
        assert probabilities[0] == pytest.approx(0.5)
        assert probabilities[7] == pytest.approx(0.5)

    def test_matches_circuit_unitary(self, qaoa_like_circuit, qaoa_resolver, state_vector_simulator):
        result = state_vector_simulator.simulate(qaoa_like_circuit, qaoa_resolver)
        unitary = qaoa_like_circuit.unitary(resolver=qaoa_resolver)
        assert np.allclose(result.state_vector, unitary[:, 0])

    def test_initial_state(self, state_vector_simulator):
        q = LineQubit.range(2)
        circuit = Circuit([CNOT(q[0], q[1])])
        result = state_vector_simulator.simulate(circuit, initial_state=2)  # |10>
        assert result.probabilities()[3] == pytest.approx(1.0)

    def test_measurements_are_ignored_for_state(self, state_vector_simulator):
        from repro.circuits import measure

        q = LineQubit.range(1)
        circuit = Circuit([H(q[0]), measure(q[0])])
        result = state_vector_simulator.simulate(circuit)
        assert np.allclose(result.probabilities(), [0.5, 0.5])

    def test_noise_rejected_in_ideal_mode(self, noisy_bell_circuit, state_vector_simulator):
        with pytest.raises(ValueError):
            state_vector_simulator.simulate(noisy_bell_circuit)

    def test_amplitude_and_dirac_notation(self, bell_circuit, state_vector_simulator):
        result = state_vector_simulator.simulate(bell_circuit)
        assert result.amplitude([1, 1]) == pytest.approx(1 / np.sqrt(2))
        assert result.amplitude([0, 1]) == pytest.approx(0.0)
        assert "|00>" in result.dirac_notation()


class TestSampling:
    def test_bell_sampling_only_00_and_11(self, bell_circuit, state_vector_simulator):
        samples = state_vector_simulator.sample(bell_circuit, 500, seed=1)
        observed = set(samples.bitstring_counts())
        assert observed <= {"00", "11"}
        assert len(samples) == 500

    def test_sampling_frequencies(self, state_vector_simulator):
        q = LineQubit(0)
        circuit = Circuit([Ry(2 * np.arcsin(np.sqrt(0.2)))(q)])
        samples = state_vector_simulator.sample(circuit, 4000, seed=2)
        ones = samples.bitstring_counts().get("1", 0)
        assert 0.15 < ones / 4000 < 0.26

    def test_seeded_sampling_reproducible(self, bell_circuit):
        simulator = StateVectorSimulator()
        first = simulator.sample(bell_circuit, 100, seed=11).samples
        second = simulator.sample(bell_circuit, 100, seed=11).samples
        assert first == second


class TestTrajectories:
    """Noisy samples come from the trajectory engine, one trajectory per shot."""

    def test_noisy_sampling_distribution(self):
        q = LineQubit(0)
        circuit = Circuit([X(q)])
        circuit.append(bit_flip(0.25).on(q))
        simulator = StateVectorSimulator(seed=7)
        samples = simulator.sample(circuit, 2000, seed=9)
        zeros = samples.bitstring_counts().get("0", 0)
        assert 0.18 < zeros / 2000 < 0.32

    def test_zero_repetitions_return_empty_result(self, noisy_bell_circuit):
        samples = StateVectorSimulator(seed=1).sample(noisy_bell_circuit, 0)
        assert len(samples) == 0
        assert samples.qubits == noisy_bell_circuit.all_qubits()

    @pytest.mark.parametrize(
        "num_qubits, repetitions, chunks",
        [(3, 1000, [1000]), (14, 10, [4, 4, 2]), (17, 3, [1, 1, 1])],
    )
    def test_engine_chunks_hold_one_mebibyte(self, monkeypatch, num_qubits, repetitions, chunks):
        """Chunks hold max(1, 2**16 >> n) trajectories: the backend's 2^n footprint."""
        from repro.trajectory import simulator as trajectory

        seen = []
        engine = trajectory.final_state_chunks

        def recording(*args, **kwargs):
            for states in engine(*args, **kwargs):
                seen.append(states.shape)
                yield states

        monkeypatch.setattr(trajectory, "final_state_chunks", recording)
        q = LineQubit.range(num_qubits)
        circuit = Circuit([H(q[0])])
        circuit.append(depolarize(0.1).on(q[0]))
        samples = StateVectorSimulator(seed=3).sample(circuit, repetitions, qubit_order=q)
        assert len(samples) == repetitions
        assert seen == [(rows, 2 ** num_qubits) for rows in chunks]
