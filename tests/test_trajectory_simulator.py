"""Unit tests for the batched quantum-trajectory backend."""

import numpy as np
import pytest

from repro.circuits import CNOT, Circuit, H, LineQubit, Rz, X, Z, measure
from repro.circuits.noise import (
    KrausChannel,
    amplitude_damp,
    bit_flip,
    depolarize,
    phase_damp,
)
from repro.densitymatrix import DensityMatrixSimulator
from repro.statevector import StateVectorSimulator
from repro.trajectory import TrajectorySimulator
from repro.trajectory.simulator import (
    _KrausStep,
    _MixtureStep,
    _UnitaryStep,
    compile_trajectory_program,
)


class TestProgramCompilation:
    def test_adjacent_single_qubit_unitaries_fuse(self):
        q = LineQubit(0)
        circuit = Circuit([H(q), Z(q), Rz(0.3)(q)])
        program = compile_trajectory_program(circuit, None, {q: 0})
        assert len(program) == 1
        assert isinstance(program[0], _UnitaryStep)
        expected = Rz(0.3).unitary() @ Z.unitary() @ H.unitary()
        assert np.allclose(program[0].matrix, expected, atol=1e-12)

    def test_fusion_does_not_cross_entangling_gates(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), CNOT(q[0], q[1]), H(q[0])])
        program = compile_trajectory_program(circuit, None, {q[0]: 0, q[1]: 1})
        assert len(program) == 3

    def test_fusion_does_not_cross_noise(self):
        q = LineQubit(0)
        circuit = Circuit([H(q)])
        circuit.append(depolarize(0.1).on(q))
        circuit.append(X(q))
        program = compile_trajectory_program(circuit, None, {q: 0})
        kinds = [type(step) for step in program]
        assert kinds == [_UnitaryStep, _MixtureStep, _UnitaryStep]

    def test_identical_channels_share_one_compiled_step(self):
        q = LineQubit(0)
        circuit = Circuit([H(q)])
        circuit.append(depolarize(0.05).on(q))
        circuit.append(X(q))
        circuit.append(depolarize(0.05).on(q))
        program = compile_trajectory_program(circuit, None, {q: 0})
        mixtures = [step for step in program if isinstance(step, _MixtureStep)]
        assert len(mixtures) == 2
        assert mixtures[0] is mixtures[1]

    def test_mixture_channels_compile_to_mixture_steps(self):
        q = LineQubit(0)
        circuit = Circuit([X(q)])
        circuit.append(bit_flip(0.25).on(q))
        circuit.append(amplitude_damp(0.25).on(q))
        program = compile_trajectory_program(circuit, None, {q: 0})
        assert isinstance(program[1], _MixtureStep)
        assert isinstance(program[2], _KrausStep)

    def test_measurements_are_dropped(self):
        q = LineQubit(0)
        circuit = Circuit([H(q), measure(q)])
        program = compile_trajectory_program(circuit, None, {q: 0})
        assert len(program) == 1


class TestSimulate:
    def test_ideal_circuit_is_exact(self, bell_circuit):
        result = TrajectorySimulator(seed=0).simulate(bell_circuit, num_trajectories=4)
        expected = DensityMatrixSimulator().simulate(bell_circuit).density_matrix
        assert np.allclose(result.density_matrix, expected, atol=1e-12)

    def test_simulate_trajectory_returns_pure_state(self, bell_circuit):
        result = TrajectorySimulator(seed=0).simulate_trajectory(bell_circuit)
        assert result.state_vector.shape == (4,)
        assert np.linalg.norm(result.state_vector) == pytest.approx(1.0)

    def test_trajectory_states_stay_normalized_under_noise(self):
        q = LineQubit(0)
        circuit = Circuit([X(q)])
        circuit.append(amplitude_damp(0.5).on(q))
        result = TrajectorySimulator(seed=1).simulate_trajectory(circuit, seed=5)
        assert np.linalg.norm(result.state_vector) == pytest.approx(1.0)

    def test_trajectory_preserves_norm(self, noisy_bell_circuit):
        result = TrajectorySimulator().simulate_trajectory(noisy_bell_circuit, seed=3)
        assert np.linalg.norm(result.state_vector) == pytest.approx(1.0)

    def test_trajectory_average_matches_density_matrix(self):
        q = LineQubit(0)
        circuit = Circuit([H(q)])
        circuit.append(amplitude_damp(0.4).on(q))
        simulator = TrajectorySimulator(seed=5)
        average = np.zeros((2, 2), dtype=complex)
        num_trajectories = 800
        for index in range(num_trajectories):
            state = simulator.simulate_trajectory(circuit, seed=index).state_vector
            average += np.outer(state, state.conj()) / num_trajectories
        expected = DensityMatrixSimulator().simulate(circuit).density_matrix
        assert np.allclose(average, expected, atol=0.06)

    def test_bit_flip_branch_statistics(self):
        q = LineQubit(0)
        circuit = Circuit([X(q)])
        circuit.append(bit_flip(0.2).on(q))
        probabilities = TrajectorySimulator(seed=2).estimate_probabilities(
            circuit, num_trajectories=8000
        )
        assert probabilities[0] == pytest.approx(0.2, abs=0.02)

    def test_custom_kraus_channel(self):
        gamma = 0.35
        channel = KrausChannel(
            [
                np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex),
                np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
            ],
            name="custom_damping",
        )
        q = LineQubit(0)
        circuit = Circuit([X(q)])
        circuit.append(channel.on(q))
        probabilities = TrajectorySimulator(seed=3).estimate_probabilities(
            circuit, num_trajectories=8000
        )
        assert probabilities[0] == pytest.approx(gamma, abs=0.02)


class TestSample:
    def test_sample_count_and_width(self, noisy_bell_circuit):
        result = TrajectorySimulator(seed=4).sample(noisy_bell_circuit, 257)
        assert len(result) == 257
        assert all(len(sample) == 2 for sample in result.samples)

    def test_seeded_sampling_is_reproducible(self, noisy_bell_circuit):
        simulator = TrajectorySimulator(seed=5)
        first = simulator.sample(noisy_bell_circuit, 100, seed=9).samples
        second = simulator.sample(noisy_bell_circuit, 100, seed=9).samples
        assert first == second

    def test_seedless_sampling_uses_shared_default_rng(self, noisy_bell_circuit):
        simulator = TrajectorySimulator(seed=6)
        first = simulator.sample(noisy_bell_circuit, 100).samples
        second = simulator.sample(noisy_bell_circuit, 100).samples
        assert first != second  # the default generator advances between calls

    def test_ideal_sampling_matches_state_vector_distribution(self, bell_circuit):
        trajectory = TrajectorySimulator(seed=7).sample(bell_circuit, 4000, seed=1)
        distribution = trajectory.empirical_distribution()
        assert distribution[1] == 0.0 and distribution[2] == 0.0
        assert distribution[0] == pytest.approx(0.5, abs=0.05)

    def test_num_trajectories_validation(self, noisy_bell_circuit):
        simulator = TrajectorySimulator(seed=8)
        with pytest.raises(ValueError):
            simulator.sample(noisy_bell_circuit, 10, num_trajectories=0)
        with pytest.raises(ValueError):
            simulator.sample(noisy_bell_circuit, 0)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            TrajectorySimulator(max_batch_size=0)

    def test_qubit_order_respected(self):
        q = LineQubit.range(2)
        circuit = Circuit([Z(q[0]), X(q[1])])
        circuit.append(depolarize(0.0).on(q[1]))
        default_order = TrajectorySimulator(seed=9).sample(circuit, 8)
        assert set(default_order.samples) == {(0, 1)}
        reversed_order = TrajectorySimulator(seed=9).sample(
            circuit, 8, qubit_order=[q[1], q[0]]
        )
        assert set(reversed_order.samples) == {(1, 0)}

    def test_statevector_and_trajectory_backends_share_ideal_distribution(self, bell_circuit):
        sv = StateVectorSimulator(seed=10).sample(bell_circuit, 2000, seed=2)
        trajectory = TrajectorySimulator(seed=10).sample(bell_circuit, 2000, seed=2)
        assert np.abs(
            sv.empirical_distribution() - trajectory.empirical_distribution()
        ).max() < 0.06
