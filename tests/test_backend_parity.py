"""Cross-backend parity harness.

Asserts that every backend agrees on small circuits where the dense
density-matrix simulator is exact ground truth:

* deterministic backends (state-vector, tensor-network, knowledge
  compilation) match the density matrix exactly on ideal circuits;
* trajectory-averaged observables (density matrix, probabilities, sampling
  histograms) converge to the dense density-matrix result on noisy circuits
  within statistical tolerance.
"""

import numpy as np
import pytest

from repro import device, select_backend
from repro.circuits import (
    CNOT,
    AsymmetricDepolarizingChannel,
    Circuit,
    H,
    LineQubit,
    Ry,
    T,
    X,
    amplitude_damp,
    bit_flip,
    depolarize,
    generalized_amplitude_damp,
    measure,
    phase_damp,
    phase_flip,
)
from repro.densitymatrix import DensityMatrixSimulator
from repro.sampling import total_variation_distance
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.stabilizer import StabilizerSimulator
from repro.statevector import StateVectorSimulator
from repro.tensornetwork import TensorNetworkSimulator
from repro.trajectory import TrajectorySimulator
from repro.variational import QAOACircuit, random_regular_maxcut

from goodness_of_fit import goodness_of_fit


def _noisy_qaoa(num_qubits: int, probability: float = 0.02, seed: int = 5) -> Circuit:
    ansatz = QAOACircuit(random_regular_maxcut(num_qubits, seed=seed), iterations=1)
    circuit = ansatz.circuit.resolve_parameters(ansatz.resolver([0.6, 0.4]))
    return circuit.with_noise(lambda: depolarize(probability))


def _gate_class_noise_bell() -> Circuit:
    """A Bell circuit with 1% depolarizing after H and 5% after CNOT, per touched qubit."""
    q = LineQubit.range(2)
    circuit = Circuit([H(q[0])])
    circuit.append(depolarize(0.01).on(q[0]))
    circuit.append(CNOT(q[0], q[1]))
    circuit.append([depolarize(0.05).on(q[0]), depolarize(0.05).on(q[1])])
    return circuit


def _damped_circuit() -> Circuit:
    """A circuit exercising non-mixture (general Kraus) channels."""
    q = LineQubit.range(2)
    circuit = Circuit([H(q[0]), Ry(0.7)(q[1])])
    circuit.append(amplitude_damp(0.2).on(q[0]))
    circuit.append(CNOT(q[0], q[1]))
    circuit.append(phase_damp(0.3).on(q[1]))
    return circuit


class TestIdealParity:
    """Every backend reproduces the same pure state on ideal circuits."""

    def test_all_backends_agree_on_ideal_circuit(self, qaoa_like_circuit, qaoa_resolver):
        dense = DensityMatrixSimulator().simulate(qaoa_like_circuit, qaoa_resolver)
        rho = dense.density_matrix
        state = StateVectorSimulator().simulate(qaoa_like_circuit, qaoa_resolver).state_vector
        assert np.allclose(np.outer(state, state.conj()), rho, atol=1e-9)
        tn_state = TensorNetworkSimulator().simulate(qaoa_like_circuit, qaoa_resolver).state_vector
        assert np.allclose(np.outer(tn_state, tn_state.conj()), rho, atol=1e-9)
        kc_rho = (
            KnowledgeCompilationSimulator(seed=1)
            .simulate_density_matrix(qaoa_like_circuit, qaoa_resolver)
            .density_matrix
        )
        assert np.allclose(kc_rho, rho, atol=1e-9)
        trajectory_rho = TrajectorySimulator(seed=1).simulate(
            qaoa_like_circuit, qaoa_resolver, num_trajectories=2
        ).density_matrix
        assert np.allclose(trajectory_rho, rho, atol=1e-9)

    def test_initial_state_honored_by_every_backend(self, bell_circuit):
        # |10> input: the Bell circuit maps it to (|10> - |11>)/sqrt(2) up to phase.
        initial = 2
        rho = DensityMatrixSimulator().simulate(bell_circuit, initial_state=initial).density_matrix
        sv = StateVectorSimulator().simulate(bell_circuit, initial_state=initial).state_vector
        assert np.allclose(np.outer(sv, sv.conj()), rho, atol=1e-9)
        tn = TensorNetworkSimulator().simulate(bell_circuit, initial_state=initial).state_vector
        assert np.allclose(np.outer(tn, tn.conj()), rho, atol=1e-9)
        kc = (
            KnowledgeCompilationSimulator(seed=1)
            .simulate(bell_circuit, initial_state=initial)
            .state_vector
        )
        assert np.allclose(np.outer(kc, kc.conj()), rho, atol=1e-9)
        trajectory = TrajectorySimulator(seed=1).simulate(
            bell_circuit, initial_state=initial, num_trajectories=2
        ).density_matrix
        assert np.allclose(trajectory, rho, atol=1e-9)


class TestStabilizerParity:
    """The tableau backend agrees with dense ground truth on Clifford circuits."""

    def test_stabilizer_matches_dense_on_bell(self, bell_circuit):
        rho = DensityMatrixSimulator().simulate(bell_circuit).density_matrix
        result = StabilizerSimulator().simulate(bell_circuit)
        np.testing.assert_allclose(result.probabilities(), np.real(np.diag(rho)), atol=1e-10)
        state = result.state_vector
        np.testing.assert_allclose(np.outer(state, state.conj()), rho, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stabilizer_matches_dense_on_fuzzed_clifford(self, circuit_fuzzer, seed):
        circuit = circuit_fuzzer(seed, 4, 6, alphabet="clifford")
        dense = StateVectorSimulator().simulate(circuit)
        tableau = StabilizerSimulator().simulate(circuit)
        np.testing.assert_allclose(
            tableau.probabilities(), dense.probabilities(), atol=1e-10
        )

    def test_stabilizer_sampling_histogram_converges(self, bell_circuit):
        exact = StateVectorSimulator().simulate(bell_circuit).probabilities()
        samples = StabilizerSimulator(seed=31).sample(bell_circuit, 4000)
        assert total_variation_distance(exact, samples.empirical_distribution()) < 0.05


class TestHybridDispatch:
    """Routing decisions are explicit and device("auto") matches whatever it routes to."""

    def test_clifford_routes_to_tableau(self, bell_circuit):
        decision = select_backend(bell_circuit)
        assert decision.backend == "stabilizer"
        assert decision.reason == "clifford"

    def test_t_gate_routes_to_fallback(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), T(q[0]), CNOT(q[0], q[1])])
        decision = select_backend(circuit)
        assert decision.backend == "state_vector"
        assert "T" in decision.reason

    def test_pauli_noise_routes_sampling_only(self, noisy_bell_circuit):
        assert select_backend(noisy_bell_circuit).backend == "stabilizer"
        assert select_backend(noisy_bell_circuit, observables=()).backend == "state_vector"

    def test_non_pauli_noise_falls_back(self):
        q = LineQubit(0)
        circuit = Circuit([H(q)])
        circuit.append(amplitude_damp(0.1).on(q))
        assert select_backend(circuit).backend == "state_vector"

    def test_hybrid_matches_dense_on_mixed_suite(self, bell_circuit, qaoa_like_circuit, qaoa_resolver):
        dev = device("auto", seed=0)
        clifford_probs = dev.simulate(bell_circuit).probabilities()
        assert dev.decide(bell_circuit, sampling=False).backend == "stabilizer"
        exact = DensityMatrixSimulator().simulate(bell_circuit).probabilities()
        np.testing.assert_allclose(clifford_probs, exact, atol=1e-10)

        generic_probs = dev.simulate(qaoa_like_circuit, qaoa_resolver).probabilities()
        assert dev.decide(qaoa_like_circuit, qaoa_resolver, sampling=False).backend == "state_vector"
        exact = DensityMatrixSimulator().simulate(qaoa_like_circuit, qaoa_resolver).probabilities()
        np.testing.assert_allclose(generic_probs, exact, atol=1e-9)

    def test_hybrid_resolver_dependent_routing(self, qaoa_like_circuit):
        """The same symbolic ansatz routes per binding: pi/2 grid vs generic."""
        from repro.circuits import ParamResolver

        dev = device("auto", seed=0)
        clifford_binding = ParamResolver({"gamma": np.pi / 4, "beta": np.pi / 4})
        dev.sample(qaoa_like_circuit, 8, resolver=clifford_binding, seed=0)
        assert dev.decide(qaoa_like_circuit, clifford_binding, repetitions=8).backend == "stabilizer"
        generic_binding = ParamResolver({"gamma": 0.55, "beta": 0.35})
        dev.sample(qaoa_like_circuit, 8, resolver=generic_binding, seed=0)
        assert dev.decide(qaoa_like_circuit, generic_binding, repetitions=8).backend == "state_vector"

    def test_hybrid_noisy_simulate_uses_mixed_state_fallback(self, noisy_bell_circuit):
        """simulate() on a noisy circuit must land on a backend that can run it."""
        dev = device("auto", seed=0)
        result = dev.simulate(noisy_bell_circuit)
        assert dev.decide(noisy_bell_circuit, sampling=False).backend == "density_matrix"
        exact = DensityMatrixSimulator().simulate(noisy_bell_circuit).density_matrix
        np.testing.assert_allclose(result.density_matrix, exact, atol=1e-10)

    def test_hybrid_noisy_sampling_matches_density_matrix(self, noisy_bell_circuit):
        dev = device("auto", seed=0)
        exact = DensityMatrixSimulator().simulate(noisy_bell_circuit).probabilities()
        samples = dev.sample(noisy_bell_circuit, 4000, seed=37)
        assert dev.decide(noisy_bell_circuit, repetitions=4000).backend == "stabilizer"
        assert total_variation_distance(exact, samples.empirical_distribution()) < 0.05


class TestNoisyExactParity:
    """Knowledge compilation is exact on noisy circuits, like the density matrix."""

    def test_kc_matches_density_matrix_on_gate_class_noise(self):
        noisy = _gate_class_noise_bell()
        kc_rho = KnowledgeCompilationSimulator(seed=1).simulate_density_matrix(noisy).density_matrix
        dm_rho = DensityMatrixSimulator().simulate(noisy).density_matrix
        assert np.allclose(kc_rho, dm_rho, atol=1e-9)

    @pytest.mark.parametrize(
        "channel",
        [
            lambda: bit_flip(0.1),
            lambda: phase_flip(0.2),
            lambda: depolarize(0.15),
            lambda: AsymmetricDepolarizingChannel(0.05, 0.1, 0.02),
            lambda: amplitude_damp(0.3),
            lambda: phase_damp(0.36),
            lambda: generalized_amplitude_damp(0.7, 0.2),
        ],
        ids=[
            "bit_flip",
            "phase_flip",
            "depolarize",
            "asymmetric_depolarize",
            "amplitude_damp",
            "phase_damp",
            "generalized_amplitude_damp",
        ],
    )
    def test_kc_matches_density_matrix_per_channel(self, channel):
        q = LineQubit.range(2)
        noisy = Circuit([H(q[0]), Ry(0.7)(q[1]), CNOT(q[0], q[1])]).with_noise(channel)
        kc_rho = KnowledgeCompilationSimulator(seed=1).simulate_density_matrix(noisy).density_matrix
        dm_rho = DensityMatrixSimulator().simulate(noisy).density_matrix
        assert np.allclose(kc_rho, dm_rho, atol=1e-9)

    def test_readout_error_before_measurement(self):
        q = LineQubit(0)
        circuit = Circuit([X(q)])
        circuit.append(bit_flip(0.2).on(q))
        circuit.append(measure(q))
        dm = DensityMatrixSimulator().simulate(circuit).probabilities()
        kc = KnowledgeCompilationSimulator(seed=1).simulate_density_matrix(circuit).probabilities()
        assert dm[0] == pytest.approx(0.2)
        assert kc[0] == pytest.approx(0.2)

    def test_kc_matches_density_matrix_with_idle_relaxation(self):
        """Amplitude then phase damping on each qubit that idles in a moment."""
        q = LineQubit.range(3)
        # Moment 0: H(q0) and X(q2) while q1 idles; moment 1: CNOT(q0, q1) while q2 idles.
        circuit = Circuit([H(q[0]), X(q[2])])
        circuit.append([amplitude_damp(0.01).on(q[1]), phase_damp(0.02).on(q[1])])
        circuit.append(CNOT(q[0], q[1]))
        circuit.append([amplitude_damp(0.01).on(q[2]), phase_damp(0.02).on(q[2])])
        kc_rho = KnowledgeCompilationSimulator(seed=1).simulate_density_matrix(circuit).density_matrix
        dm_rho = DensityMatrixSimulator().simulate(circuit).density_matrix
        assert np.allclose(kc_rho, dm_rho, atol=1e-9)


class TestNoisyTrajectoryParity:
    """Trajectory averages converge to the dense density-matrix ground truth."""

    @pytest.mark.parametrize("num_qubits", [3, 4])
    def test_density_matrix_converges_on_noisy_qaoa(self, num_qubits):
        circuit = _noisy_qaoa(num_qubits)
        exact = DensityMatrixSimulator().simulate(circuit).density_matrix
        estimate = TrajectorySimulator(seed=11).simulate(
            circuit, num_trajectories=4000
        ).density_matrix
        assert np.abs(estimate - exact).max() < 0.03
        assert np.trace(estimate).real == pytest.approx(1.0, abs=1e-9)

    def test_general_kraus_channels_converge(self):
        circuit = _damped_circuit()
        exact = DensityMatrixSimulator().simulate(circuit).probabilities()
        estimate = TrajectorySimulator(seed=3).estimate_probabilities(
            circuit, num_trajectories=6000
        )
        assert total_variation_distance(exact, estimate) < 0.03

    def test_sampling_distribution_matches_density_matrix(self):
        circuit = _noisy_qaoa(4)
        exact = DensityMatrixSimulator().simulate(circuit).probabilities()
        exact = exact / exact.sum()
        samples = TrajectorySimulator(seed=23).sample(circuit, 4000)
        assert total_variation_distance(exact, samples.empirical_distribution()) < 0.06

    def test_capped_trajectory_sampling_stays_unbiased(self):
        circuit = _noisy_qaoa(3)
        exact = DensityMatrixSimulator().simulate(circuit).probabilities()
        exact = exact / exact.sum()
        samples = TrajectorySimulator(seed=29).sample(circuit, 4000, num_trajectories=200)
        assert total_variation_distance(exact, samples.empirical_distribution()) < 0.08

    def test_matches_statevector_trajectory_method(self):
        """The state-vector backend's noisy shots agree with the trajectory estimate."""
        q = LineQubit(0)
        circuit = Circuit([X(q)])
        circuit.append(amplitude_damp(0.4).on(q))
        batched = TrajectorySimulator(seed=7).estimate_probabilities(
            circuit, num_trajectories=4000
        )
        # Distinct seeds: both backends run the trajectory engine, so equal
        # seeds would draw the same branches and compare a run with itself.
        looped = StateVectorSimulator(seed=8).sample(circuit, 4000).empirical_distribution()
        assert total_variation_distance(batched, looped) < 0.05

    def test_noise_model_circuit_parity(self):
        noisy = _gate_class_noise_bell()
        exact = DensityMatrixSimulator().simulate(noisy).density_matrix
        estimate = TrajectorySimulator(seed=17).simulate(
            noisy, num_trajectories=4000
        ).density_matrix
        assert np.abs(estimate - exact).max() < 0.03

    def test_chunked_batches_match_single_batch(self):
        """max_batch_size chunking must not change seeded results' statistics."""
        circuit = _noisy_qaoa(3)
        small = TrajectorySimulator(seed=41, max_batch_size=16).estimate_probabilities(
            circuit, num_trajectories=512
        )
        large = TrajectorySimulator(seed=41, max_batch_size=512).estimate_probabilities(
            circuit, num_trajectories=512
        )
        assert total_variation_distance(small, large) < 0.08


#: Family-wise false-alarm rate of ``TestStateVectorNoisySampling``.
FAMILY_ALPHA = 1e-4
#: (circuit, sample/simulate keywords) per case; each case tests at
#: ``FAMILY_ALPHA / len(NOISY_SAMPLING_CASES)`` (Bonferroni).
NOISY_SAMPLING_CASES = {
    "depolarizing": (_noisy_qaoa(4), {}),
    "amplitude-damping": (_damped_circuit(), {}),
    "initial-state": (_noisy_qaoa(3), {"initial_state": 5}),
    "qubit-order": (_damped_circuit(), {"qubit_order": LineQubit.range(2)[::-1]}),
}


class TestStateVectorNoisySampling:
    """Every noisy shot of the state-vector backend fits the density matrix.

    Each shot is measured on its own trajectory, so the shots are
    independent draws and all of them enter one chi-square test against
    ``DensityMatrixSimulator`` probabilities.  The cases cover a mixture
    channel (depolarizing), general Kraus channels (amplitude and phase
    damping), a non-zero initial state and a permuted qubit order; each
    tests at level ``FAMILY_ALPHA / len(NOISY_SAMPLING_CASES)``, so the
    class raises a false alarm with probability at most ``FAMILY_ALPHA``.
    """

    @pytest.mark.parametrize("case", sorted(NOISY_SAMPLING_CASES))
    def test_all_shots_fit_density_matrix(self, case):
        circuit, options = NOISY_SAMPLING_CASES[case]
        shots = StateVectorSimulator(seed=31).sample(circuit, 4000, **options)
        bits = np.asarray(shots.samples, dtype=np.int64)
        weights = 1 << np.arange(bits.shape[1] - 1, -1, -1)
        counts = np.bincount(bits @ weights, minlength=2 ** bits.shape[1]).astype(float)
        exact = DensityMatrixSimulator().simulate(circuit, **options).probabilities()
        level = FAMILY_ALPHA / len(NOISY_SAMPLING_CASES)
        assert goodness_of_fit(counts, exact) >= level
