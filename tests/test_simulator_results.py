"""Tests for the shared simulator result containers."""

import pickle

import numpy as np
import pytest

from repro import device
from repro.circuits import CNOT, Circuit, GridQubit, H, LineQubit, NamedQubit, Ry, depolarize
from repro.densitymatrix import DensityMatrixSimulator
from repro.linalg.tensor_ops import index_to_bits
from repro.simulator import DensityMatrixResult, SampleResult, StateVectorResult
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.simulator.results import sample_from_probabilities


class TestSampleResult:
    def test_counts_and_histogram(self):
        qubits = LineQubit.range(2)
        result = SampleResult(qubits, [(0, 0), (1, 1), (1, 1)])
        assert result.counts()[(1, 1)] == 2
        assert result.bitstring_counts() == {"00": 1, "11": 2}
        assert result.most_common(1)[0][0] == (1, 1)

    def test_empirical_distribution(self):
        qubits = LineQubit.range(2)
        result = SampleResult(qubits, [(0, 1), (0, 1), (1, 0), (1, 1)])
        distribution = result.empirical_distribution()
        assert distribution[1] == pytest.approx(0.5)
        assert distribution.sum() == pytest.approx(1.0)

    def test_expectation_of_bit(self):
        qubits = LineQubit.range(1)
        result = SampleResult(qubits, [(0,), (1,), (1,), (1,)])
        assert result.expectation_of_bit(0) == pytest.approx(0.75)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            SampleResult(LineQubit.range(2), [(0,)])

    def test_empty_expectation_raises(self):
        result = SampleResult(LineQubit.range(1), [])
        with pytest.raises(ValueError):
            result.expectation_of_bit(0)


    @pytest.mark.parametrize(
        "qubits, samples",
        [
            (LineQubit.range(3), np.array([[0, 1, 1], [1, 0, 0], [0, 1, 1]])),
            (LineQubit.range(3), [(0, 1, 1), (1, 1, 0)]),
            (LineQubit.range(1), np.array([[300], [-1]])),
            (LineQubit.range(2), np.zeros((0, 2), dtype=np.int64)),
            ([GridQubit(0, 1), NamedQubit("anc")], np.array([[1, 0]], dtype=np.uint8)),
        ],
    )
    def test_pickle_round_trip(self, qubits, samples):
        result = SampleResult(qubits, samples)
        restored = pickle.loads(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        assert restored.samples == result.samples
        assert restored.qubits == result.qubits
        assert [type(q) for q in restored.qubits] == [type(q) for q in result.qubits]


class TestStateVectorResult:
    def test_probabilities_and_amplitude(self):
        qubits = LineQubit.range(1)
        result = StateVectorResult(qubits, np.array([1, 1j]) / np.sqrt(2))
        assert np.allclose(result.probabilities(), [0.5, 0.5])
        assert result.amplitude([1]) == pytest.approx(1j / np.sqrt(2))

    def test_density_matrix(self):
        qubits = LineQubit.range(1)
        result = StateVectorResult(qubits, np.array([1, 0], dtype=complex))
        assert np.allclose(result.density_matrix(), [[1, 0], [0, 0]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StateVectorResult(LineQubit.range(2), np.zeros(3))

    def test_sampling(self):
        qubits = LineQubit.range(1)
        result = StateVectorResult(qubits, np.array([0, 1], dtype=complex))
        samples = result.sample(10, np.random.default_rng(0))
        assert samples.bitstring_counts() == {"1": 10}

    def test_dirac_notation_skips_zero_terms(self):
        qubits = LineQubit.range(2)
        result = StateVectorResult(qubits, np.array([1, 0, 0, 0], dtype=complex))
        notation = result.dirac_notation()
        assert "|00>" in notation and "|01>" not in notation


class TestDensityMatrixResult:
    def test_probabilities_and_purity(self):
        qubits = LineQubit.range(1)
        rho = np.array([[0.5, 0], [0, 0.5]], dtype=complex)
        result = DensityMatrixResult(qubits, rho)
        assert np.allclose(result.probabilities(), [0.5, 0.5])
        assert result.purity() == pytest.approx(0.5)

    def test_probability_of(self):
        qubits = LineQubit.range(2)
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0
        result = DensityMatrixResult(qubits, rho)
        assert result.probability_of([1, 0]) == pytest.approx(1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DensityMatrixResult(LineQubit.range(1), np.zeros((3, 3)))

    def test_sampling_from_diagonal(self):
        qubits = LineQubit.range(1)
        rho = np.array([[0.2, 0], [0, 0.8]], dtype=complex)
        result = DensityMatrixResult(qubits, rho)
        samples = result.sample(2000, np.random.default_rng(1))
        ones = samples.bitstring_counts().get("1", 0) / 2000
        assert 0.74 < ones < 0.86


def _reference_draw(probabilities, repetitions, seed):
    """The per-backend dense draw every sampler used before sharing one."""
    probabilities = np.asarray(probabilities, dtype=float)
    probabilities = probabilities / probabilities.sum()
    rng = np.random.default_rng(seed)
    indices = rng.choice(len(probabilities), size=repetitions, p=probabilities)
    num_qubits = int(np.log2(len(probabilities)))
    return [index_to_bits(int(i), num_qubits) for i in indices]


class TestDenseDraw:
    """One dense draw: seeded shots equal the reference draw, zero shots included."""

    REPETITIONS = [0, 1, 257]

    @staticmethod
    def _circuit():
        q = LineQubit.range(3)
        return Circuit([H(q[0]), Ry(0.7)(q[1]), CNOT(q[0], q[2]), Ry(1.3)(q[2])])

    @pytest.mark.parametrize("repetitions", REPETITIONS)
    def test_state_vector_sample(self, repetitions):
        rng = np.random.default_rng(3)
        state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        result = StateVectorResult(LineQubit.range(3), state / np.linalg.norm(state))
        samples = result.sample(repetitions, np.random.default_rng(11))
        assert samples.samples == _reference_draw(result.probabilities(), repetitions, 11)

    @pytest.mark.parametrize("repetitions", REPETITIONS)
    def test_density_matrix_sample(self, repetitions):
        circuit = self._circuit().with_noise(lambda: depolarize(0.05))
        result = DensityMatrixSimulator().simulate(circuit)
        samples = result.sample(repetitions, np.random.default_rng(12))
        assert samples.samples == _reference_draw(result.probabilities(), repetitions, 12)

    @pytest.mark.parametrize("repetitions", REPETITIONS)
    def test_unnormalized_distribution_sample(self, repetitions):
        weights = np.random.default_rng(4).random(8)  # unnormalized
        samples = sample_from_probabilities(
            LineQubit.range(3), weights, repetitions, np.random.default_rng(13)
        )
        assert samples.samples == _reference_draw(weights, repetitions, 13)

    @pytest.mark.parametrize("repetitions", [1, 257])
    def test_kc_exact_sampling_device_run(self, repetitions):
        circuit = self._circuit()
        result = device("knowledge_compilation").run(
            circuit, repetitions=repetitions, seed=14, sampling="exact"
        ).result()
        probabilities = (
            KnowledgeCompilationSimulator(cache=None).compile_circuit(circuit).probabilities()
        )
        reference = _reference_draw(np.clip(probabilities, 0.0, None), repetitions, 14)
        assert result[0]["samples"].samples == reference

    def test_negative_round_off_is_clipped(self):
        draws = sample_from_probabilities(
            LineQubit.range(1), np.array([-1e-18, 1.0]), 5, np.random.default_rng(0)
        )
        assert draws.bitstring_counts() == {"1": 5}

    @pytest.mark.parametrize("probabilities", [[0.0, 0.0], [-1.0, 0.0]])
    def test_no_positive_mass_raises(self, probabilities):
        with pytest.raises(ValueError):
            sample_from_probabilities(
                LineQubit.range(1), np.array(probabilities), 5, np.random.default_rng(0)
            )
