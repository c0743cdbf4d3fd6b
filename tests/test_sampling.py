"""Tests for Gibbs sampling, ideal sampling and divergence metrics."""

import numpy as np
import pytest

from repro.circuits import CNOT, Circuit, H, LineQubit, ParamResolver, Ry, depolarize
from repro.densitymatrix import DensityMatrixSimulator
from repro.sampling import (
    GibbsSampler,
    chi_squared_statistic,
    empirical_distribution,
    ideal_sample_from_distribution,
    ideal_sample_from_state_vector,
    kl_divergence,
    reverse_kl_divergence,
    total_variation_distance,
)
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.statevector import StateVectorSimulator


class TestMetrics:
    def test_kl_divergence_zero_for_identical(self):
        p = np.array([0.25, 0.75])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_kl_divergence_positive_and_asymmetric(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) > 0
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_kl_divergence_handles_empirical_zeros(self):
        exact = np.array([0.5, 0.25, 0.25, 0.0])
        empirical = np.array([1.0, 0.0, 0.0, 0.0])
        value = kl_divergence(exact, empirical)
        assert np.isfinite(value)
        assert value > 0

    def test_reverse_kl(self):
        exact = np.array([0.5, 0.5, 0.0, 0.0])
        empirical = np.array([0.25, 0.25, 0.25, 0.25])
        assert reverse_kl_divergence(exact, empirical) > 0

    def test_total_variation(self):
        assert total_variation_distance([1, 0], [0, 1]) == pytest.approx(1.0)
        assert total_variation_distance([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0)

    def test_chi_squared(self):
        exact = np.array([0.5, 0.5])
        empirical = np.array([0.6, 0.4])
        assert chi_squared_statistic(exact, empirical) == pytest.approx(0.04, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0])

    def test_empirical_distribution(self):
        samples = [(0, 0), (1, 1), (1, 1), (0, 1)]
        distribution = empirical_distribution(samples, 2)
        assert distribution[0] == pytest.approx(0.25)
        assert distribution[3] == pytest.approx(0.5)
        assert distribution.sum() == pytest.approx(1.0)

    def test_empirical_distribution_empty_samples(self):
        distribution = empirical_distribution([], 3)
        assert distribution.shape == (8,)
        assert distribution.sum() == 0.0

    def test_empirical_distribution_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            empirical_distribution([(0, 1, 0)], 2)

    def test_empirical_distribution_matches_sample_result(self):
        """One shared histogram: SampleResult delegates to the metrics implementation."""
        from repro.simulator.results import SampleResult
        from repro.circuits import LineQubit

        rng = np.random.default_rng(3)
        samples = [tuple(row) for row in rng.integers(0, 2, size=(200, 3))]
        result = SampleResult(LineQubit.range(3), samples)
        assert np.array_equal(result.empirical_distribution(), empirical_distribution(samples, 3))

    def test_kl_divergence_floors_zero_empirical_mass(self):
        """Zero empirical mass where the exact mass is positive: large but finite."""
        exact = np.array([0.5, 0.5, 0.0, 0.0])
        empirical = np.array([1.0, 0.0, 0.0, 0.0])
        value = kl_divergence(exact, empirical)
        assert np.isfinite(value)
        # The empirical zero is floored at one part in len(q) * 1e6 and the
        # distribution renormalized, so KL = 0.5*log(0.5/1) + 0.5*log(0.5/floor).
        floor = 1.0 / (4 * 1e6)
        expected = 0.5 * np.log(0.5) + 0.5 * np.log(0.5 / floor)
        assert value == pytest.approx(expected, rel=1e-3)

    def test_reverse_kl_floors_and_renormalizes(self):
        """Samples landing where the exact mass is zero must yield a finite penalty."""
        exact = np.array([1.0, 0.0])
        empirical = np.array([0.5, 0.5])
        value = reverse_kl_divergence(exact, empirical)
        assert np.isfinite(value)
        assert value > 1.0  # half the mass sits on a floored bin
        # Identical distributions stay at zero divergence despite the flooring,
        # because the floored exact distribution is renormalized.
        assert reverse_kl_divergence(exact, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-6)


class TestIdealSampling:
    def test_sample_counts(self, bell_circuit):
        state = StateVectorSimulator().simulate(bell_circuit).state_vector
        qubits = bell_circuit.all_qubits()
        samples = ideal_sample_from_state_vector(state, 500, qubits, np.random.default_rng(1))
        assert len(samples) == 500
        assert set(samples.bitstring_counts()) <= {"00", "11"}

    def test_distribution_validation(self):
        qubits = LineQubit.range(1)
        with pytest.raises(ValueError):
            ideal_sample_from_distribution(np.array([0.0, 0.0]), 10, qubits)
        with pytest.raises(ValueError):
            ideal_sample_from_distribution(np.array([1.0]), 10, LineQubit.range(2))

    def test_ideal_sampling_converges(self):
        rng = np.random.default_rng(7)
        exact = np.array([0.7, 0.1, 0.1, 0.1])
        samples = ideal_sample_from_distribution(exact, 5000, LineQubit.range(2), rng)
        empirical = samples.empirical_distribution()
        assert total_variation_distance(exact, empirical) < 0.03


class TestGibbsSampler:
    @pytest.fixture
    def compiled_biased_circuit(self):
        q = LineQubit.range(2)
        circuit = Circuit([Ry(2 * np.arcsin(np.sqrt(0.3)))(q[0]), CNOT(q[0], q[1])])
        simulator = KnowledgeCompilationSimulator(seed=3)
        return simulator.compile_circuit(circuit)

    def test_initial_state_has_positive_probability(self, compiled_biased_circuit):
        sampler = GibbsSampler(compiled_biased_circuit, rng=np.random.default_rng(2))
        states, weights = sampler.initial_states(1)
        assert weights[0] > 0
        assert abs(sampler._amplitudes(states)[0]) > 0

    def test_step_preserves_state_shape(self, compiled_biased_circuit):
        sampler = GibbsSampler(compiled_biased_circuit, rng=np.random.default_rng(2))
        states, weights = sampler.initial_states(1)
        sampler._resample(states, np.zeros(1, dtype=np.int64), weights)
        assert states.shape == (1, len(compiled_biased_circuit.retained_variables))

    def test_sweep_keeps_columns_in_range(self, compiled_biased_circuit):
        sampler = GibbsSampler(compiled_biased_circuit, rng=np.random.default_rng(2))
        states, _ = sampler.initial_states(1)
        sampler.sweep_batch(states)
        cardinalities = [v.cardinality for v in compiled_biased_circuit.retained_variables]
        assert states.shape == (1, len(cardinalities))
        assert np.all((states >= 0) & (states < cardinalities))

    def test_sampler_matches_exact_distribution(self, compiled_biased_circuit):
        sampler = GibbsSampler(compiled_biased_circuit, rng=np.random.default_rng(5))
        samples = sampler.sample(3000, burn_in_sweeps=5, steps_per_sample=3)
        empirical = samples.empirical_distribution()
        exact = compiled_biased_circuit.probabilities()
        assert total_variation_distance(exact, empirical) < 0.08

    def test_noisy_sampler_marginalizes_noise(self):
        q = LineQubit.range(2)
        circuit = Circuit([Ry(1.1)(q[0]), CNOT(q[0], q[1])]).with_noise(lambda: depolarize(0.08))
        kc = KnowledgeCompilationSimulator(seed=11)
        compiled = kc.compile_circuit(circuit)
        sampler = GibbsSampler(compiled, rng=np.random.default_rng(11), restart_probability=0.2)
        samples = sampler.sample(3000, burn_in_sweeps=5, steps_per_sample=8)
        exact = DensityMatrixSimulator().simulate(circuit).probabilities()
        # Gibbs mixing across noise branches is slow (the paper notes the same
        # warm-up/mixing caveat), so the tolerance is looser than the ideal case.
        assert total_variation_distance(exact, samples.empirical_distribution()) < 0.12

    def test_seeded_sampling_is_reproducible(self, compiled_biased_circuit):
        first = GibbsSampler(compiled_biased_circuit, rng=np.random.default_rng(9)).sample(50)
        second = GibbsSampler(compiled_biased_circuit, rng=np.random.default_rng(9)).sample(50)
        assert first.samples == second.samples

    def test_samples_only_contain_qubit_bits(self, compiled_biased_circuit):
        sampler = GibbsSampler(compiled_biased_circuit, rng=np.random.default_rng(4))
        samples = sampler.sample(20)
        for bits in samples:
            assert len(bits) == 2
            assert all(b in (0, 1) for b in bits)
