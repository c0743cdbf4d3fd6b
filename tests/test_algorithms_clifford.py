"""Clifford advertisement + dispatch regressions for the algorithm suite.

Every builder that constructs its circuit purely from Clifford gates must
(a) advertise it via ``metadata["clifford"]``, (b) actually classify as
Clifford through the gate-metadata layer, and (c) be routed to the
stabilizer tableau by ``device("auto")`` — the acceptance contract of
the stabilizer backend.  Non-Clifford builders must keep routing to the
fallback.
"""

import numpy as np
import pytest

from repro import device
from repro.algorithms import (
    bell_state_circuit,
    bernstein_vazirani_circuit,
    deutsch_jozsa_circuit,
    ghz_circuit,
    grover_circuit,
    hidden_shift_circuit,
    qft_circuit,
    random_circuit,
    random_clifford_circuit,
    secret_consistent,
    simon_circuit,
    teleportation_circuit,
)
from repro.sampling import total_variation_distance
from repro.stabilizer import StabilizerSimulator


def clifford_instances():
    return [
        bell_state_circuit(),
        ghz_circuit(4),
        bernstein_vazirani_circuit([1, 0, 1, 1]),
        deutsch_jozsa_circuit(3, oracle="balanced"),
        deutsch_jozsa_circuit(3, oracle="constant", constant_value=1),
        simon_circuit([1, 1, 0]),
        hidden_shift_circuit([1, 0, 1, 1]),
        random_clifford_circuit(4, 6, seed=3),
    ]


def non_clifford_instances():
    return [
        teleportation_circuit(),
        qft_circuit(3),
        grover_circuit([1, 0, 1]),
        random_circuit(3, 3, seed=1),
    ]


class TestCliffordAdvertisement:
    @pytest.mark.parametrize("instance", clifford_instances(), ids=lambda i: i.name)
    def test_metadata_flag_matches_classifier(self, instance):
        assert instance.metadata.get("clifford") is True
        assert instance.is_clifford

    @pytest.mark.parametrize("instance", non_clifford_instances(), ids=lambda i: i.name)
    def test_generic_builders_do_not_classify_clifford(self, instance):
        assert "clifford" not in instance.metadata
        assert not instance.is_clifford


class TestDispatchRouting:
    @pytest.mark.parametrize("instance", clifford_instances(), ids=lambda i: i.name)
    def test_every_clifford_instance_routes_to_tableau(self, instance):
        rows = device("auto", seed=0).run(
            instance.circuit, repetitions=16, qubit_order=instance.qubits, seed=0
        ).result()
        assert rows.backends() == ["stabilizer"]

    @pytest.mark.parametrize("instance", non_clifford_instances(), ids=lambda i: i.name)
    def test_non_clifford_instances_fall_back(self, instance):
        rows = device("auto", seed=0).run(
            instance.circuit, repetitions=4, qubit_order=instance.qubits, seed=0
        ).result()
        assert rows.backends() == ["state_vector"]


class TestStabilizerCorrectness:
    """Per-builder regression: the tableau reproduces each expected outcome."""

    def test_bernstein_vazirani_recovers_secret(self):
        secret = [1, 0, 1, 1, 0, 1]
        instance = bernstein_vazirani_circuit(secret)
        samples = StabilizerSimulator(seed=1).sample(
            instance.circuit, 200, qubit_order=instance.qubits
        )
        for bits in samples.samples:
            assert tuple(bits[: len(secret)]) == tuple(secret)

    @pytest.mark.parametrize("oracle", ["constant", "balanced"])
    def test_deutsch_jozsa_distribution(self, oracle):
        instance = deutsch_jozsa_circuit(3, oracle=oracle)
        samples = StabilizerSimulator(seed=2).sample(
            instance.circuit, 4000, qubit_order=instance.qubits
        )
        tvd = total_variation_distance(
            instance.expected_distribution, samples.empirical_distribution()
        )
        assert tvd < 0.05

    def test_simon_samples_orthogonal_to_secret(self):
        secret = [1, 1, 0]
        instance = simon_circuit(secret)
        samples = StabilizerSimulator(seed=3).sample(
            instance.circuit, 300, qubit_order=instance.qubits
        )
        assert secret_consistent(samples.samples, secret, len(secret))

    def test_hidden_shift_reads_shift_deterministically(self):
        shift = [1, 0, 1, 1, 0, 0]
        instance = hidden_shift_circuit(shift)
        samples = StabilizerSimulator(seed=4).sample(
            instance.circuit, 100, qubit_order=instance.qubits
        )
        assert all(tuple(bits) == tuple(shift) for bits in samples.samples)

    def test_ghz_and_bell_supports(self):
        for instance, width in ((bell_state_circuit(), 2), (ghz_circuit(5), 5)):
            samples = StabilizerSimulator(seed=5).sample(
                instance.circuit, 400, qubit_order=instance.qubits
            )
            observed = {tuple(bits) for bits in samples.samples}
            assert observed == {tuple([0] * width), tuple([1] * width)}

    def test_wide_bernstein_vazirani_far_beyond_dense_reach(self):
        """A 48-bit secret: 49 qubits, infeasible for every 2^n backend."""
        rng = np.random.default_rng(8)
        secret = [int(b) for b in rng.integers(0, 2, size=48)]
        instance = bernstein_vazirani_circuit(secret)
        samples = StabilizerSimulator(seed=6).sample(
            instance.circuit, 32, qubit_order=instance.qubits
        )
        for bits in samples.samples:
            assert tuple(bits[:48]) == tuple(secret)
