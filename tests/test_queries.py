"""Tests for the Section 5 extension queries: MPE over noise events and sensitivity analysis."""

import numpy as np
import pytest

from repro.circuits import CNOT, Circuit, H, LineQubit, Rx, bit_flip, depolarize
from repro.knowledge.queries import (
    NoiseExplanation,
    most_probable_explanation,
    sensitivity_analysis,
)
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator


@pytest.fixture
def kc():
    return KnowledgeCompilationSimulator(seed=2)


class TestMostProbableExplanation:
    def test_bit_flip_explains_flipped_outcome(self, kc):
        """Prepare |0>, add a bit-flip channel; observing 1 must be blamed on the flip."""
        q = LineQubit(0)
        circuit = Circuit([H(q), H(q)])  # identity on |0>, gives the BN some structure
        circuit.append(bit_flip(0.1).on(q))
        compiled = kc.compile_circuit(circuit)
        explanation = most_probable_explanation(compiled, [1])
        assert explanation.exact
        assert explanation.branches == (1,)  # Kraus branch 1 = the X flip
        assert explanation.posterior == pytest.approx(1.0)

    def test_no_flip_explains_unflipped_outcome(self, kc):
        q = LineQubit(0)
        circuit = Circuit([H(q), H(q)])
        circuit.append(bit_flip(0.1).on(q))
        compiled = kc.compile_circuit(circuit)
        explanation = most_probable_explanation(compiled, [0])
        assert explanation.branches == (0,)

    def test_depolarized_bell_explanation(self, kc):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), CNOT(q[0], q[1])])
        circuit.append(depolarize(0.05).on(q[1]))
        compiled = kc.compile_circuit(circuit)
        # Outcome 01 is impossible without noise; the explanation must be a
        # bit-flipping Pauli branch (X = branch 1 or Y = branch 2).
        explanation = most_probable_explanation(compiled, [0, 1])
        assert explanation.branches[0] in (1, 2)
        assert explanation.probability > 0

    def test_coordinate_ascent_fallback(self, kc, noisy_bell_circuit):
        """Past ``enumeration_limit`` the greedy ascent answers, inexactly."""
        compiled = kc.compile_circuit(noisy_bell_circuit)
        optimum = most_probable_explanation(compiled, [0, 1])
        greedy = most_probable_explanation(compiled, [0, 1], enumeration_limit=1)
        assert optimum.exact and greedy.exact is False
        assert np.isnan(greedy.posterior)
        assert 0 < greedy.probability <= optimum.probability
        # One binary channel: a single coordinate step reaches the optimum.
        q = LineQubit(0)
        circuit = Circuit([H(q), H(q)])
        circuit.append(bit_flip(0.1).on(q))
        flip = kc.compile_circuit(circuit)
        enumerated = most_probable_explanation(flip, [1])
        ascended = most_probable_explanation(flip, [1], enumeration_limit=1)
        assert ascended.exact is False
        assert ascended.branches == enumerated.branches
        assert ascended.probability == pytest.approx(enumerated.probability, abs=1e-12)

    def test_ideal_circuit_rejected(self, kc, bell_circuit):
        compiled = kc.compile_circuit(bell_circuit)
        with pytest.raises(ValueError):
            most_probable_explanation(compiled, [0, 0])

    def test_as_dict_and_repr(self, kc):
        q = LineQubit(0)
        circuit = Circuit([H(q), H(q)])
        circuit.append(bit_flip(0.25).on(q))
        compiled = kc.compile_circuit(circuit)
        explanation = most_probable_explanation(compiled, [1])
        assert list(explanation.as_dict().values()) == [1]
        assert "NoiseExplanation" in repr(explanation)


class TestSensitivityAnalysis:
    def test_probability_gradient_matches_finite_difference(self, kc):
        """dP/dtheta for the Rx cosine entry should match a numeric derivative."""
        q = LineQubit(0)
        theta = 0.7
        circuit = Circuit([Rx(theta)(q)])
        compiled = kc.compile_circuit(circuit)
        report = sensitivity_analysis(compiled, [0])
        # P(0) = cos^2(theta/2); the entries with value cos(theta/2) are the
        # (in=0 -> out=0) and (in=1 -> out=1) diagonal entries, but only the
        # first is reachable from |0>.  Its dP/dtheta should be 2*cos(theta/2).
        cos_half = np.cos(theta / 2)
        matching = [
            row
            for row in report.rows
            if abs(row["current_value"] - cos_half) < 1e-9 and abs(row["dP_dtheta"]) > 1e-9
        ]
        assert matching
        assert matching[0]["dP_dtheta"] == pytest.approx(2 * cos_half)

    def test_unreachable_entries_have_zero_sensitivity(self, kc):
        q = LineQubit(0)
        circuit = Circuit([Rx(0.7)(q)])
        compiled = kc.compile_circuit(circuit)
        report = sensitivity_analysis(compiled, [0])
        # Entries conditioned on the input being |1> can never be reached from |0>.
        unreachable = [row for row in report.rows if row["entry_index"][0] == 1]
        assert unreachable
        assert all(abs(row["dP_dtheta"]) < 1e-12 for row in unreachable)

    def test_noisy_circuit_requires_branches(self, kc, noisy_bell_circuit):
        compiled = kc.compile_circuit(noisy_bell_circuit)
        with pytest.raises(ValueError):
            sensitivity_analysis(compiled, [0, 0])
        report = sensitivity_analysis(
            compiled, [0, 0], noise_branches=[0] * len(compiled.noise_variables)
        )
        assert len(report) == len(compiled.encoding.weight_refs)

    def test_report_helpers(self, kc, qaoa_like_circuit, qaoa_resolver):
        compiled = kc.compile_circuit(qaoa_like_circuit)
        report = sensitivity_analysis(compiled, [0, 0, 0, 0], resolver=qaoa_resolver)
        top = report.top(3)
        assert len(top) == 3
        assert abs(top[0]["dP_dtheta"]) >= abs(top[-1]["dP_dtheta"])
        per_node = report.by_node()
        assert per_node
        assert all(value >= 0 for value in per_node.values())
