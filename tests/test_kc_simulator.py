"""End-to-end tests for the knowledge-compilation simulator."""

import numpy as np
import pytest

from repro.circuits import (
    CNOT,
    AsymmetricDepolarizingChannel,
    CZ,
    Circuit,
    H,
    LineQubit,
    ParamResolver,
    Rx,
    Ry,
    Rz,
    Symbol,
    T,
    X,
    ZZ,
    amplitude_damp,
    bit_flip,
    depolarize,
    generalized_amplitude_damp,
    phase_damp,
    phase_flip,
)
from repro.circuits.passes import resolve_pipeline
from repro.cnf.encoder import WeightEmitter
from repro.densitymatrix import DensityMatrixSimulator
from repro.simulator.kc_simulator import (
    CompiledCircuit,
    KnowledgeCompilationSimulator,
    _binding_key,
)
from repro.statevector import StateVectorSimulator


class TestIdealCorrectness:
    def test_bell_state_vector(self, bell_circuit, kc_simulator):
        result = kc_simulator.simulate(bell_circuit)
        assert np.allclose(result.state_vector, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_amplitude_queries(self, bell_circuit, kc_simulator):
        compiled = kc_simulator.compile_circuit(bell_circuit)
        assert compiled.amplitude([0, 0]) == pytest.approx(1 / np.sqrt(2))
        assert compiled.amplitude([1, 0]) == pytest.approx(0.0)

    @pytest.mark.parametrize("order_method", ["min_fill", "hypergraph", "lexicographic"])
    def test_order_methods_agree(self, qaoa_like_circuit, qaoa_resolver, order_method):
        simulator = KnowledgeCompilationSimulator(order_method=order_method)
        state = simulator.simulate(qaoa_like_circuit, qaoa_resolver).state_vector
        expected = StateVectorSimulator().simulate(qaoa_like_circuit, qaoa_resolver).state_vector
        assert np.allclose(state, expected, atol=1e-9)

    def test_elision_does_not_change_amplitudes(self, qaoa_like_circuit, qaoa_resolver):
        elided = KnowledgeCompilationSimulator(elide_internal=True)
        kept = KnowledgeCompilationSimulator(elide_internal=False)
        state_elided = elided.simulate(qaoa_like_circuit, qaoa_resolver).state_vector
        state_kept = kept.simulate(qaoa_like_circuit, qaoa_resolver).state_vector
        assert np.allclose(state_elided, state_kept, atol=1e-9)

    def test_elision_shrinks_circuit(self, qaoa_like_circuit):
        elided = KnowledgeCompilationSimulator(elide_internal=True).compile_circuit(qaoa_like_circuit)
        kept = KnowledgeCompilationSimulator(elide_internal=False).compile_circuit(qaoa_like_circuit)
        assert elided.arithmetic_circuit.num_nodes <= kept.arithmetic_circuit.num_nodes

    def test_deep_single_qubit_interference(self, kc_simulator):
        q = LineQubit(0)
        circuit = Circuit([H(q), H(q)])
        state = kc_simulator.simulate(circuit).state_vector
        assert np.allclose(state, [1.0, 0.0], atol=1e-9)

    def test_phase_only_circuit(self, kc_simulator):
        q = LineQubit(0)
        circuit = Circuit([Rz(0.5)(q)])
        state = kc_simulator.simulate(circuit).state_vector
        assert state[0] == pytest.approx(np.exp(-0.25j))

    def test_non_monomial_two_qubit_gate(self, kc_simulator):
        from repro.circuits import XX

        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), XX(0.7)(q[0], q[1])])
        state = kc_simulator.simulate(circuit).state_vector
        expected = StateVectorSimulator().simulate(circuit).state_vector
        assert np.allclose(state, expected, atol=1e-9)

    def test_clifford_plus_t_circuit(self, kc_simulator):
        q = LineQubit.range(3)
        circuit = Circuit([H(q[0]), T(q[0]), CNOT(q[0], q[1]), CZ(q[1], q[2]), H(q[2]), X(q[1])])
        state = kc_simulator.simulate(circuit).state_vector
        expected = StateVectorSimulator().simulate(circuit).state_vector
        assert np.allclose(state, expected, atol=1e-9)

    def test_nontrivial_initial_bits(self, kc_simulator, bell_circuit):
        compiled = kc_simulator.compile_circuit(bell_circuit, initial_bits=[1, 0])
        assert compiled.amplitude([0, 0]) == pytest.approx(1 / np.sqrt(2))
        assert compiled.amplitude([1, 1]) == pytest.approx(-1 / np.sqrt(2))


class TestParameterReuse:
    def test_compile_once_rebind_many(self, qaoa_like_circuit, kc_simulator):
        compiled = kc_simulator.compile_circuit(qaoa_like_circuit)
        reference_simulator = StateVectorSimulator()
        for gamma, beta in [(0.2, 0.9), (0.7, 0.1), (1.3, 0.5)]:
            resolver = ParamResolver({"gamma": gamma, "beta": beta})
            state = compiled.state_vector(resolver)
            expected = reference_simulator.simulate(qaoa_like_circuit, resolver).state_vector
            assert np.allclose(state, expected, atol=1e-9)

    def test_compiled_circuit_reports_metrics(self, qaoa_like_circuit, kc_simulator):
        compiled = kc_simulator.compile_circuit(qaoa_like_circuit)
        metrics = compiled.compilation_metrics()
        assert metrics["qubits"] == 4
        assert metrics["cnf_clauses"] > 0
        assert metrics["ac_nodes"] == compiled.arithmetic_circuit.num_nodes
        assert metrics["ac_size_bytes"] > 0

    def test_unbound_parameters_raise(self, qaoa_like_circuit, kc_simulator):
        compiled = kc_simulator.compile_circuit(qaoa_like_circuit)
        with pytest.raises((KeyError, ValueError)):
            compiled.state_vector(None)


class TestNoisyCorrectness:
    def test_paper_noisy_bell_density_matrix(self, kc_simulator):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0])])
        circuit.append(phase_damp(0.36).on(q[0]))
        circuit.append(CNOT(q[0], q[1]))
        rho = kc_simulator.simulate_density_matrix(circuit).density_matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        expected[0, 3] = expected[3, 0] = 0.4
        assert np.allclose(rho, expected, atol=1e-9)

    def test_branch_amplitudes_match_table5(self, kc_simulator):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0])])
        circuit.append(phase_damp(0.36).on(q[0]))
        circuit.append(CNOT(q[0], q[1]))
        compiled = kc_simulator.compile_circuit(circuit)
        assert compiled.amplitude([0, 0], noise_branches=[0]) == pytest.approx(1 / np.sqrt(2))
        assert compiled.amplitude([1, 1], noise_branches=[0]) == pytest.approx(0.8 / np.sqrt(2))
        assert abs(compiled.amplitude([1, 1], noise_branches=[1])) == pytest.approx(0.6 / np.sqrt(2))
        assert compiled.amplitude([0, 1], noise_branches=[0]) == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "channel_factory",
        [lambda: bit_flip(0.2), lambda: depolarize(0.1), lambda: amplitude_damp(0.3)],
        ids=["bit_flip", "depolarizing", "amplitude_damping"],
    )
    def test_noisy_circuits_match_density_matrix_simulator(self, channel_factory, kc_simulator):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), CNOT(q[0], q[1])])
        circuit.append(channel_factory().on(q[0]))
        rho = kc_simulator.simulate_density_matrix(circuit).density_matrix
        expected = DensityMatrixSimulator().simulate(circuit).density_matrix
        assert np.allclose(rho, expected, atol=1e-9)

    def test_noisy_amplitude_requires_branches(self, noisy_bell_circuit, kc_simulator):
        compiled = kc_simulator.compile_circuit(noisy_bell_circuit)
        with pytest.raises(ValueError):
            compiled.amplitude([0, 0])

    def test_noisy_parameterized_rebind(self, kc_simulator):
        q = LineQubit.range(2)
        theta = Symbol("theta")
        circuit = Circuit([Ry(theta)(q[0]), CNOT(q[0], q[1])])
        circuit.append(depolarize(0.05).on(q[1]))
        compiled = kc_simulator.compile_circuit(circuit)
        for value in (0.4, 1.1):
            resolver = ParamResolver({"theta": value})
            rho = compiled.density_matrix(resolver)
            expected = DensityMatrixSimulator().simulate(circuit, resolver).density_matrix
            assert np.allclose(rho, expected, atol=1e-9)

    @pytest.mark.parametrize(
        "channel, bindings",
        [
            (amplitude_damp(Symbol("g")), [{"g": 0.2}, {"g": 0.85}]),
            (
                AsymmetricDepolarizingChannel(Symbol("px"), Symbol("py"), Symbol("pz")),
                [{"px": 0.1, "py": 0.05, "pz": 0.2}, {"px": 0.3, "py": 0.25, "pz": 0.4}],
            ),
        ],
        ids=["amplitude_damping", "asymmetric_depolarizing"],
    )
    def test_symbolic_channel_probabilities_compile(self, channel, bindings, kc_simulator):
        """Structure probes must bind channel symbols to values the channel accepts."""
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), CNOT(q[0], q[1])])
        circuit.append(channel.on(q[0]))
        compiled = kc_simulator.compile_circuit(circuit)
        for binding in bindings:
            resolver = ParamResolver(binding)
            expected = DensityMatrixSimulator().simulate(circuit, resolver).probabilities()
            np.testing.assert_allclose(
                compiled.probabilities(resolver), expected, rtol=0, atol=1e-10
            )

    def test_probabilities_sum_to_one(self, noisy_bell_circuit, kc_simulator):
        compiled = kc_simulator.compile_circuit(noisy_bell_circuit)
        probabilities = compiled.probabilities()
        assert probabilities.sum() == pytest.approx(1.0)


_BRANCH_CHANNELS = {
    "ideal": None,
    "bit_flip": lambda: bit_flip(0.2),
    "phase_flip": lambda: phase_flip(0.15),
    "depolarizing": lambda: depolarize(0.1),
    "amplitude_damping": lambda: amplitude_damp(0.3),
    "phase_damping": lambda: phase_damp(0.36),
    "generalized_amplitude_damping": lambda: generalized_amplitude_damp(0.25, 0.4),
    "asymmetric_depolarizing": lambda: AsymmetricDepolarizingChannel(0.05, 0.1, 0.15),
}


def _branch_circuit(channel_name):
    """A parameterized 2-qubit circuit with the named channel on both qubits."""
    q = LineQubit.range(2)
    circuit = Circuit([Ry(Symbol("theta"))(q[0]), CNOT(q[0], q[1]), Rx(0.7)(q[1])])
    factory = _BRANCH_CHANNELS[channel_name]
    if factory is not None:
        circuit.append(factory().on(q[0]))
        circuit.append(factory().on(q[1]))
    return circuit


class TestBranchQueries:
    """``density_matrix`` and ``probabilities`` share one per-branch loop."""

    @pytest.mark.parametrize("channel_name", sorted(_BRANCH_CHANNELS))
    def test_probabilities_are_the_density_matrix_diagonal(self, channel_name, kc_simulator):
        circuit = _branch_circuit(channel_name)
        compiled = kc_simulator.compile_circuit(circuit)
        for theta in (0.3, 1.9):
            resolver = ParamResolver({"theta": theta})
            probabilities = compiled.probabilities(resolver)
            rho = compiled.density_matrix(resolver)
            np.testing.assert_allclose(probabilities, np.diag(rho).real, rtol=0, atol=1e-12)
            expected = DensityMatrixSimulator().simulate(circuit, resolver)
            np.testing.assert_allclose(rho, expected.density_matrix, rtol=0, atol=1e-10)
            assert probabilities.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("channel_name", ["bit_flip", "amplitude_damping", "asymmetric_depolarizing"])
    def test_density_matrix_sums_branch_outer_products_in_order(self, channel_name, kc_simulator):
        compiled = kc_simulator.compile_circuit(_branch_circuit(channel_name))
        resolver = ParamResolver({"theta": 0.8})
        bit_matrix = compiled._all_bitstrings()
        rho = np.zeros((4, 4), dtype=complex)
        probabilities = np.zeros(4)
        cardinalities = [variable.cardinality for variable in compiled.noise_variables]
        for branches in np.ndindex(*cardinalities):
            vector = compiled.amplitudes(
                bit_matrix, noise_branches=np.asarray([branches]), resolver=resolver
            )
            rho += np.outer(vector, vector.conj())
            probabilities += np.abs(vector) ** 2
        # Same branch order and the same arithmetic: equal to the bit.
        assert np.array_equal(compiled.density_matrix(resolver), rho)
        assert np.array_equal(compiled.probabilities(resolver), probabilities.clip(min=0.0))


class TestBindingKey:
    def test_no_resolver_has_no_key(self):
        assert _binding_key(None) is None

    def test_key_ignores_assignment_order(self):
        forward = ParamResolver({"a": 0.1, "b": 0.2})
        backward = ParamResolver({"b": 0.2, "a": 0.1})
        assert _binding_key(forward) == _binding_key(backward)

    def test_key_distinguishes_values(self):
        assert _binding_key(ParamResolver({"a": 0.1})) != _binding_key(ParamResolver({"a": 0.2}))

    def test_equal_bindings_reuse_the_emitted_weights(
        self, qaoa_like_circuit, kc_simulator, monkeypatch
    ):
        emits = []
        original = WeightEmitter.emit

        def counting_emit(self, resolver=None):
            emits.append(resolver)
            return original(self, resolver)

        monkeypatch.setattr(WeightEmitter, "emit", counting_emit)
        compiled = kc_simulator.compile_circuit(qaoa_like_circuit)
        first, _ = compiled.base_literal_values(ParamResolver({"gamma": 0.5, "beta": 0.3}))
        again, _ = compiled.base_literal_values(ParamResolver({"beta": 0.3, "gamma": 0.5}))
        assert len(emits) == 1
        assert np.array_equal(first, again)
        compiled.base_literal_values(ParamResolver({"gamma": 0.6, "beta": 0.3}))
        assert len(emits) == 2


class TestCompileFrontEnd:
    def test_compile_circuit_takes_no_optimize_option(self, qaoa_like_circuit, kc_simulator):
        with pytest.raises(TypeError):
            kc_simulator.compile_circuit(qaoa_like_circuit, optimize=True)

    @pytest.mark.parametrize(
        "build, removed",
        [
            (lambda q: [H(q[0]), Rz(0.4)(q[0]), Rz(0.5)(q[0]), CNOT(q[0], q[1])], 1),
            (lambda q: [H(q[0]), X(q[1]), X(q[1]), CZ(q[0], q[1])], 2),
            (lambda q: [Ry(0.3)(q[0]), CNOT(q[0], q[1]), CNOT(q[0], q[1]), Ry(0.2)(q[1])], 2),
        ],
        ids=["merge_rotations", "cancel_pauli_pair", "cancel_cnot_pair"],
    )
    def test_rewritten_circuit_compiles_to_the_same_distribution(self, build, removed, kc_simulator):
        q = LineQubit.range(2)
        circuit = Circuit(build(q))
        rewrite = resolve_pipeline("auto").run(circuit)
        assert rewrite.stats.removed == removed
        optimized = kc_simulator.compile_circuit(rewrite.circuit)
        reference = kc_simulator.compile_circuit(circuit)
        np.testing.assert_allclose(
            optimized.probabilities(), reference.probabilities(), rtol=0, atol=1e-10
        )


class TestSampling:
    def test_bell_samples_have_correct_support(self, bell_circuit, kc_simulator):
        samples = kc_simulator.sample(bell_circuit, 300, seed=5)
        assert set(samples.bitstring_counts()) <= {"00", "11"}
        assert len(samples) == 300

    def test_sampling_accepts_compiled_circuit(self, qaoa_like_circuit, qaoa_resolver, kc_simulator):
        compiled = kc_simulator.compile_circuit(qaoa_like_circuit)
        samples = kc_simulator.sample(compiled, 200, resolver=qaoa_resolver, seed=6)
        assert len(samples) == 200

    def test_gibbs_distribution_close_to_exact(self, qaoa_like_circuit, qaoa_resolver, kc_simulator):
        compiled = kc_simulator.compile_circuit(qaoa_like_circuit)
        samples = kc_simulator.sample(
            compiled, 3000, resolver=qaoa_resolver, seed=7, steps_per_sample=4
        )
        empirical = samples.empirical_distribution()
        exact = np.abs(
            StateVectorSimulator().simulate(qaoa_like_circuit, qaoa_resolver).state_vector
        ) ** 2
        assert 0.5 * np.abs(empirical - exact).sum() < 0.1
