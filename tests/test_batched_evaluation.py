"""Tests for the batched arithmetic-circuit evaluation engine.

The batched APIs (``evaluate_batch`` / ``evaluate_with_derivatives_batch`` /
``CompiledCircuit.amplitudes``) must agree with the scalar path elementwise —
including the forced-literal shortcut and all-zero-amplitude rows — and the
multi-chain Gibbs ensemble must converge to the exact output distribution.
The lean upward pass must agree with the differential pass's bookkeeping
variant, and the Gibbs sampler's flip-and-upward conditionals with the
derivative reads they replace; a sweep step's cone re-evaluation must equal
the full upward pass it replaces, bit for bit, and a pass's bits must not
depend on the batch width.
"""

import itertools
import pickle

import numpy as np
import pytest

from repro.circuits import CNOT, Circuit, H, LineQubit, Ry, Rz, depolarize
from repro.knowledge import NNFManager
from repro.knowledge.arithmetic_circuit import (
    NODE_AND,
    NODE_LITERAL,
    NODE_OR,
    NODE_TRUE,
    ArithmeticCircuit,
)
from repro.sampling import GibbsSampler, total_variation_distance
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator


def _random_literal_batch(circuit_ac, batch, rng, zero_fraction=0.15):
    literal_values = np.ones((batch, circuit_ac.num_vars + 1, 2), dtype=complex)
    literal_values += 0.5 * (
        rng.standard_normal(literal_values.shape)
        + 1j * rng.standard_normal(literal_values.shape)
    )
    # Sprinkle exact zeros so the zero-bookkeeping paths are exercised.
    zero_mask = rng.random(literal_values.shape) < zero_fraction
    literal_values[zero_mask] = 0.0
    return literal_values


def _reference_node_values(circuit_ac, literal_values):
    """Node-by-node evaluation of one binding (children precede parents)."""
    values = []
    for node_type, literal, children in zip(
        circuit_ac.node_types, circuit_ac.literals, circuit_ac.children
    ):
        if node_type == NODE_LITERAL:
            values.append(literal_values[abs(literal), int(literal > 0)])
        elif node_type == NODE_AND:
            values.append(np.prod([values[child] for child in children]))
        elif node_type == NODE_OR:
            values.append(np.sum([values[child] for child in children]))
        else:
            values.append(complex(node_type == NODE_TRUE))
    return values


def _derivative_conditionals(sampler, states, bit_indices):
    """Each chain's weight with its chosen bit 1 / 0, read off one differential pass.

    Also returns the mask of rows contradicting a CNF-forced bit.
    """
    buffer, zero_rows = sampler._bind_states(states)
    ac = sampler.compiled.arithmetic_circuit
    _, derivatives = ac.evaluate_with_derivatives_batch(buffer)
    rows = np.arange(states.shape[0])
    variables = np.asarray([sampler.bits[index] for index in bit_indices])
    conditionals = []
    for value in (1, 0):
        weight = np.abs(derivatives[rows, variables, value] * sampler._constant) ** 2
        weight[zero_rows] = 0.0
        conditionals.append(weight)
    return conditionals[0], conditionals[1], zero_rows


@pytest.fixture
def compiled_ideal():
    q = LineQubit.range(3)
    circuit = Circuit(
        [Ry(0.9)(q[0]), H(q[1]), CNOT(q[0], q[1]), Rz(0.4)(q[1]), CNOT(q[1], q[2])]
    )
    return KnowledgeCompilationSimulator(seed=2).compile_circuit(circuit)


@pytest.fixture
def compiled_noisy():
    q = LineQubit.range(2)
    circuit = Circuit([Ry(1.1)(q[0]), CNOT(q[0], q[1])]).with_noise(
        lambda: depolarize(0.08)
    )
    return KnowledgeCompilationSimulator(seed=3).compile_circuit(circuit)


@pytest.fixture
def compiled_forced():
    # The idle second qubit's final bit is forced to 0 by unit propagation.
    q = LineQubit.range(2)
    circuit = Circuit([Ry(0.7)(q[0]), Ry(0.0)(q[1])])
    return KnowledgeCompilationSimulator(seed=5).compile_circuit(circuit)


@pytest.fixture
def lone_and():
    """``x1 & ((x2 & x3) | (x4 & x5))``: its top AND is alone in its group, and
    the cone of ``x2`` holds one node of a two-node group."""
    manager = NNFManager()
    literal = manager.literal
    pairs = [manager.conjoin([literal(2), literal(3)]), manager.conjoin([literal(4), literal(5)])]
    return ArithmeticCircuit(manager.conjoin([literal(1), manager.disjoin(pairs)]), 5)


def _circuit(request, fixture):
    value = request.getfixturevalue(fixture)
    return getattr(value, "arithmetic_circuit", value)


class TestBatchedEvaluation:
    @pytest.mark.parametrize("fixture", ["compiled_ideal", "compiled_noisy"])
    def test_evaluate_batch_matches_scalar(self, fixture, request):
        compiled = request.getfixturevalue(fixture)
        ac = compiled.arithmetic_circuit
        rng = np.random.default_rng(7)
        literal_values = _random_literal_batch(ac, 9, rng)
        batched = ac.evaluate_batch(literal_values)
        for row in range(literal_values.shape[0]):
            scalar = ac.evaluate(literal_values[row])
            assert batched[row] == pytest.approx(scalar, abs=1e-10)

    @pytest.mark.parametrize("fixture", ["compiled_ideal", "compiled_noisy"])
    def test_lean_upward_matches_bookkeeping_pass(self, fixture, request):
        """The lean upward pass against the zero-tracking one behind derivatives.

        The batch mixes zero-free rows with rows whose AND nodes have zero,
        one and two or more zero children; both passes must also match a
        node-by-node reference evaluation.
        """
        ac = request.getfixturevalue(fixture).arithmetic_circuit
        rng = np.random.default_rng(41)
        literal_values = np.concatenate(
            [
                _random_literal_batch(ac, 4, rng, zero_fraction=0.0),
                _random_literal_batch(ac, 12, rng),
            ]
        )
        zero_children_seen = set()
        reference_roots = []
        for row in literal_values:
            values = _reference_node_values(ac, row)
            reference_roots.append(values[ac.root_index])
            for node_type, children in zip(ac.node_types, ac.children):
                if node_type == NODE_AND:
                    zeros = sum(values[child] == 0 for child in children)
                    zero_children_seen.add(min(int(zeros), 2))
        assert zero_children_seen == {0, 1, 2}

        lean = ac.evaluate_batch(literal_values)
        tracked, _ = ac.evaluate_with_derivatives_batch(literal_values)
        assert np.any(lean != 0) and np.any(lean == 0)
        # On the zero-free rows both passes run the same fold.
        np.testing.assert_array_equal(lean[:4].view(float), tracked[:4].view(float))
        np.testing.assert_allclose(lean, tracked, rtol=0, atol=1e-10)
        np.testing.assert_allclose(lean, reference_roots, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("width", [3, 64])
    @pytest.mark.parametrize("fixture", ["compiled_noisy", "lone_and"])
    def test_columns_equal_width_one_passes(self, fixture, width, request):
        """A pass's bits do not depend on the batch width or the column."""
        ac = _circuit(request, fixture)
        literal_values = _random_literal_batch(ac, width, np.random.default_rng(width))
        wide = np.empty((ac.num_nodes, width), dtype=complex)
        roots = ac.evaluate_batch(literal_values, values=wide)
        narrow = np.empty((ac.num_nodes, 1), dtype=complex)
        for column in range(width):
            root = ac.evaluate_batch(literal_values[column : column + 1], values=narrow)
            assert np.array_equal(roots[column : column + 1].view(float), root.view(float))
            column_values = np.ascontiguousarray(wide[:, column])
            assert np.array_equal(column_values.view(float), narrow[:, 0].view(float))

    @pytest.mark.parametrize("fixture", ["compiled_ideal", "compiled_noisy"])
    def test_derivatives_batch_matches_scalar(self, fixture, request):
        compiled = request.getfixturevalue(fixture)
        ac = compiled.arithmetic_circuit
        rng = np.random.default_rng(11)
        literal_values = _random_literal_batch(ac, 7, rng)
        roots, derivatives = ac.evaluate_with_derivatives_batch(literal_values)
        for row in range(literal_values.shape[0]):
            scalar_root, scalar_derivatives = ac.evaluate_with_derivatives(
                literal_values[row]
            )
            assert roots[row] == pytest.approx(scalar_root, abs=1e-10)
            np.testing.assert_allclose(
                derivatives[row], scalar_derivatives, atol=1e-10
            )

    def test_all_zero_amplitude_rows(self, compiled_ideal):
        ac = compiled_ideal.arithmetic_circuit
        literal_values = np.zeros((3, ac.num_vars + 1, 2), dtype=complex)
        roots, derivatives = ac.evaluate_with_derivatives_batch(literal_values)
        assert np.all(roots == 0.0)
        for row in range(3):
            scalar_root, scalar_derivatives = ac.evaluate_with_derivatives(
                literal_values[row]
            )
            assert roots[row] == pytest.approx(scalar_root, abs=1e-10)
            np.testing.assert_allclose(derivatives[row], scalar_derivatives, atol=1e-10)

    def test_batch_shape_validation(self, compiled_ideal):
        ac = compiled_ideal.arithmetic_circuit
        with pytest.raises(ValueError):
            ac.evaluate_batch(np.ones((ac.num_vars + 1, 2), dtype=complex))

    def test_empty_batch(self, compiled_ideal):
        ac = compiled_ideal.arithmetic_circuit
        empty = np.ones((0, ac.num_vars + 1, 2), dtype=complex)
        assert ac.evaluate_batch(empty).shape == (0,)
        roots, derivatives = ac.evaluate_with_derivatives_batch(empty)
        assert roots.shape == (0,)
        assert derivatives.shape == empty.shape

    def test_workspace_reuse_across_batch_sizes(self, compiled_ideal):
        """Alternating batch sizes must not corrupt results."""
        ac = compiled_ideal.arithmetic_circuit
        rng = np.random.default_rng(13)
        small = _random_literal_batch(ac, 2, rng)
        large = _random_literal_batch(ac, 6, rng)
        expected_small = [ac.evaluate(small[i]) for i in range(2)]
        expected_large = [ac.evaluate(large[i]) for i in range(6)]
        np.testing.assert_allclose(ac.evaluate_batch(large), expected_large, atol=1e-10)
        np.testing.assert_allclose(ac.evaluate_batch(small), expected_small, atol=1e-10)
        np.testing.assert_allclose(ac.evaluate_batch(large), expected_large, atol=1e-10)


class TestBatchedAmplitudes:
    def test_amplitudes_match_scalar_ideal(self, compiled_ideal):
        bit_matrix = np.asarray(list(itertools.product([0, 1], repeat=3)), dtype=np.int64)
        batched = compiled_ideal.amplitudes(bit_matrix)
        for row, bits in enumerate(bit_matrix):
            assert batched[row] == pytest.approx(
                compiled_ideal.amplitude(list(bits)), abs=1e-10
            )

    def test_amplitudes_match_scalar_noisy(self, compiled_noisy):
        bit_matrix = np.asarray(list(itertools.product([0, 1], repeat=2)), dtype=np.int64)
        cardinalities = [v.cardinality for v in compiled_noisy.noise_variables]
        for branches in itertools.product(*[range(c) for c in cardinalities]):
            branch_row = np.asarray(branches, dtype=np.int64)[np.newaxis]
            batched = compiled_noisy.amplitudes(bit_matrix, noise_branches=branch_row)
            for row, bits in enumerate(bit_matrix):
                scalar = compiled_noisy.amplitude(list(bits), noise_branches=branches)
                assert batched[row] == pytest.approx(scalar, abs=1e-10)

    def test_forced_literal_shortcut_rows(self):
        """Rows contradicting a CNF-forced literal must come back exactly zero."""
        # The idle second qubit's final state is forced to 0 by unit
        # propagation, so asking for it to be 1 hits the forced-literal
        # shortcut rather than a circuit evaluation.
        q = LineQubit.range(2)
        compiled = KnowledgeCompilationSimulator(seed=5).compile_circuit(
            Circuit([Ry(0.7)(q[0]), Ry(0.0)(q[1])])
        )
        encoding = compiled.encoding
        forced_bits = [
            (variable, int(encoding.forced_value(bit_var)))
            for variable in compiled.final_variables
            for bit_var in variable.bit_vars
            if encoding.forced_value(bit_var) is not None
        ]
        assert forced_bits, "expected the idle qubit's final bit to be forced"
        variable, forced = forced_bits[0]
        column = compiled.final_variables.index(variable)
        bit_matrix = np.zeros((2, compiled.num_qubits), dtype=np.int64)
        bit_matrix[0, column] = 1 - forced  # contradicts the forced literal
        bit_matrix[1, column] = forced
        batched = compiled.amplitudes(bit_matrix)
        assert batched[0] == 0.0
        assert batched[0] == pytest.approx(
            compiled.amplitude(list(bit_matrix[0])), abs=1e-12
        )

    def test_amplitudes_chunking_is_invisible(self, compiled_ideal):
        bit_matrix = np.asarray(list(itertools.product([0, 1], repeat=3)), dtype=np.int64)
        one_chunk = compiled_ideal.amplitudes(bit_matrix, chunk_size=1024)
        tiny_chunks = compiled_ideal.amplitudes(bit_matrix, chunk_size=3)
        np.testing.assert_allclose(one_chunk, tiny_chunks, atol=1e-12)

    def test_state_vector_probabilities_consistent(self, compiled_ideal):
        state = compiled_ideal.state_vector()
        assert np.abs(state) ** 2 == pytest.approx(compiled_ideal.probabilities(), abs=1e-10)
        assert float(np.sum(np.abs(state) ** 2)) == pytest.approx(1.0, abs=1e-9)

    def test_noisy_probabilities_match_density_matrix(self, compiled_noisy):
        probabilities = compiled_noisy.probabilities()
        diagonal = np.real(np.diag(compiled_noisy.density_matrix())).clip(min=0.0)
        np.testing.assert_allclose(probabilities, diagonal, atol=1e-10)


def _full_assignments(compiled):
    """Every (bits, branches) pair of a compiled circuit's retained variables."""
    cardinalities = [variable.cardinality for variable in compiled.noise_variables]
    for bits in itertools.product([0, 1], repeat=compiled.num_qubits):
        for branches in itertools.product(*[range(c) for c in cardinalities]):
            yield list(bits), list(branches)


class TestScalarEvidence:
    """Scalar queries are one-row calls of the batched evidence path."""

    @pytest.mark.parametrize(
        "fixture", ["compiled_ideal", "compiled_noisy", "compiled_forced"]
    )
    def test_amplitude_is_one_row_of_amplitudes(self, fixture, request):
        compiled = request.getfixturevalue(fixture)
        for bits, branches in _full_assignments(compiled):
            scalar = compiled.amplitude(bits, branches)
            batched = compiled.amplitudes([bits], [branches])[0]
            assert np.array_equal(scalar, batched)

    @pytest.mark.parametrize(
        "fixture", ["compiled_ideal", "compiled_noisy", "compiled_forced"]
    )
    def test_apply_evidence_writes_the_batch_row(self, fixture, request):
        compiled = request.getfixturevalue(fixture)
        for bits, branches in _full_assignments(compiled):
            literal_values, _ = compiled.base_literal_values()
            shortcut = compiled.apply_evidence(
                literal_values, compiled.assignment_for(bits, branches)
            )
            literal_batch, _ = compiled.base_literal_values_batch(1)
            zero_rows = compiled.apply_evidence_batch(literal_batch, [bits + branches])
            assert np.array_equal(literal_values, literal_batch[0])
            assert shortcut == (0j if zero_rows[0] else None)

    def test_contradicting_a_forced_bit_returns_zero(self, compiled_forced):
        literal_values, _ = compiled_forced.base_literal_values()
        # The idle second qubit's final bit is forced to 0.
        assignment = compiled_forced.assignment_for([0, 1])
        assert compiled_forced.apply_evidence(literal_values, assignment) == 0j
        assignment = compiled_forced.assignment_for([1, 0])
        assert compiled_forced.apply_evidence(literal_values, assignment) is None

    def test_names_that_are_not_retained_are_skipped(self, compiled_ideal):
        literal_values, _ = compiled_ideal.base_literal_values()
        before = literal_values.copy()
        assert compiled_ideal.apply_evidence(literal_values, {"no such node": 1}) is None
        assert np.array_equal(literal_values, before)

    def test_out_of_range_value_raises(self, compiled_ideal):
        literal_values, _ = compiled_ideal.base_literal_values()
        assignment = compiled_ideal.assignment_for([0, 0, 0])
        assignment[compiled_ideal.final_variables[0].node_name] = 2
        with pytest.raises(ValueError):
            compiled_ideal.apply_evidence(literal_values, assignment)


class TestFlipConditionals:
    """A Gibbs move's conditional from one flipped upward pass, not a differential pass."""

    @pytest.mark.parametrize(
        "fixture", ["compiled_ideal", "compiled_noisy", "compiled_forced"]
    )
    def test_flip_weights_match_derivative_reads(self, fixture, request):
        compiled = request.getfixturevalue(fixture)
        rng = np.random.default_rng(43)
        sampler = GibbsSampler(compiled, rng=rng)
        states = sampler._random_states(48)
        # Every third row contradicts each CNF-forced bit (a zero row).
        states[::3] ^= sampler._forced_clear
        bit_indices = rng.integers(0, len(sampler.bits), size=48)
        expected_one, expected_zero, zero_rows = _derivative_conditionals(
            sampler, states, bit_indices
        )
        assert zero_rows.any() == (fixture == "compiled_forced")
        # All-zero conditionals (zero rows, or exact zeros of the circuit)
        # and conditionals with mass both occur.
        assert np.any(expected_one + expected_zero == 0.0)
        assert np.any(expected_one + expected_zero > 0.0)

        cached = np.abs(sampler._amplitudes(states)) ** 2
        before = states.copy()
        weight_one, weight_zero = sampler._conditional_weights(states, bit_indices, cached)
        np.testing.assert_allclose(weight_one, expected_one, rtol=0, atol=1e-10)
        np.testing.assert_allclose(weight_zero, expected_zero, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(states, before)

    @pytest.mark.parametrize("fixture", ["compiled_ideal", "compiled_noisy"])
    def test_cached_weights_resample_identically(self, fixture, request):
        """``_resample`` leaves every chain's weight equal to a fresh pass over its new state."""
        compiled = request.getfixturevalue(fixture)
        sampler = GibbsSampler(compiled, rng=np.random.default_rng(47))
        states = sampler._random_states(64)
        bit_indices = sampler.rng.integers(0, len(sampler.bits), size=64)
        weights = np.abs(sampler._amplitudes(states)) ** 2

        resampled = states.copy()
        returned = sampler._resample(resampled, bit_indices, weights)

        np.testing.assert_array_equal(returned, np.abs(sampler._amplitudes(resampled)) ** 2)
        np.testing.assert_array_equal(weights, returned)
        assert np.any(resampled != states)


class TestSweepCones:
    """A sweep step recomputes only the flipped bit's cone of a cached pass."""

    @pytest.mark.parametrize("chains", [1, 3, 24, 64])
    @pytest.mark.parametrize(
        "fixture", ["compiled_ideal", "compiled_noisy", "compiled_forced"]
    )
    def test_cone_roots_equal_full_pass_over_flipped_states(self, fixture, chains, request):
        compiled = request.getfixturevalue(fixture)
        ac = compiled.arithmetic_circuit
        sampler = GibbsSampler(compiled, rng=np.random.default_rng(59))
        states = sampler._random_states(chains)
        # Every third row contradicts each CNF-forced bit (a zero row).
        states[::3] ^= sampler._forced_clear
        buffer, zero_rows = sampler._bind_states(states)
        assert zero_rows.any() == (fixture == "compiled_forced")
        cached = np.empty((ac.num_nodes, states.shape[0]), dtype=complex)
        ac.evaluate_batch(buffer, values=cached)
        for index, variable in enumerate(sampler.bits):
            column, shift = sampler._bit_columns[index], sampler._bit_shifts[index]
            old_bits = (states[:, column] >> shift) & 1
            flipped = states.copy()
            flipped[:, column] ^= np.int64(1) << shift
            expected = sampler._amplitudes(flipped)
            fresh = np.empty_like(cached)
            ac.evaluate_batch(sampler._bind_states(flipped)[0], values=fresh)

            values = cached.copy()
            roots, (cone, old_values) = ac.evaluate_cone(
                values, variable, 1 - old_bits, old_bits
            )
            np.testing.assert_array_equal(sampler._scaled(roots, zero_rows), expected)
            np.testing.assert_array_equal(values, fresh)
            np.testing.assert_array_equal(old_values, cached[cone])
            assert np.all(np.diff(cone) > 0)

    @pytest.mark.parametrize("chains", [1, 3, 64])
    @pytest.mark.parametrize("fixture", ["compiled_ideal", "compiled_noisy", "lone_and"])
    def test_cone_equals_full_pass_under_complex_bindings(self, fixture, chains, request):
        """Generic complex leaves make every product's rounding visible.

        A complex product with a real factor rounds the same way in every
        NumPy loop, and the Gibbs bindings of these small circuits never
        showed a difference; generic complex leaves do.
        """
        ac = _circuit(request, fixture)
        rng = np.random.default_rng(chains)
        literal_values = _random_literal_batch(ac, chains, rng, zero_fraction=0.0)
        cached = np.empty((ac.num_nodes, chains), dtype=complex)
        ac.evaluate_batch(literal_values, values=cached)
        for variable in np.unique(ac._literal_vars):
            replaced = literal_values.copy()
            replaced[:, variable] = _random_literal_batch(ac, chains, rng, 0.0)[:, variable]
            fresh = np.empty_like(cached)
            ac.evaluate_batch(replaced, values=fresh)
            values = cached.copy()
            ac.evaluate_cone(values, variable, replaced[:, variable, 1], replaced[:, variable, 0])
            assert np.array_equal(values.view(float), fresh.view(float))

    @pytest.mark.parametrize(
        "fixture", ["compiled_ideal", "compiled_noisy", "compiled_forced"]
    )
    def test_sweep_leaves_values_of_a_full_pass(self, fixture, request):
        """Kept rows got their old cone values back, flipped rows kept the new ones."""
        compiled = request.getfixturevalue(fixture)
        sampler = GibbsSampler(compiled, rng=np.random.default_rng(61))
        states, _ = sampler.initial_states(32)
        before = states.copy()
        weights = sampler.sweep_batch(states)
        assert np.any(states != before) and np.any(np.all(states == before, axis=1))

        ac = compiled.arithmetic_circuit
        fresh = np.empty_like(sampler._values)
        roots = ac.evaluate_batch(sampler._bind_states(states)[0], values=fresh)
        np.testing.assert_array_equal(sampler._values, fresh)
        np.testing.assert_array_equal(weights, np.abs(sampler._amplitudes(states)) ** 2)
        np.testing.assert_array_equal(sampler._values[ac.root_index], roots)

    def test_cone_plans_stay_out_of_pickles(self, compiled_noisy):
        ac = compiled_noisy.arithmetic_circuit
        before = pickle.dumps(ac)
        for variable in GibbsSampler(compiled_noisy).bits:
            ac._cone(variable)
        assert ac._cones
        assert pickle.dumps(ac) == before
        assert pickle.loads(before)._cones == {}


class TestMultiChainSampling:
    def test_multi_chain_converges_in_tvd(self, compiled_ideal):
        sampler = GibbsSampler(compiled_ideal, rng=np.random.default_rng(17))
        samples = sampler.sample(4000, burn_in_sweeps=5, num_chains=32)
        exact = compiled_ideal.probabilities()
        assert total_variation_distance(exact, samples.empirical_distribution()) < 0.12

    def test_noisy_multi_chain_converges_in_tvd(self, compiled_noisy):
        sampler = GibbsSampler(
            compiled_noisy, rng=np.random.default_rng(19), restart_probability=0.2
        )
        samples = sampler.sample(4000, burn_in_sweeps=5, steps_per_sample=4, num_chains=64)
        exact = compiled_noisy.probabilities()
        assert total_variation_distance(exact, samples.empirical_distribution()) < 0.10

    def test_num_chains_plumbed_through_simulator(self, compiled_ideal):
        simulator = KnowledgeCompilationSimulator(seed=23)
        result = simulator.sample(compiled_ideal, 100, num_chains=8)
        assert len(result.samples) == 100

    def test_single_chain_equals_default_semantics(self, compiled_ideal):
        """num_chains=1 still produces valid, reproducible samples."""
        first = GibbsSampler(compiled_ideal, rng=np.random.default_rng(29)).sample(
            40, num_chains=1
        )
        second = GibbsSampler(compiled_ideal, rng=np.random.default_rng(29)).sample(
            40, num_chains=1
        )
        assert first.samples == second.samples

    def test_warm_ensemble_continues_chains(self, compiled_ideal):
        """Repeated sample() calls reuse the equilibrated ensemble and stay valid."""
        sampler = GibbsSampler(compiled_ideal, rng=np.random.default_rng(31))
        sampler.sample(256, num_chains=32)
        assert sampler._ensemble is not None
        combined = []
        for _ in range(8):
            combined.extend(sampler.sample(512, num_chains=32).samples)
        exact = compiled_ideal.probabilities()
        empirical = np.bincount(
            [int("".join(map(str, s)), 2) for s in combined], minlength=len(exact)
        ) / len(combined)
        assert total_variation_distance(exact, empirical) < 0.12
