"""Cross-backend differential fuzzing.

Draws seeded random circuits from the ``circuit_fuzzer`` conftest fixture
(four gate alphabets: Clifford-only, Clifford+T, universal, noisy-Pauli) and
cross-checks every backend pairwise on

* exact output probabilities (the dense density matrix as ground truth),
* final state vectors up to global phase,
* sampled histograms (total-variation-distance bound against the exact
  distribution).

The corpus is small and fully seeded so the suite is deterministic and
CI-cheap; a new backend gets fuzzed by adding one entry to
``_ideal_probability_backends`` below.
"""

import numpy as np
import pytest

from repro import device
from repro.circuits.passes import default_pipeline
from repro.densitymatrix import DensityMatrixSimulator
from repro.sampling import total_variation_distance
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.stabilizer import StabilizerSimulator
from repro.statevector import StateVectorSimulator
from repro.tensornetwork import TensorNetworkSimulator
from repro.trajectory import TrajectorySimulator

#: Clifford-only corpus; entries with n <= 10 back the 1e-10 acceptance bound.
CLIFFORD_CORPUS = [
    (seed, num_qubits, depth)
    for seed in (0, 1, 2)
    for num_qubits, depth in ((2, 6), (4, 8))
] + [(7, 6, 10), (8, 8, 10), (9, 10, 12)]

#: Universal-alphabet corpus (kept tiny: the KC backend compiles each one).
UNIVERSAL_CORPUS = [(seed, 3, 4) for seed in (0, 1, 2)] + [(3, 4, 3)]

CLIFFORD_T_CORPUS = [(seed, 3, 5) for seed in (0, 1)]

NOISY_CORPUS = [(seed, 3, 3) for seed in (0, 1, 2)]


def _ideal_probability_backends(num_qubits):
    """Backend name -> exact probability vector callable, for ideal circuits.

    Future backends join the pairwise cross-check by adding one entry here.
    """
    backends = {
        "state_vector": lambda c: StateVectorSimulator().simulate(c).probabilities(),
        "density_matrix": lambda c: DensityMatrixSimulator().simulate(c).probabilities(),
        "tensor_network": lambda c: TensorNetworkSimulator().simulate(c).probabilities(),
        "knowledge_compilation": lambda c: (
            KnowledgeCompilationSimulator(seed=0).simulate(c).probabilities()
        ),
        "hybrid": lambda c: device("auto", seed=0).simulate(c).probabilities(),
    }
    return backends


def _state_vector_backends():
    return {
        "state_vector": lambda c: StateVectorSimulator().simulate(c).state_vector,
        "tensor_network": lambda c: TensorNetworkSimulator().simulate(c).state_vector,
        "knowledge_compilation": lambda c: (
            KnowledgeCompilationSimulator(seed=0).simulate(c).state_vector
        ),
    }


def _assert_equal_up_to_global_phase(a, b, atol, context=""):
    anchor = int(np.argmax(np.abs(a)))
    assert abs(a[anchor]) > atol, context
    phase = b[anchor] / a[anchor]
    assert abs(abs(phase) - 1.0) < 1e-7, context
    np.testing.assert_allclose(phase.conjugate() * b, a, atol=atol, err_msg=context)


class TestCliffordAlphabet:
    """Stabilizer backend vs. the dense ground truth on Clifford circuits."""

    @pytest.mark.parametrize("seed,num_qubits,depth", CLIFFORD_CORPUS)
    def test_probabilities_match_statevector_to_1e10(self, circuit_fuzzer, seed, num_qubits, depth):
        circuit = circuit_fuzzer(seed, num_qubits, depth, alphabet="clifford")
        exact = StateVectorSimulator().simulate(circuit).probabilities()
        tableau = StabilizerSimulator().simulate(circuit).probabilities()
        np.testing.assert_allclose(tableau, exact, atol=1e-10)

    @pytest.mark.parametrize("seed,num_qubits,depth", CLIFFORD_CORPUS)
    def test_state_vectors_match_up_to_global_phase(self, circuit_fuzzer, seed, num_qubits, depth):
        circuit = circuit_fuzzer(seed, num_qubits, depth, alphabet="clifford")
        dense = StateVectorSimulator().simulate(circuit).state_vector
        tableau = StabilizerSimulator().simulate(circuit).state_vector
        _assert_equal_up_to_global_phase(dense, tableau, 1e-9, f"seed={seed} n={num_qubits}")

    @pytest.mark.parametrize("seed,num_qubits,depth", CLIFFORD_CORPUS[:4])
    def test_sampled_histogram_tvd(self, circuit_fuzzer, seed, num_qubits, depth):
        circuit = circuit_fuzzer(seed, num_qubits, depth, alphabet="clifford")
        exact = StateVectorSimulator().simulate(circuit).probabilities()
        samples = StabilizerSimulator(seed=17).sample(circuit, 4000)
        assert total_variation_distance(exact, samples.empirical_distribution()) < 0.06

    def test_hybrid_routes_clifford_to_stabilizer(self, circuit_fuzzer):
        circuit = circuit_fuzzer(0, 4, 8, alphabet="clifford")
        dev = device("auto", seed=0)
        dev.simulate(circuit)
        assert dev.decide(circuit, sampling=False).backend == "stabilizer"

    def test_initial_state_parity(self, circuit_fuzzer):
        circuit = circuit_fuzzer(4, 4, 6, alphabet="clifford")
        for initial in (1, 5, 15):
            dense = StateVectorSimulator().simulate(circuit, initial_state=initial)
            tableau = StabilizerSimulator().simulate(circuit, initial_state=initial)
            np.testing.assert_allclose(
                tableau.probabilities(), dense.probabilities(), atol=1e-10
            )


class TestUniversalAlphabet:
    """All exact backends agree pairwise on generic circuits."""

    @pytest.mark.parametrize("seed,num_qubits,depth", UNIVERSAL_CORPUS)
    def test_pairwise_probability_parity(self, circuit_fuzzer, seed, num_qubits, depth):
        circuit = circuit_fuzzer(seed, num_qubits, depth, alphabet="universal")
        results = {
            name: backend(circuit)
            for name, backend in _ideal_probability_backends(num_qubits).items()
        }
        names = sorted(results)
        for i, first in enumerate(names):
            for second in names[i + 1 :]:
                np.testing.assert_allclose(
                    results[first],
                    results[second],
                    atol=1e-9,
                    err_msg=f"{first} vs {second} (seed={seed})",
                )

    @pytest.mark.parametrize("seed,num_qubits,depth", UNIVERSAL_CORPUS[:2])
    def test_pairwise_state_vector_parity(self, circuit_fuzzer, seed, num_qubits, depth):
        circuit = circuit_fuzzer(seed, num_qubits, depth, alphabet="universal")
        results = {name: backend(circuit) for name, backend in _state_vector_backends().items()}
        names = sorted(results)
        for i, first in enumerate(names):
            for second in names[i + 1 :]:
                _assert_equal_up_to_global_phase(
                    results[first], results[second], 1e-9, f"{first} vs {second}"
                )

    @pytest.mark.parametrize("seed,num_qubits,depth", UNIVERSAL_CORPUS[:2])
    def test_sampled_histogram_tvd(self, circuit_fuzzer, seed, num_qubits, depth):
        circuit = circuit_fuzzer(seed, num_qubits, depth, alphabet="universal")
        exact = StateVectorSimulator().simulate(circuit).probabilities()
        dense_samples = StateVectorSimulator(seed=5).sample(circuit, 4000)
        assert total_variation_distance(exact, dense_samples.empirical_distribution()) < 0.06
        kc_samples = KnowledgeCompilationSimulator(seed=5).sample(circuit, 4000)
        assert total_variation_distance(exact, kc_samples.empirical_distribution()) < 0.08


class TestCliffordPlusTAlphabet:
    """T gates must route off the tableau and still agree with ground truth."""

    @pytest.mark.parametrize("seed,num_qubits,depth", CLIFFORD_T_CORPUS)
    def test_stabilizer_refuses_and_hybrid_falls_back(self, circuit_fuzzer, seed, num_qubits, depth):
        circuit = circuit_fuzzer(seed, num_qubits, depth, alphabet="clifford+t")
        with pytest.raises(ValueError, match="Clifford"):
            StabilizerSimulator().simulate(circuit)
        dev = device("auto", seed=0)
        result = dev.simulate(circuit)
        assert dev.decide(circuit, sampling=False).backend == "state_vector"
        exact = StateVectorSimulator().simulate(circuit).probabilities()
        np.testing.assert_allclose(result.probabilities(), exact, atol=1e-10)


class TestNoisyPauliAlphabet:
    """Noisy-Pauli circuits: exact backends agree; samplers converge."""

    @pytest.mark.parametrize("seed,num_qubits,depth", NOISY_CORPUS)
    def test_exact_backends_agree(self, circuit_fuzzer, seed, num_qubits, depth):
        circuit = circuit_fuzzer(seed, num_qubits, depth, alphabet="pauli-noise")
        assert circuit.has_noise
        dense = DensityMatrixSimulator().simulate(circuit).probabilities()
        compiled = KnowledgeCompilationSimulator(seed=0).simulate_density_matrix(circuit)
        np.testing.assert_allclose(compiled.probabilities(), dense, atol=1e-9)

    @pytest.mark.parametrize("seed,num_qubits,depth", NOISY_CORPUS)
    def test_stochastic_samplers_converge(self, circuit_fuzzer, seed, num_qubits, depth):
        circuit = circuit_fuzzer(seed, num_qubits, depth, alphabet="pauli-noise")
        exact = DensityMatrixSimulator().simulate(circuit).probabilities()
        exact = exact / exact.sum()
        tableau = StabilizerSimulator(seed=23).sample(circuit, 4000)
        assert total_variation_distance(exact, tableau.empirical_distribution()) < 0.06
        trajectory = TrajectorySimulator(seed=23).sample(circuit, 4000)
        assert total_variation_distance(exact, trajectory.empirical_distribution()) < 0.06

    def test_hybrid_routes_pauli_noise_sampling_to_stabilizer(self, circuit_fuzzer):
        circuit = circuit_fuzzer(0, 3, 3, alphabet="pauli-noise")
        dev = device("auto", seed=0)
        exact = DensityMatrixSimulator().simulate(circuit).probabilities()
        samples = dev.sample(circuit, 4000, seed=29)
        assert dev.decide(circuit, repetitions=4000).backend == "stabilizer"
        assert total_variation_distance(exact, samples.empirical_distribution()) < 0.06


def _measured_qubits(circuit):
    measured = {
        qubit
        for operation in circuit.all_operations()
        if operation.is_measurement
        for qubit in operation.qubits
    }
    return sorted(measured)


def _comparable_distribution(probabilities, qubit_order, measured):
    """Marginal over the measured qubits (or the full distribution if none).

    Light-cone pruning only promises the joint distribution over *measured*
    qubits, so measured circuits compare on that marginal; circuits without
    measurement gates must match on the full state.
    """
    if not measured:
        return np.asarray(probabilities)
    n = len(qubit_order)
    keep = [qubit_order.index(qubit) for qubit in measured]
    drop = tuple(axis for axis in range(n) if axis not in keep)
    tensor = np.asarray(probabilities).reshape((2,) * n)
    return (tensor.sum(axis=drop) if drop else tensor).reshape(-1)


#: 5 alphabets x 100 seeds = 500 seeded circuits through the bulk parity
#: check, spanning all four optimizer passes (each rewrite alphabet targets
#: one) plus the unstructured universal alphabet.
OPTIMIZER_BULK_ALPHABETS = (
    "rotation-chains",
    "commuting-blocks",
    "clifford-prefix",
    "spectator",
    "universal",
)
OPTIMIZER_BULK_SEEDS = 100

#: Small corpus for the per-backend parity matrix (the KC backend compiles
#: every entry twice).  The stabilizer joins on the Clifford-only alphabets.
OPTIMIZER_BACKEND_CORPUS = [
    (alphabet, seed)
    for alphabet in ("rotation-chains", "commuting-blocks", "clifford-prefix", "spectator", "clifford")
    for seed in (0, 1)
]
_STABILIZER_ALPHABETS = ("spectator", "clifford")


class TestOptimizedVsUnoptimized:
    """The default pass pipeline must preserve semantics on every backend.

    Bulk: >= 500 seeded circuits against the state-vector reference at
    1e-10 (full state, or the measured-qubit marginal for circuits with
    measurement gates — the light-cone contract).  Matrix: a smaller corpus
    where *each* of the six backends runs the optimized and unoptimized
    circuit and must agree with itself at 1e-10.
    """

    @pytest.mark.parametrize("alphabet", OPTIMIZER_BULK_ALPHABETS)
    def test_bulk_parity_500_circuits(self, circuit_fuzzer, alphabet):
        from repro.circuits.passes import optimize_circuit

        total_rewrites = 0
        for seed in range(OPTIMIZER_BULK_SEEDS):
            num_qubits = 3 + seed % 3
            depth = 4 + seed % 3
            circuit = circuit_fuzzer(seed, num_qubits, depth, alphabet=alphabet)
            result = optimize_circuit(circuit)
            total_rewrites += sum(stats.rewrites for stats in result.stats.passes)
            assert len(result.circuit.all_operations()) <= len(circuit.all_operations())
            qubits = circuit.all_qubits()
            measured = _measured_qubits(circuit)
            base = StateVectorSimulator().simulate(circuit, qubit_order=qubits).probabilities()
            optimized = (
                StateVectorSimulator().simulate(result.circuit, qubit_order=qubits).probabilities()
            )
            np.testing.assert_allclose(
                _comparable_distribution(optimized, qubits, measured),
                _comparable_distribution(base, qubits, measured),
                atol=1e-10,
                err_msg=f"alphabet={alphabet} seed={seed}",
            )
        # The corpus must actually exercise the passes, not vacuously pass.
        if alphabet != "universal":
            assert total_rewrites > OPTIMIZER_BULK_SEEDS

    @pytest.mark.parametrize("alphabet,seed", OPTIMIZER_BACKEND_CORPUS)
    def test_per_backend_parity_matrix(self, circuit_fuzzer, alphabet, seed):
        from repro.circuits.passes import optimize_circuit

        circuit = circuit_fuzzer(seed, 3, 4, alphabet=alphabet)
        optimized = optimize_circuit(circuit).circuit
        qubits = circuit.all_qubits()
        measured = _measured_qubits(circuit)
        backends = {
            "state_vector": StateVectorSimulator(),
            "density_matrix": DensityMatrixSimulator(),
            "tensor_network": TensorNetworkSimulator(),
            "trajectory": TrajectorySimulator(seed=0),
            "knowledge_compilation": KnowledgeCompilationSimulator(seed=0),
        }
        if alphabet in _STABILIZER_ALPHABETS:
            backends["stabilizer"] = StabilizerSimulator()
        for name, simulator in backends.items():
            base = simulator.simulate(circuit, qubit_order=qubits).probabilities()
            rewritten = simulator.simulate(optimized, qubit_order=qubits).probabilities()
            np.testing.assert_allclose(
                _comparable_distribution(rewritten, qubits, measured),
                _comparable_distribution(base, qubits, measured),
                atol=1e-10,
                err_msg=f"backend={name} alphabet={alphabet} seed={seed}",
            )

    def test_device_run_optimize_auto_parity(self, circuit_fuzzer):
        import repro

        circuit = circuit_fuzzer(3, 3, 4, alphabet="rotation-chains")
        device = repro.device("auto")
        base = device.run([circuit]).result().rows[0]["probabilities"]
        optimized = device.run([circuit], optimize="auto").result().rows[0]["probabilities"]
        np.testing.assert_allclose(optimized, base, atol=1e-10)

    def test_hybrid_prefix_split_parity(self, circuit_fuzzer):
        circuit = circuit_fuzzer(2, 3, 6, alphabet="clifford-prefix")
        base = device("auto", seed=0).simulate(circuit).probabilities()
        optimized = default_pipeline().run(circuit).circuit
        rewritten = device("auto", seed=0).simulate(optimized).probabilities()
        np.testing.assert_allclose(rewritten, base, atol=1e-10)


class TestFuzzerDeterminism:
    """The corpus itself must be reproducible for failures to be replayable."""

    def test_same_seed_same_circuit(self, circuit_fuzzer):
        first = circuit_fuzzer(11, 4, 5, alphabet="universal")
        second = circuit_fuzzer(11, 4, 5, alphabet="universal")
        assert first == second

    def test_different_seeds_differ(self, circuit_fuzzer):
        assert circuit_fuzzer(0, 4, 5) != circuit_fuzzer(1, 4, 5)

    def test_unknown_alphabet_rejected(self, circuit_fuzzer):
        with pytest.raises(ValueError, match="alphabet"):
            circuit_fuzzer(0, 3, 3, alphabet="made-up")
