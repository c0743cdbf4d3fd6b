"""A pinned digest of the default rewrite pipeline's output.

Performance work on the optimizer passes (memoized rule facts, cheaper
partner scans) must leave every rewrite decision unchanged: the same input
has to give the same output circuit and the same per-pass stats.  This test
hashes ``default_pipeline().run(c)`` over a seeded corpus and compares the
hash with a value recorded before those optimisations.

The corpus is the api-batch workload's random Clifford circuits (12 qubits,
depth 12, at the Clifford seeds the workload draws for run seed 1), its
n=6 QAOA and VQE ansätze (symbolic and resolved), and a few seeded circuits
from every differential-fuzz alphabet.
"""

import hashlib

import numpy as np

from repro.algorithms import random_clifford_circuit
from repro.circuits.passes import default_pipeline
from repro.variational import QAOACircuit, VQECircuit, random_regular_maxcut, square_grid_ising

#: Graph seed of the api-batch ansätze.
GRAPH_SEED = 7
#: The api-batch run seed whose Clifford circuits join the corpus.
RUN_SEED = 1
FUZZ_ALPHABETS = (
    "clifford", "clifford+t", "universal", "pauli-noise",
    "rotation-chains", "commuting-blocks", "clifford-prefix", "spectator",
)
FUZZ_SEEDS = range(4)
#: SHA-256 of ``pipeline_digest(circuit_fuzzer)``.
PINNED_DIGEST = "abb4588659baeeb7f78429d6c5b517e9fa1e19dbdf78fef955fd0c1a114cb09e"


def _ansatze():
    return [
        QAOACircuit(random_regular_maxcut(6, seed=GRAPH_SEED), 1),
        VQECircuit(square_grid_ising(6, seed=GRAPH_SEED), 1),
    ]


def _api_batch_cliffords(run_seed):
    """The workload's Clifford circuits: seeds drawn after the ansatz start points."""
    walk = np.random.default_rng([run_seed, 3])
    for ansatz in _ansatze():
        walk.uniform(0.2, 0.9, size=ansatz.num_parameters)
    return [random_clifford_circuit(12, 12, seed=int(s)).circuit for s in walk.integers(0, 2**31, size=8)]


def corpus(circuit_fuzzer):
    circuits = _api_batch_cliffords(RUN_SEED)
    for ansatz in _ansatze():
        point = np.linspace(0.3, 0.8, ansatz.num_parameters)
        circuits += [ansatz.circuit, ansatz.circuit.resolve_parameters(ansatz.resolver(list(point)))]
    for alphabet in FUZZ_ALPHABETS:
        circuits += [circuit_fuzzer(seed, 4, 8, alphabet=alphabet) for seed in FUZZ_SEEDS]
    return circuits


def _angle(gate):
    inner = getattr(gate, "sub_gate", gate)
    return repr(getattr(inner, "angle", None))


def pipeline_digest(circuit_fuzzer):
    """SHA-256 over every optimized operation (gate or channel, qubits, angle) and the stats."""
    digest = hashlib.sha256()
    for circuit in corpus(circuit_fuzzer):
        result = default_pipeline().run(circuit)
        for operation in result.circuit.all_operations():
            gate = getattr(operation, "gate", None)
            channel = getattr(operation, "channel", None)
            record = (repr(gate), repr(channel), tuple(str(q) for q in operation.qubits), _angle(gate))
            digest.update(repr(record).encode())
        digest.update(repr(result.stats).encode())
    return digest.hexdigest()


def test_pipeline_output_matches_pinned_digest(circuit_fuzzer):
    assert pipeline_digest(circuit_fuzzer) == PINNED_DIGEST
