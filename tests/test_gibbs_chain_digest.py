"""A pinned digest of seeded Gibbs chains.

Performance work on the sampler (cheaper scoring passes, cached circuit
values) must leave the Markov chain itself unchanged: the same seed has to
give the same samples, bit for bit.  This test hashes the output of seeded
``KnowledgeCompilationSimulator.sample`` calls on noisy QAOA — one cold call
and two calls after a parameter rebind per seed — and compares the hash with
a value recorded before those optimisations, so a change to the chain cannot
slip in silently.
"""

import hashlib

import numpy as np

from repro.circuits import depolarize
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.variational import QAOACircuit, random_regular_maxcut

#: The cold call's parameter point, then the two rebound ones.
POINTS = [(0.6, 0.5), (1.2, 0.3), (0.4, 0.3)]
SHOTS = 1000
#: SHA-256 of ``chain_digest(3, range(3))``.
PINNED_DIGEST = "6468dd7231d95565ab831e449bb600f9833ac4cb7342ca38f2a5d11955c1d228"


def chain_digest(num_qubits, seeds):
    """SHA-256 over seeded cold-then-rebound samples of noisy QAOA p=1.

    Every seed gets a fresh simulator; its first ``sample`` call starts the
    chains cold and the later calls re-bind the warm ensemble in place.
    """
    ansatz = QAOACircuit(random_regular_maxcut(num_qubits, seed=7), 1)
    noisy = ansatz.circuit.with_noise(lambda: depolarize(0.005))
    digest = hashlib.sha256()
    for seed in seeds:
        simulator = KnowledgeCompilationSimulator(seed=seed, cache=None)
        compiled = simulator.compile_circuit(noisy)
        for point in POINTS:
            shots = simulator.sample(compiled, SHOTS, resolver=ansatz.resolver(point))
            digest.update(np.asarray(list(shots), dtype=np.int8).tobytes())
    return digest.hexdigest()


def test_seeded_chains_match_pinned_digest():
    assert chain_digest(3, range(3)) == PINNED_DIGEST
