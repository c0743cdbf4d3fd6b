"""A pinned digest of knowledge-compiler output.

Performance work on the d-DNNF compiler (cheaper propagation, cheaper
component splits) must leave its output unchanged: the same circuit has to
give the same arithmetic circuit, node for node and in the same order, and
the search has to make the same decisions and cache hits.  This test hashes,
per circuit of a fixed corpus, the ``to_nnf_text()`` of the simulator's
compiled arithmetic circuit and the ``CompilationStats`` of a direct
``KnowledgeCompiler.compile`` of the circuit's CNF, and compares the hash with
a value recorded before those optimisations.

Integer tuples hash the same under every ``PYTHONHASHSEED``, so the digest
must not depend on the seed; CI runs this file under two seeds.
"""

import hashlib
import json

from repro.bayesnet import circuit_to_bayesnet
from repro.circuits import depolarize
from repro.cnf import encode_bayesnet
from repro.knowledge import KnowledgeCompiler
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.variational import QAOACircuit, VQECircuit, random_regular_maxcut, square_grid_ising

#: SHA-256 of ``compile_digest(corpus())``.
PINNED_DIGEST = "603d3b31a8e16aa77dd57fd2b7e4188b1e032bb4f27e4c391e1435a838e123bc"


def _qaoa(n, noisy):
    circuit = QAOACircuit(random_regular_maxcut(n, seed=7), 1).circuit
    return circuit.with_noise(lambda: depolarize(0.005)) if noisy else circuit


def _vqe(n, noisy):
    circuit = VQECircuit(square_grid_ising(n, seed=7), 1).circuit
    return circuit.with_noise(lambda: depolarize(0.005)) if noisy else circuit


def corpus():
    """``(label, circuit, order_method)`` entries.

    Every entry compiles under the simulator's default order (hypergraph)
    except the last, which takes the min-fill order through both paths.
    Min-fill is the compiler's own default, but it needs about 26 s for
    noisy QAOA at n=3, so the corpus uses it only on one small ideal circuit.
    """
    entries = []
    for n in range(3, 7):
        entries.append((f"qaoa-ideal-{n}", _qaoa(n, False), "hypergraph"))
        entries.append((f"vqe-ideal-{n}", _vqe(n, False), "hypergraph"))
    for n in range(3, 6):
        entries.append((f"qaoa-noisy-{n}", _qaoa(n, True), "hypergraph"))
        entries.append((f"vqe-noisy-{n}", _vqe(n, True), "hypergraph"))
    entries.append(("qaoa-noisy-6", _qaoa(6, True), "hypergraph"))
    entries.append(("qaoa-ideal-4-min-fill", _qaoa(4, False), "min_fill"))
    return entries


def compile_digest(entries):
    """SHA-256 over each entry's AC text and direct-compile statistics."""
    digest = hashlib.sha256()
    for label, circuit, order_method in entries:
        simulator = KnowledgeCompilationSimulator(order_method=order_method, cache=None)
        text = simulator.compile_circuit(circuit).arithmetic_circuit.to_nnf_text()

        encoding = encode_bayesnet(circuit_to_bayesnet(circuit))
        state_bits = [bit for bits in encoding.node_bits.values() for bit in bits]
        compiler = KnowledgeCompiler(order_method=order_method)
        _, _, stats = compiler.compile(encoding.cnf, decision_variables=state_bits)

        digest.update(label.encode("utf-8"))
        digest.update(text.encode("utf-8"))
        digest.update(json.dumps(stats.as_dict(), sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def test_compile_output_matches_pinned_digest():
    assert compile_digest(corpus()) == PINNED_DIGEST
