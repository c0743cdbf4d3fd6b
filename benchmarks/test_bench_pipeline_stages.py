"""Ablation benchmarks for the individual toolchain stages.

Not a paper table per se, but the per-stage costs DESIGN.md calls out:
circuit -> Bayesian network, network -> CNF, CNF -> d-DNNF, elision/smoothing,
weight re-binding, single amplitude queries, gradient passes and Gibbs moves.
These quantify where time goes and how cheap the "repeat with new parameters"
path is compared with a full recompilation — the design choice at the heart
of the paper.
"""

import numpy as np
import pytest

from repro.bayesnet import circuit_to_bayesnet
from repro.cnf import encode_bayesnet
from repro.knowledge import ArithmeticCircuit, KnowledgeCompiler, forget, smooth
from repro.knowledge.arithmetic_circuit import NODE_AND, NODE_OR
from repro.sampling import GibbsSampler
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.variational import QAOACircuit, random_regular_maxcut

NUM_QUBITS = 10


@pytest.fixture(scope="module")
def ansatz():
    return QAOACircuit(random_regular_maxcut(NUM_QUBITS, seed=5), iterations=1)


@pytest.fixture(scope="module")
def resolver(ansatz):
    return ansatz.resolver([0.6, 0.4])


@pytest.fixture(scope="module")
def compiled(ansatz):
    return KnowledgeCompilationSimulator(seed=1).compile_circuit(ansatz.circuit)


def test_stage_circuit_to_bayesnet(benchmark, ansatz):
    network = benchmark(lambda: circuit_to_bayesnet(ansatz.circuit))
    benchmark.extra_info["bn_nodes"] = network.num_nodes


def test_stage_bayesnet_to_cnf(benchmark, ansatz):
    network = circuit_to_bayesnet(ansatz.circuit)
    encoding = benchmark(lambda: encode_bayesnet(network))
    benchmark.extra_info["cnf_clauses"] = encoding.cnf.num_clauses


def test_stage_cnf_to_ddnnf(benchmark, ansatz):
    network = circuit_to_bayesnet(ansatz.circuit)
    encoding = encode_bayesnet(network)
    compiler = KnowledgeCompiler(order_method="hypergraph")
    state_bits = [bit for bits in encoding.node_bits.values() for bit in bits]

    def compile_once():
        root, manager, _ = compiler.compile(encoding.cnf, decision_variables=state_bits)
        return root, manager

    root, manager = benchmark(compile_once)
    benchmark.extra_info["cnf_clauses"] = encoding.cnf.num_clauses


def test_stage_full_compile(benchmark, ansatz):
    # cache=None: every round is a real compile, not a process-wide cache hit.
    simulator = KnowledgeCompilationSimulator(seed=1, cache=None)
    compiled = benchmark(lambda: simulator.compile_circuit(ansatz.circuit))
    benchmark.extra_info["ac_nodes"] = compiled.arithmetic_circuit.num_nodes


def test_stage_weight_rebinding(benchmark, compiled, ansatz):
    """Re-binding parameters for a new variational iteration (no recompilation)."""
    resolvers = [ansatz.resolver([g, b]) for g, b in [(0.2, 0.8), (0.9, 0.1), (1.2, 0.5)]]
    counter = {"i": 0}

    def rebind():
        counter["i"] = (counter["i"] + 1) % len(resolvers)
        return compiled.base_literal_values(resolvers[counter["i"]])

    benchmark(rebind)
    benchmark.extra_info["weight_variables"] = len(compiled.encoding.weight_refs)


def test_stage_single_amplitude_query(benchmark, compiled, resolver):
    bits = [0] * NUM_QUBITS
    value = benchmark(lambda: compiled.amplitude(bits, resolver=resolver))
    assert np.isfinite(abs(value))


def test_stage_upward_downward_pass(benchmark, compiled, resolver):
    """The gradient-query cost: one upward + downward differential sweep.

    Sensitivity queries pay it; the Gibbs sampler does not (see below).
    """
    literal_values, _ = compiled.base_literal_values(resolver)
    compiled.apply_evidence(literal_values, compiled.assignment_for([0] * NUM_QUBITS))
    ac = compiled.arithmetic_circuit
    benchmark(lambda: ac.evaluate_with_derivatives(literal_values))
    benchmark.extra_info["ac_edges"] = ac.num_edges


def test_stage_gibbs_transition(benchmark, compiled, resolver):
    """The per-Gibbs-step cost: one bit resampled on each of 64 chains.

    A move scores each chain's flipped neighbour with one batched upward
    pass; the current weights are cached on the ensemble.
    """
    sampler = GibbsSampler(compiled, resolver=resolver, rng=np.random.default_rng(3))
    states, weights = sampler.initial_states(64)

    def transition():
        bit_indices = sampler.rng.integers(0, len(sampler.bits), size=states.shape[0])
        return sampler._resample(states, bit_indices, weights)

    benchmark(transition)
    assert np.all(weights > 0.0)
    benchmark.extra_info["chains"] = states.shape[0]
    benchmark.extra_info["free_bits"] = len(sampler.bits)


def test_stage_gibbs_sweep(benchmark, compiled, resolver):
    """One systematic sweep over every free bit on 64 chains.

    A sweep makes one full upward pass, then scores each step by recomputing
    only the flipped bit's cone of the circuit.  ``extra_info`` records the
    cone sizes as fractions of the internal nodes.
    """
    sampler = GibbsSampler(compiled, resolver=resolver, rng=np.random.default_rng(3))
    states, _ = sampler.initial_states(64)
    weights = benchmark(lambda: sampler.sweep_batch(states))
    assert np.all(weights > 0.0)

    ac = compiled.arithmetic_circuit
    internal = np.isin(ac.node_types, (NODE_AND, NODE_OR))
    fractions = [
        internal[ac._cone(bit.variable)[3]].sum() / internal.sum() for bit in sampler.bits
    ]
    benchmark.extra_info["chains"] = states.shape[0]
    benchmark.extra_info["free_bits"] = len(sampler.bits)
    benchmark.extra_info["cone_fraction_mean"] = float(np.mean(fractions))
    benchmark.extra_info["cone_fraction_min"] = float(np.min(fractions))
    benchmark.extra_info["cone_fraction_max"] = float(np.max(fractions))


def test_stage_elision_ablation(benchmark, ansatz):
    """Compile without elision to quantify the size the optimization saves."""
    simulator = KnowledgeCompilationSimulator(seed=1, elide_internal=False, cache=None)
    compiled = benchmark(lambda: simulator.compile_circuit(ansatz.circuit))
    benchmark.extra_info["ac_nodes_without_elision"] = compiled.arithmetic_circuit.num_nodes
