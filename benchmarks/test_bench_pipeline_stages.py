"""Ablation benchmarks for the individual toolchain stages.

Not a paper table per se, but the per-stage costs DESIGN.md calls out:
circuit -> Bayesian network, network -> CNF, CNF -> d-DNNF, elision/smoothing,
weight re-binding, single amplitude queries, gradient passes and Gibbs moves,
plus the execution layer's circuit-rewrite (``optimize="auto"``) step and
its re-submission through the front end's exact-content memos.
These quantify where time goes and how cheap the "repeat with new parameters"
path is compared with a full recompilation — the design choice at the heart
of the paper.
"""

import time

import numpy as np
import pytest

from repro.algorithms import random_clifford_circuit
from repro.bayesnet import circuit_to_bayesnet
from repro.circuits import depolarize
from repro.circuits.passes import default_pipeline, resolve_pipeline
from repro.circuits.topology import canonicalize_circuit
from repro.cnf import encode_bayesnet
from repro.knowledge import ArithmeticCircuit, KnowledgeCompiler, cache, forget, smooth
from repro.knowledge.arithmetic_circuit import NODE_AND, NODE_OR
from repro.sampling import GibbsSampler
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.variational import QAOACircuit, VQECircuit, random_regular_maxcut, square_grid_ising

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


def test_stage_noisy_ddnnf(benchmark):
    """The d-DNNF search alone on noisy QAOA p=1 at n=5.

    The ideal ansatz above needs few decisions, and its time is mostly the
    decision order.  A noisy circuit makes hundreds of decisions, so unit
    propagation and component splitting dominate.  The order is computed
    once, outside the timed call.
    """
    noisy = QAOACircuit(random_regular_maxcut(5, seed=7), 1).circuit.with_noise(
        lambda: depolarize(0.005)
    )
    encoding = encode_bayesnet(circuit_to_bayesnet(noisy))
    compiler = KnowledgeCompiler(order_method="hypergraph")
    state_bits = [bit for bits in encoding.node_bits.values() for bit in bits]
    order = compiler.decision_order(encoding.cnf)

    def compile_once():
        _, _, stats = compiler.compile(
            encoding.cnf, variable_order=order, decision_variables=state_bits
        )
        return stats

    stats = benchmark(compile_once)
    benchmark.extra_info["cnf_clauses"] = encoding.cnf.num_clauses
    benchmark.extra_info["decisions"] = stats.decisions
    benchmark.extra_info["cache_hits"] = stats.cache_hits


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
        internal[ac._cone(variable)[3]].sum() / internal.sum() for variable in sampler.bits
    ]
    benchmark.extra_info["chains"] = states.shape[0]
    benchmark.extra_info["free_bits"] = len(sampler.bits)
    benchmark.extra_info["cone_fraction_mean"] = float(np.mean(fractions))
    benchmark.extra_info["cone_fraction_min"] = float(np.min(fractions))
    benchmark.extra_info["cone_fraction_max"] = float(np.max(fractions))


@pytest.mark.parametrize("kind", ["upward", "sweep"])
def test_stage_noisy_ac_pass(benchmark, kind):
    """The arithmetic-circuit passes of a noisy-vqa op, on 64 chains.

    Noisy QAOA p=1 at n=4 (0.5% depolarizing), as in the perf benchmark:
    ``upward`` is one 64-wide ``evaluate_batch``, ``sweep`` one
    ``sweep_batch`` (a full pass plus one cone step per free bit).
    """
    ansatz = QAOACircuit(random_regular_maxcut(4, seed=7), iterations=1)
    noisy = ansatz.circuit.with_noise(lambda: depolarize(0.005))
    compiled = KnowledgeCompilationSimulator(seed=1, cache=None).compile_circuit(noisy)
    sampler = GibbsSampler(
        compiled, resolver=ansatz.resolver([0.6, 0.4]), rng=np.random.default_rng(3)
    )
    states, _ = sampler.initial_states(64)
    ac = compiled.arithmetic_circuit
    if kind == "upward":
        literal_values, _ = sampler._bind_states(states)
        roots = benchmark(lambda: ac.evaluate_batch(literal_values))
        assert np.all(roots != 0)
    else:
        weights = benchmark(lambda: sampler.sweep_batch(states))
        assert np.all(weights > 0.0)
    benchmark.extra_info["chains"] = states.shape[0]
    benchmark.extra_info["free_bits"] = len(sampler.bits)
    benchmark.extra_info["groups"] = len(ac._groups)
    benchmark.extra_info["edges"] = ac.num_edges


def test_stage_elision_ablation(benchmark, ansatz):
    """Compile without elision to quantify the size the optimization saves."""
    simulator = KnowledgeCompilationSimulator(seed=1, elide_internal=False, cache=None)
    compiled = benchmark(lambda: simulator.compile_circuit(ansatz.circuit))
    benchmark.extra_info["ac_nodes_without_elision"] = compiled.arithmetic_circuit.num_nodes


def _api_batch_cliffords(run_seed=1):
    """The api-batch workload's eight 12-qubit, depth-12 random Clifford circuits.

    The workload draws their seeds from its parameter walk, right after the
    n=6 QAOA and VQE start points.
    """
    walk = np.random.default_rng([run_seed, 3])
    for ansatz in (
        QAOACircuit(random_regular_maxcut(6, seed=7), 1),
        VQECircuit(square_grid_ising(6, seed=7), 1),
    ):
        walk.uniform(0.2, 0.9, size=ansatz.num_parameters)
    return [random_clifford_circuit(12, 12, seed=int(s)).circuit for s in walk.integers(0, 2**31, size=8)]


def test_stage_optimize_pipeline(benchmark):
    """The default rewrite pipeline over the api-batch Clifford corpus.

    The pipeline is rebuilt per round, as ``optimize="auto"`` does per
    submission; its rule memos stay warm, as they do across submissions.
    """
    circuits = _api_batch_cliffords()
    results = benchmark(lambda: [default_pipeline().run(circuit) for circuit in circuits])
    benchmark.extra_info["circuits"] = len(circuits)
    benchmark.extra_info["operations_before"] = sum(r.stats.operations_before for r in results)
    benchmark.extra_info["operations_after"] = sum(r.stats.operations_after for r in results)
    benchmark.extra_info["rewrites"] = sum(s.rewrites for r in results for s in r.stats.passes)


def test_stage_front_end_resubmit(benchmark, monkeypatch):
    """The front end over the api-batch corpus, re-submitted.

    ``Device.run(optimize="auto")`` rewrites every distinct circuit and then
    canonicalizes the result, on every submission.  Both steps memoize by
    exact circuit content, so the timed call, a re-submission of the same
    ten circuits, is served from the memos.  ``cold_s`` is one pass after
    ``configure_default()`` emptied them, as the workload's set-up does.
    """
    monkeypatch.setattr(cache, "_default_cache", cache._default_cache)
    circuits = [
        QAOACircuit(random_regular_maxcut(6, seed=7), 1).circuit,
        VQECircuit(square_grid_ising(6, seed=7), 1).circuit,
    ] + _api_batch_cliffords()
    pipeline = resolve_pipeline("auto")

    def front_end():
        return [canonicalize_circuit(pipeline.run(circuit).circuit) for circuit in circuits]

    cache.configure_default()
    start = time.perf_counter()
    cold = front_end()
    cold_seconds = time.perf_counter() - start
    warm = benchmark(front_end)
    hits = sum(again.template is first.template for again, first in zip(warm, cold))
    assert hits == len(circuits)
    benchmark.extra_info["circuits"] = len(circuits)
    benchmark.extra_info["hits"] = hits
    benchmark.extra_info["cold_s"] = cold_seconds
