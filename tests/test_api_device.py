"""Acceptance tests for the unified Device/Job execution API.

The tentpole contract: ``device("auto").run([...])`` on a mixed
Clifford/universal/noisy batch of >= 100 circuits

* routes every item to the backend ``select_backend`` chooses for it,
* compiles each distinct topology exactly once on the knowledge-compilation
  route,
* reproduces the per-class legacy backend results to 1e-10 (bit-identical
  samples, in fact, thanks to the ``seed + index`` fan-out).
"""

import importlib
import os
import tracemalloc

import numpy as np
import pytest

from repro import (
    CNOT,
    Circuit,
    H,
    LineQubit,
    ParamResolver,
    Rx,
    Rz,
    StabilizerSimulator,
    StateVectorSimulator,
    Symbol,
    ZZ,
    depolarize,
    device,
    select_backend,
)
from repro.api import backend_capabilities, capability_matrix, list_backends
from repro.api.capabilities import capability_violation
from repro.api.device import Device
from repro.circuits.clifford import classify_circuit
from repro.circuits.passes import resolve_pipeline
from repro.densitymatrix import DensityMatrixSimulator
from repro.errors import BackendCapabilityError, MemoryBudgetError
from repro.knowledge.cache import CompiledCircuitCache
from repro.knowledge.compiler import KnowledgeCompiler
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.trajectory import TrajectorySimulator
from repro.variational import QAOACircuit, VariationalLoop, random_regular_maxcut
from repro.variational.optimizer import NelderMeadOptimizer


def _mixed_batch(num_items=102):
    """>=100 circuits: Clifford, universal (shared topology), noisy Clifford."""
    q = LineQubit.range(3)
    batch = []
    for k in range(num_items):
        kind = k % 3
        if kind == 0:  # pure Clifford
            batch.append(Circuit([H(q[0]), CNOT(q[0], q[1]), CNOT(q[1], q[2])]))
        elif kind == 1:  # universal: one shared topology, varying angle
            batch.append(
                Circuit([H(q[0]), Rx(0.15 + 0.01 * k)(q[1]), CNOT(q[0], q[1])])
            )
        else:  # Clifford + Pauli noise
            batch.append(
                Circuit([H(q[0]), CNOT(q[0], q[1])]).with_noise(lambda: depolarize(0.04))
            )
    return batch


def _clifford(n=3):
    q = LineQubit.range(n)
    return Circuit([H(q[0])] + [CNOT(q[i], q[i + 1]) for i in range(n - 1)])


def _nonclifford(n=3, angle=0.3):
    q = LineQubit.range(n)
    ops = [H(q[0]), Rx(angle)(q[1])] + [CNOT(q[i], q[i + 1]) for i in range(n - 1)]
    return Circuit(ops)


@pytest.fixture
def compile_calls(monkeypatch):
    """Records every d-DNNF build in this process; a pool worker's build fails its item.

    Pooled runs persist each topology's compile for their workers, so a
    worker that reaches ``KnowledgeCompiler.compile`` recompiled needlessly.
    """
    calls = []
    original = KnowledgeCompiler.compile
    parent = os.getpid()

    def counting_compile(self, *args, **kwargs):
        if os.getpid() != parent:
            raise AssertionError("a pool worker recompiled a persisted topology")
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(KnowledgeCompiler, "compile", counting_compile)
    return calls


def _kc_device(cache):
    """A fixed knowledge-compilation device over a simulator with ``cache``."""
    simulator = KnowledgeCompilationSimulator(seed=0, cache=cache)
    return simulator, Device(
        "knowledge_compilation", instances={"knowledge_compilation": simulator}
    )


class TestAutoRoutingParity:
    def test_mixed_batch_routes_like_select_backend(self):
        batch = _mixed_batch()
        result = device("auto", seed=0).run(batch, repetitions=8, seed=0).result()
        assert len(result) == len(batch)
        expected = [select_backend(circuit).backend for circuit in batch]
        assert result.backends() == expected
        assert set(expected) == {"stabilizer", "state_vector"}

    def test_samples_match_legacy_backends_bit_for_bit(self):
        batch = _mixed_batch(30)
        seed = 23
        result = device("auto", seed=0).run(batch, repetitions=25, seed=seed).result()
        for index, (circuit, row) in enumerate(zip(batch, result)):
            decision = select_backend(circuit)
            legacy_cls = {
                "stabilizer": StabilizerSimulator,
                "state_vector": StateVectorSimulator,
            }[decision.backend]
            legacy = legacy_cls().sample(circuit, 25, seed=seed + index)
            assert row["samples"].samples == legacy.samples, f"item {index}"

    def test_probabilities_match_legacy_backends_1e10(self):
        batch = _mixed_batch(30)
        result = device("auto", seed=0).run(batch, observables=["probabilities"]).result()
        for index, (circuit, row) in enumerate(zip(batch, result)):
            if circuit.has_noise:
                reference = DensityMatrixSimulator().simulate(circuit).probabilities()
                assert row["backend"] == "density_matrix"
            elif row["backend"] == "stabilizer":
                reference = StabilizerSimulator().simulate(circuit).probabilities()
            else:
                reference = StateVectorSimulator().simulate(circuit).probabilities()
            assert np.max(np.abs(row["probabilities"] - reference)) < 1e-10, f"item {index}"


class TestTopologyGrouping:
    def test_shared_topology_compiles_exactly_once(self, compile_calls):
        batch = [
            circuit for circuit in _mixed_batch(102) if not circuit.has_noise
        ]
        # Route everything to the KC backend over a private cache: grouping
        # by topology means the two distinct topologies compile exactly
        # twice, and the cache serves every later run.
        _, dev = _kc_device(CompiledCircuitCache())
        result = dev.run(batch, observables=["probabilities"]).result()
        assert len(result) == len(batch)
        assert len(compile_calls) == 2  # one Clifford skeleton + one rotation topology
        dev.run(batch[:4], observables=["probabilities"]).result()
        assert len(compile_calls) == 2

    def test_cache_disabled_compiles_once_per_topology_per_run(self, compile_calls):
        batch = [
            circuit for circuit in _mixed_batch(12) if not circuit.has_noise
        ]
        _, dev = _kc_device(None)
        dev.run(batch, observables=["probabilities"]).result()
        assert len(compile_calls) == 2
        # cache=None keeps no memo across runs: every run compiles again.
        dev.run(batch, observables=["probabilities"]).result()
        assert len(compile_calls) == 4

    @pytest.mark.parametrize("runs", [1, 2, 3])
    def test_cache_disabled_recompiles_on_every_run(self, runs, compile_calls):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), Rx(Symbol("a"))(q[1]), CNOT(q[0], q[1])])
        _, dev = _kc_device(None)
        points = [{"a": 0.1}, {"a": 0.4}, {"a": 0.7}]
        first = dev.run(circuit, params=points, observables=["probabilities"]).result()
        for _ in range(runs - 1):
            again = dev.run(circuit, params=points, observables=["probabilities"]).result()
            assert np.array_equal(again.probabilities(), first.probabilities())
        # One compile per run for the shared topology, none per point.
        assert len(compile_calls) == runs

    def test_private_cache_compiles_once_across_runs_and_pools(self, compile_calls):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), Rx(Symbol("a"))(q[1]), CNOT(q[0], q[1])])
        _, dev = _kc_device(CompiledCircuitCache())
        points = [{"a": 0.2}, {"a": 0.5}, {"a": 0.8}]
        options = dict(params=points, observables=["probabilities"], repetitions=8, seed=3)
        serial = dev.run(circuit, **options).result()
        dev.run(circuit, params=[{"a": 0.1}], observables=["probabilities"]).result()
        pooled = dev.run(circuit, jobs=2, **options).result()
        assert len(compile_calls) == 1
        assert np.array_equal(serial.probabilities(), pooled.probabilities())
        assert serial.counts() == pooled.counts()

    def test_private_cache_sweep_compiles_once(self, compile_calls):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), Rx(Symbol("a"))(q[1]), CNOT(q[0], q[1])])
        simulator, dev = _kc_device(CompiledCircuitCache())
        simulator.compile_circuit(circuit)
        dev.run(
            circuit,
            params=[{"a": 0.3}, {"a": 0.9}],
            observables=["probabilities"],
            repetitions=5,
            seed=0,
            sampling="gibbs",
        ).result()
        dev.run(circuit, params=[{"a": 0.1}], observables=["probabilities"]).result()
        assert len(compile_calls) == 1

    def test_auto_sweep_private_cache_compiles_once(self, compile_calls):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), Rx(Symbol("a"))(q[1]), CNOT(q[0], q[1])])
        dev = Device(
            "auto",
            fallback="knowledge_compilation",
            noisy_fallback="knowledge_compilation",
            instances={
                "knowledge_compilation": KnowledgeCompilationSimulator(
                    seed=0, cache=CompiledCircuitCache()
                )
            },
        )
        result = dev.run(
            circuit, params=[{"a": 0.0}, {"a": 0.37}], observables=["probabilities"]
        ).result()
        assert result.backends() == ["stabilizer", "knowledge_compilation"]
        assert len(compile_calls) == 1
        dev.run(circuit, params=[{"a": 0.9}], observables=["probabilities"]).result()
        assert len(compile_calls) == 1

    def test_sweep_result_accessors(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), Rx(Symbol("a"))(q[1]), CNOT(q[0], q[1])])
        dev = Device(
            "knowledge_compilation",
            instances={"knowledge_compilation": KnowledgeCompilationSimulator(seed=0)},
        )
        result = dev.run(
            circuit,
            params=[{"a": 0.2}, {"a": 0.8}],
            observables=["probabilities"],
            repetitions=6,
            seed=1,
            sampling="gibbs",
        ).result()
        assert result.backends() == ["knowledge_compilation", "knowledge_compilation"]
        assert len(result.sample_results()) == 2
        assert all(len(samples) == 6 for samples in result.sample_results())

    def test_sweep_spec_compiles_once_and_matches_dense(self):
        q = LineQubit.range(4)
        theta, phi = Symbol("theta"), Symbol("phi")
        ansatz = Circuit(
            [H(qq) for qq in q]
            + [ZZ(theta)(q[0], q[1]), ZZ(theta)(q[2], q[3])]
            + [Rx(phi)(qq) for qq in q]
        )
        points = [{"theta": 0.1 * k + 0.05, "phi": 0.3 - 0.02 * k} for k in range(12)]
        result = (
            device("kc", seed=0)
            .run(ansatz, params=points, observables=["probabilities"])
            .result()
        )
        for row, point in zip(result, points):
            resolved = ansatz.resolve_parameters(ParamResolver(point))
            reference = StateVectorSimulator().simulate(resolved).probabilities()
            assert np.max(np.abs(row["probabilities"] - reference)) < 1e-10


    def test_plan_canonicalizes_only_knowledge_compilation_items(self, monkeypatch):
        device_module = importlib.import_module("repro.api.device")

        q = LineQubit.range(3)
        cliffords = [_clifford(), _clifford()]
        theta = Symbol("theta")
        ansatz = Circuit([H(q[0]), Rx(theta)(q[1]), CNOT(q[0], q[1]), Rz(theta)(q[2])])
        batch = [cliffords[0], ansatz, cliffords[1], ansatz, cliffords[0]]
        params = [None, {"theta": 0.3}, None, {"theta": 0.7}, None]
        kwargs = dict(observables=["samples", "probabilities"], repetitions=16, seed=4)
        # Reference rows from per-backend devices, with the same item seeds.
        kc_rows = device("knowledge_compilation", seed=0).run(batch, params, **kwargs).result()

        canonicalized = []
        original = device_module.canonicalize_circuit

        def counting(circuit, **options):
            canonicalized.append(circuit)
            return original(circuit, **options)

        plans = []
        plan = Device._plan

        def recording_plan(self, *args):
            plans.append(plan(self, *args))
            return plans[-1]

        monkeypatch.setattr(device_module, "canonicalize_circuit", counting)
        monkeypatch.setattr(Device, "_plan", recording_plan)
        result = device("auto", fallback="knowledge_compilation", seed=0).run(
            batch, params, **kwargs
        ).result()
        assert canonicalized and all(circuit is ansatz for circuit in canonicalized)
        (groups, _), = plans
        stabilizer = [group for group in groups if group.backend == "stabilizer"]
        assert [group.circuits for group in stabilizer] == [[cliffords[0]], [cliffords[1]]]
        assert all(group.topology is None for group in stabilizer)
        (kc,) = [group for group in groups if group.backend == "knowledge_compilation"]
        assert kc.topology is not None and [item[0] for item in kc.items] == [1, 3]
        assert result.backends() == [
            "stabilizer", "knowledge_compilation", "stabilizer", "knowledge_compilation",
            "stabilizer",
        ]
        for index, row in enumerate(result):
            if params[index] is None:
                legacy = StabilizerSimulator().simulate(batch[index])
                sampled = legacy.sample(16, np.random.default_rng(4 + index)).samples
                assert row["samples"].samples == sampled
                np.testing.assert_array_equal(row["probabilities"], legacy.probabilities())
            else:
                assert row["samples"].samples == kc_rows[index]["samples"].samples
                np.testing.assert_array_equal(row["probabilities"], kc_rows[index]["probabilities"])


class TestVariationalLoop:
    def test_dense_backend_samples_the_resolved_circuit(self):
        ansatz = QAOACircuit(random_regular_maxcut(4, seed=3), iterations=1)
        seed, shots = 11, 32
        loop = VariationalLoop(
            ansatz,
            StateVectorSimulator(seed=5),
            samples_per_evaluation=shots,
            optimizer=NelderMeadOptimizer(max_iterations=3),
            seed=seed,
        )
        run = loop.run(initial_parameters=np.array([0.4, 0.9]))
        # Evaluation k samples the circuit resolved at its parameters with
        # seed + k; the best point is re-sampled last.
        best = ansatz.circuit.resolve_parameters(ansatz.resolver(list(run.best_parameters)))
        reference = StateVectorSimulator(seed=5).sample(
            best, shots, seed=seed + run.num_circuit_executions
        )
        assert run.best_samples.samples == reference.samples
        first = ansatz.circuit.resolve_parameters(ansatz.resolver([0.4, 0.9]))
        expected = ansatz.objective_from_samples(
            StateVectorSimulator(seed=5).sample(first, shots, seed=seed + 1)
        )
        assert run.objective_trace[0] == expected


    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "make_simulator",
        [lambda: DensityMatrixSimulator(seed=5), lambda: TrajectorySimulator(seed=5)],
        ids=["density_matrix", "trajectory"],
    )
    def test_backend_samples_match_direct_sampling(self, make_simulator, seed):
        ansatz = QAOACircuit(random_regular_maxcut(4, seed=3), iterations=1)
        shots = 24
        loop = VariationalLoop(
            ansatz,
            make_simulator(),
            samples_per_evaluation=shots,
            optimizer=NelderMeadOptimizer(max_iterations=2),
            seed=seed,
        )
        run = loop.run(initial_parameters=np.array([0.3, 0.6]))
        best = ansatz.circuit.resolve_parameters(ansatz.resolver(list(run.best_parameters)))
        reference = make_simulator().sample(
            best, shots, seed=seed + run.num_circuit_executions
        )
        assert run.best_samples.samples == reference.samples
        assert len(run.objective_trace) == run.num_circuit_executions - 1

    def test_knowledge_compilation_compiles_once_and_samples_the_compile(self, compile_calls):
        ansatz = QAOACircuit(random_regular_maxcut(4, seed=3), iterations=1)
        seed, shots = 4, 24
        simulator = KnowledgeCompilationSimulator(seed=2, cache=CompiledCircuitCache())
        loop = VariationalLoop(
            ansatz,
            simulator,
            samples_per_evaluation=shots,
            optimizer=NelderMeadOptimizer(max_iterations=3),
            seed=seed,
        )
        run = loop.run(initial_parameters=np.array([0.3, 0.6]))
        assert len(compile_calls) == 1
        compiled = simulator.compile_circuit(ansatz.circuit)
        reference = simulator.sample(
            compiled,
            shots,
            resolver=ansatz.resolver(list(run.best_parameters)),
            seed=seed + run.num_circuit_executions,
        )
        assert run.best_samples.samples == reference.samples
        assert len(compile_calls) == 1


class TestRoutingDecision:
    """``Device.decide`` reports the route a run takes (no side channel)."""

    @pytest.mark.parametrize(
        "make_circuit",
        [
            _clifford,
            _nonclifford,
            lambda: _clifford().with_noise(lambda: depolarize(0.03)),
        ],
        ids=["clifford", "nonclifford", "noisy_clifford"],
    )
    def test_decide_names_the_backend_a_run_uses(self, make_circuit):
        circuit = make_circuit()
        dev = device("auto", seed=0)
        decision = dev.decide(circuit, repetitions=16)
        row = dev.run(circuit, repetitions=16).result().rows[0]
        assert row["backend"] == decision.backend
        assert row["reason"] == decision.reason

    def test_pipeline_stats_describe_an_optimized_run(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), Rz(0.4)(q[0]), Rz(0.5)(q[0]), CNOT(q[0], q[1]), Rx(0.3)(q[1])])
        rewrite = resolve_pipeline("auto").run(circuit)
        assert rewrite.stats.removed == 1
        dev = device("auto", seed=0)
        optimized = dev.run(circuit, observables=["probabilities"], optimize="auto").result()
        direct = dev.run(rewrite.circuit, observables=["probabilities"]).result()
        np.testing.assert_allclose(
            optimized.probabilities(), direct.probabilities(), rtol=0, atol=1e-12
        )


class TestCapabilityRegistry:
    def test_every_backend_declares_capabilities(self):
        names = list_backends()
        assert {
            "state_vector",
            "density_matrix",
            "tensor_network",
            "trajectory",
            "stabilizer",
            "knowledge_compilation",
        } <= set(names)
        matrix = capability_matrix()
        assert [row["backend"] for row in matrix] == names

    def test_aliases_resolve(self):
        assert backend_capabilities("kc").name == "knowledge_compilation"
        assert backend_capabilities("sv").name == "state_vector"

    def test_unknown_backend_is_typed_error(self):
        with pytest.raises(BackendCapabilityError, match="unknown backend"):
            device("qpu")

    def test_capability_violations_raise_before_running(self):
        q = LineQubit.range(2)
        noisy = Circuit([H(q[0]), CNOT(q[0], q[1])]).with_noise(lambda: depolarize(0.1))
        with pytest.raises(BackendCapabilityError, match="ideal circuits only"):
            device("tensor_network").run(noisy, repetitions=10)
        with pytest.raises(BackendCapabilityError, match="mixed-state"):
            device("state_vector").run(noisy, observables=["probabilities"])
        with pytest.raises(BackendCapabilityError, match="no state vector"):
            device("density_matrix").run(noisy, observables=["state_vector"])

    def test_one_predicate_names_the_first_violated_limit(self):
        from repro.api.capabilities import capability_violation

        kc = backend_capabilities("kc")
        assert capability_violation(kc, 3, noisy=True, observables=("samples",)) is None
        assert "capped at" in capability_violation(kc, 10_000, noisy=True)
        stabilizer = backend_capabilities("stabilizer")
        # Device validation does not classify circuits (clifford unknown):
        # a noisy Pauli sample passes, a noisy distribution does not.
        assert capability_violation(stabilizer, 5, True, ("samples",)) is None
        assert "mixed-state" in capability_violation(stabilizer, 5, True, ("probabilities",))
        # Routing knows the classification and filters non-Clifford work.
        assert "Clifford" in capability_violation(stabilizer, 5, False, (), clifford=False)
        budget = capability_violation(
            backend_capabilities("density_matrix"), 4, False, memory_budget=16
        )
        assert "memory budget" in budget

    def test_fixed_device_reports_capabilities(self):
        caps = device("stabilizer").capabilities()
        assert caps.clifford_only and caps.max_qubits is None

    def test_stabilizer_noisy_dense_observables_fail_fast(self):
        q = LineQubit.range(2)
        noisy = Circuit([H(q[0]), CNOT(q[0], q[1])]).with_noise(lambda: depolarize(0.1))
        with pytest.raises(BackendCapabilityError, match="mixed-state"):
            device("stabilizer").run(noisy, observables=["probabilities"])
        with pytest.raises(BackendCapabilityError, match="mixed-state"):
            device("stabilizer").run(noisy, observables=["probabilities"], repetitions=10)


class TestRunSurface:
    def test_single_circuit_and_list_and_sweep_spec(self):
        q = LineQubit.range(2)
        bell = Circuit([H(q[0]), CNOT(q[0], q[1])])
        rot = Circuit([Rx(Symbol("a"))(q[0]), CNOT(q[0], q[1])])
        dev = device("auto", seed=0)
        assert len(dev.run(bell, repetitions=5, seed=0).result()) == 1
        assert len(dev.run([bell, bell], repetitions=5, seed=0).result()) == 2
        sweep = dev.run(rot, params=[{"a": 0.1}, {"a": 0.7}], repetitions=5, seed=0).result()
        assert [row["parameters"] for row in sweep] == [{"a": 0.1}, {"a": 0.7}]

    def test_argument_validation(self):
        q = LineQubit.range(2)
        bell = Circuit([H(q[0]), CNOT(q[0], q[1])])
        dev = device("auto")
        with pytest.raises(ValueError, match="unknown observables"):
            dev.run(bell, observables=["entanglement"])
        with pytest.raises(ValueError, match="repetitions"):
            dev.run(bell, observables=["samples"])
        with pytest.raises(ValueError, match="objective"):
            dev.run(bell, observables=["expectation"])
        with pytest.raises(ValueError, match="params length"):
            dev.run([bell, bell], params=[None])
        with pytest.raises(ValueError, match="at least one circuit"):
            dev.run([])

    def test_expectation_observable(self):
        q = LineQubit.range(2)
        bell = Circuit([H(q[0]), CNOT(q[0], q[1])])
        result = (
            device("auto")
            .run(bell, observables=["expectation"], objective=lambda p: float(p[0]))
            .result()
        )
        assert result.expectations()[0] == pytest.approx(0.5)

    def test_exact_sampling_matches_distribution(self):
        q = LineQubit.range(2)
        rot = Circuit([Rx(0.7)(q[0]), CNOT(q[0], q[1])])
        result = (
            device("kc", seed=0)
            .run(rot, repetitions=4000, seed=7, sampling="exact", observables=["probabilities", "samples"])
            .result()
        )
        empirical = result.sample_results()[0].empirical_distribution()
        assert np.max(np.abs(empirical - result.probabilities()[0])) < 0.05

    def test_single_item_sample_routes_clifford_to_stabilizer(self):
        dev = device("auto", seed=0)
        q = LineQubit.range(2)
        bell = Circuit([H(q[0]), CNOT(q[0], q[1])])
        assert len(dev.sample(bell, 5)) == 5
        assert dev.decide(bell, repetitions=5).backend == "stabilizer"


class TestCapableFallback:
    def test_incapable_fallback_is_substituted(self):
        # 20 noisy non-Clifford qubits: the 13-qubit density matrix cannot
        # serve the item; the old router would have dispatched it anyway.
        noisy = _nonclifford(20).with_noise(lambda: depolarize(0.01))
        decision = select_backend(noisy, fallback="density_matrix")
        assert decision.backend == "state_vector"
        assert "cannot serve this item" in decision.reason

    def test_simulate_route_substitutes_unravelling_backend(self):
        # 20 noisy qubits overflow the 13-qubit density matrix; the
        # simulate route (no observables) substitutes the state vector,
        # which serves noisy simulate by stochastic unravelling (mixed-state
        # output is required only for probability/expectation observables).
        noisy = _nonclifford(20).with_noise(lambda: depolarize(0.01))
        decision = select_backend(noisy, observables=(), fallback="density_matrix")
        assert decision.backend == "state_vector"

    def test_impossible_item_raises_typed_error(self):
        noisy = _nonclifford(40).with_noise(lambda: depolarize(0.01))
        with pytest.raises(BackendCapabilityError):
            select_backend(noisy)

    def test_unregistered_fallback_is_preserved(self):
        # Attached-instance keys (Device instances=...) bypass capability checks:
        # the caller vouches for them.
        decision = select_backend(_nonclifford(4), fallback="state_vector#custom")
        assert decision.backend == "state_vector#custom"

    @pytest.mark.parametrize("circuit_qubits", [14, 2], ids=["14-qubit", "2-over-14-order"])
    def test_substitution_uses_the_run_observables_and_width(self, circuit_qubits):
        # The 13-qubit density matrix cannot serve a 14-wide item; the state
        # vector cannot serve noisy probabilities.  Substitution must judge
        # both by what the item records at the width it runs with.
        noisy = _nonclifford(circuit_qubits).with_noise(lambda: depolarize(0.02))
        order = sorted(noisy.all_qubits()) + [
            LineQubit(i) for i in range(circuit_qubits, 14)
        ]
        row = (
            device("auto", seed=0)
            .run(noisy, observables=["probabilities"], qubit_order=order)
            .result()
            .rows[0]
        )
        assert row["backend"] == "trajectory"
        assert "fallback 'density_matrix' cannot serve this item (14 qubits" in row["reason"]
        probabilities = row["probabilities"]
        assert probabilities.shape == (2**14,)
        assert probabilities.sum() == pytest.approx(1.0, abs=1e-10)
        # Spectator qubits (the tail of the order) never leave |0>.
        spectators = 2 ** (14 - circuit_qubits)
        assert np.all(probabilities.reshape(-1, spectators)[:, 1:] == 0.0)


class TestBatchAwareMemory:
    def test_trajectory_estimate_scales_with_batch(self):
        caps = backend_capabilities("trajectory")
        single = caps.estimated_memory_bytes(10)
        assert caps.estimated_memory_bytes(10, batch_size=64) == 64 * single
        # Chunked execution clamps the resident batch at max_batch_size.
        assert (
            caps.estimated_memory_bytes(10, batch_size=100_000)
            == caps.max_batch_size * single
        )

    def test_serial_backends_ignore_batch(self):
        caps = backend_capabilities("state_vector")
        assert caps.estimated_memory_bytes(10, batch_size=64) == (
            caps.estimated_memory_bytes(10)
        )

    def test_budget_filtering_reacts_to_repetitions(self):
        noisy = _nonclifford(10).with_noise(lambda: depolarize(0.01))
        budget = 64 * 16 * 2**10  # 64 trajectory rows at n=10
        classification = classify_circuit(noisy)

        def trajectory_violation(repetitions):
            return capability_violation(
                backend_capabilities("trajectory"),
                noisy.num_qubits,
                classification.has_noise,
                ("samples",),
                clifford=classification.clifford,
                pauli_noise=classification.pauli_noise,
                memory_budget=budget,
                batch_size=repetitions,
            )

        assert trajectory_violation(8) is None
        assert trajectory_violation(512) is not None

    def test_downgrade_path_both_directions(self):
        noisy = _nonclifford(10).with_noise(lambda: depolarize(0.01))
        budget = 64 * 16 * 2**10
        kept = select_backend(
            noisy, fallback="trajectory", repetitions=8, memory_budget=budget
        )
        downgraded = select_backend(
            noisy, fallback="density_matrix", repetitions=8, memory_budget=budget
        )
        assert kept.backend == "trajectory"
        assert downgraded.backend == "trajectory"
        assert "downgraded to trajectory" in downgraded.reason
        # 512 simultaneous trajectory rows exceed the budget: the trajectory
        # route is rejected in both roles, as the route and as the downgrade.
        for fallback in ("trajectory", "density_matrix"):
            with pytest.raises(MemoryBudgetError, match="memory budget"):
                select_backend(
                    noisy, fallback=fallback, repetitions=512, memory_budget=budget
                )


class TestTrajectoryObservables:
    def test_probabilities_skip_the_dense_density_matrix(self):
        # A 4^10 complex128 density matrix is 16 MiB; the trajectory
        # ensemble's diagonal needs only (trajectories, 2^10) states.
        noisy = _nonclifford(10).with_noise(lambda: depolarize(0.02))
        tracemalloc.start()
        try:
            row = (
                device("trajectory", seed=3)
                .run(noisy, observables=["probabilities"])
                .result()
                .rows[0]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 4**10
        # Same draws and values as the diagonal of the averaged matrix.
        reference = TrajectorySimulator(seed=3).simulate(noisy).probabilities()
        np.testing.assert_array_equal(row["probabilities"], reference)


class TestTimings:
    def test_timings_report_measured_seconds(self):
        timings = (
            device("auto", seed=3).run([_clifford(3)], repetitions=16).result().timings()
        )
        assert timings[0]["backend"] == "stabilizer"
        assert timings[0]["elapsed_seconds"] > 0
