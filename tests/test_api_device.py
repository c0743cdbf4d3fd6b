"""Acceptance tests for the unified Device/Job execution API.

The tentpole contract: ``device("auto").run([...])`` on a mixed
Clifford/universal/noisy batch of >= 100 circuits

* routes every item to the backend ``select_backend`` (the HybridSimulator
  rule) chooses for it,
* compiles each distinct topology exactly once on the knowledge-compilation
  route,
* reproduces the per-class legacy backend results to 1e-10 (bit-identical
  samples, in fact, thanks to the ``seed + index`` fan-out).
"""

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
from repro.api.device import Device
from repro.densitymatrix import DensityMatrixSimulator
from repro.errors import BackendCapabilityError
from repro.knowledge.compiler import KnowledgeCompiler
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator


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


class TestAutoRoutingParity:
    def test_mixed_batch_routes_like_select_backend(self):
        batch = _mixed_batch()
        result = device("auto", seed=0).run(batch, repetitions=8, seed=0).result()
        assert len(result) == len(batch)
        expected = [select_backend(circuit, sampling=True).backend for circuit in batch]
        assert result.backends() == expected
        assert set(expected) == {"stabilizer", "state_vector"}

    def test_samples_match_legacy_backends_bit_for_bit(self):
        batch = _mixed_batch(30)
        seed = 23
        result = device("auto", seed=0).run(batch, repetitions=25, seed=seed).result()
        for index, (circuit, row) in enumerate(zip(batch, result)):
            decision = select_backend(circuit, sampling=True)
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
    def test_shared_topology_compiles_exactly_once(self, monkeypatch):
        compile_calls = []
        original = KnowledgeCompiler.compile

        def counting_compile(self, *args, **kwargs):
            compile_calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(KnowledgeCompiler, "compile", counting_compile)
        batch = [
            circuit for circuit in _mixed_batch(102) if not circuit.has_noise
        ]
        simulator = KnowledgeCompilationSimulator(seed=0, cache=None)
        # Route everything to the KC backend: cache disabled, so every
        # d-DNNF build calls KnowledgeCompiler.compile -- but grouping by
        # topology means the two distinct topologies compile exactly twice.
        dev = Device(backend="knowledge_compilation", instances={"knowledge_compilation": simulator})
        result = dev.run(batch, observables=["probabilities"]).result()
        assert len(result) == len(batch)
        assert len(compile_calls) == 2  # one Clifford skeleton + one rotation topology
        # Repeated runs on the same device reuse the per-topology memo even
        # though the simulator's own cache is disabled.
        dev.run(batch[:4], observables=["probabilities"]).result()
        assert len(compile_calls) == 2

    def test_cache_disabled_sweep_compiles_once(self, monkeypatch):
        from repro.simulator.sweep import ParameterSweep

        compile_calls = []
        original = KnowledgeCompiler.compile

        def counting_compile(self, *args, **kwargs):
            compile_calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(KnowledgeCompiler, "compile", counting_compile)
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), Rx(Symbol("a"))(q[1]), CNOT(q[0], q[1])])
        sweep = ParameterSweep(circuit, KnowledgeCompilationSimulator(seed=0, cache=None))
        sweep.run([{"a": 0.3}, {"a": 0.9}], observables=["probabilities"], repetitions=5, seed=0)
        sweep.run([{"a": 0.1}], observables=["probabilities"])
        assert sweep.has_compiled
        assert len(compile_calls) == 1

    def test_auto_sweep_cache_disabled_adopts_device_compile(self, monkeypatch):
        from repro.simulator.sweep import ParameterSweep

        compile_calls = []
        original = KnowledgeCompiler.compile

        def counting_compile(self, *args, **kwargs):
            compile_calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(KnowledgeCompiler, "compile", counting_compile)
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), Rx(Symbol("a"))(q[1]), CNOT(q[0], q[1])])
        sweep = ParameterSweep(
            circuit, KnowledgeCompilationSimulator(seed=0, cache=None), dispatch="auto"
        )
        result = sweep.run([{"a": 0.0}, {"a": 0.37}], observables=["probabilities"])
        assert result.backends() == ["stabilizer", "kc"]
        assert sweep.has_compiled
        assert len(compile_calls) == 1

    def test_sweep_result_inherited_accessors(self):
        from repro.simulator.sweep import ParameterSweep

        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), Rx(Symbol("a"))(q[1]), CNOT(q[0], q[1])])
        result = ParameterSweep(circuit, KnowledgeCompilationSimulator(seed=0)).run(
            [{"a": 0.2}, {"a": 0.8}], observables=["probabilities"], repetitions=6, seed=1
        )
        assert result.backends() == ["kc", "kc"]
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

    def test_hybrid_distinct_same_name_fallbacks_keep_their_instances(self):
        from repro import HybridSimulator

        pure = DensityMatrixSimulator(seed=1)
        noisy_backend = DensityMatrixSimulator(seed=2)
        simulator = HybridSimulator(fallback=pure, noisy_fallback=noisy_backend, seed=0)
        q = LineQubit.range(2)
        noisy = Circuit([H(q[0]), Rx(0.3)(q[1]), CNOT(q[0], q[1])]).with_noise(
            lambda: depolarize(0.1)
        )
        dev = simulator.device
        assert dev.backend_instance(dev.decide(noisy, sampling=False).backend) is noisy_backend
        assert dev.backend_instance(dev.decide(noisy, sampling=True).backend) is pure


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

    def test_hybrid_simulator_is_device_backed(self):
        from repro import HybridSimulator

        simulator = HybridSimulator(seed=0)
        assert isinstance(simulator.device, Device)
        q = LineQubit.range(2)
        simulator.sample(Circuit([H(q[0]), CNOT(q[0], q[1])]), 5)
        assert simulator.last_decision.backend == "stabilizer"
