"""Compiled-circuit cache correctness: topology keys, parameter rebinding,
compile pickling and parallel-harness determinism."""

import pickle

import numpy as np
import pytest

from repro.circuits import Circuit, LineQubit, ParamResolver, Symbol
from repro.circuits.gates import CNOT, H, Rx, Ry, Rz, X, ZZ
from repro.circuits.noise import amplitude_damp, depolarize
from repro.circuits.topology import canonicalize_circuit, circuit_topology_key
from repro.api.device import Device
from repro.experiments import runner
from repro.knowledge.cache import CompiledCircuitCache
from repro.knowledge.compiler import KnowledgeCompiler
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.statevector import StateVectorSimulator


def _ansatz_circuit(symbols=True, values=(0.37, 1.1)):
    """A small QAOA-style circuit, symbolic or resolved at ``values``."""
    q = LineQubit.range(3)
    g, b = Symbol("g"), Symbol("b")
    circuit = Circuit(
        [H(x) for x in q]
        + [ZZ(2 * g)(q[0], q[1]), ZZ(2 * g)(q[1], q[2])]
        + [Rx(2 * b)(x) for x in q]
    )
    if symbols:
        return circuit
    return circuit.resolve_parameters(ParamResolver({"g": values[0], "b": values[1]}))


class TestTopologyKeys:
    def test_same_topology_different_values_share_key(self):
        key_a = circuit_topology_key(_ansatz_circuit(symbols=False, values=(0.37, 1.1)))
        key_b = circuit_topology_key(_ansatz_circuit(symbols=False, values=(0.9, 0.4)))
        assert key_a == key_b

    def test_symbolic_and_resolved_share_key(self):
        assert circuit_topology_key(_ansatz_circuit(symbols=True)) == circuit_topology_key(
            _ansatz_circuit(symbols=False)
        )

    def test_symbol_names_do_not_matter(self):
        q = LineQubit.range(2)
        a = Circuit([H(q[0]), ZZ(2 * Symbol("alpha"))(q[0], q[1])])
        b = Circuit([H(q[0]), ZZ(2 * Symbol("beta"))(q[0], q[1])])
        assert circuit_topology_key(a) == circuit_topology_key(b)

    def test_different_wiring_changes_key(self):
        q = LineQubit.range(3)
        a = Circuit([H(q[0]), CNOT(q[0], q[1]), CNOT(q[1], q[2])])
        b = Circuit([H(q[0]), CNOT(q[0], q[1]), CNOT(q[0], q[2])])
        assert circuit_topology_key(a) != circuit_topology_key(b)

    def test_different_gate_class_changes_key(self):
        q = LineQubit.range(1)
        assert circuit_topology_key(Circuit([Rx(0.7)(q[0])])) != circuit_topology_key(
            Circuit([Ry(0.7)(q[0])])
        )

    def test_initial_bits_change_key(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), CNOT(q[0], q[1])])
        assert circuit_topology_key(circuit) != circuit_topology_key(circuit, initial_bits=[1, 0])

    def test_noise_strength_changes_key(self):
        # Noise values are baked into the compiled weights (not lifted), so
        # different strengths must not share a compile.
        q = LineQubit.range(2)
        base = Circuit([H(q[0]), CNOT(q[0], q[1])])
        a = base.with_noise(lambda: depolarize(0.005))
        b = base.with_noise(lambda: depolarize(0.01))
        assert circuit_topology_key(a) != circuit_topology_key(b)
        assert circuit_topology_key(a) == circuit_topology_key(
            base.with_noise(lambda: depolarize(0.005))
        )

    def test_degenerate_angle_not_lifted(self):
        # Ry(0) is the identity: compiled concretely it forces the idle bit,
        # so it must neither be lifted nor share a key with a generic angle.
        q = LineQubit.range(1)
        degenerate = canonicalize_circuit(Circuit([Ry(0.0)(q[0])]))
        generic = canonicalize_circuit(Circuit([Ry(0.7)(q[0])]))
        assert not degenerate.bindings
        assert len(generic.bindings) == 1
        assert degenerate.topology_key != generic.topology_key

    def test_generic_monomial_angle_is_lifted(self):
        q = LineQubit.range(1)
        assert circuit_topology_key(Circuit([Rz(0.3)(q[0])])) == circuit_topology_key(
            Circuit([Rz(1.9)(q[0])])
        )

    def test_canonical_bind_translates_expressions(self):
        canonical = canonicalize_circuit(_ansatz_circuit(symbols=True))
        assert canonical.is_rewritten
        bound = canonical.bind(ParamResolver({"g": 0.5, "b": 0.25}))
        values = bound.as_dict()
        # ZZ angles are 2*g, Rx angles are 2*b; canonical slots in order.
        assert [values[name] for name, _ in canonical.bindings] == [1.0, 1.0, 0.5, 0.5, 0.5]
        # The caller's own symbols pass through for non-rewritten uses.
        assert values["g"] == 0.5 and values["b"] == 0.25
        with pytest.raises(ValueError):
            canonical.bind(None)  # symbolic originals need a resolver

    def test_canonical_bind_concrete_needs_no_resolver(self):
        canonical = canonicalize_circuit(_ansatz_circuit(symbols=False, values=(0.3, 0.4)))
        bound = canonical.bind(None)
        assert len(bound.as_dict()) == len(canonical.bindings)
        unrewritten = canonicalize_circuit(Circuit([H(q) for q in LineQubit.range(2)]))
        assert not unrewritten.is_rewritten
        assert unrewritten.bind(None) is None


class TestCacheRebinding:
    def test_cache_hit_rebinding_matches_fresh_compile(self):
        cache = CompiledCircuitCache()
        cached_sim = KnowledgeCompilationSimulator(seed=0, cache=cache)
        fresh_sim = KnowledgeCompilationSimulator(seed=0, cache=None)

        first = _ansatz_circuit(symbols=False, values=(0.37, 1.1))
        second = _ansatz_circuit(symbols=False, values=(0.9, 0.4))
        cached_sim.compile_circuit(first)
        assert cache.stats.stores == 1

        compiled_second = cached_sim.compile_circuit(second)
        assert cache.stats.memory_hits == 1
        assert cache.stats.stores == 1  # no recompilation

        expected = fresh_sim.compile_circuit(second).probabilities()
        assert np.max(np.abs(compiled_second.probabilities() - expected)) < 1e-12
        reference = np.abs(StateVectorSimulator().simulate(second).state_vector) ** 2
        assert np.max(np.abs(compiled_second.probabilities() - reference)) < 1e-10

    def test_symbolic_resolver_on_cached_template(self):
        cache = CompiledCircuitCache()
        simulator = KnowledgeCompilationSimulator(seed=0, cache=cache)
        # Prime the cache with a resolved instance, then query symbolically.
        simulator.compile_circuit(_ansatz_circuit(symbols=False))
        symbolic = simulator.compile_circuit(_ansatz_circuit(symbols=True))
        assert cache.stats.memory_hits == 1
        resolver = ParamResolver({"g": 0.61, "b": 0.23})
        reference = (
            np.abs(
                StateVectorSimulator()
                .simulate(_ansatz_circuit(symbols=True).resolve_parameters(resolver))
                .state_vector
            )
            ** 2
        )
        assert np.max(np.abs(symbolic.probabilities(resolver) - reference)) < 1e-10

    def test_different_topology_misses(self):
        cache = CompiledCircuitCache()
        simulator = KnowledgeCompilationSimulator(seed=0, cache=cache)
        q = LineQubit.range(2)
        simulator.compile_circuit(Circuit([H(q[0]), CNOT(q[0], q[1])]))
        simulator.compile_circuit(Circuit([H(q[0]), CNOT(q[0], q[1]), X(q[0])]))
        assert cache.stats.memory_hits == 0
        assert cache.stats.stores == 2

    def test_order_method_and_elision_partition_the_cache(self):
        cache = CompiledCircuitCache()
        circuit = _ansatz_circuit(symbols=False)
        KnowledgeCompilationSimulator(order_method="hypergraph", cache=cache).compile_circuit(circuit)
        KnowledgeCompilationSimulator(order_method="min_fill", cache=cache).compile_circuit(circuit)
        simulator = KnowledgeCompilationSimulator(order_method="hypergraph", cache=cache)
        simulator.compile_circuit(circuit, elide_internal=False)
        assert cache.stats.stores == 3
        assert cache.stats.memory_hits == 0

    def test_sampling_through_cached_view(self):
        cache = CompiledCircuitCache()
        simulator = KnowledgeCompilationSimulator(seed=3, cache=cache)
        simulator.compile_circuit(_ansatz_circuit(symbols=False, values=(0.3, 0.8)))
        second = _ansatz_circuit(symbols=False, values=(0.7, 0.2))
        compiled = simulator.compile_circuit(second)
        counts = simulator.sample(compiled, 400, seed=9).bitstring_counts()
        assert sum(counts.values()) == 400
        probabilities = np.abs(StateVectorSimulator().simulate(second).state_vector) ** 2
        empirical = np.zeros(8)
        for bits, count in counts.items():
            empirical[int(bits, 2)] = count / 400.0
        assert np.abs(empirical - probabilities).sum() < 0.35  # loose TVD sanity bound


class TestMemoryCache:
    def test_lru_eviction_keeps_bound(self):
        cache = CompiledCircuitCache(max_entries=2)
        simulator = KnowledgeCompilationSimulator(cache=cache)
        q = LineQubit.range(1)
        for depth in range(1, 5):
            simulator.compile_circuit(Circuit([H(q[0])] * depth))
        assert len(cache) == 2


NOISE = {
    "ideal": None,
    "depolarizing": lambda: depolarize(0.005),
    "amplitude_damping": lambda: amplitude_damp(0.05),
}


class TestCompiledCircuitPickle:
    """A compile survives a pickle round trip bit for bit (pooled tasks ship it)."""

    @staticmethod
    def _compiles(noise):
        """(master, its canonical resolver, rebound view) for one noise model."""
        q = LineQubit.range(2)

        def circuit(g, b):
            built = Circuit([H(q[0]), ZZ(g)(q[0], q[1]), Rx(b)(q[1])])
            return built if noise is None else built.with_noise(noise)

        first, second = circuit(0.37, 1.1), circuit(0.9, 0.4)
        cache = CompiledCircuitCache()
        simulator = KnowledgeCompilationSimulator(cache=cache)
        simulator.compile_circuit(first)
        (master,) = cache._entries.values()
        view = simulator.compile_circuit(second)
        assert cache.stats.memory_hits == 1
        return master, canonicalize_circuit(first).bind(None), view

    @pytest.mark.parametrize("noise", sorted(NOISE))
    @pytest.mark.parametrize("which", ["master", "view"])
    def test_round_trip_is_bit_identical(self, noise, which):
        master, master_resolver, view = self._compiles(NOISE[noise])
        compiled, resolver = (master, master_resolver) if which == "master" else (view, None)
        restored = pickle.loads(pickle.dumps(compiled))

        assert np.array_equal(restored.probabilities(resolver), compiled.probabilities(resolver))
        bits = compiled._all_bitstrings()
        branches = None
        if compiled.noise_variables:
            branches = np.zeros((1, len(compiled.noise_variables)), dtype=np.int64)
        assert np.array_equal(
            restored.amplitudes(bits, branches, resolver),
            compiled.amplitudes(bits, branches, resolver),
        )
        simulator = KnowledgeCompilationSimulator()
        expected = simulator.sample(compiled, 300, resolver=resolver, seed=5)
        actual = simulator.sample(restored, 300, resolver=resolver, seed=5)
        assert actual.bitstring_counts() == expected.bitstring_counts()


KC = "knowledge_compilation"


def _kc_device(backend=KC, **simulator_options):
    """A sweep device over one knowledge-compilation simulator with a fresh cache."""
    simulator = KnowledgeCompilationSimulator(cache=CompiledCircuitCache(), **simulator_options)
    return Device(backend, fallback=KC, noisy_fallback=KC, instances={KC: simulator})


def _points(g_values, b_values):
    return [ParamResolver({"g": g, "b": b}) for g, b in zip(g_values, b_values)]


@pytest.fixture
def compile_calls(monkeypatch):
    """The list of knowledge compiles performed while the test runs."""
    calls = []
    original = KnowledgeCompiler.compile

    def counting_compile(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(KnowledgeCompiler, "compile", counting_compile)
    return calls


class TestSweepEngine:
    def test_sweep_matches_per_point_state_vectors(self):
        circuit = _ansatz_circuit(symbols=True)
        points = _points(np.linspace(0.1, 1.0, 5), np.linspace(0.9, 0.2, 5))
        result = (
            _kc_device(seed=2)
            .run(circuit, params=points, observables=["probabilities", "state_vector"])
            .result()
        )
        for row, resolver in zip(result, points):
            resolved = circuit.resolve_parameters(resolver)
            reference = StateVectorSimulator().simulate(resolved).state_vector
            assert np.max(np.abs(row["state_vector"] - reference)) < 1e-10
            assert np.max(np.abs(row["probabilities"] - np.abs(reference) ** 2)) < 1e-10

    def test_parallel_sweep_is_deterministic(self):
        circuit = _ansatz_circuit(symbols=True)
        dev = _kc_device(seed=5)
        dev.backend_instance(KC).compile_circuit(circuit)
        points = _points(np.linspace(0.2, 1.1, 6), np.linspace(0.1, 0.8, 6))
        options = dict(
            params=points, observables=["probabilities"], repetitions=40, seed=17, sampling="gibbs"
        )
        serial = dev.run(circuit, **options).result()
        parallel = dev.run(circuit, jobs=2, **options).result()
        assert np.array_equal(serial.probabilities(), parallel.probabilities())
        assert serial.counts() == parallel.counts()

    def test_invalid_arguments(self):
        circuit = _ansatz_circuit(symbols=True)
        dev = _kc_device()
        with pytest.raises(ValueError):
            dev.run(circuit, params=[None], observables=["entanglement"])
        with pytest.raises(ValueError):
            dev.run(circuit, params=[None], observables=["expectation"])
        with pytest.raises(ValueError):
            dev.run(circuit, params=[None], observables=["samples"])


class TestSweepCliffordDispatch:
    """Under "auto", Clifford points run on the tableau and the compile is lazy."""

    def test_mixed_grid_matches_dense_reference(self, compile_calls):
        circuit = _ansatz_circuit(symbols=True)
        points = _points([0.0, np.pi / 2, 0.37, np.pi], [np.pi / 2, 0.0, 0.81, np.pi / 2])
        result = (
            _kc_device("auto", seed=2)
            .run(circuit, params=points, observables=["probabilities"])
            .result()
        )
        assert len(compile_calls) == 1  # the generic point forced exactly one compile
        assert result.backends() == ["stabilizer", "stabilizer", KC, "stabilizer"]
        for row, resolver in zip(result, points):
            resolved = circuit.resolve_parameters(resolver)
            reference = StateVectorSimulator().simulate(resolved).probabilities()
            assert np.max(np.abs(row["probabilities"] - reference)) < 1e-9

    def test_all_clifford_sweep_never_compiles(self, compile_calls):
        points = _points([0.0, np.pi], [np.pi / 2, 3 * np.pi / 2])
        result = (
            _kc_device("auto", seed=2)
            .run(
                _ansatz_circuit(symbols=True),
                params=points,
                observables=["probabilities"],
                repetitions=20,
                seed=3,
                sampling="gibbs",
            )
            .result()
        )
        assert compile_calls == []
        assert result.backends() == ["stabilizer", "stabilizer"]

    def test_parallel_auto_dispatch_matches_serial(self):
        circuit = _ansatz_circuit(symbols=True)
        options = dict(
            params=_points([0.0, 0.4, np.pi / 2, 1.1], [np.pi, 0.3, 0.0, 0.9]),
            observables=["probabilities"],
            repetitions=30,
            seed=11,
            sampling="gibbs",
        )
        serial = _kc_device("auto", seed=2).run(circuit, **options).result()
        parallel = _kc_device("auto", seed=2).run(circuit, jobs=2, **options).result()
        assert np.array_equal(serial.probabilities(), parallel.probabilities())
        assert serial.counts() == parallel.counts()
        assert serial.backends() == parallel.backends()


def _strip_timings(results):
    """Experiment rows minus wall-clock columns (compare values, not speed)."""
    stripped = []
    for result in results:
        stripped.append(
            (
                result.name,
                [
                    {key: value for key, value in row.items() if "seconds" not in key}
                    for row in result.rows
                ],
            )
        )
    return stripped


class TestRunnerDeterminism:
    def test_parallel_runner_fixed_seeds(self):
        specs = runner.build_specs(quick=True, only=["bell_example", "figure1"])
        assert len(specs) == 2
        first = runner.run_specs(specs, jobs=2)
        second = runner.run_specs(specs, jobs=2)
        serial = runner.run_specs(specs, jobs=1)
        assert _strip_timings(first) == _strip_timings(second) == _strip_timings(serial)

    def test_build_specs_filters_and_rejects_typos(self):
        names = [spec.name for spec in runner.build_specs(quick=True)]
        assert "bell_example" in names and "ablation_orderings" in names
        with pytest.raises(ValueError):
            runner.build_specs(only=["no_such_experiment"])
