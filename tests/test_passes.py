"""Metamorphic test suite for the circuit-rewrite optimizer passes.

Every pass promises (see ``docs/compiler-passes.md``):

* purity — the input circuit object is never mutated;
* idempotence — running a pass twice equals running it once;
* monotonicity — the operation count never increases;
* semantics — unitary equivalence up to global phase (light-cone pruning:
  equality of the measured-qubit marginal instead);
* value-blindness — an optimized symbolic ansatz and its optimized resolved
  instance (at generic angles) share one ``circuit_topology_key``.

The suite checks each promise metamorphically over the seeded fuzz corpus
plus hand-built worst cases, and pins the cache-keying regression: a
rewritten circuit must re-classify and re-route from scratch (no stale
entries keyed by mutated gate objects).
"""

import itertools

import numpy as np
import pytest

from repro.circuits import (
    CNOT,
    CZ,
    Circuit,
    ControlledGate,
    H,
    LineQubit,
    MatrixGate,
    ParamResolver,
    Rx,
    Ry,
    Rz,
    S,
    SWAP,
    Symbol,
    T,
    X,
    Z,
    ZZ,
    classify_circuit,
    depolarize,
    measure,
)
from repro.circuits.clifford import CircuitClass, equal_up_to_global_phase
from repro.circuits.gates import CPhase, PhaseShift, TDG
from repro.circuits.passes import (
    CliffordPrefixPass,
    CommutationPass,
    FusionPass,
    LightConePass,
    PassPipeline,
    default_pipeline,
    optimize_circuit,
    resolve_pipeline,
    split_clifford_prefix,
)
from repro.circuits.passes.rules import commutes, removable_identity, structurally_diagonal, try_merge
from repro.circuits.topology import circuit_topology_key
from repro.api.routing import select_backend

ALL_PASSES = [LightConePass(), FusionPass(), CommutationPass(), CliffordPrefixPass()]

# Mirrors conftest.REWRITE_ALPHABETS (module-level parametrize can't reach
# the fixture); random_fuzz_circuit rejects unknown names, so drift fails
# loudly.
REWRITE_ALPHABETS = ("rotation-chains", "commuting-blocks", "clifford-prefix", "spectator")

#: (seed, num_qubits, depth) corpus reused by several invariants below.
CORPUS = [(seed, 3 + seed % 2, 4 + seed % 3) for seed in range(8)]


def _fuzz(circuit_fuzzer, seed, num_qubits, depth, alphabet):
    return circuit_fuzzer(seed, num_qubits, depth, alphabet=alphabet)


def _operations_snapshot(circuit):
    return [(id(op), op.gate, op.qubits) for op in circuit.all_operations()]


class TestPassInvariants:
    """Purity, idempotence and monotonicity, per pass, over the corpus."""

    @pytest.mark.parametrize("alphabet", REWRITE_ALPHABETS)
    @pytest.mark.parametrize("seed,num_qubits,depth", CORPUS)
    def test_purity_input_never_mutated(self, circuit_fuzzer, seed, num_qubits, depth, alphabet):
        circuit = _fuzz(circuit_fuzzer, seed, num_qubits, depth, alphabet)
        snapshot = _operations_snapshot(circuit)
        for single_pass in ALL_PASSES:
            single_pass.run(circuit)
            assert _operations_snapshot(circuit) == snapshot, single_pass.name

    @pytest.mark.parametrize("alphabet", REWRITE_ALPHABETS)
    @pytest.mark.parametrize("seed,num_qubits,depth", CORPUS)
    def test_idempotence(self, circuit_fuzzer, seed, num_qubits, depth, alphabet):
        circuit = _fuzz(circuit_fuzzer, seed, num_qubits, depth, alphabet)
        for single_pass in ALL_PASSES:
            once, stats_once = single_pass.run(circuit)
            twice, stats_twice = single_pass.run(once)
            assert stats_twice.rewrites == 0, single_pass.name
            assert twice is once, single_pass.name

    @pytest.mark.parametrize("alphabet", REWRITE_ALPHABETS)
    @pytest.mark.parametrize("seed,num_qubits,depth", CORPUS)
    def test_gate_count_never_increases(self, circuit_fuzzer, seed, num_qubits, depth, alphabet):
        circuit = _fuzz(circuit_fuzzer, seed, num_qubits, depth, alphabet)
        before = len(circuit.all_operations())
        for single_pass in ALL_PASSES:
            rewritten, _ = single_pass.run(circuit)
            assert len(rewritten.all_operations()) <= before, single_pass.name
        result = optimize_circuit(circuit)
        assert len(result.circuit.all_operations()) <= before

    def test_noop_returns_input_object(self):
        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), CNOT(q[0], q[1])])
        for single_pass in ALL_PASSES:
            rewritten, stats = single_pass.run(circuit)
            assert rewritten is circuit and stats.rewrites == 0, single_pass.name


class TestUnitaryEquivalence:
    """Rewrites preserve the unitary up to global phase (n <= 8)."""

    UNITARY_PASSES = [FusionPass(), CommutationPass(), CliffordPrefixPass()]

    @pytest.mark.parametrize(
        "alphabet", ("rotation-chains", "commuting-blocks", "clifford-prefix", "universal")
    )
    @pytest.mark.parametrize("seed,num_qubits,depth", CORPUS)
    def test_per_pass_unitary_equivalence(self, circuit_fuzzer, seed, num_qubits, depth, alphabet):
        circuit = _fuzz(circuit_fuzzer, seed, num_qubits, depth, alphabet)
        qubits = circuit.all_qubits()
        reference = circuit.unitary(qubit_order=qubits)
        for single_pass in self.UNITARY_PASSES:
            rewritten, _ = single_pass.run(circuit)
            assert equal_up_to_global_phase(
                rewritten.unitary(qubit_order=qubits), reference
            ), f"{single_pass.name} seed={seed}"

    def test_eight_qubit_pipeline_equivalence(self, circuit_fuzzer):
        circuit = _fuzz(circuit_fuzzer, 5, 8, 4, "rotation-chains")
        qubits = circuit.all_qubits()
        assert len(qubits) <= 8
        pipeline = PassPipeline([FusionPass(), CommutationPass()])
        result = pipeline.run(circuit)
        assert equal_up_to_global_phase(
            result.circuit.unitary(qubit_order=qubits), circuit.unitary(qubit_order=qubits)
        )

    def test_light_cone_preserves_measured_marginal(self):
        q = LineQubit.range(4)
        circuit = Circuit(
            [H(q[0]), CNOT(q[0], q[1]), X(q[2]), Ry(0.7)(q[3]), measure(q[0], q[1], key="m")]
        )
        rewritten, dropped = LightConePass().run(circuit)
        assert dropped.rewrites == 2  # the two spectator operations
        from repro.statevector import StateVectorSimulator

        base = StateVectorSimulator().simulate(circuit, qubit_order=q).probabilities()
        pruned = StateVectorSimulator().simulate(rewritten, qubit_order=q).probabilities()
        marginal = lambda p: p.reshape((2,) * 4).sum(axis=(2, 3)).reshape(-1)
        np.testing.assert_allclose(marginal(pruned), marginal(base), atol=1e-12)

    def test_light_cone_noop_without_measurements(self, circuit_fuzzer):
        circuit = _fuzz(circuit_fuzzer, 0, 4, 4, "universal")
        rewritten, stats = LightConePass().run(circuit)
        assert rewritten is circuit and stats.rewrites == 0


class TestPipelineOrderPermutations:
    """All orderings of the default passes converge to the same fixpoint."""

    @pytest.mark.parametrize("alphabet", REWRITE_ALPHABETS)
    @pytest.mark.parametrize("seed", (0, 3, 6))
    def test_permutations_agree(self, circuit_fuzzer, seed, alphabet):
        circuit = _fuzz(circuit_fuzzer, seed, 4, 5, alphabet)
        passes = [LightConePass(), FusionPass(), CommutationPass()]
        results = [
            PassPipeline(order).run(circuit).circuit
            for order in itertools.permutations(passes)
        ]
        reference = results[0]
        qubits = circuit.all_qubits()
        for other in results[1:]:
            assert len(other.all_operations()) == len(reference.all_operations())
            if reference.all_qubits() == qubits and not circuit.measurement_operations():
                assert equal_up_to_global_phase(
                    other.unitary(qubit_order=qubits), reference.unitary(qubit_order=qubits)
                )

    def test_pipeline_reaches_fixpoint(self, circuit_fuzzer):
        circuit = _fuzz(circuit_fuzzer, 1, 4, 6, "rotation-chains")
        result = default_pipeline().run(circuit)
        again = default_pipeline().run(result.circuit)
        assert not again.stats.changed
        assert again.circuit is result.circuit


class TestValueBlindness:
    """Optimized symbolic ansatz and optimized resolved instance share a key."""

    def _symbolic_circuit(self):
        q = LineQubit.range(3)
        a, b, c = Symbol("a"), Symbol("b"), Symbol("c")
        return Circuit(
            [
                H(q[0]),
                Rz(a)(q[0]),
                Rz(b)(q[0]),
                ZZ(2 * c)(q[0], q[1]),
                Rx(a)(q[2]),
                Rx(b)(q[2]),
                CNOT(q[1], q[2]),
            ]
        )

    @pytest.mark.parametrize(
        "values", [{"a": 0.913, "b": 1.117, "c": 0.733}, {"a": 2.41, "b": 0.17, "c": 1.9}]
    )
    def test_topology_key_shared_at_generic_angles(self, values):
        symbolic = self._symbolic_circuit()
        resolved = symbolic.resolve_parameters(ParamResolver(values))
        key_symbolic = circuit_topology_key(optimize_circuit(symbolic).circuit)
        key_resolved = circuit_topology_key(optimize_circuit(resolved).circuit)
        assert key_symbolic == key_resolved

    def test_same_rewrite_count_symbolic_and_resolved(self):
        symbolic = self._symbolic_circuit()
        resolved = symbolic.resolve_parameters(
            ParamResolver({"a": 1.31, "b": 0.57, "c": 2.03})
        )
        stats_symbolic = optimize_circuit(symbolic).stats
        stats_resolved = optimize_circuit(resolved).stats
        assert [s.rewrites for s in stats_symbolic.passes] == [
            s.rewrites for s in stats_resolved.passes
        ]

    def test_symbolic_inverse_pair_cancels_like_concrete(self):
        q = LineQubit.range(1)
        a = Symbol("a")
        symbolic = Circuit([Rz(a)(q[0]), Rz(-1.0 * a)(q[0])])
        concrete = Circuit([Rz(0.83)(q[0]), Rz(-0.83)(q[0])])
        assert len(optimize_circuit(symbolic).circuit.all_operations()) == 0
        assert len(optimize_circuit(concrete).circuit.all_operations()) == 0

    def test_generic_concrete_rotations_never_cancel_numerically(self):
        # Rz(t) . PhaseShift(-t) is the identity up to phase at ANY t, but a
        # symbolic pair can never cancel — so the concrete pair must not
        # either, or the shared topology key would split.
        q = LineQubit.range(1)
        circuit = Circuit([Rz(0.61)(q[0]), PhaseShift(-0.61)(q[0])])
        assert len(optimize_circuit(circuit).circuit.all_operations()) == 2

    def test_liftable_identity_rotation_is_kept(self):
        # Rz(2*pi) == -I numerically, but its zero/one pattern matches the
        # generic Rz so the canonicalizer lifts it; dropping it would split
        # the key between this instance and a symbolic twin.  Rz(0) and
        # Rz(4*pi) are exactly I — ones where the generic probe is generic —
        # so they are NOT liftable and the pass may drop them.
        q = LineQubit.range(1)
        kept = optimize_circuit(Circuit([Rz(2 * np.pi)(q[0])])).circuit
        assert len(kept.all_operations()) == 1
        for angle in (0.0, 4 * np.pi):
            dropped = optimize_circuit(Circuit([Rz(angle)(q[0])])).circuit
            assert len(dropped.all_operations()) == 0


class TestCliffordPrefix:
    """Prefix extraction: maximality on clean splits, exactness always."""

    def test_split_concatenation_is_equivalent(self, circuit_fuzzer):
        circuit = _fuzz(circuit_fuzzer, 2, 4, 6, "clifford-prefix")
        prefix, remainder = split_clifford_prefix(circuit)
        qubits = circuit.all_qubits()
        recombined = Circuit()
        recombined.append(prefix.all_operations() + remainder.all_operations())
        assert equal_up_to_global_phase(
            recombined.unitary(qubit_order=qubits), circuit.unitary(qubit_order=qubits)
        )

    def test_prefix_is_clifford(self, circuit_fuzzer):
        circuit = _fuzz(circuit_fuzzer, 4, 4, 6, "clifford-prefix")
        prefix, _ = split_clifford_prefix(circuit)
        if prefix.all_operations():
            assert classify_circuit(prefix).clifford

    def test_blocked_qubits_stay_blocked(self):
        q = LineQubit.range(2)
        # T blocks q0; the H(q0) behind it must not migrate into the prefix.
        circuit = Circuit([T(q[0]), H(q[0]), H(q[1])])
        prefix, remainder = split_clifford_prefix(circuit)
        assert [str(op) for op in prefix.all_operations()] == ["H(q1)"]
        assert [str(op) for op in remainder.all_operations()] == ["T(q0)", "H(q0)"]

    def test_resolver_dependent_split(self):
        q = LineQubit.range(1)
        a = Symbol("a")
        circuit = Circuit([Rz(a)(q[0])])
        prefix_unbound, _ = split_clifford_prefix(circuit)
        assert not prefix_unbound.all_operations()
        prefix_clifford, remainder = split_clifford_prefix(
            circuit, ParamResolver({"a": np.pi / 2})
        )
        assert len(prefix_clifford.all_operations()) == 1
        assert not remainder.all_operations()

    def test_noise_blocks_prefix(self):
        q = LineQubit.range(1)
        circuit = Circuit([H(q[0])])
        circuit.append(depolarize(0.1).on(q[0]))
        circuit.append(S(q[0]))
        prefix, remainder = split_clifford_prefix(circuit)
        assert len(prefix.all_operations()) == 1
        assert len(remainder.all_operations()) == 2

    def test_hybrid_prefix_wider_than_dense_tableau_state(self):
        """Regression: a 15-qubit Clifford prefix plus T gates raised ValueError.

        The tableau expands its state densely only up to
        ``DENSE_STATE_QUBITS`` = 14; ``optimize="auto"`` must still run the
        rewritten circuit on the routed backend.
        """
        from repro import device
        from repro.algorithms import random_clifford_circuit
        from repro.statevector import StateVectorSimulator

        instance = random_clifford_circuit(15, 40, seed=3)
        circuit, qubits = instance.circuit.copy(), instance.qubits
        circuit.append([T(qubit) for qubit in qubits[:4]])
        optimized = default_pipeline().run(circuit).circuit
        hybrid = device("auto").simulate(optimized, qubit_order=qubits)
        reference = StateVectorSimulator().simulate(circuit, qubit_order=qubits)
        np.testing.assert_allclose(
            hybrid.probabilities(), reference.probabilities(), rtol=0, atol=1e-10
        )


class TestRewriteRules:
    """Direct unit coverage of the shared rule layer."""

    def test_rotation_merge_is_exact_for_every_family(self):
        q = LineQubit.range(2)
        for family, qubits in (
            (Rx, (q[0],)),
            (Ry, (q[0],)),
            (Rz, (q[0],)),
            (PhaseShift, (q[0],)),
            (ZZ, (q[0], q[1])),
            (CPhase, (q[0], q[1])),
        ):
            a, b = 0.73, 1.91
            merged = try_merge(family(a)(*qubits), family(b)(*qubits))
            assert merged is not None and merged is not None
            assert equal_up_to_global_phase(
                merged.gate.unitary(None),
                family(b).unitary(None) @ family(a).unitary(None),
            ), family.__name__

    def test_symmetric_family_merges_across_qubit_swap(self):
        q = LineQubit.range(2)
        merged = try_merge(ZZ(0.3)(q[0], q[1]), ZZ(0.4)(q[1], q[0]))
        assert merged is not None
        assert merged.qubits == (q[0], q[1])
        # Non-symmetric families must not merge across a swap.
        assert try_merge(CNOT(q[0], q[1]), CNOT(q[1], q[0])) is None

    def test_controlled_rotation_merge(self):
        q = LineQubit.range(2)
        crz_a = ControlledGate(Rz(0.4))
        crz_b = ControlledGate(Rz(0.5))
        merged = try_merge(crz_a(q[0], q[1]), crz_b(q[0], q[1]))
        assert merged is not None
        assert isinstance(merged.gate, ControlledGate)
        assert equal_up_to_global_phase(
            merged.gate.unitary(None), crz_b.unitary(None) @ crz_a.unitary(None)
        )

    def test_constant_inverse_pairs_cancel(self):
        from repro.circuits.passes.rules import CANCEL

        q = LineQubit.range(2)
        assert try_merge(H(q[0]), H(q[0])) is CANCEL
        assert try_merge(T(q[0]), TDG(q[0])) is CANCEL
        assert try_merge(CNOT(q[0], q[1]), CNOT(q[0], q[1])) is CANCEL
        assert try_merge(H(q[0]), T(q[0])) is None

    def test_removable_identity_edges(self):
        q = LineQubit.range(1)
        a = Symbol("a")
        assert removable_identity(Rz(0.0)(q[0]))
        assert not removable_identity(Rz(2 * np.pi)(q[0]))  # liftable: kept
        assert not removable_identity(Rz(a)(q[0]))
        assert not removable_identity(measure(q[0], key="m"))
        assert not removable_identity(H(q[0]))

    def test_structural_diagonality(self):
        assert structurally_diagonal(Rz(0.3))
        assert structurally_diagonal(Rz(Symbol("a")))
        assert structurally_diagonal(PhaseShift(0.4))
        assert structurally_diagonal(ZZ(Symbol("b")))
        assert structurally_diagonal(CPhase(0.9))
        assert not structurally_diagonal(Rx(0.3))
        assert not structurally_diagonal(Ry(Symbol("c")))
        assert structurally_diagonal(Z) and structurally_diagonal(S) and structurally_diagonal(T)
        assert not structurally_diagonal(H)
        assert structurally_diagonal(CZ)
        assert structurally_diagonal(ControlledGate(Rz(0.2)))
        assert not structurally_diagonal(ControlledGate(Rx(0.2)))
        diagonal_matrix = MatrixGate("D", np.diag([1.0, 1j]).astype(complex))
        assert structurally_diagonal(diagonal_matrix)

    def test_commutation_rules(self):
        q = LineQubit.range(3)
        # Disjoint qubits.
        assert commutes(H(q[0]), X(q[1]))
        # Diagonal-diagonal overlap.
        assert commutes(Rz(0.3)(q[0]), ZZ(0.4)(q[0], q[1]))
        # Diagonal on CNOT control / X-family on CNOT target.
        assert commutes(T(q[0]), CNOT(q[0], q[1]))
        assert commutes(Rx(0.3)(q[1]), CNOT(q[0], q[1]))
        assert not commutes(T(q[1]), CNOT(q[0], q[1]))
        assert not commutes(Rx(0.3)(q[0]), CNOT(q[0], q[1]))
        # CNOTs sharing only a control (or only a target) commute.
        assert commutes(CNOT(q[0], q[1]), CNOT(q[0], q[2]))
        assert commutes(CNOT(q[0], q[2]), CNOT(q[1], q[2]))
        assert not commutes(CNOT(q[0], q[1]), CNOT(q[1], q[2]))
        # Constant same-tuple numeric fallback.
        assert commutes(X(q[0]), X(q[0]))
        assert not commutes(X(q[0]), Z(q[0]))
        # Measurements and noise never commute past anything on their wires.
        assert not commutes(measure(q[0], key="m"), H(q[0]))
        assert not commutes(depolarize(0.1).on(q[0]), H(q[0]))

    def test_fusion_cascades_through_holes(self):
        q = LineQubit.range(1)
        # H (Rz Rz) H : the rotations merge to Rz(0) and vanish, making the
        # two H's adjacent — they must then cancel in the same pass run.
        circuit = Circuit([H(q[0]), Rz(0.4)(q[0]), Rz(-0.4)(q[0]), H(q[0])])
        rewritten, stats = FusionPass().run(circuit)
        assert len(rewritten.all_operations()) == 0
        assert stats.rewrites >= 2

    def test_commutation_never_crosses_noise(self):
        q = LineQubit.range(1)
        circuit = Circuit([T(q[0])])
        circuit.append(depolarize(0.2).on(q[0]))
        circuit.append(TDG(q[0]))
        rewritten, stats = CommutationPass().run(circuit)
        assert stats.rewrites == 0 and rewritten is circuit


class TestRoutingAfterRewrite:
    """Regression: rewrites must re-classify and re-route with fresh keys."""

    def test_optimized_circuit_reroutes_to_stabilizer(self):
        q = LineQubit.range(2)
        circuit = Circuit([T(q[0]), CNOT(q[0], q[1]), TDG(q[0])])
        before = select_backend(circuit, fallback="state_vector")
        assert before.backend == "state_vector"
        optimized = optimize_circuit(circuit).circuit
        after = select_backend(optimized, fallback="state_vector")
        assert after.backend == "stabilizer"
        # Classification itself must flip, proving no stale memo entry was
        # reused for the rewritten gate objects.
        assert not classify_circuit(circuit).clifford
        assert classify_circuit(optimized).clifford

    def test_hybrid_reroutes_with_optimize(self):
        from repro import device

        q = LineQubit.range(2)
        circuit = Circuit([T(q[0]), CNOT(q[0], q[1]), TDG(q[0])])
        optimized = default_pipeline().run(circuit).circuit
        dev = device("auto", seed=0)
        dev.simulate(circuit)
        assert dev.decide(circuit, sampling=False).backend == "state_vector"
        dev.simulate(optimized)
        assert dev.decide(optimized, sampling=False).backend == "stabilizer"

    def test_device_routing_changes_with_optimize(self):
        import repro

        q = LineQubit.range(2)
        circuit = Circuit([T(q[0]), CNOT(q[0], q[1]), TDG(q[0])])
        device = repro.device("auto")
        plain = device.run([circuit], repetitions=64, seed=1).result()
        assert plain.rows[0]["backend"] == "state_vector"
        optimized = device.run([circuit], repetitions=64, seed=1, optimize="auto").result()
        assert optimized.rows[0]["backend"] == "stabilizer"

    def test_value_keyed_caches_cannot_go_stale(self):
        # Two equal-by-value MatrixGate instances must agree; two
        # different-by-value instances must not collide — i.e. the
        # diagonality memo keys by matrix content, never object identity.
        diagonal = MatrixGate("A", np.diag([1.0, -1.0]).astype(complex))
        also_diagonal = MatrixGate("B", np.diag([1.0, -1.0]).astype(complex))
        dense = MatrixGate("C", np.array([[0, 1], [1, 0]], dtype=complex))
        assert structurally_diagonal(diagonal)
        assert structurally_diagonal(also_diagonal)
        assert not structurally_diagonal(dense)


def _random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _full_scan_partner(out, wires, current):
    """Reference commutation partner search: every earlier output slot, latest first."""
    from repro.circuits.noise import NoiseOperation

    for index in range(len(out) - 1, -1, -1):
        earlier = out[index]
        if earlier is None or not set(earlier.qubits).intersection(current.qubits):
            continue
        if earlier.is_measurement or isinstance(earlier, NoiseOperation):
            return None
        if try_merge(earlier, current) is not None:
            return index
        if commutes(earlier, current):
            continue
        return None
    return None


class TestRewriteCost:
    """The shared-qubit partner scan and the value-keyed memos change no decision."""

    @pytest.mark.parametrize("alphabet", REWRITE_ALPHABETS + ("clifford+t", "pauli-noise"))
    def test_shared_qubit_scan_matches_full_scan(self, circuit_fuzzer, alphabet):
        from repro.circuits.passes.fusion import run_peephole

        for seed in range(6):
            circuit = _fuzz(circuit_fuzzer, seed, 4, 8, alphabet)
            rewritten, actions = CommutationPass().rewrite(circuit)
            reference, reference_actions = run_peephole(circuit, _full_scan_partner)
            assert actions == reference_actions
            assert [repr(op) for op in rewritten.all_operations()] == [
                repr(op) for op in reference.all_operations()
            ]

    def _random_matrix_circuit(self, seed):
        rng = np.random.default_rng(seed)
        q = LineQubit.range(3)
        circuit = Circuit()
        for index in range(60):
            one = MatrixGate(f"U{index}", _random_unitary(rng, 2))
            two = MatrixGate(f"V{index}", _random_unitary(rng, 4))
            diagonal = MatrixGate(f"D{index}", np.diag(np.exp(1j * rng.uniform(0, 6, size=2))))
            a, b = (int(i) for i in rng.choice(3, size=2, replace=False))
            circuit.append([one(q[a]), diagonal(q[a]), two(q[a], q[b]), CNOT(q[a], q[b]), diagonal(q[a])])
        return circuit

    def test_memos_stay_within_their_bounds(self, monkeypatch):
        from repro.circuits import clifford
        from repro.circuits.passes import rules

        circuit = self._random_matrix_circuit(0)
        reference = [repr(op) for op in default_pipeline().run(circuit).circuit.all_operations()]
        monkeypatch.setattr(rules, "_FACTS_MAX", 16)
        monkeypatch.setattr(clifford, "_CLASSIFY_CACHE_MAX", 16)
        for memo in (rules._FACTS, clifford._EXACT_CLASSIFY_CACHE, clifford._CLASSIFY_CACHE):
            memo.clear()
        for seed in range(3):
            result = default_pipeline().run(self._random_matrix_circuit(seed))
            classify_circuit(result.circuit)
            assert 0 < len(rules._FACTS) <= 16
            assert 0 < len(clifford._EXACT_CLASSIFY_CACHE) <= 16
            assert 0 < len(clifford._CLASSIFY_CACHE) <= 16
        # Clearing a memo wholesale never changes a decision.
        rules._FACTS.clear()
        rerun = default_pipeline().run(circuit).circuit.all_operations()
        assert [repr(op) for op in rerun] == reference

    def test_mutated_gate_follows_its_new_value(self):
        q = LineQubit.range(2)
        gate = MatrixGate("G", np.array([[0, 1], [1, 0]], dtype=complex))
        pair = Circuit([gate(q[0]), gate(q[0])])
        single = Circuit([gate(q[0])])
        blocked = Circuit([gate(q[0]), Z(q[0]), gate(q[0])])
        # G = X: the pair cancels, G alone stays, and G does not commute with Z.
        assert len(optimize_circuit(pair).circuit.all_operations()) == 0
        assert len(optimize_circuit(single).circuit.all_operations()) == 1
        assert len(optimize_circuit(blocked).circuit.all_operations()) == 3
        assert not structurally_diagonal(gate)
        assert classify_circuit(single).clifford

        gate._matrix[:] = np.diag([1.0, np.exp(1j * np.pi / 4)])  # now G = T
        # T.T = S is no cancellation, and T commutes with Z but T.T does not
        # merge, so all three survive; T is diagonal and not Clifford.
        assert len(optimize_circuit(pair).circuit.all_operations()) == 2
        assert len(optimize_circuit(blocked).circuit.all_operations()) == 3
        assert structurally_diagonal(gate)
        assert not classify_circuit(single).clifford

        gate._matrix[:] = np.eye(2)  # now G = I: dropped outright
        assert len(optimize_circuit(single).circuit.all_operations()) == 0
        assert commutes(gate(q[0]), H(q[0]))


class TestFrameworkSurface:
    """Pipeline plumbing: stats, spec resolution, error paths."""

    def test_stats_accounting(self):
        q = LineQubit.range(1)
        circuit = Circuit([Rz(0.3)(q[0]), Rz(0.4)(q[0]), H(q[0])])
        result = optimize_circuit(circuit)
        assert result.stats.operations_before == 3
        assert result.stats.operations_after == 2
        assert result.stats.removed == 1
        assert result.stats.changed
        fusion_stats = [s for s in result.stats.passes if s.pass_name == "fusion"]
        assert sum(s.rewrites for s in fusion_stats) == 1
        summary = result.stats.summary()
        assert "3 -> 2 operations" in summary and "fusion" in summary

    def test_optimize_false_is_identity(self, circuit_fuzzer):
        circuit = _fuzz(circuit_fuzzer, 0, 3, 3, "rotation-chains")
        result = optimize_circuit(circuit, optimize=False)
        assert result.circuit is circuit
        assert not result.stats.changed and result.stats.passes == ()

    def test_resolve_pipeline_spec(self):
        assert resolve_pipeline(None) is None
        assert resolve_pipeline(False) is None
        assert isinstance(resolve_pipeline(True), PassPipeline)
        assert isinstance(resolve_pipeline("auto"), PassPipeline)
        custom = PassPipeline([FusionPass()])
        assert resolve_pipeline(custom) is custom
        with pytest.raises(ValueError, match="optimize"):
            resolve_pipeline("aggressive")

    def test_pipeline_validation_and_repr(self):
        with pytest.raises(ValueError, match="max_iterations"):
            PassPipeline([FusionPass()], max_iterations=0)
        assert "fusion" in repr(PassPipeline([FusionPass()]))
        assert "FusionPass" in repr(FusionPass())

    def test_base_pass_rewrite_is_abstract(self):
        from repro.circuits.passes import Pass

        with pytest.raises(NotImplementedError):
            Pass().rewrite(Circuit())

    def test_kc_compile_optimize(self):
        from repro.simulator.kc_simulator import KnowledgeCompilationSimulator

        q = LineQubit.range(2)
        circuit = Circuit([H(q[0]), Rz(0.4)(q[0]), Rz(0.5)(q[0]), CNOT(q[0], q[1])])
        simulator = KnowledgeCompilationSimulator(cache=None)
        rewrite = resolve_pipeline(True).run(circuit)
        assert rewrite.stats.removed == 1
        compiled = simulator.compile_circuit(rewrite.circuit)
        reference = simulator.compile_circuit(circuit)
        np.testing.assert_allclose(
            compiled.probabilities(None), reference.probabilities(None), atol=1e-10
        )

    def test_sweep_optimize(self):
        from repro import device

        q = LineQubit.range(2)
        a, b = Symbol("a"), Symbol("b")
        circuit = Circuit([H(q[0]), Rz(a)(q[0]), Rz(b)(q[0]), CNOT(q[0], q[1])])
        optimization = default_pipeline().run(circuit)
        assert optimization.stats.removed == 1
        dev = device("knowledge_compilation")
        points = [{"a": 0.2, "b": 0.3}, {"a": 1.4, "b": -0.5}]
        rows = dev.run(optimization.circuit, params=points).result().rows
        reference = dev.run(circuit, params=points).result().rows
        for row, ref in zip(rows, reference):
            np.testing.assert_allclose(row["probabilities"], ref["probabilities"], atol=1e-10)
