"""The front end's exact-content memos: canonical forms and pipeline results.

``canonicalize_circuit`` and ``PassPipeline.run`` are pure functions of a
circuit's content, so both memoize by it.  These tests pin the contract:

* a hit, from a separately built circuit of equal content, equals a fresh
  computation with the memo empty;
* any change of content misses, including gates mutated in place and
  differences far below any rounding;
* a stored entry whose gates were mutated after it was stored is never
  served, although it shares those gates with the circuit that filled it;
* both memos stay bounded, ``configure_default()`` empties them, and a
  circuit that cannot be keyed is never stored.
"""

import math

import numpy as np
import pytest

from repro.circuits import (
    CNOT,
    Circuit,
    H,
    LineQubit,
    MatrixGate,
    Moment,
    Rx,
    Rz,
    Symbol,
    depolarize,
    measure,
)
from repro.circuits import topology
from repro.circuits.gates import Gate
from repro.circuits.noise import NoiseOperation
from repro.circuits.passes import base as passes_base
from repro.circuits.passes import default_pipeline, optimize_circuit, resolve_pipeline
from repro.circuits.topology import canonicalize_circuit
from repro.knowledge import cache
from repro.variational import QAOACircuit, VQECircuit, random_regular_maxcut, square_grid_ising

FUZZ_ALPHABETS = (
    "clifford", "clifford+t", "universal", "pauli-noise",
    "rotation-chains", "commuting-blocks", "clifford-prefix", "spectator",
)
#: The X gate and a copy one unit in the last place away from it.
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
NUDGED_X_MATRIX = X_MATRIX.copy()
NUDGED_X_MATRIX[0, 1] = np.nextafter(1.0, 2.0)


def _clear_memos():
    topology._CANONICAL_MEMO.clear()
    passes_base._PIPELINE_MEMO.clear()


@pytest.fixture(autouse=True)
def empty_memos(monkeypatch):
    """Each test starts with empty memos and leaves the default cache as it was."""
    monkeypatch.setattr(cache, "_default_cache", cache._default_cache)
    _clear_memos()
    yield
    _clear_memos()


def _operation_data(operation):
    """What an operation holds, read without the memo's own key function."""
    if isinstance(operation, NoiseOperation):
        return repr(operation.channel), np.asarray(operation.kraus_operators(), dtype=complex).tobytes()
    if operation.is_measurement:
        return operation.gate.key
    if operation.is_parameterized:
        return None
    return operation.unitary().tobytes()


def snapshot(circuit):
    """Moment structure, reprs, qubits and exact matrices of every operation."""
    return [
        [(type(op.gate), repr(op), op.qubits, _operation_data(op)) for op in moment]
        for moment in circuit.moments
    ]


def canonical_view(canonical):
    return canonical.topology_key, canonical.bindings, snapshot(canonical.template)


def optimized_view(result):
    return snapshot(result.circuit), result.stats


def fresh_canonical(circuit, **kwargs):
    _clear_memos()
    try:
        return canonicalize_circuit(circuit, **kwargs)
    finally:
        _clear_memos()


def fresh_optimized(pipeline, circuit):
    _clear_memos()
    try:
        return pipeline.run(circuit)
    finally:
        _clear_memos()


# ---------------------------------------------------------------------------
# Hit equals fresh.
# ---------------------------------------------------------------------------
def _ansatz_builders():
    builders = []
    for n in (4, 5, 6):
        for name, make in (
            ("qaoa", lambda n=n: QAOACircuit(random_regular_maxcut(n, seed=7), 1)),
            ("vqe", lambda n=n: VQECircuit(square_grid_ising(n, seed=7), 1)),
        ):
            builders.append((f"{name}-{n}-symbolic", lambda make=make: make().circuit))

            def resolved(make=make):
                ansatz = make()
                point = np.linspace(0.3, 0.8, ansatz.num_parameters)
                return ansatz.circuit.resolve_parameters(ansatz.resolver(list(point)))

            builders.append((f"{name}-{n}-resolved", resolved))
    return builders


ANSATZ_BUILDERS = _ansatz_builders()


def _assert_hit_equals_fresh(build):
    first, second = build(), build()
    assert first is not second
    pipeline = default_pipeline()
    fresh_canon = fresh_canonical(second)
    fresh_opt = fresh_optimized(pipeline, second)

    stored_canon = canonicalize_circuit(first)
    stored_opt = pipeline.run(first)
    hit_canon = canonicalize_circuit(second)
    hit_opt = pipeline.run(second)

    # Served from the memo: the stored template, and the stored output (or
    # the caller's own circuit when the pipeline changed nothing).
    assert hit_canon.template is stored_canon.template
    assert hit_canon.circuit is second
    unchanged = stored_opt.circuit is first
    assert hit_opt.circuit is (second if unchanged else stored_opt.circuit)

    assert canonical_view(hit_canon) == canonical_view(fresh_canon)
    assert optimized_view(hit_opt) == optimized_view(fresh_opt)
    # The optimized circuit canonicalizes the same way through the memo.
    assert canonical_view(canonicalize_circuit(hit_opt.circuit)) == canonical_view(
        fresh_canonical(fresh_opt.circuit)
    )


@pytest.mark.parametrize("alphabet", FUZZ_ALPHABETS)
@pytest.mark.parametrize("seed", range(3))
def test_hit_equals_fresh_on_fuzz_circuits(circuit_fuzzer, alphabet, seed):
    _assert_hit_equals_fresh(lambda: circuit_fuzzer(seed, 4, 8, alphabet=alphabet))


@pytest.mark.parametrize("name,build", ANSATZ_BUILDERS, ids=[name for name, _ in ANSATZ_BUILDERS])
def test_hit_equals_fresh_on_ansatze(name, build):
    _assert_hit_equals_fresh(build)


def test_hit_returns_a_private_bindings_list():
    q = LineQubit.range(2)
    circuit = Circuit([Rx(0.4)(q[0]), CNOT(q[0], q[1])])
    first = canonicalize_circuit(circuit)
    first.bindings.append(("__p9", 1.0))
    again = canonicalize_circuit(circuit)
    assert again.bindings == [("__p0", 0.4)]


def test_shared_default_pipeline_and_fresh_default_pipelines():
    assert resolve_pipeline("auto") is resolve_pipeline(True)
    assert default_pipeline() is not default_pipeline()
    q = LineQubit.range(1)
    circuit = Circuit([Rz(0.3)(q[0]), Rz(0.4)(q[0])])
    first = optimize_circuit(circuit)
    assert optimize_circuit(Circuit([Rz(0.3)(q[0]), Rz(0.4)(q[0])])).circuit is first.circuit


# ---------------------------------------------------------------------------
# Misses.
# ---------------------------------------------------------------------------
def _base_ops(q, matrix=X_MATRIX, angle=0.7, p=0.01, key="m", expr=None):
    """A circuit that every pass and the canonicalizer have something to do on."""
    gate = MatrixGate("G", np.array(matrix))
    return [
        H(q[0]),
        gate(q[1]),
        Rz(angle if expr is None else expr)(q[0]),
        Rz(0.2)(q[0]),
        depolarize(p)(q[2]),
        CNOT(q[0], q[2]),
        measure(q[0], q[1], q[2], key=key),
    ]


def _assert_miss(stored, variant, **kwargs):
    """``variant`` misses both memos after ``stored`` filled them."""
    pipeline = default_pipeline()
    stored_canon = canonicalize_circuit(stored, **kwargs)
    stored_opt = pipeline.run(stored)
    canon = canonicalize_circuit(variant, **kwargs)
    optimized = pipeline.run(variant)
    assert canon.template is not stored_canon.template
    assert optimized.circuit is not stored_opt.circuit
    assert canonical_view(canon) == canonical_view(fresh_canonical(variant, **kwargs))
    assert optimized_view(optimized) == optimized_view(fresh_optimized(pipeline, variant))


def _mutated_matrix_in_place():
    q = LineQubit.range(3)
    circuit = Circuit(_base_ops(q))
    gate = circuit.moments[0].operations[1].gate
    return circuit, lambda: gate._matrix.__setitem__((0, 1), np.nextafter(1.0, 2.0))


def _reassigned_angle():
    q = LineQubit.range(3)
    circuit = Circuit(_base_ops(q))
    rotation = next(op.gate for op in circuit.all_operations() if repr(op.gate) == "Rz(0.7)")
    return circuit, lambda: setattr(rotation, "angle", math.nextafter(0.7, 1.0))


@pytest.mark.parametrize("make", [_mutated_matrix_in_place, _reassigned_angle])
def test_in_place_mutation_misses(make):
    circuit, mutate = make()
    pipeline = default_pipeline()
    before_canon = canonicalize_circuit(circuit)
    before_opt = pipeline.run(circuit)
    before = (canonical_view(before_canon), optimized_view(before_opt))
    mutate()
    after_canon = canonicalize_circuit(circuit)
    after_opt = pipeline.run(circuit)
    assert after_canon.template is not before_canon.template
    assert after_opt.circuit is not before_opt.circuit
    after = (canonical_view(after_canon), optimized_view(after_opt))
    assert after != before
    assert after == (
        canonical_view(fresh_canonical(circuit)),
        optimized_view(fresh_optimized(pipeline, circuit)),
    )


def _split_moment(q):
    circuit = Circuit(_base_ops(q))
    first = circuit.moments[0]
    split = Circuit()
    split.moments = [Moment(first.operations[:1]), Moment(first.operations[1:])] + circuit.moments[1:]
    return split


VARIANTS = {
    "matrix-one-ulp": lambda q: Circuit(_base_ops(q, matrix=NUDGED_X_MATRIX)),
    "angle-one-ulp": lambda q: Circuit(_base_ops(q, angle=math.nextafter(0.7, 1.0))),
    "negative-zero-angle": lambda q: Circuit(_base_ops(q, angle=-0.0)),
    "integer-angle": lambda q: Circuit(_base_ops(q, angle=1)),
    "changed-qubit": lambda q: Circuit(
        [op if index != 1 else op.with_qubits(q[3]) for index, op in enumerate(_base_ops(q))]
    ),
    "split-moment": _split_moment,
    "depolarizing-p": lambda q: Circuit(_base_ops(q, p=0.02)),
    "depolarizing-p-one-ulp": lambda q: Circuit(_base_ops(q, p=math.nextafter(0.01, 1.0))),
    "measurement-key": lambda q: Circuit(_base_ops(q, key="other")),
    "symbol-name": lambda q: Circuit(_base_ops(q, expr=Symbol("b"))),
}
BASES = {
    "negative-zero-angle": lambda q: Circuit(_base_ops(q, angle=0.0)),
    "integer-angle": lambda q: Circuit(_base_ops(q, angle=1.0)),
    "symbol-name": lambda q: Circuit(_base_ops(q, expr=Symbol("a"))),
}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_changed_content_misses(name):
    q = LineQubit.range(4)
    base = BASES.get(name, lambda q: Circuit(_base_ops(q)))(q)
    _assert_miss(base, VARIANTS[name](q))


def test_qubit_order_and_initial_bits_miss():
    q = LineQubit.range(3)
    circuit = Circuit(_base_ops(q))
    stored = canonicalize_circuit(circuit)
    for kwargs in (
        {"qubit_order": [q[2], q[1], q[0]]},
        {"qubit_order": [q[0], q[1], q[2], LineQubit(7)]},
        {"initial_bits": [1, 0, 0]},
        {"qubit_order": list(q), "initial_bits": [0, 0, 1]},
    ):
        canonical = canonicalize_circuit(circuit, **kwargs)
        assert canonical.template is not stored.template
        assert canonical_view(canonical) == canonical_view(fresh_canonical(circuit, **kwargs))
    # The same arguments again, even as other sequence types, hit.
    hit = canonicalize_circuit(circuit, qubit_order=tuple(q), initial_bits=(0, 0, 1))
    assert hit.template is canonicalize_circuit(circuit, list(q), [0, 0, 1]).template


def test_qubit_outside_order_still_raises():
    q = LineQubit.range(2)
    circuit = Circuit([CNOT(q[0], q[1])])
    for _ in range(2):
        with pytest.raises(ValueError, match="outside qubit_order"):
            canonicalize_circuit(circuit, qubit_order=[q[0]])


# ---------------------------------------------------------------------------
# No stale aliasing.
# ---------------------------------------------------------------------------
def test_gate_mutated_after_storing_is_not_served():
    q = LineQubit.range(3)
    first = Circuit(_base_ops(q))
    pipeline = default_pipeline()
    canonicalize_circuit(first)
    pipeline.run(first)
    # The stored template and output share this gate with ``first``.
    first.moments[0].operations[1].gate._matrix[:] = np.diag([1.0, 1j])
    equal = Circuit(_base_ops(q))
    canon = canonicalize_circuit(equal)
    optimized = pipeline.run(equal)
    # The fresh answers replaced the stale entries.
    assert canonicalize_circuit(Circuit(_base_ops(q))).template is canon.template
    assert pipeline.run(Circuit(_base_ops(q))).circuit is optimized.circuit
    assert canonical_view(canon) == canonical_view(fresh_canonical(equal))
    assert optimized_view(optimized) == optimized_view(fresh_optimized(pipeline, equal))


def test_expression_mutated_after_storing_is_not_served():
    q = LineQubit.range(3)
    theta = Symbol("theta")
    expression = 2 * theta
    first = Circuit(_base_ops(q, expr=expression))
    pipeline = default_pipeline()
    canonicalize_circuit(first)
    pipeline.run(first)
    # The stored bindings and output share this expression with ``first``.
    expression.offset = 0.5
    equal = Circuit(_base_ops(q, expr=2 * theta))
    canon = canonicalize_circuit(equal)
    assert canon.bindings[0][1] == 2 * theta
    assert canonical_view(canon) == canonical_view(fresh_canonical(equal))
    optimized = pipeline.run(equal)
    assert optimized_view(optimized) == optimized_view(fresh_optimized(pipeline, equal))


def test_output_mutated_by_its_caller_is_not_served():
    q = LineQubit.range(3)
    pipeline = default_pipeline()
    result = pipeline.run(Circuit(_base_ops(q)))
    canonical = canonicalize_circuit(Circuit(_base_ops(q)))
    result.circuit.moments.pop()
    canonical.template.moments.pop()
    equal = Circuit(_base_ops(q))
    assert optimized_view(pipeline.run(equal)) == optimized_view(fresh_optimized(pipeline, equal))
    assert canonical_view(canonicalize_circuit(equal)) == canonical_view(fresh_canonical(equal))


# ---------------------------------------------------------------------------
# Bounds and lifetime.
# ---------------------------------------------------------------------------
def test_memos_stay_within_their_bounds(monkeypatch, circuit_fuzzer):
    monkeypatch.setattr(topology, "_CANONICAL_MEMO_MAX", 4)
    monkeypatch.setattr(passes_base, "_PIPELINE_MEMO_MAX", 4)
    pipeline = default_pipeline()
    for seed in range(10):
        circuit = circuit_fuzzer(seed, 3, 4, alphabet="universal")
        canonicalize_circuit(circuit)
        pipeline.run(circuit)
        assert 0 < len(topology._CANONICAL_MEMO) <= 4
        assert 0 < len(passes_base._PIPELINE_MEMO) <= 4


def test_configure_default_empties_both_memos():
    q = LineQubit.range(3)
    canonicalize_circuit(Circuit(_base_ops(q)))
    optimize_circuit(Circuit(_base_ops(q)))
    assert topology._CANONICAL_MEMO and passes_base._PIPELINE_MEMO
    cache.configure_default()
    assert not topology._CANONICAL_MEMO and not passes_base._PIPELINE_MEMO


class _OpaqueRotation(Gate):
    """A parameterized gate of a class the key does not know."""

    def __init__(self, angle):
        super().__init__("opaque", 1)
        self.angle = angle

    @property
    def parameters(self):
        return frozenset({self.angle})

    def unitary(self, resolver=None):
        return np.eye(2, dtype=complex)


@pytest.mark.parametrize(
    "operation",
    [
        lambda q: depolarize(Symbol("p"))(q[1]),
        lambda q: _OpaqueRotation(Symbol("t"))(q[1]),
    ],
    ids=["symbolic-noise", "unknown-parameterized-gate"],
)
def test_unkeyable_circuits_are_never_stored(operation):
    q = LineQubit.range(2)
    circuit = Circuit([H(q[0]), Rz(0.2)(q[0]), Rz(0.3)(q[0]), operation(q)])
    assert topology._circuit_content_key(circuit) is None
    first = canonicalize_circuit(circuit)
    optimized = optimize_circuit(circuit)
    assert not topology._CANONICAL_MEMO and not passes_base._PIPELINE_MEMO
    assert canonicalize_circuit(circuit).template is not first.template
    assert optimize_circuit(circuit).circuit is not optimized.circuit


class _StatefulPass(passes_base.Pass):
    """A user pass whose instance state could change between runs."""

    name = "stateful"

    def __init__(self, resolver=None):
        self.resolver = resolver

    def rewrite(self, circuit):
        return circuit, 0


def test_pipeline_with_stateful_pass_is_not_memoized():
    from repro.circuits.passes import PassPipeline

    q = LineQubit.range(2)
    pipeline = PassPipeline([_StatefulPass()])
    pipeline.run(Circuit([H(q[0]), Rx(0.3)(q[1])]))
    assert not passes_base._PIPELINE_MEMO
