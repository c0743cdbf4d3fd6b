"""The rules routing policy of ``device("auto")``, pinned case by case.

Rules routing is the only routing policy: every decision comes from
:func:`repro.select_backend` plus the observable-aware adjustments of
``Device`` (phase-consistent state vectors, the dense-probability cap,
the memory-budget downgrade).  These tables record the backend *and* the
reason for each circuit class, entry point and fallback configuration, so
a change to the policy shows up as an explicit edit of an expected value
here rather than as a silent re-route.

The circuit classes:

* ``clifford`` — H plus a CNOT chain (the tableau's home ground);
* ``pauli_clifford`` — the same with depolarizing noise after each gate;
* ``damped_clifford`` — the same with amplitude damping (non-Pauli noise);
* ``nonclifford`` — one ``Rx(0.3)`` blocks the tableau;
* ``noisy_nonclifford`` — the same with depolarizing noise.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CNOT, Circuit, H, LineQubit, Rx, depolarize, device
from repro.api.routing import BackendDecision
from repro.circuits.noise import amplitude_damp
from repro.errors import BackendCapabilityError

_SRC = Path(__file__).resolve().parent.parent / "src"

_RX = "non-Clifford gate Rx(0.3)(q1)"
_DAMPED = "non-Pauli noise channel amplitude_damping(q0)"
_MIXED = "noisy simulate needs a mixed-state representation"


def _substituted(reason, fallback, num_qubits, noisy):
    return (
        f"{reason}; fallback {fallback!r} cannot serve this item "
        f"({num_qubits} qubits, noisy={noisy}), substituted cheapest capable backend"
    )


def clifford(n=3):
    q = LineQubit.range(n)
    return Circuit([H(q[0])] + [CNOT(q[i], q[i + 1]) for i in range(n - 1)])


def nonclifford(n=3):
    q = LineQubit.range(n)
    return Circuit([H(q[0]), Rx(0.3)(q[1])] + [CNOT(q[i], q[i + 1]) for i in range(n - 1)])


def pauli_clifford(n=3):
    return clifford(n).with_noise(lambda: depolarize(0.02))


def damped_clifford(n=3):
    return clifford(n).with_noise(lambda: amplitude_damp(0.05))


def noisy_nonclifford(n=3):
    return nonclifford(n).with_noise(lambda: depolarize(0.02))


# (circuit factory, qubits, sampling, expected backend, expected reason)
DEFAULT_DECISIONS = {
    "clifford-sample": (clifford, 3, True, "stabilizer", "clifford"),
    "clifford-simulate": (clifford, 3, False, "stabilizer", "clifford"),
    "wide-clifford-sample": (clifford, 60, True, "stabilizer", "clifford"),
    "wide-clifford-simulate": (clifford, 60, False, "stabilizer", "clifford"),
    "pauli-clifford-sample": (
        pauli_clifford, 3, True, "stabilizer", "clifford + pauli-noise",
    ),
    "pauli-clifford-simulate": (pauli_clifford, 3, False, "density_matrix", _MIXED),
    "wide-pauli-clifford-sample": (
        pauli_clifford, 60, True, "stabilizer", "clifford + pauli-noise",
    ),
    "damped-clifford-sample": (damped_clifford, 3, True, "state_vector", _DAMPED),
    "damped-clifford-simulate": (damped_clifford, 3, False, "density_matrix", _DAMPED),
    "nonclifford-sample": (nonclifford, 3, True, "state_vector", _RX),
    "nonclifford-simulate": (nonclifford, 3, False, "state_vector", _RX),
    # Noisy sampling stays on the state vector (per-shot trajectories).
    "noisy-nonclifford-sample": (noisy_nonclifford, 3, True, "state_vector", _RX),
    "noisy-nonclifford-simulate": (noisy_nonclifford, 3, False, "density_matrix", _RX),
    "wide-noisy-nonclifford-simulate": (
        noisy_nonclifford, 20, False, "state_vector",
        _substituted(_RX, "density_matrix", 20, True),
    ),
    "wider-nonclifford-sample": (
        nonclifford, 30, True, "knowledge_compilation",
        _substituted(_RX, "state_vector", 30, False),
    ),
}

# (device options, circuit factory, qubits, sampling, expected backend, expected reason)
CONFIGURED_DECISIONS = {
    "density-matrix-fallback-sample": (
        {"fallback": "density_matrix"}, nonclifford, 3, True, "density_matrix", _RX,
    ),
    "density-matrix-fallback-too-wide": (
        {"fallback": "density_matrix"}, nonclifford, 20, True, "state_vector",
        _substituted(_RX, "density_matrix", 20, False),
    ),
    "kc-alias-fallback": (
        {"fallback": "kc"}, noisy_nonclifford, 3, True, "knowledge_compilation", _RX,
    ),
    "tensor-network-fallback-rejects-noise": (
        {"fallback": "tensor_network"}, damped_clifford, 3, True, "state_vector",
        _substituted(_DAMPED, "tensor_network", 3, True),
    ),
    "trajectory-noisy-fallback-simulate": (
        {"noisy_fallback": "trajectory"}, noisy_nonclifford, 20, False, "trajectory", _RX,
    ),
    "trajectory-noisy-fallback-leaves-sampling": (
        {"noisy_fallback": "trajectory"}, noisy_nonclifford, 20, True, "state_vector", _RX,
    ),
}

# (circuit factory, qubits, sampling)
UNSERVABLE = {
    "wide-pauli-clifford-simulate": (pauli_clifford, 60, False),
    "wide-noisy-nonclifford-sample": (noisy_nonclifford, 40, True),
    "wide-noisy-nonclifford-simulate": (noisy_nonclifford, 40, False),
}

# (circuit factory, qubits, observable, memory budget, expected backend, expected reason)
RUN_ROUTES = {
    "clifford-samples": (clifford, 3, "samples", None, "stabilizer", "clifford"),
    "clifford-probabilities": (clifford, 3, "probabilities", None, "stabilizer", "clifford"),
    "clifford-state-vector": (
        clifford, 3, "state_vector", None, "state_vector",
        "state-vector observable needs phase-consistent amplitudes",
    ),
    "clifford-probabilities-over-dense-cap": (
        clifford, 21, "probabilities", None, "state_vector",
        "dense probabilities capped at 20 qubits",
    ),
    "pauli-clifford-probabilities": (
        pauli_clifford, 3, "probabilities", None, "density_matrix", _MIXED,
    ),
    "damped-clifford-samples": (damped_clifford, 3, "samples", None, "state_vector", _DAMPED),
    "noisy-nonclifford-samples": (noisy_nonclifford, 3, "samples", None, "state_vector", _RX),
    "noisy-nonclifford-probabilities": (
        noisy_nonclifford, 3, "probabilities", None, "density_matrix", _RX,
    ),
    "noisy-nonclifford-probabilities-over-budget": (
        noisy_nonclifford, 8, "probabilities", 2**17, "trajectory",
        "memory budget: density_matrix needs ~1,048,576 B (> 131,072 B); "
        "downgraded to trajectory",
    ),
}


def test_decision_records_backend_and_reason_only():
    assert BackendDecision._fields == ("backend", "reason")


@pytest.mark.parametrize("case", sorted(DEFAULT_DECISIONS))
def test_default_device_decision(case):
    make, n, sampling, backend, reason = DEFAULT_DECISIONS[case]
    decision = device("auto").decide(make(n), sampling=sampling, repetitions=64)
    assert decision == BackendDecision(backend, reason)


@pytest.mark.parametrize("case", sorted(CONFIGURED_DECISIONS))
def test_configured_fallback_decision(case):
    options, make, n, sampling, backend, reason = CONFIGURED_DECISIONS[case]
    decision = device("auto", **options).decide(make(n), sampling=sampling, repetitions=64)
    assert decision == BackendDecision(backend, reason)


@pytest.mark.parametrize("case", sorted(UNSERVABLE))
def test_unservable_item_raises_typed_error(case):
    make, n, sampling = UNSERVABLE[case]
    with pytest.raises(BackendCapabilityError, match=f"{n} qubits"):
        device("auto").decide(make(n), sampling=sampling, repetitions=64)


@pytest.mark.parametrize("case", sorted(RUN_ROUTES))
def test_run_routes_by_observable(case):
    make, n, observable, budget, backend, reason = RUN_ROUTES[case]
    repetitions = 16 if observable == "samples" else 0
    result = (
        device("auto", seed=0)
        .run(make(n), observables=[observable], repetitions=repetitions, memory_budget=budget)
        .result()
    )
    assert result.backends() == [backend]
    assert result.rows[0]["reason"] == reason


def test_decisions_are_identical_in_a_fresh_interpreter():
    # Pooled workers and resumed jobs route in other processes: the
    # decision table must not depend on hash seeds or import order.
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_routing_policy as t\n"
        "from repro import device\n"
        "out = {}\n"
        "for case, (make, n, sampling, _, _) in sorted(t.DEFAULT_DECISIONS.items()):\n"
        "    d = device('auto').decide(make(n), sampling=sampling, repetitions=64)\n"
        "    out[case] = [d.backend, d.reason]\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).resolve().parent)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    fresh = json.loads(completed.stdout)
    expected = {
        case: [backend, reason]
        for case, (_, _, _, backend, reason) in DEFAULT_DECISIONS.items()
    }
    assert fresh == expected
