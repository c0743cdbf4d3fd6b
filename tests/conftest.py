"""Shared pytest fixtures for the test suite."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.circuits import CNOT, Circuit, H, LineQubit, ParamResolver, Rx, Symbol, ZZ, depolarize
from repro.circuits import gates as _gates
from repro.circuits.noise import (
    AsymmetricDepolarizingChannel,
    bit_flip,
    phase_flip,
)
from repro.densitymatrix import DensityMatrixSimulator
from repro.simulator.kc_simulator import KnowledgeCompilationSimulator
from repro.statevector import StateVectorSimulator


# ---------------------------------------------------------------------------
# Hermetic sessions: a test run must leave every tracked file as it found it.
# Benchmarks write their artifacts to BENCH_OUTPUT_DIR or a temp directory,
# never into the checkout; this check fails the session if anything does.
# ---------------------------------------------------------------------------
_REPO = Path(__file__).resolve().parent.parent


def _tracked_changes():
    """Tracked files differing from HEAD -> content digest (``None`` without git)."""
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "-z", "--untracked-files=no"],
            cwd=_REPO,
            capture_output=True,
            check=True,
            timeout=60,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    changes = {}
    for entry in filter(None, status.split(b"\0")):
        name = entry[3:].decode(errors="replace")
        try:
            changes[name] = hashlib.sha256((_REPO / name).read_bytes()).hexdigest()
        except OSError:
            changes[name] = "unreadable"
    return changes


def pytest_sessionstart(session):
    session.config._tracked_at_start = _tracked_changes()


def pytest_sessionfinish(session, exitstatus):
    before = getattr(session.config, "_tracked_at_start", None)
    after = _tracked_changes() if before is not None else None
    if after is None:
        return
    modified = sorted(
        name
        for name in set(before) | set(after)
        if before.get(name, "clean") != after.get(name, "clean")
    )
    if modified:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.write_line("")
            reporter.write_sep(
                "!", "test session modified tracked files: " + ", ".join(modified), red=True
            )
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


# ---------------------------------------------------------------------------
# Test tiers, applied by directory: items under tests/ are ``correctness``,
# items under benchmarks/ are ``bench`` (see benchmarks/conftest.py).
# ``pytest -m "not bench"`` is the fast inner loop; a plain ``pytest`` run
# still runs both tiers.
# ---------------------------------------------------------------------------
TIER_MARKERS = (
    "correctness: functional and statistical tests under tests/",
    "bench: benchmark harness under benchmarks/",
)


def pytest_configure(config):
    for line in TIER_MARKERS:
        config.addinivalue_line("markers", line)


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(config, items):
    here = Path(__file__).resolve().parent
    for item in items:
        if here in item.path.resolve().parents:
            item.add_marker(pytest.mark.correctness)


@pytest.fixture
def rng():
    return np.random.default_rng(20210419)


# ---------------------------------------------------------------------------
# Seeded random-circuit generator for cross-backend differential fuzzing.
#
# Registered as the ``circuit_fuzzer`` fixture so every present and future
# backend can be fuzzed against the same corpus: a new backend only needs a
# test that draws circuits from the fixture and compares itself to any
# existing backend (see tests/test_differential_fuzz.py).
# ---------------------------------------------------------------------------

#: Gate alphabets by name.  "clifford" draws only stabilizer-simulable gates
#: (including rotation-family gates at k*pi/2 angles, exercising semantic
#: Clifford recognition); "clifford+t" adds the T/TDG non-Clifford phases;
#: "universal" adds generic-angle rotations and two-qubit couplings;
#: "pauli-noise" is the Clifford alphabet plus random Pauli-mixture channels.
#:
#: The rewrite-targeting alphabets stress the optimizer pass pipeline
#: (``repro.circuits.passes``): "rotation-chains" emits runs of same-family
#: rotations on shared qubits (merge/cancel fodder for the fusion pass),
#: "commuting-blocks" interleaves diagonal ZZ/CZ/CPhase/Rz blocks with
#: CNOTs and T/TDG pairs separated by commuting gates (commutation-pass
#: fodder), "clifford-prefix" opens with Clifford layers before a dense
#: generic-rotation tail (Clifford-head fodder), and "spectator"
#: measures only a subset of qubits while gating the rest (light-cone
#: fodder; Clifford gates only, so every backend including the stabilizer
#: can check parity over the measured qubits).
FUZZ_ALPHABETS = ("clifford", "clifford+t", "universal", "pauli-noise")
REWRITE_ALPHABETS = ("rotation-chains", "commuting-blocks", "clifford-prefix", "spectator")

_CLIFFORD_1Q = (
    lambda rng: _gates.H,
    lambda rng: _gates.S,
    lambda rng: _gates.SDG,
    lambda rng: _gates.X,
    lambda rng: _gates.Y,
    lambda rng: _gates.Z,
    lambda rng: _gates.Rz(float(rng.integers(0, 4)) * np.pi / 2),
    lambda rng: _gates.Rx(float(rng.integers(0, 4)) * np.pi / 2),
    lambda rng: _gates.Ry(float(rng.integers(0, 4)) * np.pi / 2),
)
_CLIFFORD_2Q = (
    lambda rng: _gates.CNOT,
    lambda rng: _gates.CZ,
    lambda rng: _gates.SWAP,
    lambda rng: _gates.ISWAP,
    lambda rng: _gates.ZZ(float(rng.integers(0, 4)) * np.pi / 2),
)
_T_FAMILY = (lambda rng: _gates.T, lambda rng: _gates.TDG)
_UNIVERSAL_1Q = _CLIFFORD_1Q + _T_FAMILY + (
    lambda rng: _gates.Rx(float(rng.uniform(0.1, 2 * np.pi))),
    lambda rng: _gates.Ry(float(rng.uniform(0.1, 2 * np.pi))),
    lambda rng: _gates.Rz(float(rng.uniform(0.1, 2 * np.pi))),
)
_UNIVERSAL_2Q = _CLIFFORD_2Q + (
    lambda rng: _gates.CPhase(float(rng.uniform(0.1, 2 * np.pi))),
    lambda rng: _gates.ZZ(float(rng.uniform(0.1, 2 * np.pi))),
)
_PAULI_CHANNELS = (
    lambda rng, p: bit_flip(p),
    lambda rng, p: phase_flip(p),
    lambda rng, p: depolarize(p),
    lambda rng, p: AsymmetricDepolarizingChannel(p / 2, p / 4, p / 4),
)


_ROTATION_FAMILIES = (_gates.Rx, _gates.Ry, _gates.Rz, _gates.PhaseShift)
_DIAGONAL_2Q = (
    lambda rng: _gates.CZ,
    lambda rng: _gates.ZZ(float(rng.uniform(0.1, 2 * np.pi))),
    lambda rng: _gates.CPhase(float(rng.uniform(0.1, 2 * np.pi))),
)


def _rotation_chain_circuit(rng, qubits, depth):
    circuit = Circuit()
    for _ in range(depth):
        qubit = qubits[int(rng.integers(0, len(qubits)))]
        family = _ROTATION_FAMILIES[int(rng.integers(0, len(_ROTATION_FAMILIES)))]
        style = int(rng.integers(0, 3))
        if style == 0:  # generic chain: fuses into one rotation
            for _ in range(int(rng.integers(2, 5))):
                circuit.append(family(float(rng.uniform(0.1, 2 * np.pi)))(qubit))
        elif style == 1:  # exact inverse pair: cancels outright
            angle = float(rng.uniform(0.1, 2 * np.pi))
            circuit.append([family(angle)(qubit), family(-angle)(qubit)])
        else:  # chain with a zero-angle degenerate in the middle
            circuit.append(family(float(rng.uniform(0.1, np.pi)))(qubit))
            circuit.append(family(0.0)(qubit))
            circuit.append(family(float(rng.uniform(0.1, np.pi)))(qubit))
        if len(qubits) >= 2 and rng.random() < 0.5:
            pair = rng.permutation(len(qubits))[:2]
            u, v = qubits[int(pair[0])], qubits[int(pair[1])]
            if rng.random() < 0.5:  # swapped-order symmetric ZZ pair
                angle = float(rng.uniform(0.1, np.pi))
                circuit.append([_gates.ZZ(angle)(u, v), _gates.ZZ(angle)(v, u)])
            else:
                circuit.append(_gates.CNOT(u, v))
    return circuit


def _commuting_block_circuit(rng, qubits, depth):
    circuit = Circuit()
    for _ in range(depth):
        kind = int(rng.integers(0, 3))
        if kind == 0:  # diagonal block (everything here mutually commutes)
            for qubit in qubits:
                if rng.random() < 0.6:
                    choice = int(rng.integers(0, 3))
                    gate = (
                        _gates.Rz(float(rng.uniform(0.1, 2 * np.pi)))
                        if choice == 0
                        else (_gates.S if choice == 1 else _gates.Z)
                    )
                    circuit.append(gate(qubit))
            if len(qubits) >= 2:
                pair = rng.permutation(len(qubits))[:2]
                gate = _DIAGONAL_2Q[int(rng.integers(0, len(_DIAGONAL_2Q)))](rng)
                circuit.append(gate(qubits[int(pair[0])], qubits[int(pair[1])]))
        elif kind == 1 and len(qubits) >= 2:  # T ... CNOT ... TDG on a control
            pair = rng.permutation(len(qubits))[:2]
            control, target = qubits[int(pair[0])], qubits[int(pair[1])]
            circuit.append([_gates.T(control), _gates.CNOT(control, target), _gates.TDG(control)])
        elif len(qubits) >= 2:  # X-family through a CNOT target
            pair = rng.permutation(len(qubits))[:2]
            control, target = qubits[int(pair[0])], qubits[int(pair[1])]
            angle = float(rng.uniform(0.1, np.pi))
            circuit.append(
                [_gates.Rx(angle)(target), _gates.CNOT(control, target), _gates.Rx(-angle)(target)]
            )
    return circuit


def _clifford_prefix_circuit(rng, qubits, depth):
    circuit = Circuit()
    head = max(1, depth // 2)
    for _ in range(head):
        for qubit in qubits:
            circuit.append(_CLIFFORD_1Q[int(rng.integers(0, len(_CLIFFORD_1Q)))](rng)(qubit))
        if len(qubits) >= 2:
            pair = rng.permutation(len(qubits))[:2]
            gate = _CLIFFORD_2Q[int(rng.integers(0, len(_CLIFFORD_2Q)))](rng)
            circuit.append(gate(qubits[int(pair[0])], qubits[int(pair[1])]))
    for _ in range(depth - head):  # dense, non-Clifford tail
        for qubit in qubits:
            family = _ROTATION_FAMILIES[int(rng.integers(0, len(_ROTATION_FAMILIES)))]
            circuit.append(family(float(rng.uniform(0.3, 1.2)))(qubit))
        if len(qubits) >= 2:
            pair = rng.permutation(len(qubits))[:2]
            circuit.append(
                _gates.CPhase(float(rng.uniform(0.3, 1.2)))(
                    qubits[int(pair[0])], qubits[int(pair[1])]
                )
            )
    return circuit


def _spectator_circuit(rng, qubits, depth):
    circuit = Circuit()
    for _ in range(depth):
        for qubit in qubits:
            circuit.append(_CLIFFORD_1Q[int(rng.integers(0, len(_CLIFFORD_1Q)))](rng)(qubit))
        order = rng.permutation(len(qubits))
        for i in range(0, len(qubits) - 1, 2):
            gate = _CLIFFORD_2Q[int(rng.integers(0, len(_CLIFFORD_2Q)))](rng)
            circuit.append(gate(qubits[int(order[i])], qubits[int(order[i + 1])]))
    measured_count = int(rng.integers(1, len(qubits))) if len(qubits) > 1 else 1
    measured = sorted(
        (qubits[int(i)] for i in rng.permutation(len(qubits))[:measured_count]),
        key=lambda qubit: qubit.index,
    )
    circuit.append(_gates.measure(*measured, key="m"))
    return circuit


_REWRITE_BUILDERS = {
    "rotation-chains": _rotation_chain_circuit,
    "commuting-blocks": _commuting_block_circuit,
    "clifford-prefix": _clifford_prefix_circuit,
    "spectator": _spectator_circuit,
}


def random_fuzz_circuit(
    seed: int,
    num_qubits: int = 4,
    depth: int = 6,
    alphabet: str = "universal",
) -> Circuit:
    """Build one seeded random circuit from the named gate alphabet.

    Layer structure (base alphabets): one random single-qubit gate per
    qubit, then random two-qubit gates on a random disjoint pairing; the
    ``pauli-noise`` alphabet additionally sprinkles random Pauli-mixture
    channels after each layer.  The rewrite-targeting alphabets
    (:data:`REWRITE_ALPHABETS`) instead emit the structured patterns the
    optimizer passes rewrite.  Same ``(seed, num_qubits, depth, alphabet)``
    -> same circuit.
    """
    if alphabet not in FUZZ_ALPHABETS + REWRITE_ALPHABETS:
        raise ValueError(
            f"alphabet must be one of {FUZZ_ALPHABETS + REWRITE_ALPHABETS}, got {alphabet!r}"
        )
    fuzz_rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=seed,
            spawn_key=(num_qubits, depth, (FUZZ_ALPHABETS + REWRITE_ALPHABETS).index(alphabet)),
        )
    )
    if alphabet in _REWRITE_BUILDERS:
        return _REWRITE_BUILDERS[alphabet](fuzz_rng, LineQubit.range(num_qubits), depth)
    if alphabet == "clifford+t":
        one_q, two_q = _CLIFFORD_1Q + _T_FAMILY, _CLIFFORD_2Q
    elif alphabet == "universal":
        one_q, two_q = _UNIVERSAL_1Q, _UNIVERSAL_2Q
    else:
        one_q, two_q = _CLIFFORD_1Q, _CLIFFORD_2Q
    qubits = LineQubit.range(num_qubits)
    circuit = Circuit()
    for _ in range(depth):
        for qubit in qubits:
            gate = one_q[int(fuzz_rng.integers(0, len(one_q)))](fuzz_rng)
            circuit.append(gate(qubit))
        order = fuzz_rng.permutation(num_qubits)
        for i in range(0, num_qubits - 1, 2):
            gate = two_q[int(fuzz_rng.integers(0, len(two_q)))](fuzz_rng)
            circuit.append(gate(qubits[int(order[i])], qubits[int(order[i + 1])]))
        if alphabet == "pauli-noise":
            for qubit in qubits:
                if fuzz_rng.random() < 0.4:
                    factory = _PAULI_CHANNELS[int(fuzz_rng.integers(0, len(_PAULI_CHANNELS)))]
                    probability = float(fuzz_rng.uniform(0.01, 0.15))
                    circuit.append(factory(fuzz_rng, probability).on(qubit))
    return circuit


@pytest.fixture
def circuit_fuzzer():
    """The seeded random-circuit generator (see :func:`random_fuzz_circuit`)."""
    return random_fuzz_circuit


@pytest.fixture
def bell_circuit():
    q0, q1 = LineQubit.range(2)
    return Circuit([H(q0), CNOT(q0, q1)])


@pytest.fixture
def qaoa_like_circuit():
    """A 4-qubit parameterized QAOA-style circuit (chain graph, one iteration)."""
    qubits = LineQubit.range(4)
    gamma, beta = Symbol("gamma"), Symbol("beta")
    operations = [H(q) for q in qubits]
    operations += [ZZ(2 * gamma)(qubits[i], qubits[i + 1]) for i in range(3)]
    operations += [Rx(2 * beta)(q) for q in qubits]
    return Circuit(operations)


@pytest.fixture
def qaoa_resolver():
    return ParamResolver({"gamma": 0.55, "beta": 0.35})


@pytest.fixture
def noisy_bell_circuit():
    q0, q1 = LineQubit.range(2)
    circuit = Circuit([H(q0), CNOT(q0, q1)])
    return circuit.with_noise(lambda: depolarize(0.05))


@pytest.fixture
def state_vector_simulator():
    return StateVectorSimulator(seed=7)


@pytest.fixture
def density_matrix_simulator():
    return DensityMatrixSimulator(seed=7)


@pytest.fixture
def kc_simulator():
    return KnowledgeCompilationSimulator(seed=7)
