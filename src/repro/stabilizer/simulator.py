"""Stabilizer (tableau) simulator backend with Pauli-noise sampling.

The sixth backend: exact polynomial-cost simulation of Clifford circuits via
the Aaronson–Gottesman tableau (:mod:`repro.stabilizer.tableau`).  Where
every other backend pays ``2^n`` (or ``(B, 2^n)``) state cost, this one runs
Bell/GHZ preparation, Deutsch–Jozsa, Bernstein–Vazirani, Simon, hidden shift
and the Clifford skeleton of RCS-style workloads at hundreds of qubits in
milliseconds.

Noise support mirrors :mod:`repro.trajectory` in spirit: single-qubit *Pauli
mixture* channels (bit flip, phase flip, symmetric/asymmetric depolarizing)
are unravelled stochastically — each shot draws one Pauli per channel and the
tableau absorbs it as a gate — which keeps sampling unbiased at qubit counts
where a density matrix (or even one dense state vector) is unthinkable.
Shots are grouped by their jump pattern so the common no-jump pattern runs
the tableau once and replays only measurement randomness.

Non-Clifford gates and non-Pauli channels raise
:class:`~repro.errors.UnsupportedCircuitError` with the
blocking operation named; ``repro.device("auto")`` catches this class of
circuit *before* construction via
:func:`repro.circuits.clifford.classify_circuit` and routes it to a dense
backend instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.clifford import CliffordOp, channel_pauli_mixture, operation_clifford_ops
from ..circuits.noise import NoiseOperation
from ..circuits.parameters import ParamResolver
from ..circuits.qubits import Qubit
from ..errors import UnsupportedCircuitError
from ..linalg.tensor_ops import index_to_bits
from ..simulator.base import Simulator
from ..simulator.results import SampleResult
from .tableau import Tableau

#: Dense state-vector reconstruction cap (2^14 amplitudes).
DENSE_STATE_QUBITS = 14
#: Dense probability-vector reconstruction cap (2^20 entries).
DENSE_PROBABILITY_QUBITS = 20


class StabilizerResult:
    """Final stabilizer state of an ideal Clifford simulation.

    API-compatible with :class:`~repro.simulator.results.StateVectorResult`
    where physically possible: ``qubits``, ``num_qubits``, ``state_vector``
    (dense, small ``n`` only), ``probabilities()`` (dense, small ``n`` only)
    and ``sample()`` (any ``n`` — the whole point of the backend).
    """

    def __init__(self, qubits: Sequence[Qubit], tableau: Tableau):
        self.qubits = list(qubits)
        self.tableau = tableau

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def state_vector(self) -> np.ndarray:
        """Dense state vector, defined up to global phase (``n <= 14``)."""
        if self.num_qubits > DENSE_STATE_QUBITS:
            raise ValueError(
                f"dense state vector capped at {DENSE_STATE_QUBITS} qubits "
                f"(got {self.num_qubits}); use sample() or probabilities()"
            )
        return self.tableau.state_vector()

    def probabilities(self) -> np.ndarray:
        """Dense ``(2^n,)`` measurement distribution (``n <= 20``)."""
        if self.num_qubits > DENSE_PROBABILITY_QUBITS:
            raise ValueError(
                f"dense probabilities capped at {DENSE_PROBABILITY_QUBITS} qubits "
                f"(got {self.num_qubits}); use sample()"
            )
        return self.tableau.probabilities()

    def sample(self, repetitions: int, rng: Optional[np.random.Generator] = None) -> SampleResult:
        rng = rng or np.random.default_rng()
        bits = self.tableau.sample(repetitions, rng)
        return SampleResult(self.qubits, bits)

    def measure(
        self,
        position: int,
        rng: Optional[np.random.Generator] = None,
        forced: Optional[int] = None,
    ) -> Tuple[int, bool]:
        """Collapse qubit ``position`` (index into ``self.qubits``) in place."""
        return self.tableau.measure(position, rng=rng, forced=forced)

    def __repr__(self) -> str:
        return f"StabilizerResult(qubits={self.num_qubits})"


class _CompiledClifford:
    """A circuit lowered to tableau primitives with noise-channel slots."""

    __slots__ = ("num_qubits", "steps", "num_channels")

    def __init__(self, num_qubits: int, steps: List[Tuple], num_channels: int):
        self.num_qubits = num_qubits
        self.steps = steps
        self.num_channels = num_channels


class StabilizerSimulator(Simulator):
    """Tableau-based simulation of Clifford (and Clifford + Pauli-noise) circuits."""

    name = "stabilizer"

    def __init__(self, seed: Optional[int] = None):
        super().__init__(seed)

    # ------------------------------------------------------------------
    def simulate(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_state: int = 0,
    ) -> StabilizerResult:
        """Run an ideal Clifford circuit exactly.

        Args:
            circuit: The noise-free Clifford circuit to run.
            resolver: Binds any symbolic parameters (angles must resolve to
                Clifford values, e.g. multiples of ``pi/2`` for rotations).
            qubit_order: Qubit-to-basis-position order (first qubit = most
                significant bit); defaults to the circuit's sorted qubits.
            initial_state: Computational-basis index of the starting state.

        Returns:
            A :class:`StabilizerResult` holding the final tableau.

        Raises:
            UnsupportedCircuitError: If the circuit contains noise (use
                :meth:`sample`), or a gate that is not recognized as
                Clifford.
        """
        if circuit.has_noise:
            raise UnsupportedCircuitError(
                "StabilizerSimulator.simulate only supports ideal circuits; "
                "sample() handles Pauli-noise circuits stochastically"
            )
        qubits = list(qubit_order) if qubit_order is not None else circuit.all_qubits()
        program = self._compile(circuit, qubits, resolver)
        tableau = self._run(program, initial_state, choices=None)
        return StabilizerResult(qubits, tableau)

    def sample(
        self,
        circuit: Circuit,
        repetitions: int,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        seed: Optional[int] = None,
        initial_state: int = 0,
    ) -> SampleResult:
        """Draw measurement samples in ``O(poly(n))`` per tableau pass.

        Ideal circuits run the tableau once and replay only measurement
        randomness.  Pauli-noise circuits draw one Pauli per channel per
        shot, group the shots by jump pattern, and run one tableau per
        distinct pattern — with realistic noise strengths most shots share
        the no-jump pattern.

        Args:
            circuit: The Clifford (optionally Pauli-noisy) circuit.
            repetitions: Number of bitstring samples to draw.
            resolver: Binds any symbolic parameters.
            qubit_order: Qubit-to-basis-position order.
            seed: Per-call seed for reproducibility in isolation; ``None``
                draws from the backend's default generator.
            initial_state: Computational-basis index of the starting state.

        Returns:
            A :class:`SampleResult` of ``repetitions`` bitstrings.

        Raises:
            UnsupportedCircuitError: For non-Clifford gates or non-Pauli
                noise channels.
        """
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        rng = self._rng(seed)
        qubits = list(qubit_order) if qubit_order is not None else circuit.all_qubits()
        program = self._compile(circuit, qubits, resolver)
        if program.num_channels == 0:
            tableau = self._run(program, initial_state, choices=None)
            bits = tableau.sample(repetitions, rng)
            return SampleResult(qubits, bits)
        choices = self._draw_noise_choices(program, repetitions, rng)
        samples: List[Optional[Tuple[int, ...]]] = [None] * repetitions
        patterns, inverse = np.unique(choices, axis=0, return_inverse=True)
        for pattern_index, pattern in enumerate(patterns):
            shot_rows = np.nonzero(inverse == pattern_index)[0]
            tableau = self._run(program, initial_state, choices=pattern)
            bits = tableau.sample(shot_rows.size, rng)
            for row, shot in zip(bits, shot_rows):
                samples[int(shot)] = tuple(row)
        return SampleResult(qubits, samples)

    # ------------------------------------------------------------------
    def _compile(
        self,
        circuit: Circuit,
        qubits: Sequence[Qubit],
        resolver: Optional[ParamResolver],
    ) -> _CompiledClifford:
        """Lower the circuit to tableau primitives, classifying each gate once."""
        index_of: Dict[Qubit, int] = {qubit: i for i, qubit in enumerate(qubits)}
        steps: List[Tuple] = []
        num_channels = 0
        channel_cache: Dict[Tuple, Tuple[np.ndarray, List[str]]] = {}
        for operation in circuit.all_operations():
            if operation.is_measurement:
                continue
            try:
                positions = tuple(index_of[qubit] for qubit in operation.qubits)
            except KeyError as error:
                raise ValueError(
                    f"operation {operation!r} uses a qubit outside qubit_order"
                ) from error
            if isinstance(operation, NoiseOperation):
                key = operation.channel.cache_key(resolver)
                entry = channel_cache.get(key) if key is not None else None
                if entry is None:
                    mixture = channel_pauli_mixture(operation.channel, resolver)
                    if mixture is None:
                        raise UnsupportedCircuitError(
                            f"stabilizer backend requires single-qubit Pauli mixture "
                            f"noise; got {operation!r}"
                        )
                    probabilities = np.array([p for p, _ in mixture], dtype=float)
                    probabilities = np.maximum(probabilities, 0.0)
                    cumulative = np.cumsum(probabilities / probabilities.sum())
                    entry = (cumulative, [name for _, name in mixture])
                    if key is not None:
                        channel_cache[key] = entry
                steps.append(("noise", positions[0], num_channels, entry[0], entry[1]))
                num_channels += 1
                continue
            ops = operation_clifford_ops(operation, positions, resolver)
            if ops is None:
                raise UnsupportedCircuitError(
                    f"stabilizer backend requires Clifford gates; got non-Clifford "
                    f"operation {operation!r}"
                )
            if ops:
                steps.append(("gates", ops))
        return _CompiledClifford(len(qubits), steps, num_channels)

    @staticmethod
    def _draw_noise_choices(
        program: _CompiledClifford, repetitions: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-shot Pauli branch per channel, shape ``(repetitions, num_channels)``."""
        choices = np.zeros((repetitions, program.num_channels), dtype=np.uint8)
        for step in program.steps:
            if step[0] != "noise":
                continue
            _, _, slot, cumulative, _names = step
            draws = np.searchsorted(cumulative, rng.random(repetitions), side="right")
            choices[:, slot] = np.minimum(draws, len(cumulative) - 1)
        return choices

    def _run(
        self,
        program: _CompiledClifford,
        initial_state: int,
        choices: Optional[np.ndarray],
    ) -> Tableau:
        initial_bits = (
            index_to_bits(initial_state, program.num_qubits) if initial_state else None
        )
        tableau = Tableau(program.num_qubits, initial_bits)
        for step in program.steps:
            if step[0] == "gates":
                for op in step[1]:
                    tableau.apply(op.name, op.qubits)
            else:
                _, position, slot, _cumulative, names = step
                if choices is None:
                    raise ValueError("noise operation encountered in ideal simulation")
                pauli = names[int(choices[slot])]
                if pauli != "I":
                    tableau.apply(pauli, (position,))
        return tableau
