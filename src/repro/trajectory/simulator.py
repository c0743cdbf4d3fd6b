"""Lockstep batched quantum-trajectory simulation of noisy circuits.

The quantum-trajectory (Monte Carlo wavefunction) method replaces the dense
``2^n x 2^n`` density matrix of a noisy simulation by an ensemble of pure
states: every noise channel is *unravelled* into a stochastic jump — one
Kraus branch is selected per trajectory with its Born probability — so a
single trajectory costs the same ``2^n`` memory as an ideal state-vector
run.  Averaging ``|psi><psi|`` (or sampling one measurement per trajectory)
converges to the density-matrix result at the usual ``1/sqrt(T)`` Monte
Carlo rate, and is *exact* for measurement sampling when each sample comes
from its own trajectory.

The seed's :class:`~repro.statevector.simulator.StateVectorSimulator` already
implements this method one trajectory at a time.  This backend makes it a
scalable first-class citizen, mirroring the batched-evaluation design of the
many-chain Gibbs sampler:

* all ``B`` trajectories advance in lockstep through one compiled program —
  a ``(B, 2^n)`` array is transformed by one tensor contraction per step
  instead of ``B`` Python-level circuit walks;
* the circuit is compiled once per run: parameters are resolved a single
  time, channels are looked up in a per-gate-class cache, and runs of
  adjacent single-qubit unitaries on the same qubit are fused;
* mixture channels (the paper's depolarizing noise) select their unitary
  branch from *state-independent* probabilities, so only the trajectories
  that actually jump (about ``p * B`` rows per channel) are touched;
* general Kraus channels (amplitude/phase damping) compute all branch norms
  in one pass and renormalise only once per channel.

Trajectory batches are processed in chunks of ``max_batch_size`` to bound
peak memory at ``O(max_batch_size * 2^n)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.noise import NoiseOperation
from ..circuits.parameters import ParamResolver
from ..circuits.qubits import Qubit
from ..linalg.tensor_ops import (
    apply_unitary_to_state_batch,
    basis_state,
    indices_to_bitstrings,
)
from ..simulator.base import Simulator
from ..simulator.results import DensityMatrixResult, SampleResult, StateVectorResult

_ATOL = 1e-12


class _UnitaryStep:
    """Apply one (possibly fused) unitary to every trajectory."""

    __slots__ = ("targets", "matrix")

    def __init__(self, targets: Tuple[int, ...], matrix: np.ndarray):
        self.targets = targets
        self.matrix = matrix

    def apply(self, states: np.ndarray, num_qubits: int, rng: np.random.Generator) -> np.ndarray:
        return apply_unitary_to_state_batch(states, self.matrix, self.targets, num_qubits)


class _MixtureStep:
    """Unravel a mixture channel: per-trajectory branch choice from fixed probabilities.

    Because every branch is unitary, the branch probabilities do not depend
    on the state; trajectories that draw an identity branch are left
    untouched, so a sparse channel (e.g. 0.5% depolarizing) costs
    ``O(p * B * 2^n)`` instead of ``O(B * 2^n)``.
    """

    __slots__ = ("targets", "cumulative", "unitaries", "is_identity")

    def __init__(self, targets: Tuple[int, ...], mixture: Sequence[Tuple[float, np.ndarray]]):
        self.targets = targets
        probabilities = np.array([max(float(p), 0.0) for p, _ in mixture])
        self.cumulative = np.cumsum(probabilities / probabilities.sum())
        self.unitaries = [np.asarray(u, dtype=complex) for _, u in mixture]
        dim = self.unitaries[0].shape[0]
        identity = np.eye(dim)
        self.is_identity = [np.allclose(u, identity, atol=_ATOL) for u in self.unitaries]

    def apply(self, states: np.ndarray, num_qubits: int, rng: np.random.Generator) -> np.ndarray:
        choices = np.searchsorted(self.cumulative, rng.random(states.shape[0]), side="right")
        choices = np.minimum(choices, len(self.unitaries) - 1)
        for branch, unitary in enumerate(self.unitaries):
            if self.is_identity[branch]:
                continue
            rows = np.nonzero(choices == branch)[0]
            if rows.size:
                states[rows] = apply_unitary_to_state_batch(
                    states[rows], unitary, self.targets, num_qubits
                )
        return states


class _KrausStep:
    """Unravel a general channel: per-trajectory branch choice by Born probability."""

    __slots__ = ("targets", "operators")

    def __init__(self, targets: Tuple[int, ...], operators: Sequence[np.ndarray]):
        self.targets = targets
        self.operators = [np.asarray(op, dtype=complex) for op in operators]

    def apply(self, states: np.ndarray, num_qubits: int, rng: np.random.Generator) -> np.ndarray:
        candidates = np.stack(
            [
                apply_unitary_to_state_batch(states, op, self.targets, num_qubits)
                for op in self.operators
            ]
        )
        norms = np.einsum("kbd,kbd->kb", candidates, candidates.conj()).real
        totals = norms.sum(axis=0)
        if np.any(totals <= 0):
            raise ValueError("all Kraus branches have zero probability")
        cumulative = np.cumsum(norms / totals, axis=0)
        choices = (cumulative < rng.random(states.shape[0])).sum(axis=0)
        choices = np.minimum(choices, len(self.operators) - 1)
        chosen = candidates[choices, np.arange(states.shape[0])]
        chosen /= np.linalg.norm(chosen, axis=1, keepdims=True)
        return chosen


_Step = Union[_UnitaryStep, _MixtureStep, _KrausStep]


def compile_trajectory_program(
    circuit: Circuit,
    resolver: Optional[ParamResolver],
    index_of: Dict[Qubit, int],
) -> List[_Step]:
    """Lower a circuit to trajectory steps: fused unitaries and unravelled channels.

    Parameters and channels are resolved once here, so the per-step work
    during simulation is pure array arithmetic.
    """
    channel_cache: Dict[tuple, _Step] = {}
    steps: List[_Step] = []
    pending: Dict[int, np.ndarray] = {}

    def flush(target: int) -> None:
        matrix = pending.pop(target, None)
        if matrix is not None:
            steps.append(_UnitaryStep((target,), matrix))

    def channel_step(op: NoiseOperation, targets: Tuple[int, ...]) -> _Step:
        channel_key = op.channel.cache_key(resolver)
        key = None if channel_key is None else (channel_key, targets)
        if key is not None and key in channel_cache:
            return channel_cache[key]
        if op.channel.is_mixture:
            step: _Step = _MixtureStep(targets, op.channel.mixture(resolver))
        else:
            step = _KrausStep(targets, op.kraus_operators(resolver))
        if key is not None:
            channel_cache[key] = step
        return step

    for op in circuit.all_operations():
        if op.is_measurement:
            continue
        targets = tuple(index_of[q] for q in op.qubits)
        if isinstance(op, NoiseOperation):
            for target in targets:
                flush(target)
            steps.append(channel_step(op, targets))
        elif len(targets) == 1:
            target = targets[0]
            matrix = op.unitary(resolver)
            previous = pending.get(target)
            pending[target] = matrix if previous is None else matrix @ previous
        else:
            for target in targets:
                flush(target)
            steps.append(_UnitaryStep(targets, op.unitary(resolver)))
    for target in sorted(pending):
        steps.append(_UnitaryStep((target,), pending[target]))
    return steps


def _sample_indices_from_states(
    states: np.ndarray, per_trajectory: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``per_trajectory[b]`` basis-state indices from each row of ``states``.

    One flattened ``searchsorted`` serves the whole batch: per-row cumulative
    distributions are offset by the row number so row ``b`` occupies the value
    interval ``(b, b + 1]``.
    """
    probabilities = np.abs(states) ** 2
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    cumulative = np.cumsum(probabilities, axis=1)
    cumulative[:, -1] = 1.0
    batch, dim = probabilities.shape
    offsets = np.arange(batch)
    flat_cumulative = (cumulative + offsets[:, None]).ravel()
    row_of_sample = np.repeat(offsets, per_trajectory)
    draws = rng.random(row_of_sample.size) + row_of_sample
    positions = np.searchsorted(flat_cumulative, draws, side="right")
    return np.clip(positions - row_of_sample * dim, 0, dim - 1)


class TrajectorySimulator(Simulator):
    """Batched Monte Carlo wavefunction simulation of noisy circuits.

    Parameters
    ----------
    seed:
        Seed of the backend's shared default generator (see
        :class:`~repro.simulator.base.Simulator`).
    max_batch_size:
        Upper bound on the number of trajectories evolved in one lockstep
        batch; larger ensembles are processed in chunks of this size, keeping
        peak memory at ``O(max_batch_size * 2^n)``.
    """

    name = "trajectory"

    def __init__(self, seed: Optional[int] = None, max_batch_size: int = 512):
        super().__init__(seed)
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        self.max_batch_size = int(max_batch_size)

    # ------------------------------------------------------------------
    def simulate(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_state: int = 0,
        num_trajectories: int = 256,
        seed: Optional[int] = None,
    ) -> DensityMatrixResult:
        """Trajectory-averaged density matrix of the final state.

        For ideal circuits one trajectory suffices and the result is exact;
        for noisy circuits the estimate converges to the dense
        density-matrix result at the ``1/sqrt(num_trajectories)`` Monte
        Carlo rate.  Only sensible at qubit counts where the ``4^n`` output
        itself is representable — use :meth:`sample` or
        :meth:`estimate_probabilities` beyond that.

        Args:
            circuit: The circuit to run (noise channels allowed).
            resolver: Binds any symbolic parameters.
            qubit_order: Qubit-to-basis-position order.
            initial_state: Computational-basis index of the starting state.
            num_trajectories: Ensemble size for the Monte Carlo average.
            seed: Per-call seed; ``None`` uses the backend's default
                generator.

        Returns:
            A :class:`DensityMatrixResult` with the trajectory-averaged
            ``2^n x 2^n`` matrix.

        Raises:
            ValueError: If ``num_trajectories`` is not positive (raised
                during batch preparation).
        """
        rng = self._rng(seed)
        if not circuit.has_noise:
            num_trajectories = 1
        qubits, chunks = self._prepared_run(
            circuit, resolver, qubit_order, initial_state, num_trajectories
        )
        dim = 2 ** len(qubits)
        rho = np.zeros((dim, dim), dtype=complex)
        total = 0
        for states in self._final_state_chunks(chunks, len(qubits), rng):
            rho += np.einsum("bi,bj->ij", states, states.conj())
            total += states.shape[0]
        return DensityMatrixResult(qubits, rho / total)

    def simulate_trajectory(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_state: int = 0,
        seed: Optional[int] = None,
    ) -> StateVectorResult:
        """One pure-state trajectory (drop-in for the state-vector backend's API)."""
        rng = self._rng(seed)
        qubits, chunks = self._prepared_run(circuit, resolver, qubit_order, initial_state, 1)
        states = next(self._final_state_chunks(chunks, len(qubits), rng))
        return StateVectorResult(qubits, states[0])

    def estimate_probabilities(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_state: int = 0,
        num_trajectories: int = 256,
        seed: Optional[int] = None,
    ) -> np.ndarray:
        """Monte Carlo estimate of the ``2^n`` measurement probabilities.

        The trajectory average of ``|psi|^2`` — the diagonal of the density
        matrix without ever materialising the ``4^n`` matrix.

        Args:
            circuit: The circuit to run.
            resolver: Binds any symbolic parameters.
            qubit_order: Qubit-to-basis-position order.
            initial_state: Computational-basis index of the starting state.
            num_trajectories: Ensemble size (ideal circuits use one).
            seed: Per-call seed; ``None`` uses the backend's default
                generator.

        Returns:
            A ``(2^n,)`` float array summing to 1 (up to Monte Carlo noise).
        """
        rng = self._rng(seed)
        if not circuit.has_noise:
            num_trajectories = 1  # every trajectory of an ideal circuit is identical
        qubits, chunks = self._prepared_run(
            circuit, resolver, qubit_order, initial_state, num_trajectories
        )
        probabilities = np.zeros(2 ** len(qubits))
        total = 0
        for states in self._final_state_chunks(chunks, len(qubits), rng):
            probabilities += np.einsum("bd,bd->d", states, states.conj()).real
            total += states.shape[0]
        return probabilities / total

    def probabilities(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_state: int = 0,
    ) -> np.ndarray:
        """:meth:`estimate_probabilities` over the ensemble :meth:`simulate` averages.

        It draws the same trajectories as ``simulate()`` and sums the
        diagonal of its matrix, in ``O(max_batch_size * 2^n)`` memory
        instead of ``O(4^n)``.
        """
        return self.estimate_probabilities(circuit, resolver, qubit_order, initial_state)

    def sample(
        self,
        circuit: Circuit,
        repetitions: int,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        seed: Optional[int] = None,
        num_trajectories: Optional[int] = None,
        initial_state: int = 0,
    ) -> SampleResult:
        """Draw measurement samples from the noisy circuit's output distribution.

        By default every repetition is measured on its own trajectory, which
        makes each sample an exact draw from the density-matrix distribution
        (the trajectory unravelling is unbiased).  ``num_trajectories`` can
        cap the ensemble size below ``repetitions``; samples are then spread
        round-robin over the trajectories — still unbiased per sample, at
        the cost of correlation between samples sharing a trajectory.  Ideal
        circuits collapse to a single deterministic trajectory.

        Args:
            circuit: The circuit to sample.
            repetitions: Number of bitstring samples to draw.
            resolver: Binds any symbolic parameters.
            qubit_order: Qubit-to-basis-position order.
            seed: Per-call seed; ``None`` uses the backend's default
                generator.
            num_trajectories: Optional cap on the trajectory ensemble size.
            initial_state: Computational-basis index of the starting state.

        Returns:
            A :class:`SampleResult` of ``repetitions`` bitstrings.

        Raises:
            ValueError: If ``repetitions`` or ``num_trajectories`` is not
                positive.
        """
        if repetitions < 1:
            raise ValueError("repetitions must be positive")
        rng = self._rng(seed)
        if not circuit.has_noise:
            num_trajectories = 1
        elif num_trajectories is None:
            num_trajectories = repetitions
        else:
            num_trajectories = min(int(num_trajectories), repetitions)
            if num_trajectories < 1:
                raise ValueError("num_trajectories must be positive")
        qubits, chunks = self._prepared_run(
            circuit, resolver, qubit_order, initial_state, num_trajectories
        )
        num_qubits = len(qubits)
        # Round-robin allocation: the first (repetitions % T) trajectories
        # contribute one extra sample.
        base, extra = divmod(repetitions, num_trajectories)
        per_trajectory = np.full(num_trajectories, base, dtype=np.int64)
        per_trajectory[:extra] += 1
        samples: List[Tuple[int, ...]] = []
        consumed = 0
        for states in self._final_state_chunks(chunks, num_qubits, rng):
            counts = per_trajectory[consumed : consumed + states.shape[0]]
            consumed += states.shape[0]
            indices = _sample_indices_from_states(states, counts, rng)
            bits = indices_to_bitstrings(indices, num_qubits)
            samples.extend(map(tuple, bits.tolist()))
        return SampleResult(qubits, samples)

    # ------------------------------------------------------------------
    def _prepared_run(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver],
        qubit_order: Optional[Sequence[Qubit]],
        initial_state: int,
        num_trajectories: int,
    ):
        if num_trajectories < 1:
            raise ValueError("num_trajectories must be positive")
        qubits = list(qubit_order) if qubit_order is not None else circuit.all_qubits()
        index_of: Dict[Qubit, int] = {q: i for i, q in enumerate(qubits)}
        program = compile_trajectory_program(circuit, resolver, index_of)
        chunks = (program, basis_state(initial_state, len(qubits)), num_trajectories)
        return qubits, chunks

    def _final_state_chunks(self, chunks, num_qubits: int, rng: np.random.Generator):
        """Yield final ``(chunk, 2^n)`` state arrays, ``max_batch_size`` rows at a time."""
        program, initial, num_trajectories = chunks
        remaining = num_trajectories
        while remaining > 0:
            batch = min(remaining, self.max_batch_size)
            remaining -= batch
            states = np.tile(initial, (batch, 1))
            for step in program:
                states = step.apply(states, num_qubits, rng)
            yield states
