"""State-vector simulator (the reproduction's stand-in for Google qsim).

The simulator multiplies gate unitaries into a dense ``2^n`` state vector.
Ideal circuits are simulated exactly.  Noisy circuits can only be sampled:
``sample`` runs the quantum-trajectory engine of :mod:`repro.trajectory`
(each sample is measured on its own trajectory, which draws one Kraus branch
per channel with its Born probability), in chunks small enough to keep the
backend's ``2^n`` memory footprint.  The paper's Figure 8 baselines only
exercise the ideal path.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..circuits.circuit import Circuit
from ..circuits.parameters import ParamResolver
from ..circuits.qubits import Qubit
from ..errors import UnsupportedCircuitError
from ..linalg.tensor_ops import apply_unitary_to_state, basis_state
from ..simulator.base import Simulator
from ..simulator.results import SampleResult, StateVectorResult
from ..trajectory import simulator as trajectory

#: Amplitudes per trajectory chunk of a noisy sample (1 MiB of complex128):
#: ``2**16 >> n`` rows, one row per chunk past 16 qubits.
_CHUNK_AMPLITUDES = 1 << 16


class StateVectorSimulator(Simulator):
    """Dense state-vector simulation of ideal circuits; noisy ones sample by trajectories."""

    name = "state_vector"

    def __init__(self, seed: Optional[int] = None):
        super().__init__(seed)

    # ------------------------------------------------------------------
    def simulate(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_state: int = 0,
    ) -> StateVectorResult:
        """Simulate an ideal circuit exactly.

        Args:
            circuit: The noise-free circuit to run.
            resolver: Binds any symbolic parameters.
            qubit_order: Qubit-to-basis-position order (first qubit = most
                significant bit); defaults to the circuit's sorted qubits.
            initial_state: Computational-basis index of the starting state.

        Returns:
            A :class:`StateVectorResult` holding the final ``2^n`` vector.

        Raises:
            UnsupportedCircuitError: If the circuit contains noise
                operations; use :class:`~repro.trajectory.TrajectorySimulator`
                or :class:`~repro.densitymatrix.DensityMatrixSimulator` for
                those.
        """
        if circuit.has_noise:
            raise UnsupportedCircuitError(
                "StateVectorSimulator.simulate only supports ideal circuits; "
                "use TrajectorySimulator or DensityMatrixSimulator for noisy circuits"
            )
        qubits = list(qubit_order) if qubit_order is not None else circuit.all_qubits()
        index_of: Dict[Qubit, int] = {q: i for i, q in enumerate(qubits)}
        num_qubits = len(qubits)
        state = basis_state(initial_state, num_qubits)
        for op in circuit.all_operations():
            if op.is_measurement:
                continue
            targets = [index_of[q] for q in op.qubits]
            state = apply_unitary_to_state(state, op.unitary(resolver), targets, num_qubits)
        return StateVectorResult(qubits, state)

    def sample(
        self,
        circuit: Circuit,
        repetitions: int,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        seed: Optional[int] = None,
        initial_state: int = 0,
    ) -> SampleResult:
        """Draw samples from the final wavefunction.

        For ideal circuits the state is computed once and sampled
        ``repetitions`` times.  For noisy circuits each sample is measured on
        its own quantum trajectory (see :mod:`repro.trajectory`), so every
        sample is an independent exact draw from the density-matrix
        distribution.  The trajectories run in lockstep chunks of
        ``max(1, 2**16 >> n)`` rows, which keeps the backend's ``2^n``
        memory footprint.

        Args:
            circuit: The circuit to run.
            repetitions: Number of bitstring samples to draw.
            resolver: Binds any symbolic parameters.
            qubit_order: Qubit-to-basis-position order.
            seed: Per-call seed for reproducibility in isolation; ``None``
                draws from the backend's default generator.
            initial_state: Computational-basis index of the starting state.

        Returns:
            A :class:`SampleResult` of ``repetitions`` bitstrings.
        """
        rng = self._rng(seed)
        if not circuit.has_noise:
            result = self.simulate(circuit, resolver, qubit_order, initial_state)
            return result.sample(repetitions, rng)
        qubits = list(qubit_order) if qubit_order is not None else circuit.all_qubits()
        if repetitions < 1:
            return SampleResult(qubits, [])
        chunk_size = max(1, _CHUNK_AMPLITUDES >> len(qubits))
        return trajectory.sample_trajectories(
            circuit, repetitions, resolver, qubits, initial_state, rng, chunk_size
        )
