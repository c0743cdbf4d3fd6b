"""Common simulator interface implemented by every backend.

The experiment harness (Figures 8 and 9) times "draw 1000 samples from the
final wavefunction" for several backends; a shared abstract interface keeps
those comparisons honest: every backend exposes the same ``simulate`` /
``sample`` entry points with identical circuit, parameter-resolver,
qubit-order and initial-state inputs.

Random-number contract
----------------------
Every backend owns one default generator, seeded by the ``seed`` passed to
its constructor.  ``sample(..., seed=None)`` draws from that shared default
generator (consecutive calls advance it), while an explicit per-call ``seed``
creates a fresh generator so the call is reproducible in isolation.  Both
paths go through :meth:`Simulator._rng`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.parameters import ParamResolver
from ..circuits.qubits import Qubit
from .results import SampleResult


class Simulator:
    """Abstract simulator backend."""

    name = "abstract"

    def __init__(self, seed: Optional[int] = None):
        self._default_rng = np.random.default_rng(seed)

    def simulate(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_state: int = 0,
    ):
        """Run the circuit and return a backend-specific result object.

        ``initial_state`` is the computational-basis index of the starting
        state (qubit 0 as the most significant bit, matching
        :func:`repro.linalg.tensor_ops.basis_state`).  Every backend honors
        it; backends that cannot prepare an arbitrary basis state for a given
        input must raise ``ValueError`` rather than silently ignore it.
        """
        raise NotImplementedError

    def sample(
        self,
        circuit: Circuit,
        repetitions: int,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        seed: Optional[int] = None,
        initial_state: int = 0,
    ) -> SampleResult:
        """Draw measurement samples from the circuit's final wavefunction.

        Args:
            circuit: The circuit to sample.
            repetitions: Number of bitstring samples to draw.
            resolver: Binds any symbolic parameters.
            qubit_order: Qubit-to-basis-position order (first qubit = most
                significant bit); defaults to the circuit's sorted qubits.
            seed: Per-call seed making this call reproducible in isolation;
                ``None`` draws from the backend's default generator.
            initial_state: Computational-basis index of the starting state
                (same contract as :meth:`simulate`); every backend honors it.

        Returns:
            A :class:`SampleResult` of ``repetitions`` bitstrings.
        """
        raise NotImplementedError

    def probabilities(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_state: int = 0,
    ) -> np.ndarray:
        """The circuit's ``(2^n,)`` output measurement distribution.

        Reads it off :meth:`simulate`'s result; a backend whose ``simulate``
        builds more than the distribution needs overrides this.
        """
        return self.simulate(circuit, resolver, qubit_order, initial_state).probabilities()

    def _rng(self, seed: Optional[int] = None) -> np.random.Generator:
        """Per-call generator for an explicit ``seed``; the shared default otherwise."""
        if seed is None:
            return self._default_rng
        return np.random.default_rng(seed)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"
