"""Automatic stabilizer-vs-dense backend dispatch.

A large slice of the benchmark suite — Bell/GHZ preparation, Deutsch–Jozsa,
Bernstein–Vazirani, Simon, hidden shift, error-correction-style Clifford
skeletons — is pure Clifford and therefore ``O(poly(n))`` on the stabilizer
tableau, while everything else needs a dense (or knowledge-compiled)
backend.

This module is now a thin compatibility layer over the unified execution
API (:mod:`repro.api`):

* :func:`select_backend` and :class:`BackendDecision` are re-exported from
  :mod:`repro.api.routing` — the single routing rule shared with
  ``repro.device("auto")``;
* :class:`HybridSimulator` keeps the drop-in
  :class:`~repro.simulator.base.Simulator` surface (``simulate`` /
  ``sample`` / ``decide`` / ``last_decision``) but delegates routing and
  execution to an internal :class:`~repro.api.device.Device` built over its
  own backend instances, so per-call behaviour (including default-generator
  sequencing) is unchanged.

Routing rules are documented in :mod:`repro.api.routing`; noisy
``simulate`` calls route to a separate ``noisy_fallback`` (a density-matrix
simulator by default) because they need a mixed-state representation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..api.routing import BackendDecision, select_backend
from ..circuits.circuit import Circuit

if TYPE_CHECKING:  # imported lazily at runtime (device.py imports this package)
    from ..api.device import Device
from ..circuits.parameters import ParamResolver
from ..circuits.passes import OptimizeSpec, resolve_pipeline, split_clifford_prefix
from ..circuits.qubits import Qubit
from ..linalg.tensor_ops import apply_unitary_to_state
from ..stabilizer import StabilizerSimulator
from ..stabilizer.simulator import DENSE_STATE_QUBITS
from .base import Simulator
from .results import SampleResult, StateVectorResult

__all__ = ["BackendDecision", "HybridSimulator", "select_backend"]


class HybridSimulator(Simulator):
    """Per-circuit automatic dispatch between the tableau and a dense backend.

    Parameters
    ----------
    fallback:
        Any :class:`~repro.simulator.base.Simulator` handling the
        non-Clifford route; defaults to a fresh
        :class:`~repro.statevector.StateVectorSimulator` seeded with
        ``seed``.
    noisy_fallback:
        The backend for ``simulate`` calls on *noisy* circuits, which need a
        mixed-state representation the default fallback lacks.  Defaults to
        a :class:`~repro.densitymatrix.DensityMatrixSimulator` when
        ``fallback`` is defaulted, and to ``fallback`` itself when the
        caller supplied one (their backend, their noise contract).
    seed:
        Seeds every owned backend's default generator.
    optimize:
        ``None``/``False`` (default) routes circuits as given;
        ``"auto"``/``True`` rewrites each circuit with
        :func:`repro.circuits.passes.default_pipeline` before routing (a
        :class:`~repro.circuits.passes.PassPipeline` runs that pipeline) and
        additionally enables **Clifford-prefix splitting** on the dense
        route: an ideal circuit whose head is Clifford runs that head on the
        stabilizer tableau and only the dense tail pays exponential cost
        (``last_decision.reason`` reports the split).
    """

    name = "hybrid"

    def __init__(
        self,
        fallback: Optional[Simulator] = None,
        noisy_fallback: Optional[Simulator] = None,
        seed: Optional[int] = None,
        optimize: OptimizeSpec = None,
    ):
        super().__init__(seed)
        self._pipeline = resolve_pipeline(optimize)
        if fallback is None:
            from ..statevector import StateVectorSimulator

            fallback = StateVectorSimulator(seed=seed)
            if noisy_fallback is None:
                from ..densitymatrix import DensityMatrixSimulator

                noisy_fallback = DensityMatrixSimulator(seed=seed)
        self.fallback = fallback
        self.noisy_fallback = noisy_fallback if noisy_fallback is not None else fallback
        self.stabilizer = StabilizerSimulator(seed=seed)
        # Instances are keyed by backend name; two *distinct* fallback
        # instances sharing a name would collide, so the noisy one gets a
        # synthetic key in that case (the Device resolves attached-instance
        # keys before consulting the registry).
        noisy_key = self.noisy_fallback.name
        if noisy_key == self.fallback.name and self.noisy_fallback is not self.fallback:
            noisy_key = f"{noisy_key}#noisy"
        from ..api.device import Device

        self._device = Device(
            backend="auto",
            seed=seed,
            fallback=self.fallback.name,
            noisy_fallback=noisy_key,
            instances={
                "stabilizer": self.stabilizer,
                self.fallback.name: self.fallback,
                noisy_key: self.noisy_fallback,
            },
        )
        #: The decision taken by the most recent ``simulate``/``sample`` call.
        self.last_decision: Optional[BackendDecision] = None

    @property
    def device(self) -> "Device":
        """The underlying :class:`~repro.api.device.Device` (batched runs)."""
        return self._device

    def decide(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver] = None,
        sampling: bool = True,
    ) -> BackendDecision:
        """The routing :func:`select_backend` would take for ``circuit``."""
        return self._device.decide(circuit, resolver, sampling=sampling)

    def _optimized(self, circuit: Circuit) -> Circuit:
        if self._pipeline is None:
            return circuit
        return self._pipeline.run(circuit).circuit

    def _prefix_state(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver],
        qubit_order: Optional[Sequence[Qubit]],
        initial_state: int,
        sampling: bool,
    ):
        """Tableau-prefix + dense-tail execution, or ``None`` when inapplicable.

        Fires only with ``optimize`` enabled, on ideal circuits the router
        sends to the dense fallback, when the circuit opens with a
        non-trivial Clifford block and is small enough to expand the tableau
        state densely.  Returns the final :class:`StateVectorResult`.
        """
        if self._pipeline is None or circuit.noise_operations():
            return None
        qubits = list(qubit_order) if qubit_order is not None else circuit.all_qubits()
        if len(qubits) > DENSE_STATE_QUBITS:
            return None
        decision = self._device.decide(circuit, resolver, sampling=sampling)
        if decision.backend != self.fallback.name:
            return None
        prefix, remainder = split_clifford_prefix(circuit, resolver)
        prefix_count = prefix.gate_count()
        tail_unitaries = remainder.unitary_operations()
        if prefix_count < 1 or not tail_unitaries:
            return None
        state = self.stabilizer.simulate(
            prefix, resolver, qubit_order=qubits, initial_state=initial_state
        ).state_vector
        position = {qubit: index for index, qubit in enumerate(qubits)}
        for operation in tail_unitaries:
            state = apply_unitary_to_state(
                state,
                operation.gate.unitary(resolver),
                [position[qubit] for qubit in operation.qubits],
                len(qubits),
            )
        self.last_decision = BackendDecision(
            self.fallback.name,
            f"clifford prefix ({prefix_count} ops) on tableau, "
            f"dense tail ({len(tail_unitaries)} ops)",
        )
        return StateVectorResult(qubits, state)

    def simulate(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_state: int = 0,
    ):
        """Run the circuit on the routed backend.

        Returns a :class:`~repro.stabilizer.StabilizerResult` on the tableau
        route and the fallback backend's native result otherwise; both expose
        ``qubits``, ``probabilities()`` and ``sample()``.
        """
        circuit = self._optimized(circuit)
        split = self._prefix_state(circuit, resolver, qubit_order, initial_state, sampling=False)
        if split is not None:
            return split
        result = self._device.simulate(circuit, resolver, qubit_order, initial_state)
        self.last_decision = self._device.last_decision
        return result

    def sample(
        self,
        circuit: Circuit,
        repetitions: int,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        seed: Optional[int] = None,
        initial_state: int = 0,
    ) -> SampleResult:
        """Draw samples from the routed backend (tableau when possible)."""
        circuit = self._optimized(circuit)
        split = self._prefix_state(circuit, resolver, qubit_order, initial_state, sampling=True)
        if split is not None:
            return split.sample(repetitions, rng=self._rng(seed))
        result = self._device.sample(
            circuit,
            repetitions,
            resolver=resolver,
            qubit_order=qubit_order,
            seed=seed,
            initial_state=initial_state,
        )
        self.last_decision = self._device.last_decision
        return result

    def __repr__(self) -> str:
        return f"<HybridSimulator fallback={type(self.fallback).__name__}>"
