"""Automatic stabilizer-vs-dense backend dispatch.

A large slice of the benchmark suite — Bell/GHZ preparation, Deutsch–Jozsa,
Bernstein–Vazirani, Simon, hidden shift, error-correction-style Clifford
skeletons — is pure Clifford and therefore ``O(poly(n))`` on the stabilizer
tableau, while everything else needs a dense (or knowledge-compiled)
backend.

This module is an adapter over the unified execution API
(:mod:`repro.api`):

* :func:`select_backend` and :class:`BackendDecision` are re-exported from
  :mod:`repro.api.routing` — the one routing function, shared with
  ``repro.device("auto")``;
* :class:`HybridSimulator` keeps the drop-in
  :class:`~repro.simulator.base.Simulator` surface (``simulate`` /
  ``sample`` / ``decide`` / ``last_decision``): it optionally rewrites the
  circuit, then hands it to an internal :class:`~repro.api.device.Device`
  built over its own backend instances, which routes and runs it.

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
from ..circuits.passes import OptimizeSpec, resolve_pipeline
from ..circuits.qubits import Qubit
from ..stabilizer import StabilizerSimulator
from .base import Simulator
from .results import SampleResult

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
        :class:`~repro.circuits.passes.PassPipeline` runs that pipeline).
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
        result = self._device.simulate(
            self._optimized(circuit), resolver, qubit_order, initial_state
        )
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
        result = self._device.sample(
            self._optimized(circuit),
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
