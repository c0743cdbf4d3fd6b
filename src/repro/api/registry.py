"""Capability-driven backend registry.

The registry maps backend names to ``(factory, capabilities)`` pairs.  The
six historical simulator classes are registered here at import time, so

* ``repro.device("state_vector")`` and friends resolve through one table,
* routing layers query declared capabilities instead of hard-coding
  per-backend special cases, and
* external code can plug in a new backend with :func:`register_backend`
  and immediately use it through :func:`repro.api.device.device`.

Factories receive ``seed`` as their only reserved keyword; any other
keyword arguments given to :func:`create_backend` pass straight through.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..errors import BackendCapabilityError
from .capabilities import NOISE_GENERAL, NOISE_NONE, NOISE_PAULI, BackendCapabilities

#: Dense backends keep a full 2^n (state) or 4^n (density) representation;
#: the ceilings below are where that stops being laptop-feasible and exist to
#: fail fast with a typed error instead of an allocation crash.
_DENSE_STATE_MAX_QUBITS = 26
_DENSE_DENSITY_MAX_QUBITS = 13
_KC_MAX_QUBITS = 30


class BackendRegistry:
    """Name -> (factory, capabilities) table with alias support."""

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[..., Any]] = {}
        self._capabilities: Dict[str, BackendCapabilities] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        capabilities: BackendCapabilities,
        factory: Callable[..., Any],
        replace: bool = False,
    ) -> None:
        """Register ``factory`` under ``capabilities.name`` (and its aliases)."""
        name = capabilities.name
        if not replace and (name in self._factories or name in self._aliases):
            raise BackendCapabilityError(f"backend {name!r} is already registered")
        self._factories[name] = factory
        self._capabilities[name] = capabilities
        for alias in capabilities.aliases:
            self._aliases[alias] = name

    def resolve(self, name: str) -> str:
        """Canonical backend name for ``name`` (following aliases)."""
        canonical = self._aliases.get(name, name)
        if canonical not in self._factories:
            raise BackendCapabilityError(
                f"unknown backend {name!r}; registered backends: {self.names()}"
            )
        return canonical

    def create(self, name: str, seed: Optional[int] = None, **options: Any) -> Any:
        """Instantiate the backend registered under ``name``."""
        return self._factories[self.resolve(name)](seed=seed, **options)

    def capabilities(self, name: str) -> BackendCapabilities:
        return self._capabilities[self.resolve(name)]

    def names(self) -> List[str]:
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except BackendCapabilityError:
            return False
        return True

    def capability_matrix(self) -> List[Dict[str, object]]:
        """One row per backend, for docs and introspection."""
        return [self._capabilities[name].matrix_row() for name in self.names()]


#: The process-wide registry behind ``repro.device``.
REGISTRY = BackendRegistry()


def register_backend(
    capabilities: BackendCapabilities, factory: Callable[..., Any], replace: bool = False
) -> None:
    """Register a backend in the global registry (see :class:`BackendRegistry`)."""
    REGISTRY.register(capabilities, factory, replace=replace)


def create_backend(name: str, seed: Optional[int] = None, **options: Any) -> Any:
    """Instantiate a registered backend by name."""
    return REGISTRY.create(name, seed=seed, **options)


def backend_capabilities(name: str) -> BackendCapabilities:
    """The declared capabilities of a registered backend."""
    return REGISTRY.capabilities(name)


def list_backends() -> List[str]:
    """Sorted names of every registered backend."""
    return REGISTRY.names()


def capability_matrix() -> List[Dict[str, object]]:
    """The full capability matrix (one dict per backend)."""
    return REGISTRY.capability_matrix()


# ----------------------------------------------------------------------
# Built-in backend registrations.  Factories import lazily so importing the
# registry does not pull in every backend module.
# ----------------------------------------------------------------------
def _state_vector_factory(seed: Optional[int] = None) -> Any:
    from ..statevector import StateVectorSimulator

    return StateVectorSimulator(seed=seed)


def _density_matrix_factory(seed: Optional[int] = None) -> Any:
    from ..densitymatrix import DensityMatrixSimulator

    return DensityMatrixSimulator(seed=seed)


def _tensor_network_factory(
    seed: Optional[int] = None, contraction_method: str = "greedy"
) -> Any:
    from ..tensornetwork import TensorNetworkSimulator

    return TensorNetworkSimulator(contraction_method=contraction_method, seed=seed)


def _trajectory_factory(seed: Optional[int] = None, **options: Any) -> Any:
    from ..trajectory import TrajectorySimulator

    return TrajectorySimulator(seed=seed, **options)


def _stabilizer_factory(seed: Optional[int] = None) -> Any:
    from ..stabilizer import StabilizerSimulator

    return StabilizerSimulator(seed=seed)


def _knowledge_compilation_factory(seed: Optional[int] = None, **options: Any) -> Any:
    from ..simulator.kc_simulator import KnowledgeCompilationSimulator

    return KnowledgeCompilationSimulator(seed=seed, **options)


register_backend(
    BackendCapabilities(
        name="state_vector",
        max_qubits=_DENSE_STATE_MAX_QUBITS,
        noise=NOISE_GENERAL,
        mixed_state=False,
        noisy_sampling=True,
        memory_exponent=1,
        default_item_timeout=300.0,
        description="dense 2^n state vector; noisy sampling by the trajectory engine, one trajectory per shot",
        aliases=("sv", "statevector"),
    ),
    _state_vector_factory,
)
register_backend(
    BackendCapabilities(
        name="density_matrix",
        max_qubits=_DENSE_DENSITY_MAX_QUBITS,
        noise=NOISE_GENERAL,
        mixed_state=True,
        noisy_sampling=True,
        memory_exponent=2,
        default_item_timeout=300.0,
        description="exact 4^n density matrix via fused superoperator programs",
        aliases=("dm", "densitymatrix"),
    ),
    _density_matrix_factory,
)
register_backend(
    BackendCapabilities(
        name="tensor_network",
        max_qubits=_DENSE_STATE_MAX_QUBITS,
        noise=NOISE_NONE,
        mixed_state=False,
        memory_exponent=1,
        default_item_timeout=300.0,
        description="amplitude queries by network contraction; MCMC sampling",
        aliases=("tn", "tensornetwork"),
    ),
    _tensor_network_factory,
)
register_backend(
    BackendCapabilities(
        name="trajectory",
        max_qubits=_DENSE_STATE_MAX_QUBITS,
        noise=NOISE_GENERAL,
        # simulate() returns a trajectory-averaged density matrix — a Monte
        # Carlo mixed-state estimate, unbiased but not exact.
        mixed_state=True,
        batched_sampling=True,
        noisy_sampling=True,
        memory_exponent=1,
        batch_memory=True,
        max_batch_size=512,
        default_item_timeout=300.0,
        description="batched (B, 2^n) lockstep Monte Carlo wavefunction ensembles",
    ),
    _trajectory_factory,
)
register_backend(
    BackendCapabilities(
        name="stabilizer",
        max_qubits=None,
        noise=NOISE_PAULI,
        clifford_only=True,
        mixed_state=False,
        batched_sampling=True,
        noisy_sampling=True,
        default_item_timeout=120.0,
        description="Aaronson-Gottesman tableau; poly(n) Clifford circuits",
    ),
    _stabilizer_factory,
)
register_backend(
    BackendCapabilities(
        name="knowledge_compilation",
        max_qubits=_KC_MAX_QUBITS,
        noise=NOISE_GENERAL,
        mixed_state=True,
        batched_sampling=True,
        noisy_sampling=True,
        default_item_timeout=600.0,
        description="compile-once d-DNNF arithmetic circuit; vectorized rebinding",
        aliases=("kc",),
    ),
    _knowledge_compilation_factory,
)
