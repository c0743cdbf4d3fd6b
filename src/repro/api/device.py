"""The unified ``Device`` execution API: ``repro.device() -> Device.run() -> Job``.

One submission surface for every workload the code base used to serve with
bespoke harnesses:

* **capability-driven routing** — ``device("auto")`` routes each work item
  through :func:`repro.api.routing.select_backend` (the same classifier
  ``HybridSimulator`` uses), extended with observable-aware rules (dense
  reconstruction caps, phase-consistent state vectors, mixed-state needs);
  fixed-name devices validate every item against the backend's declared
  :class:`~repro.api.capabilities.BackendCapabilities` before any work runs;
* **batched submission** — ``run()`` accepts one circuit, a list of
  circuits, or a sweep spec (one circuit times many parameter points).
  Work items are grouped by ``circuit_topology_key`` so one knowledge
  compile serves every rebinding of a topology, and ideal Clifford items
  that share a resolved circuit share one tableau run;
* **async jobs** — ``run()`` validates its arguments once into a
  :class:`RunRequest`, plans the (backend, topology) groups and makes one
  :func:`~repro.api.scheduler.submit` call; ``block=False`` or ``jobs > 1``
  fans the groups out over worker processes.  The
  :class:`~repro.api.scheduler.Job` handle exposes ``status()`` /
  ``result()`` / ``cancel()`` and streams partial results.  Item ``i``
  always samples with ``seed + i``, so serial and parallel runs of the same
  batch are bit-identical.

The per-item result *rows* are plain dicts (see
:class:`~repro.api.results.BatchResult`); the legacy ``ParameterSweep``,
``HybridSimulator`` and ``VariationalLoop`` surfaces are now thin layers
over this module.
"""

from __future__ import annotations

import math
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.parameters import ParamResolver
from ..circuits.passes import OptimizeSpec, PipelineStats, resolve_pipeline
from ..circuits.qubits import Qubit
from ..circuits.topology import canonicalize_circuit
from ..errors import (
    BackendCapabilityError,
    InvalidRequestError,
    MemoryBudgetError,
    ReproError,
    RequestTypeError,
)
from ..knowledge.cache import CompiledCircuitCache
from ..linalg.tensor_ops import bits_to_index, index_to_bits
from ..simulator.results import SampleResult
from ..stabilizer.simulator import DENSE_PROBABILITY_QUBITS
from .capabilities import capability_violation
from .costmodel import CostModel
from .faults import FaultInjector, ItemFailure, RetryPolicy
from .journal import JobJournal
from .registry import REGISTRY, backend_capabilities, create_backend
from .results import BatchResult
from .routing import BackendDecision, select_backend
from .scheduler import Job, fault_tolerant, runs_inline, submit


def _assemble_batch(sorted_rows: List[Tuple[int, Dict]]) -> BatchResult:
    """Job ``assemble`` hook: item rows (already index-sorted) to a BatchResult."""
    return BatchResult([row for _, row in sorted_rows])

#: Observables one work item can record (same vocabulary as ParameterSweep).
OBSERVABLES = ("probabilities", "state_vector", "samples", "expectation")

#: Exact (amplitude-based) sampling on the compiled arithmetic circuit needs
#: the full 2^n distribution; beyond this it falls back to Gibbs chains.
EXACT_SAMPLING_QUBITS = 16

SweepPoint = Union[None, ParamResolver, Dict[str, float]]

KC_BACKEND = "knowledge_compilation"

#: One work item of a plan group: (index, circuit position, resolver, reason).
WorkItem = Tuple[int, int, Optional[ParamResolver], str]


@dataclass(frozen=True)
class RunRequest:
    """One :meth:`Device.run` submission, validated once.

    Every layer below ``run()`` reads this record: planning, the journal
    manifest, task payloads and the per-item evaluators.  ``item_timeout``
    and ``predicted`` are finalized after routing (``"auto"`` resolves from
    the routed backends; ``predicted`` maps item index to the cost model's
    predicted seconds).
    """

    observables: Tuple[str, ...]
    repetitions: int
    seed: Optional[int]
    jobs: int
    block: bool
    qubit_order: Optional[Tuple[Qubit, ...]]
    initial_bits: Optional[Tuple[int, ...]]
    initial_state: int
    objective: Any
    sampling: str
    retry: Optional[RetryPolicy]
    item_timeout: Union[None, float, str]
    checkpoint: Optional[str]
    job_id: Optional[str]
    on_error: str
    memory_budget: Optional[int]
    fault_injector: Optional[FaultInjector]
    predicted: Dict[int, float] = field(default_factory=dict)

    @classmethod
    def validated(
        cls,
        observables: Optional[Sequence[str]],
        repetitions: int,
        qubit_order: Optional[Sequence[Qubit]],
        initial_bits: Optional[Sequence[int]],
        **options: Any,
    ) -> "RunRequest":
        """Check ``run()``'s arguments and normalize them into a request."""
        if observables is None:
            observables = ("samples",) if repetitions > 0 else ("probabilities",)
        observables = list(observables)
        if repetitions and "samples" not in observables:
            observables.append("samples")
        unknown = set(observables) - set(OBSERVABLES)
        if unknown:
            raise InvalidRequestError(f"unknown observables: {sorted(unknown)}")
        if "expectation" in observables and options["objective"] is None:
            raise InvalidRequestError("the 'expectation' observable requires an objective callable")
        if "samples" in observables and repetitions <= 0:
            raise InvalidRequestError("the 'samples' observable requires repetitions > 0")
        sampling = options["sampling"]
        if sampling not in ("auto", "exact", "gibbs"):
            raise InvalidRequestError(f"sampling must be 'auto', 'exact' or 'gibbs', got {sampling!r}")
        if options["on_error"] not in ("raise", "partial"):
            raise InvalidRequestError(
                f"on_error must be 'raise' or 'partial', got {options['on_error']!r}"
            )
        item_timeout = options["item_timeout"]
        if isinstance(item_timeout, str) and item_timeout != "auto":
            raise InvalidRequestError(
                f"item_timeout must be a number, None or 'auto', got {item_timeout!r}"
            )
        if options["job_id"] is not None and options["checkpoint"] is None:
            raise InvalidRequestError("job_id requires a checkpoint directory")
        return cls(
            observables=tuple(observables),
            repetitions=repetitions,
            qubit_order=tuple(qubit_order) if qubit_order is not None else None,
            initial_bits=tuple(initial_bits) if initial_bits is not None else None,
            initial_state=bits_to_index(initial_bits) if initial_bits else 0,
            **options,
        )

    def manifest(self) -> Dict[str, Any]:
        """The ``run()`` keyword arguments a journal stores for a resume."""
        return {name: getattr(self, name) for name in _MANIFEST_FIELDS}


#: The :class:`RunRequest` fields a journal manifest replays on resume.
_MANIFEST_FIELDS = (
    "observables", "repetitions", "seed", "jobs", "qubit_order", "initial_bits",
    "objective", "sampling", "retry", "item_timeout", "on_error", "memory_budget",
)


@dataclass
class _Group:
    """One plan entry: the items routed to ``backend`` that share ``topology``."""

    backend: str
    topology: str
    circuits: List[Circuit] = field(default_factory=list)
    items: List[WorkItem] = field(default_factory=list)
    positions: Dict[int, int] = field(default_factory=dict)

    def add(self, index: int, circuit: Circuit, resolver, reason: str) -> None:
        pos = self.positions.get(id(circuit))
        if pos is None:
            pos = self.positions[id(circuit)] = len(self.circuits)
            self.circuits.append(circuit)
        self.items.append((index, pos, resolver, reason))


def as_resolver(point: SweepPoint) -> Optional[ParamResolver]:
    """Normalize one parameter point (``None`` / mapping / resolver) to a resolver."""
    if point is None or isinstance(point, ParamResolver):
        return point
    return ParamResolver(dict(point))


def _resolver_key(resolver: Optional[ParamResolver]) -> Optional[Tuple]:
    """Hashable identity of a parameter binding (for result sharing)."""
    if resolver is None:
        return None
    return tuple(sorted(resolver.as_dict().items()))


# ----------------------------------------------------------------------
# Work-item evaluation.  Module-level so worker processes can run the
# exact same code path as the inline loop.
# ----------------------------------------------------------------------
def _item_seed(request: RunRequest, index: int) -> Optional[int]:
    """Deterministic per-item seed: ``seed + index`` (``None`` stays ``None``)."""
    return None if request.seed is None else request.seed + index


def _maybe_inject_fault(request: RunRequest, index: int, attempt: int) -> None:
    """Chaos hook: let a configured fault injector fail this (item, attempt)."""
    if request.fault_injector is not None:
        request.fault_injector(index, attempt)


def _base_row(index: int, resolver: Optional[ParamResolver], backend: str, reason: str) -> Dict:
    return {
        "index": index,
        "parameters": {} if resolver is None else resolver.as_dict(),
        "backend": backend,
        "reason": reason,
    }


def _finish_row(row: Dict, index: int, request: RunRequest, started: float) -> Dict:
    """Attach per-item timing telemetry: measured, and (cost mode) predicted.

    ``elapsed_seconds`` is a pure observation — nothing downstream branches
    on it, so serial/pooled/resumed runs stay bit-identical in every
    *result* field while mispredictions remain visible per row.
    """
    row["elapsed_seconds"] = time.perf_counter() - started
    if index in request.predicted:
        row["predicted_seconds"] = request.predicted[index]
    return row


def _record_samples(row: Dict, samples: SampleResult) -> None:
    row["samples"] = samples
    row["counts"] = samples.bitstring_counts()


def _sample_from_probabilities(
    qubits: Sequence[Qubit],
    probabilities: np.ndarray,
    repetitions: int,
    rng: np.random.Generator,
) -> SampleResult:
    """Exact multinomial draw from a dense output distribution."""
    probabilities = np.clip(np.asarray(probabilities, dtype=float), 0.0, None)
    probabilities = probabilities / probabilities.sum()
    indices = rng.choice(len(probabilities), size=repetitions, p=probabilities)
    return SampleResult(qubits, [index_to_bits(int(i), len(qubits)) for i in indices])


def _evaluate_kc_item(sim, compiled, index: int, resolver, reason: str, request: RunRequest) -> Dict:
    """One item on the knowledge-compilation backend (shared compile)."""
    observables = request.observables
    row = _base_row(index, resolver, KC_BACKEND, reason)
    probabilities: Optional[np.ndarray] = None
    sampling = request.sampling
    exact = (
        "samples" in observables
        and sampling in ("auto", "exact")
        and not compiled.noise_variables
        and compiled.num_qubits <= EXACT_SAMPLING_QUBITS
    )
    if sampling == "exact" and "samples" in observables and not exact:
        raise BackendCapabilityError(
            "exact sampling needs an ideal circuit with at most "
            f"{EXACT_SAMPLING_QUBITS} qubits; use sampling='auto' or 'gibbs'"
        )
    if "probabilities" in observables or "expectation" in observables or exact:
        probabilities = compiled.probabilities(resolver)
    if "probabilities" in observables:
        row["probabilities"] = probabilities
    if "expectation" in observables:
        row["expectation"] = float(request.objective(probabilities))
    if "state_vector" in observables:
        row["state_vector"] = compiled.state_vector(resolver)
    if "samples" in observables:
        seed = _item_seed(request, index)
        if exact:
            rng = sim._rng(seed)
            _record_samples(
                row,
                _sample_from_probabilities(
                    compiled.qubits, probabilities, request.repetitions, rng
                ),
            )
        else:
            _record_samples(
                row,
                sim.sample(compiled, request.repetitions, resolver=resolver, seed=seed),
            )
    return row


def _evaluate_stabilizer_item(
    sim, circuit, pos: int, index: int, resolver, reason: str, request: RunRequest, shared: Dict
) -> Dict:
    """One item on the tableau; ideal items sharing a binding share one run."""
    observables = request.observables
    row = _base_row(index, resolver, "stabilizer", reason)
    if circuit.has_noise:
        # Stochastic Pauli unravelling: every shot draws its own jump
        # pattern, so there is no shared deterministic tableau to reuse.
        _record_samples(
            row,
            sim.sample(
                circuit,
                request.repetitions,
                resolver=resolver,
                qubit_order=request.qubit_order,
                seed=_item_seed(request, index),
                initial_state=request.initial_state,
            ),
        )
        return row
    key = (pos, _resolver_key(resolver))
    result = shared.get(key)
    if result is None:
        result = sim.simulate(circuit, resolver, request.qubit_order, request.initial_state)
        shared[key] = result
    if "probabilities" in observables or "expectation" in observables:
        probabilities = result.probabilities()
        if "probabilities" in observables:
            row["probabilities"] = probabilities
        if "expectation" in observables:
            row["expectation"] = float(request.objective(probabilities))
    if "state_vector" in observables:
        row["state_vector"] = result.state_vector
    if "samples" in observables:
        seed = _item_seed(request, index)
        rng = np.random.default_rng(seed) if seed is not None else sim._rng()
        _record_samples(row, result.sample(request.repetitions, rng))
    return row


def _evaluate_generic_item(
    sim, name: str, circuit, index: int, resolver, reason: str, request: RunRequest
) -> Dict:
    """One item on any uniform-interface backend (simulate/sample contract)."""
    observables = request.observables
    row = _base_row(index, resolver, name, reason)
    if any(o in observables for o in ("probabilities", "expectation", "state_vector")):
        result = sim.simulate(circuit, resolver, request.qubit_order, request.initial_state)
        if "probabilities" in observables or "expectation" in observables:
            probabilities = result.probabilities()
            if "probabilities" in observables:
                row["probabilities"] = probabilities
            if "expectation" in observables:
                row["expectation"] = float(request.objective(probabilities))
        if "state_vector" in observables:
            state = getattr(result, "state_vector", None)
            if state is None:
                raise BackendCapabilityError(
                    f"backend {name!r} produces a mixed state; "
                    "it cannot record the 'state_vector' observable"
                )
            row["state_vector"] = np.asarray(state)
    if "samples" in observables:
        _record_samples(
            row,
            sim.sample(
                circuit,
                request.repetitions,
                resolver=resolver,
                qubit_order=request.qubit_order,
                seed=_item_seed(request, index),
                initial_state=request.initial_state,
            ),
        )
    return row


def _evaluate_items(
    sim,
    backend: str,
    circuits: List[Circuit],
    items: List[WorkItem],
    request: RunRequest,
    attempt: int = 0,
    group_master=None,
    memo: Optional[Dict] = None,
) -> List[Tuple[int, Dict]]:
    """Evaluate one backend group's items; shared by workers and inline runs.

    ``attempt`` is the task's attempt number (for the fault injector).
    ``group_master`` is an optional pre-compiled :class:`CompiledCircuit`
    for the group's shared topology (the Device's per-topology memo);
    circuits then rebind against it instead of recompiling.  ``memo`` is an
    optional mutable dict shared across calls of the *same group in the same
    process* (the inline loop runs one task per item): it carries the
    per-position rebind / shared-tableau memos that a single batched call
    keeps in locals, so per-item dispatch stays compile-once.
    """
    rows: List[Tuple[int, Dict]] = []
    # KC: rebound compiles by circuit position; stabilizer: shared tableaux.
    memo = {} if memo is None else memo
    for index, pos, resolver, reason in items:
        _maybe_inject_fault(request, index, attempt)
        circuit = circuits[pos]
        if backend == KC_BACKEND:
            # All circuits in a group share one topology: the first circuit
            # pays the compile (or cache hit), the rest are rebound views
            # over the same arithmetic circuit — compile-once even with
            # caching disabled.
            compiled = memo.get(pos)
            if compiled is None:
                if group_master is None:
                    compiled = group_master = sim.compile_circuit(
                        circuit,
                        qubit_order=request.qubit_order,
                        initial_bits=request.initial_bits,
                    )
                else:
                    canonical = canonicalize_circuit(
                        circuit,
                        qubit_order=request.qubit_order,
                        initial_bits=request.initial_bits,
                    )
                    compiled = group_master.rebound_for(
                        circuit, canonical.bindings, request.qubit_order
                    )
                memo[pos] = compiled
            started = time.perf_counter()
            row = _evaluate_kc_item(sim, compiled, index, resolver, reason, request)
        elif backend == "stabilizer":
            started = time.perf_counter()
            row = _evaluate_stabilizer_item(
                sim, circuit, pos, index, resolver, reason, request, memo
            )
        else:
            started = time.perf_counter()
            row = _evaluate_generic_item(sim, backend, circuit, index, resolver, reason, request)
        rows.append((index, _finish_row(row, index, request, started)))
    return rows


def _pack_chunks(
    items: List[WorkItem],
    chunk_size: int,
    predicted: Optional[Dict[int, float]],
    cost_target: float,
) -> List[List[WorkItem]]:
    """Split one group's items into pool chunks.

    With cost-mode predictions covering the group (``cost_target > 0``),
    items are greedily packed until a chunk's *predicted* runtime reaches
    the target — order-preserving and deterministic, so per-item
    ``seed + index`` results are unchanged; only the work distribution
    shifts.  Otherwise falls back to fixed-size slices.
    """
    if (
        cost_target > 0.0
        and predicted
        and all(item[0] in predicted for item in items)
    ):
        chunks: List[List[WorkItem]] = []
        current: List[WorkItem] = []
        current_cost = 0.0
        for item in items:
            cost = predicted[item[0]]
            if current and current_cost + cost > cost_target:
                chunks.append(current)
                current = []
                current_cost = 0.0
            current.append(item)
            current_cost += cost
        if current:
            chunks.append(current)
        return chunks
    return [
        items[start : start + chunk_size] for start in range(0, len(items), chunk_size)
    ]


def _worker_backend(payload: Dict):
    """Construct the backend instance inside a worker process."""
    options = dict(payload["backend_options"])
    if payload["backend"] == KC_BACKEND and payload.get("cache_dir"):
        options["cache"] = CompiledCircuitCache(directory=payload["cache_dir"])
    return create_backend(payload["backend"], seed=payload["request"].seed, **options)


def _run_chunk(payload: Dict) -> List[Tuple[int, Dict]]:
    """Task body: evaluate one chunk of a group's items.

    Inline tasks carry this process's live backend (``sim``), the device's
    memoized group master and the group's shared memo — they never cross a
    process boundary.  Pooled tasks name the backend instead and hydrate a
    fresh instance inside the worker.
    """
    sim = payload["sim"] if "sim" in payload else _worker_backend(payload)
    return _evaluate_items(
        sim,
        payload["backend"],
        payload["circuits"],
        payload["items"],
        payload["request"],
        attempt=payload.get("attempt", 0),
        group_master=payload.get("master"),
        memo=payload.get("memo"),
    )


def persist_compile(sim, compiled, directory: str, qubit_order=None, initial_bits=None) -> None:
    """Write a compiled artifact where pool workers will look for it."""
    from ..simulator.kc_simulator import _encoding_fingerprint

    disk = CompiledCircuitCache(directory=directory)
    key = sim.cache_key_for(
        compiled.circuit,
        qubit_order=qubit_order,
        initial_bits=initial_bits,
        elide_internal=compiled.elided,
    )
    if disk.load_payload(key) is None:
        disk.store_payload(
            key,
            {
                "arithmetic_circuit": compiled.arithmetic_circuit,
                "fingerprint": _encoding_fingerprint(compiled.encoding),
            },
        )


# ----------------------------------------------------------------------
class Device:
    """One execution endpoint: a fixed backend, or capability-driven routing.

    Parameters
    ----------
    backend:
        A registered backend name, or ``"auto"`` (alias ``"hybrid"``) for
        per-item routing through the Clifford/topology classifiers.
    seed:
        Seeds every backend instance this device creates.
    fallback, noisy_fallback:
        Backend names for the non-Clifford route under ``"auto"``.
        ``fallback`` defaults to ``"state_vector"``; ``noisy_fallback``
        defaults to ``"density_matrix"`` when ``fallback`` is defaulted and
        to ``fallback`` itself otherwise (mixed-state queries need it).
    instances:
        Pre-built backend instances to use instead of fresh registry
        creations (how the legacy shims wrap their existing simulators).
    backend_options:
        Extra constructor keywords for backends this device creates,
        keyed by backend name.
    routing:
        ``"rules"`` (default) routes ``"auto"`` items by the classification
        rules; ``"cost"`` ranks the capable backends with a calibrated
        cost model and picks the predicted-fastest (falling back to the
        rules when no model is available).  Fixed-name devices ignore this.
    cost_model:
        A :class:`~repro.api.costmodel.CostModel`, or a path to a persisted
        artifact, used by ``routing="cost"``.  ``None`` resolves the
        ambient :func:`~repro.api.costmodel.default_cost_model`.
    """

    def __init__(
        self,
        backend: str = "auto",
        seed: Optional[int] = None,
        fallback: Optional[str] = None,
        noisy_fallback: Optional[str] = None,
        instances: Optional[Dict[str, Any]] = None,
        backend_options: Optional[Dict[str, Dict]] = None,
        routing: str = "rules",
        cost_model: Union[None, str, CostModel] = None,
    ):
        if routing not in ("rules", "cost"):
            raise InvalidRequestError(
                f"routing must be 'rules' or 'cost', got {routing!r}"
            )
        self.routing = routing
        self._cost_model: Optional[CostModel] = (
            CostModel.load(cost_model) if isinstance(cost_model, str) else cost_model
        )
        self._instances: Dict[str, Any] = dict(instances or {})
        self._backend_options: Dict[str, Dict] = dict(backend_options or {})
        # Constructor spec for job manifests: enough to re-create an
        # equivalent device in a resume (attached instances are rebuilt
        # fresh from the registry — they may not be picklable).  The cost
        # model itself is not serialized: a resume replays checkpointed rows
        # and re-routes only unfinished items, against the ambient artifact.
        self._config: Dict[str, Any] = {
            "backend": backend,
            "seed": seed,
            "fallback": fallback,
            "noisy_fallback": noisy_fallback,
            "backend_options": dict(backend_options or {}),
            "routing": routing,
        }
        # Per-topology memo of knowledge compiles this device performed, so
        # repeated run() calls reuse the artifact even when the simulator's
        # own cache is disabled (cache=None isolation setups).
        self._kc_masters: "OrderedDict[str, Any]" = OrderedDict()
        #: Per-distinct-circuit rewrite stats from the most recent
        #: ``run(optimize=...)`` call (``None`` when optimization was off).
        self.last_optimization: Optional[Tuple[PipelineStats, ...]] = None
        if backend in ("auto", "hybrid"):
            self.backend = "auto"
        else:
            self.backend = self._resolve(backend)
        self.seed = seed
        if fallback is None:
            self._fallback = "state_vector"
            self._noisy_fallback = (
                self._resolve(noisy_fallback) if noisy_fallback else "density_matrix"
            )
        else:
            self._fallback = self._resolve(fallback)
            self._noisy_fallback = (
                self._resolve(noisy_fallback) if noisy_fallback else self._fallback
            )
        #: The decision taken by the most recent simulate/sample call.
        self.last_decision: Optional[BackendDecision] = None

    # ------------------------------------------------------------------
    def _resolve(self, name: str) -> str:
        """Canonical backend name: an attached instance's name, or a registry name."""
        if name in self._instances:
            return name
        return REGISTRY.resolve(name)

    def backend_instance(self, name: str):
        """The (lazily created, cached) backend instance for ``name``."""
        if name in self._instances:
            return self._instances[name]
        name = REGISTRY.resolve(name)
        instance = self._instances.get(name)
        if instance is None:
            instance = create_backend(
                name, seed=self.seed, **self._backend_options.get(name, {})
            )
            self._instances[name] = instance
        return instance

    def capabilities(self):
        """Declared capabilities of this device's backend (fixed devices only)."""
        if self.backend == "auto":
            raise BackendCapabilityError("device('auto') routes per item; ask a fixed device")
        return backend_capabilities(self.backend)

    def _kc_group_master(
        self, sim, circuit: Circuit, topology: str, qubit_order, initial_bits
    ):
        """This device's memoized knowledge compile for ``topology``."""
        master = self._kc_masters.get(topology)
        if master is None:
            master = sim.compile_circuit(
                circuit, qubit_order=qubit_order, initial_bits=initial_bits
            )
            self._kc_masters[topology] = master
            while len(self._kc_masters) > 8:
                self._kc_masters.popitem(last=False)
        else:
            self._kc_masters.move_to_end(topology)
        return master

    def compiled_master(
        self,
        circuit: Circuit,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_bits: Optional[Sequence[int]] = None,
    ):
        """The device's memoized compile for ``circuit``'s topology, rebound to it.

        Returns ``None`` when no run has compiled that topology yet.
        """
        order = list(qubit_order) if qubit_order is not None else None
        canonical = canonicalize_circuit(circuit, qubit_order=order, initial_bits=initial_bits)
        master = self._kc_masters.get(canonical.topology_key)
        if master is None:
            return None
        return master.rebound_for(circuit, canonical.bindings, order)

    def ensure_compiled(
        self,
        circuit: Circuit,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_bits: Optional[Sequence[int]] = None,
    ):
        """Compile ``circuit``'s topology now (through the device memo).

        Later ``run()`` batches over the same topology reuse the artifact —
        one exponential compile total, even with the simulator's own cache
        disabled.  Returns the compile rebound to ``circuit``.
        """
        order = list(qubit_order) if qubit_order is not None else None
        canonical = canonicalize_circuit(circuit, qubit_order=order, initial_bits=initial_bits)
        sim = self.backend_instance(KC_BACKEND)
        master = self._kc_group_master(
            sim, circuit, canonical.topology_key, order, initial_bits
        )
        return master.rebound_for(circuit, canonical.bindings, order)

    def _fallback_name(self, circuit: Circuit, sampling: bool) -> str:
        if not sampling and circuit.has_noise:
            return self._noisy_fallback
        return self._fallback

    # ------------------------------------------------------------------
    # Single-item entry points (the legacy Simulator-shaped surface).
    # ------------------------------------------------------------------
    def decide(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver] = None,
        sampling: bool = True,
        repetitions: int = 0,
    ) -> BackendDecision:
        """The routing decision for one circuit (without running it)."""
        if self.backend != "auto":
            return BackendDecision(self.backend, "fixed backend")
        return select_backend(
            circuit,
            resolver,
            fallback=self._fallback_name(circuit, sampling),
            sampling=sampling,
            mode=self.routing,
            cost_model=self._cost_model,
            repetitions=repetitions,
        )

    def simulate(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_state: int = 0,
    ):
        """Run one circuit on the routed backend, returning its native result."""
        decision = self.decide(circuit, resolver, sampling=False)
        self.last_decision = decision
        return self.backend_instance(decision.backend).simulate(
            circuit, resolver, qubit_order, initial_state
        )

    def sample(
        self,
        circuit: Circuit,
        repetitions: int,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        seed: Optional[int] = None,
        initial_state: int = 0,
    ) -> SampleResult:
        """Draw samples from one circuit on the routed backend."""
        decision = self.decide(circuit, resolver, sampling=True)
        self.last_decision = decision
        return self.backend_instance(decision.backend).sample(
            circuit,
            repetitions,
            resolver=resolver,
            qubit_order=qubit_order,
            seed=seed,
            initial_state=initial_state,
        )

    # ------------------------------------------------------------------
    # Batched submission.
    # ------------------------------------------------------------------
    def _route_item(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver],
        observables: Sequence[str],
        num_qubits: int,
        repetitions: int = 0,
    ) -> BackendDecision:
        sampling_only = all(o == "samples" for o in observables)
        wants_dense = "probabilities" in observables or "expectation" in observables
        if self.backend != "auto":
            decision = BackendDecision(self.backend, "fixed backend")
        else:
            decision = self.decide(
                circuit, resolver, sampling=sampling_only, repetitions=repetitions
            )
            if decision.backend == "stabilizer" and not sampling_only:
                if "state_vector" in observables:
                    decision = BackendDecision(
                        self._fallback_name(circuit, sampling=False),
                        "state-vector observable needs phase-consistent amplitudes",
                    )
                elif wants_dense and num_qubits > DENSE_PROBABILITY_QUBITS:
                    decision = BackendDecision(
                        self._fallback_name(circuit, sampling=False),
                        f"dense probabilities capped at {DENSE_PROBABILITY_QUBITS} qubits",
                    )
        if decision.backend in REGISTRY:
            problem = capability_violation(
                backend_capabilities(decision.backend), num_qubits, circuit.has_noise, observables
            )
            if problem is not None:
                raise BackendCapabilityError(problem)
        return decision

    def _memory_guard(
        self,
        decision: BackendDecision,
        circuit: Circuit,
        observables: Sequence[str],
        num_qubits: int,
        budget: Optional[int],
        repetitions: int = 0,
    ) -> BackendDecision:
        """Reject or reroute items whose dense footprint exceeds ``budget``.

        The estimate is batch-aware: backends declaring ``batch_memory``
        (the trajectory ensemble's ``(B, 2^n)`` state) are charged for
        ``min(repetitions, max_batch_size)`` simultaneous rows, not one.

        Auto-routing devices degrade gracefully: an over-budget dense route
        falls back to a capable backend with a smaller footprint (the
        ``4^n`` density matrix downgrades to ``2^n`` Monte Carlo
        trajectories; Clifford work already routes to the poly(n) tableau).
        Fixed devices, and items no cheaper backend can serve, raise a typed
        :class:`~repro.errors.MemoryBudgetError` *before* any allocation.
        """
        if budget is None or decision.backend not in REGISTRY:
            return decision
        batch = max(1, repetitions)
        caps = backend_capabilities(decision.backend)
        estimate = caps.estimated_memory_bytes(num_qubits, batch_size=batch)
        if estimate is None or estimate <= budget:
            return decision
        if self.backend == "auto" and "state_vector" not in observables:
            for candidate in ("trajectory",):
                if capability_violation(
                    backend_capabilities(candidate),
                    num_qubits,
                    circuit.has_noise,
                    observables,
                    memory_budget=budget,
                    batch_size=batch,
                ) is not None:
                    continue
                return BackendDecision(
                    candidate,
                    f"memory budget: {decision.backend} needs ~{estimate:,} B "
                    f"(> {budget:,} B); downgraded to {candidate}",
                )
        raise MemoryBudgetError(
            f"work item needs ~{estimate:,} B on backend {decision.backend!r} "
            f"({num_qubits} qubits), exceeding the {budget:,} B memory budget, "
            "and no cheaper capable backend exists"
        )

    def _normalize_items(
        self, circuits, params
    ) -> List[Tuple[Circuit, Optional[ParamResolver]]]:
        if isinstance(circuits, Circuit):
            base: List[Circuit] = [circuits]
            single = True
        else:
            base = list(circuits)
            single = False
            for circuit in base:
                if not isinstance(circuit, Circuit):
                    raise RequestTypeError(
                        f"run() expects circuits, got {type(circuit).__name__}"
                    )
        if not base:
            raise InvalidRequestError("run() needs at least one circuit")
        if params is None:
            return [(circuit, None) for circuit in base]
        points = [as_resolver(point) for point in params]
        if single:
            # Sweep spec: one circuit crossed with every parameter point.
            return [(base[0], point) for point in points]
        if len(points) != len(base):
            raise InvalidRequestError(
                f"params length {len(points)} does not match circuit count {len(base)}"
            )
        return list(zip(base, points))

    def run(
        self,
        circuits,
        params: Optional[Sequence[SweepPoint]] = None,
        observables: Optional[Sequence[str]] = None,
        repetitions: int = 0,
        seed: Optional[int] = 0,
        jobs: int = 1,
        block: bool = True,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_bits: Optional[Sequence[int]] = None,
        objective=None,
        sampling: str = "auto",
        retry: Optional[RetryPolicy] = None,
        item_timeout: Union[None, float, str] = None,
        checkpoint: Optional[str] = None,
        job_id: Optional[str] = None,
        on_error: str = "raise",
        memory_budget: Optional[int] = None,
        fault_injector: Optional[FaultInjector] = None,
        optimize: OptimizeSpec = None,
    ) -> Job:
        """Submit a batch of work items and return its :class:`Job`.

        Parameters
        ----------
        circuits:
            A single :class:`~repro.circuits.circuit.Circuit`, a sequence of
            circuits, or — together with ``params`` — a sweep spec (one
            circuit evaluated at every parameter point).
        params:
            Parameter points (resolvers / ``{symbol: value}`` mappings /
            ``None``).  With one circuit this is a sweep; with a circuit
            list it must match one-to-one.
        observables:
            Any of ``"samples"``, ``"probabilities"``, ``"state_vector"``,
            ``"expectation"``.  Defaults to ``("samples",)`` when
            ``repetitions > 0`` and ``("probabilities",)`` otherwise.
        repetitions:
            Samples per item (``"samples"`` is implied when positive).
        seed:
            Base seed; item ``i`` draws with ``seed + i``, making results
            independent of ``jobs`` and of grouping.  ``None`` leaves
            sampling nondeterministic.
        jobs:
            Worker processes.  ``1`` (default) runs inline on this device's
            own backend instances.
        block:
            ``False`` returns immediately; the job completes in the
            background (on a worker process even for ``jobs=1``).
        qubit_order, initial_bits:
            Shared qubit order / starting basis state for every item.
        objective:
            Required by ``"expectation"``: maps a probability vector to a
            scalar.  Must be picklable when the job runs on worker processes.
        sampling:
            ``"auto"`` (default) draws exact samples from the compiled
            distribution on the knowledge-compilation backend when the item
            is ideal and small enough, ``"exact"`` requires that path,
            ``"gibbs"`` always runs the Gibbs chains.
        retry:
            A :class:`~repro.api.faults.RetryPolicy`; failed items re-run
            (with their original ``seed + index``) up to
            ``retry.max_attempts`` times when the failure is retryable
            (transient errors, crashed workers, item timeouts by default).
        item_timeout:
            Per-item wall-clock budget in seconds; a stuck worker is killed
            and the item fails with
            :class:`~repro.errors.JobTimeoutError` (retryable).  ``"auto"``
            uses the largest ``default_item_timeout`` declared by the routed
            backends.  Forces pooled execution so the item can be reaped.
        checkpoint:
            Journal directory: every finished item is durably checkpointed
            (atomic, fingerprinted) so :func:`repro.resume_job` can replay
            the batch after a crash without re-running completed items.
        job_id:
            Identifier within ``checkpoint`` (generated when omitted; read
            it back from ``Job.job_id``).  Requires ``checkpoint``.
        on_error:
            ``"raise"`` (default) raises an aggregated
            :class:`~repro.errors.JobError` when items fail terminally;
            ``"partial"`` returns the successful rows and records the
            failures on ``Job.failures()``.
        memory_budget:
            Per-item byte budget checked pre-dispatch against the routed
            backend's declared dense footprint (batch-aware: trajectory
            ensembles are charged ``min(repetitions, max_batch_size)``
            simultaneous ``2^n`` rows).  Auto devices downgrade an
            over-budget density-matrix route to trajectory sampling when
            capabilities allow; otherwise the item fails with
            :class:`~repro.errors.MemoryBudgetError` before any allocation.
        fault_injector:
            Test-only chaos hook (:class:`~repro.api.faults.FaultInjector`)
            invoked before every item evaluation.
        optimize:
            ``None``/``False`` (default) runs circuits exactly as given;
            ``"auto"``/``True`` rewrites each distinct circuit once with
            :func:`repro.circuits.passes.default_pipeline` before routing,
            classification and compilation, so smaller/Clifford-simplified
            circuits route and compile accordingly; a
            :class:`~repro.circuits.passes.PassPipeline` runs that pipeline.
            Per-circuit stats land on :attr:`last_optimization`.  Light-cone
            contract: for circuits containing measurement gates, optimized
            results are guaranteed to match unoptimized ones over the
            *measured* qubits (spectator wires may be pruned).

        Raises
        ------
        BackendCapabilityError
            If any item exceeds the routed backend's declared capabilities
            (raised before any work runs).
        ValueError
            For unknown observables or inconsistent arguments.
        """
        items = self._normalize_items(circuits, params)
        try:
            pipeline = resolve_pipeline(optimize)
        except ValueError as error:
            raise InvalidRequestError(str(error)) from error
        request = RunRequest.validated(
            observables,
            repetitions,
            qubit_order,
            initial_bits,
            seed=seed,
            jobs=jobs,
            block=block,
            objective=objective,
            sampling=sampling,
            retry=retry,
            item_timeout=item_timeout,
            checkpoint=checkpoint,
            job_id=job_id,
            on_error=on_error,
            memory_budget=memory_budget,
            fault_injector=fault_injector,
        )
        self.last_optimization = None
        if pipeline is not None:
            # Rewrite each distinct circuit exactly once, *before* journal
            # manifests, routing, classification and topology grouping: every
            # downstream layer (including resume) sees only the optimized
            # circuits, and per-call id()-keyed memos can never mix original
            # and rewritten gate objects.
            optimized_of: Dict[int, Circuit] = {}
            stats: List[PipelineStats] = []
            rewritten_items: List[Tuple[Circuit, Optional[ParamResolver]]] = []
            for circuit, resolver in items:
                optimized = optimized_of.get(id(circuit))
                if optimized is None:
                    result = pipeline.run(circuit)
                    optimized = result.circuit
                    optimized_of[id(circuit)] = optimized
                    stats.append(result.stats)
                rewritten_items.append((optimized, resolver))
            items = rewritten_items
            self.last_optimization = tuple(stats)

        # Journal: load checkpointed rows first, so already-finished items
        # are excluded *before* routing and grouping — a fully checkpointed
        # resume performs zero compiles and zero evaluations.
        journal: Optional[JobJournal] = None
        preloaded: Dict[int, Dict] = {}
        if request.checkpoint is not None:
            journal = JobJournal(request.checkpoint, request.job_id)
            if not journal.has_manifest():
                journal.write_manifest(
                    {
                        "device": self._config,
                        "run": dict(
                            request.manifest(),
                            circuits=[circuit for circuit, _ in items],
                            params=[resolver for _, resolver in items],
                        ),
                    }
                )
            preloaded = {
                index: row
                for index, row in journal.load_rows().items()
                if 0 <= index < len(items)
            }

        groups, prefailures, predicted = self._plan(items, request, preloaded)
        item_timeout = request.item_timeout
        if item_timeout == "auto":
            declared = [
                backend_capabilities(group.backend).default_item_timeout
                for group in groups
                if group.backend in REGISTRY
            ]
            declared = [value for value in declared if value is not None]
            item_timeout = max(declared) if declared else None
        request = replace(request, item_timeout=item_timeout, predicted=predicted)
        guarded = fault_tolerant(
            request.retry, request.item_timeout, journal, request.on_error, prefailures
        )
        tasks, cleanup = self._tasks(groups, request, guarded)
        job = submit(
            tasks,
            jobs=request.jobs,
            block=request.block,
            assemble=_assemble_batch,
            retry=request.retry,
            item_timeout=request.item_timeout,
            on_error=request.on_error,
            journal=journal,
            preloaded_rows=list(preloaded.items()),
            prefailures=prefailures,
        )
        if cleanup is not None:
            if request.block:
                cleanup.cleanup()
            else:
                # Keep the temporary cache alive as long as the job handle;
                # TemporaryDirectory's finalizer removes it afterwards.
                job._owned_tmpdir = cleanup
        return job

    # ------------------------------------------------------------------
    def _plan(
        self, items, request: RunRequest, skip: Dict[int, Dict]
    ) -> Tuple[List[_Group], List[ItemFailure], Dict[int, float]]:
        """Route every item not in ``skip`` and group by (backend, topology).

        One compile per distinct topology, one classification and
        canonicalization per distinct circuit object.  Pre-dispatch
        rejections (capability or memory-budget violations) become per-item
        failure records under ``on_error="partial"`` instead of failing the
        whole submission.  Also returns the cost model's per-item predicted
        seconds.
        """
        prefailures: List[ItemFailure] = []
        predicted: Dict[int, float] = {}
        topology_of: Dict[int, str] = {}
        groups: Dict[Tuple[str, str], _Group] = {}
        for index, (circuit, resolver) in enumerate(items):
            if index in skip:
                continue
            num_qubits = (
                len(request.qubit_order) if request.qubit_order is not None else circuit.num_qubits
            )
            try:
                decision = self._route_item(
                    circuit, resolver, request.observables, num_qubits,
                    repetitions=request.repetitions,
                )
                decision = self._memory_guard(
                    decision, circuit, request.observables, num_qubits, request.memory_budget,
                    repetitions=request.repetitions,
                )
            except ReproError as error:
                if request.on_error == "partial":
                    prefailures.append(ItemFailure((index,), error, 1))
                    continue
                raise
            if decision.predicted_seconds is not None:
                predicted[index] = decision.predicted_seconds
            topology = topology_of.get(id(circuit))
            if topology is None:
                topology = canonicalize_circuit(
                    circuit, qubit_order=request.qubit_order, initial_bits=request.initial_bits
                ).topology_key
                topology_of[id(circuit)] = topology
            group = groups.get((decision.backend, topology))
            if group is None:
                group = groups[(decision.backend, topology)] = _Group(decision.backend, topology)
            group.add(index, circuit, resolver, decision.reason)
        return list(groups.values()), prefailures, predicted

    def _tasks(
        self, groups: List[_Group], request: RunRequest, guarded: bool
    ) -> Tuple[List[Tuple], Optional[tempfile.TemporaryDirectory]]:
        """The plan's scheduler tasks, plus a temporary cache to clean up.

        Inline tasks carry one item each with this device's live backend,
        its memoized group master and a per-group memo, so per-item dispatch
        stays compile-once.  Pooled tasks hydrate their backend inside the
        worker: every distinct knowledge-compilation topology is compiled
        (or fetched from the device memo) once here and persisted to a cache
        directory the workers load instead of recompiling.  Plain pooled
        jobs pack several items into each task; ``guarded`` (fault-tolerant)
        jobs retry, time out and checkpoint per item, so their tasks carry
        one item.
        """
        inline = runs_inline(request.jobs, request.block, request.item_timeout)
        cleanup: Optional[tempfile.TemporaryDirectory] = None
        cache_dir: Optional[str] = None
        if not inline and any(group.backend == KC_BACKEND for group in groups):
            cache = self.backend_instance(KC_BACKEND).cache
            if cache is not None and cache.directory is not None:
                cache_dir = cache.directory
            else:
                cleanup = tempfile.TemporaryDirectory(prefix="repro-device-cache-")
                cache_dir = cleanup.name

        jobs = max(1, request.jobs)
        chunk_size, cost_target = 1, 0.0
        if not (inline or guarded):
            total_items = sum(len(group.items) for group in groups)
            chunk_size = max(1, math.ceil(total_items / (jobs * 2)))
            # Cost-aware packing target: split the batch's *predicted*
            # runtime (not its item count) evenly over ~2 chunks per worker,
            # so one expensive item no longer drags a whole uniform chunk
            # behind it.
            cost_target = sum(request.predicted.values()) / (jobs * 2)
        tasks: List[Tuple] = []
        for group in groups:
            backend, master = group.backend, None
            if backend == KC_BACKEND:
                sim = self.backend_instance(KC_BACKEND)
                master = self._kc_group_master(
                    sim, group.circuits[0], group.topology,
                    request.qubit_order, request.initial_bits,
                )
            lane: Dict[str, Any]
            if inline:
                lane = {"sim": self.backend_instance(backend), "master": master, "memo": {}}
            elif master is not None:
                persist_compile(
                    sim, master, cache_dir,
                    qubit_order=request.qubit_order,
                    initial_bits=request.initial_bits,
                )
                lane = {
                    "backend_options": {
                        "order_method": sim.order_method,
                        "elide_internal": sim.elide_internal,
                    },
                    "cache_dir": cache_dir,
                }
            else:
                lane = {"backend_options": self._backend_options.get(backend, {})}
            for chunk in _pack_chunks(group.items, chunk_size, request.predicted, cost_target):
                indices = tuple(item[0] for item in chunk)
                payload = dict(
                    lane, backend=backend, circuits=group.circuits, items=chunk, request=request
                )
                tasks.append((_run_chunk, payload, indices, f"item-{indices[0]}"))
        return tasks, cleanup

    def __repr__(self) -> str:
        if self.backend == "auto":
            return f"<Device auto fallback={self._fallback!r} noisy={self._noisy_fallback!r}>"
        return f"<Device backend={self.backend!r}>"


def device(
    backend: str = "auto",
    seed: Optional[int] = None,
    fallback: Optional[str] = None,
    noisy_fallback: Optional[str] = None,
    routing: str = "rules",
    cost_model: Union[None, str, CostModel] = None,
    **backend_options,
) -> Device:
    """Open an execution device: ``repro.device("auto").run([...])``.

    ``backend`` is a registered backend name (see
    :func:`repro.api.registry.list_backends`) or ``"auto"`` for
    capability-driven per-item routing; ``routing="cost"`` ranks capable
    backends with a calibrated cost model (``cost_model`` is a
    :class:`~repro.api.costmodel.CostModel` or artifact path, defaulting to
    the ambient artifact).  Extra keyword arguments are passed to the
    backend's constructor (fixed-name devices only).
    """
    options: Optional[Dict[str, Dict]] = None
    if backend_options:
        if backend in ("auto", "hybrid"):
            raise BackendCapabilityError(
                "backend options require a fixed backend name, not 'auto'"
            )
        options = {REGISTRY.resolve(backend): backend_options}
    return Device(
        backend=backend,
        seed=seed,
        fallback=fallback,
        noisy_fallback=noisy_fallback,
        backend_options=options,
        routing=routing,
        cost_model=cost_model,
    )
