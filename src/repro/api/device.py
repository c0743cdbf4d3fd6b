"""The unified ``Device`` execution API: ``repro.device() -> Device.run() -> Job``.

One submission surface for every workload the code base used to serve with
bespoke harnesses:

* **capability-driven routing** — every item, on ``device("auto")`` and on
  fixed-name devices alike, is routed by one call to
  :func:`repro.api.routing.select_backend` with the observables it records
  and its run width, so capability and memory-budget violations surface
  before any work runs;
* **batched submission** — ``run()`` accepts one circuit, a list of
  circuits, or a sweep spec (one circuit times many parameter points).
  Knowledge-compilation items are grouped by ``circuit_topology_key`` so
  one knowledge compile serves every rebinding of a topology within a
  ``run()``; across runs the simulator's compile cache is the only memo
  (``cache=None`` recompiles on every ``run()``).  Other items group by
  circuit object, and ideal Clifford items that share a resolved circuit
  share one tableau run;
* **async jobs** — ``run()`` validates its arguments once into a
  :class:`RunRequest`, plans the backend groups and makes one
  :func:`~repro.api.scheduler.submit` call; ``block=False`` or ``jobs > 1``
  fans the groups out over worker processes.  The
  :class:`~repro.api.scheduler.Job` handle exposes ``status()`` /
  ``result()`` / ``cancel()`` and streams partial results.  Item ``i``
  always samples with ``seed + i``, so serial and parallel runs of the same
  batch are bit-identical.

The per-item result *rows* are plain dicts (see
:class:`~repro.api.results.BatchResult`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.parameters import ParamResolver
from ..circuits.passes import OptimizeSpec, resolve_pipeline
from ..circuits.qubits import Qubit
from ..circuits.topology import canonicalize_circuit
from ..errors import (
    BackendCapabilityError,
    InvalidRequestError,
    ReproError,
    RequestTypeError,
)
from ..linalg.tensor_ops import bits_to_index
from ..simulator.kc_simulator import _binding_key
from ..simulator.results import SampleResult, sample_from_probabilities
from .faults import FaultInjector, ItemFailure, RetryPolicy
from .journal import JobJournal
from .registry import REGISTRY, backend_capabilities, create_backend
from .results import BatchResult
from .routing import BackendDecision, select_backend
from .scheduler import Job, fault_tolerant, runs_inline, submit


def _assemble_batch(sorted_rows: List[Tuple[int, Dict]]) -> BatchResult:
    """Job ``assemble`` hook: item rows (already index-sorted) to a BatchResult."""
    return BatchResult([row for _, row in sorted_rows])

#: Observables one work item can record.
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
    is finalized after routing (``"auto"`` resolves from the routed
    backends).
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
    """One plan entry: the items routed to ``backend`` that share a key.

    Knowledge-compilation groups share ``topology`` (one compile serves
    them all); other groups share one circuit object and leave it ``None``.
    """

    backend: str
    topology: Optional[str]
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


def _width(qubit_order: Optional[Sequence[Qubit]]) -> Optional[int]:
    """An item's run width: ``len(qubit_order)``, or ``None`` for the circuit's own."""
    return None if qubit_order is None else len(qubit_order)


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


def _record_samples(row: Dict, samples: SampleResult) -> None:
    row["samples"] = samples
    row["counts"] = samples.bitstring_counts()


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
                sample_from_probabilities(
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
    key = (pos, _binding_key(resolver))
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
    run = (circuit, resolver, request.qubit_order, request.initial_state)
    result = sim.simulate(*run) if "state_vector" in observables else None
    if "probabilities" in observables or "expectation" in observables:
        probabilities = sim.probabilities(*run) if result is None else result.probabilities()
        if "probabilities" in observables:
            row["probabilities"] = probabilities
        if "expectation" in observables:
            row["expectation"] = float(request.objective(probabilities))
    if result is not None:
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
    memo: Optional[Dict] = None,
) -> List[Tuple[int, Dict]]:
    """Evaluate one backend group's items; shared by workers and inline runs.

    ``attempt`` is the task's attempt number (for the fault injector).
    ``memo`` is an optional mutable dict shared across calls of the *same
    group in the same process* (the inline loop runs one task per item): it
    carries the group's compile and the per-position rebind / shared-tableau
    memos that a single batched call keeps in locals, so per-item dispatch
    stays compile-once.  A pooled knowledge-compilation task's memo arrives
    holding the group's compile under ``"master"``.
    """
    rows: List[Tuple[int, Dict]] = []
    # KC: the group's compile under "master" plus rebound views by circuit
    # position; stabilizer: shared tableaux.
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
                master = memo.get("master")
                if master is None:
                    compiled = memo["master"] = sim.compile_circuit(
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
                    compiled = master.rebound_for(
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
        # Elapsed time is a pure observation: nothing downstream branches on
        # it, so serial/pooled/resumed runs stay bit-identical in every result.
        row["elapsed_seconds"] = time.perf_counter() - started
        rows.append((index, row))
    return rows


def _worker_backend(payload: Dict):
    """Construct the backend instance inside a worker process."""
    return create_backend(
        payload["backend"], seed=payload["request"].seed, **payload["backend_options"]
    )


def _run_chunk(payload: Dict) -> List[Tuple[int, Dict]]:
    """Task body: evaluate one chunk of a group's items.

    Inline tasks carry this process's live backend (``sim``) and the group's
    shared memo — they never cross a process boundary.  Pooled tasks name
    the backend instead and build a fresh instance inside the worker; a
    knowledge-compilation task's memo carries its group's compile.
    """
    sim = payload["sim"] if "sim" in payload else _worker_backend(payload)
    return _evaluate_items(
        sim,
        payload["backend"],
        payload["circuits"],
        payload["items"],
        payload["request"],
        attempt=payload.get("attempt", 0),
        memo=payload.get("memo"),
    )


# ----------------------------------------------------------------------
class Device:
    """One execution endpoint: a fixed backend, or capability-driven routing.

    Parameters
    ----------
    backend:
        A registered backend name, or ``"auto"`` for
        per-item routing by the classification rules of
        :func:`~repro.api.routing.select_backend`.
    seed:
        Seeds every backend instance this device creates.
    fallback, noisy_fallback:
        Backend names for the non-Clifford route under ``"auto"``.
        ``fallback`` defaults to ``"state_vector"``; ``noisy_fallback``
        defaults to ``"density_matrix"`` when ``fallback`` is defaulted and
        to ``fallback`` itself otherwise (mixed-state queries need it).
    instances:
        Pre-built backend instances, keyed by backend name, to use instead
        of fresh registry creations (for example a
        ``KnowledgeCompilationSimulator`` with its own cache settings).
    backend_options:
        Extra constructor keywords for backends this device creates,
        keyed by backend name.
    """

    def __init__(
        self,
        backend: str = "auto",
        seed: Optional[int] = None,
        fallback: Optional[str] = None,
        noisy_fallback: Optional[str] = None,
        instances: Optional[Dict[str, Any]] = None,
        backend_options: Optional[Dict[str, Dict]] = None,
    ):
        self._instances: Dict[str, Any] = dict(instances or {})
        self._backend_options: Dict[str, Dict] = dict(backend_options or {})
        # Constructor spec for job manifests: enough to re-create an
        # equivalent device in a resume (attached instances are rebuilt
        # fresh from the registry — they may not be picklable).
        self._config: Dict[str, Any] = {
            "backend": backend,
            "seed": seed,
            "fallback": fallback,
            "noisy_fallback": noisy_fallback,
            "backend_options": dict(backend_options or {}),
        }
        if backend == "auto":
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
        #: The :func:`~repro.api.routing.select_backend` routing configuration.
        self._routing = {
            "backend": self.backend,
            "fallback": self._fallback,
            "noisy_fallback": self._noisy_fallback,
        }

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
        return select_backend(
            circuit,
            resolver,
            observables=("samples",) if sampling else (),
            repetitions=repetitions,
            **self._routing,
        )

    def simulate(
        self,
        circuit: Circuit,
        resolver: Optional[ParamResolver] = None,
        qubit_order: Optional[Sequence[Qubit]] = None,
        initial_state: int = 0,
    ):
        """Run one circuit on the routed backend, returning its native result."""
        decision = select_backend(
            circuit, resolver, observables=(), num_qubits=_width(qubit_order), **self._routing
        )
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
        decision = select_backend(
            circuit,
            resolver,
            num_qubits=_width(qubit_order),
            repetitions=repetitions,
            **self._routing,
        )
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
            ``"auto"``/``True`` rewrites each circuit with
            :func:`repro.circuits.passes.default_pipeline` before routing,
            classification and compilation, so smaller/Clifford-simplified
            circuits route and compile accordingly; a
            :class:`~repro.circuits.passes.PassPipeline` runs that pipeline.
            The rewrite runs once per distinct content per process: a
            re-submitted circuit of the same exact content gets the
            memoized result (see ``docs/caching.md`` §1); run the pipeline
            yourself to read its ``PipelineStats``.  Light-cone
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
        if pipeline is not None:
            # Rewrite each distinct circuit exactly once, *before* journal
            # manifests, routing, classification and topology grouping: every
            # downstream layer (including resume) sees only the optimized
            # circuits, and per-call id()-keyed memos can never mix original
            # and rewritten gate objects.
            optimized_of: Dict[int, Circuit] = {}
            rewritten_items: List[Tuple[Circuit, Optional[ParamResolver]]] = []
            for circuit, resolver in items:
                optimized = optimized_of.get(id(circuit))
                if optimized is None:
                    optimized = optimized_of[id(circuit)] = pipeline.run(circuit).circuit
                rewritten_items.append((optimized, resolver))
            items = rewritten_items

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

        groups, prefailures = self._plan(items, request, preloaded)
        item_timeout = request.item_timeout
        if item_timeout == "auto":
            declared = [
                backend_capabilities(group.backend).default_item_timeout
                for group in groups
                if group.backend in REGISTRY
            ]
            declared = [value for value in declared if value is not None]
            item_timeout = max(declared) if declared else None
        request = replace(request, item_timeout=item_timeout)
        guarded = fault_tolerant(
            request.retry, request.item_timeout, journal, request.on_error, prefailures
        )
        tasks = self._tasks(groups, request, guarded)
        return submit(
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

    # ------------------------------------------------------------------
    def _plan(
        self, items, request: RunRequest, skip: Dict[int, Dict]
    ) -> Tuple[List[_Group], List[ItemFailure]]:
        """Route every item not in ``skip`` and group it per backend.

        One compile per distinct topology, one classification per distinct
        circuit object.  Only knowledge-compilation items are canonicalized
        (their topology picks the shared compile); every other backend
        groups by circuit object.  Pre-dispatch
        rejections (capability or memory-budget violations) become per-item
        failure records under ``on_error="partial"`` instead of failing the
        whole submission.
        """
        prefailures: List[ItemFailure] = []
        topology_of: Dict[int, str] = {}
        groups: Dict[Tuple[str, object], _Group] = {}
        for index, (circuit, resolver) in enumerate(items):
            if index in skip:
                continue
            try:
                decision = select_backend(
                    circuit,
                    resolver,
                    observables=request.observables,
                    num_qubits=_width(request.qubit_order),
                    repetitions=request.repetitions,
                    memory_budget=request.memory_budget,
                    **self._routing,
                )
            except ReproError as error:
                if request.on_error == "partial":
                    prefailures.append(ItemFailure((index,), error, 1))
                    continue
                raise
            if decision.backend == KC_BACKEND:
                topology = topology_of.get(id(circuit))
                if topology is None:
                    topology = canonicalize_circuit(
                        circuit, qubit_order=request.qubit_order, initial_bits=request.initial_bits
                    ).topology_key
                    topology_of[id(circuit)] = topology
                key: Tuple[str, object] = (KC_BACKEND, topology)
            else:
                topology, key = None, (decision.backend, id(circuit))
            group = groups.get(key)
            if group is None:
                group = groups[key] = _Group(decision.backend, topology)
            group.add(index, circuit, resolver, decision.reason)
        return list(groups.values()), prefailures

    def _tasks(self, groups: List[_Group], request: RunRequest, guarded: bool) -> List[Tuple]:
        """The plan's scheduler tasks.

        Inline tasks carry one item each with this device's live backend and
        a per-group memo, so per-item dispatch stays compile-once.  Pooled
        tasks build their backend inside the worker: every distinct
        knowledge-compilation topology is compiled (or fetched from the
        simulator's cache) once here and shipped in each of its tasks'
        memos, so workers rebind that compile and never compile themselves.
        Plain pooled jobs pack several items into each task; ``guarded``
        (fault-tolerant) jobs retry, time out and checkpoint per item, so
        their tasks carry one item.
        """
        inline = runs_inline(request.jobs, request.block, request.item_timeout)
        jobs = max(1, request.jobs)
        chunk_size = 1
        if not (inline or guarded):
            total_items = sum(len(group.items) for group in groups)
            chunk_size = max(1, math.ceil(total_items / (jobs * 2)))
        tasks: List[Tuple] = []
        for group in groups:
            backend = group.backend
            lane: Dict[str, Any]
            if inline:
                lane = {"sim": self.backend_instance(backend), "memo": {}}
            elif backend == KC_BACKEND:
                sim = self.backend_instance(KC_BACKEND)
                master = sim.compile_circuit(
                    group.circuits[0],
                    qubit_order=request.qubit_order,
                    initial_bits=request.initial_bits,
                )
                lane = {
                    "backend_options": {
                        "order_method": sim.order_method,
                        "elide_internal": sim.elide_internal,
                        "burn_in_sweeps": sim.burn_in_sweeps,
                    },
                    "memo": {"master": master},
                }
            else:
                lane = {"backend_options": self._backend_options.get(backend, {})}
            for start in range(0, len(group.items), chunk_size):
                chunk = group.items[start : start + chunk_size]
                indices = tuple(item[0] for item in chunk)
                payload = dict(
                    lane, backend=backend, circuits=group.circuits, items=chunk, request=request
                )
                tasks.append((_run_chunk, payload, indices, f"item-{indices[0]}"))
        return tasks

    def __repr__(self) -> str:
        if self.backend == "auto":
            return f"<Device auto fallback={self._fallback!r} noisy={self._noisy_fallback!r}>"
        return f"<Device backend={self.backend!r}>"


def device(
    backend: str = "auto",
    seed: Optional[int] = None,
    fallback: Optional[str] = None,
    noisy_fallback: Optional[str] = None,
    **backend_options,
) -> Device:
    """Open an execution device: ``repro.device("auto").run([...])``.

    ``backend`` is a registered backend name (see
    :func:`repro.api.registry.list_backends`) or ``"auto"`` for
    capability-driven per-item routing by the rules of
    :func:`~repro.api.routing.select_backend`.  Extra keyword arguments are
    passed to the backend's constructor (fixed-name devices only).
    """
    options: Optional[Dict[str, Dict]] = None
    if backend_options:
        if backend == "auto":
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
    )
