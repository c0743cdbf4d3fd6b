"""The pass framework: :class:`Pass`, :class:`PassPipeline`, rewrite stats.

A pass is a *pure* circuit-to-circuit rewrite: it never mutates its input,
and when it finds nothing to rewrite it returns the input object unchanged
(moment structure and gate identities preserved exactly).  Every pass
promises:

* **semantics** — the output circuit is equivalent to the input up to global
  phase on the qubits the caller can observe (all qubits for every pass
  except light-cone pruning, which preserves the joint distribution over
  *measured* qubits);
* **monotonicity** — the operation count never increases;
* **idempotence** — running the same pass twice equals running it once;
* **value-blindness** (rewriting passes) — every rewrite decision for a
  rotation-family gate depends only on the gate's *class* and wiring, never
  on its angle value, so a symbolic ansatz and its resolved instances (at
  generic angles) rewrite identically and keep sharing one
  ``circuit_topology_key`` / compiled artifact.  The one deliberate
  exception mirrors the canonicalizer's degenerate-angle carve-out:
  a *concrete* gate whose unitary is the identity up to global phase is
  dropped (such angles already key by matrix rather than lifting).

``tests/test_passes.py`` enforces each promise metamorphically and
``tests/test_differential_fuzz.py`` checks optimized-vs-unoptimized parity
across every backend.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..circuit import Circuit
from ..topology import _circuit_content_key

#: Values accepted by the ``optimize=`` keyword across the execution layers.
OptimizeSpec = Union[None, bool, str, "PassPipeline"]

#: Pipeline results by ``(passes, max_iterations, exact circuit content)``;
#: the value is ``(output, output content, stats)``, with ``output`` ``None``
#: when the pipeline returned its input unchanged.  Cleared wholesale past
#: ``_PIPELINE_MEMO_MAX`` entries, and by
#: :func:`repro.knowledge.cache.configure_default`.
_PIPELINE_MEMO: Dict[tuple, tuple] = {}
_PIPELINE_MEMO_MAX = 128


class RewriteStats(NamedTuple):
    """What one pass did to one circuit."""

    pass_name: str
    operations_before: int
    operations_after: int
    #: Local rewrite actions applied (merges, cancellations, drops, moves).
    rewrites: int

    @property
    def removed(self) -> int:
        return self.operations_before - self.operations_after

    @property
    def changed(self) -> bool:
        return self.rewrites > 0


class PipelineStats(NamedTuple):
    """Aggregated per-pass stats for one :meth:`PassPipeline.run`."""

    passes: Tuple[RewriteStats, ...]
    operations_before: int
    operations_after: int
    iterations: int

    @property
    def removed(self) -> int:
        return self.operations_before - self.operations_after

    @property
    def changed(self) -> bool:
        return any(stats.changed for stats in self.passes)

    def summary(self) -> str:
        """One human-readable line per pass plus the total (for examples/CLIs)."""
        lines = [
            f"{self.operations_before} -> {self.operations_after} operations "
            f"({self.iterations} iteration{'s' if self.iterations != 1 else ''})"
        ]
        totals: "dict[str, List[int]]" = {}
        for stats in self.passes:
            entry = totals.setdefault(stats.pass_name, [0, 0])
            entry[0] += stats.rewrites
            entry[1] += stats.removed
        for name, (rewrites, removed) in totals.items():
            lines.append(f"  {name}: {rewrites} rewrites, {removed} operations removed")
        return "\n".join(lines)


class OptimizationResult(NamedTuple):
    """An optimized circuit plus the stats describing how it got there."""

    circuit: Circuit
    stats: PipelineStats


def _operation_count(circuit: Circuit) -> int:
    return len(circuit.all_operations())


class Pass:
    """Base class for circuit rewrites.  Subclasses implement :meth:`rewrite`."""

    #: Stable identifier used in stats, docs and tests.
    name = "pass"

    def rewrite(self, circuit: Circuit) -> Tuple[Circuit, int]:
        """Return ``(rewritten_circuit, rewrite_actions)``.

        Must be pure: never mutate ``circuit``, and return the input object
        itself (with ``0`` actions) when there is nothing to rewrite.
        """
        raise NotImplementedError

    def run(self, circuit: Circuit) -> Tuple[Circuit, RewriteStats]:
        """Apply the pass once, returning the new circuit and its stats."""
        before = _operation_count(circuit)
        rewritten, actions = self.rewrite(circuit)
        return rewritten, RewriteStats(self.name, before, _operation_count(rewritten), actions)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class PassPipeline:
    """A sequence of passes, iterated to a fixed point.

    One iteration applies every pass once, in order; iterations repeat until
    a full round performs zero rewrite actions (each pass's enabling
    conditions can be created by another — a cancellation can make two
    rotations adjacent) or ``max_iterations`` rounds have run.  The default
    bound is a safety net, not a tuning knob: each round either rewrites
    (strictly consuming a finite supply of merge opportunities) or
    terminates.
    """

    def __init__(self, passes: Sequence[Pass], max_iterations: int = 16):
        if max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        self.passes: Tuple[Pass, ...] = tuple(passes)
        self.max_iterations = int(max_iterations)

    def run(self, circuit: Circuit) -> OptimizationResult:
        """Rewrite ``circuit`` to a fixed point of every pass.

        Passes are pure functions of the circuit, so a circuit whose exact
        content this pipeline has rewritten before gets the memoized output
        and stats (its own object back when the pipeline changed nothing).
        Pipelines holding a pass with instance state are never memoized:
        that state could change between runs.
        """
        key = None
        if all(getattr(p, "__dict__", None) == {} for p in self.passes):
            content = _circuit_content_key(circuit)
            if content is not None:
                key = (self.passes, self.max_iterations, content)
        if key is not None:
            entry = _PIPELINE_MEMO.get(key)
            if entry is not None:
                output, output_key, stats = entry
                if output is None:
                    return OptimizationResult(circuit, stats)
                # The output shares gates with the circuit that filled the
                # entry; reuse it only while their content is unchanged.
                if _circuit_content_key(output) == output_key:
                    return OptimizationResult(output, stats)
        result = self._rewrite_to_fixpoint(circuit)
        if key is not None:
            if result.circuit is circuit:
                entry = (None, None, result.stats)
            else:
                output_key = _circuit_content_key(result.circuit)
                entry = None if output_key is None else (result.circuit, output_key, result.stats)
            if entry is not None:
                if len(_PIPELINE_MEMO) >= _PIPELINE_MEMO_MAX:
                    _PIPELINE_MEMO.clear()
                _PIPELINE_MEMO[key] = entry
        return result

    def _rewrite_to_fixpoint(self, circuit: Circuit) -> OptimizationResult:
        before = _operation_count(circuit)
        all_stats: List[RewriteStats] = []
        iterations = 0
        current = circuit
        for _ in range(self.max_iterations):
            iterations += 1
            round_actions = 0
            for single_pass in self.passes:
                current, stats = single_pass.run(current)
                all_stats.append(stats)
                round_actions += stats.rewrites
            if round_actions == 0:
                break
        return OptimizationResult(
            current,
            PipelineStats(tuple(all_stats), before, _operation_count(current), iterations),
        )

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.passes)
        return f"PassPipeline([{names}])"


def default_pipeline() -> PassPipeline:
    """The value-blind rewrite pipeline safe in front of every backend.

    Light-cone pruning, adjacent-gate fusion and commutation-aware
    cancellation — everything whose rewrite decisions are independent of
    rotation angle values, so optimized symbolic ansätze and their resolved
    instances keep sharing one topology key.  Clifford-prefix extraction is
    deliberately *not* here: whether a rotation is Clifford depends on its
    bound angle, so routing (:func:`repro.api.routing.select_backend`)
    classifies the bound circuit instead.
    """
    from .commutation import CommutationPass
    from .fusion import FusionPass
    from .light_cone import LightConePass

    return PassPipeline([LightConePass(), FusionPass(), CommutationPass()])


#: The pipeline ``optimize=True`` / ``"auto"`` selects, shared so that its
#: memoized results serve every submission in the process.
_DEFAULT_PIPELINE: Optional[PassPipeline] = None


def resolve_pipeline(optimize: OptimizeSpec) -> Optional[PassPipeline]:
    """Normalize an ``optimize=`` keyword value to a pipeline (or ``None``).

    ``None``/``False`` disable optimization; ``True`` and ``"auto"`` select
    one shared :func:`default_pipeline` instance (do not modify it); a
    :class:`PassPipeline` passes through.
    """
    global _DEFAULT_PIPELINE
    if optimize is None or optimize is False:
        return None
    if optimize is True or optimize == "auto":
        if _DEFAULT_PIPELINE is None:
            _DEFAULT_PIPELINE = default_pipeline()
        return _DEFAULT_PIPELINE
    if isinstance(optimize, PassPipeline):
        return optimize
    raise ValueError(
        f"optimize must be None, a bool, 'auto' or a PassPipeline, got {optimize!r}"
    )


def optimize_circuit(circuit: Circuit, optimize: OptimizeSpec = True) -> OptimizationResult:
    """One-call convenience: rewrite ``circuit`` with the selected pipeline."""
    pipeline = resolve_pipeline(optimize)
    if pipeline is None:
        count = _operation_count(circuit)
        return OptimizationResult(circuit, PipelineStats((), count, count, 0))
    return pipeline.run(circuit)
