"""Per-layer tracing for the traced benchmark run.

Each probe wraps one public entry point of a layer where its callers look
it up: a method on its class, or a function in every ``repro`` module that
imported it by name.  The wrappers are installed only around traced work
(set-up and the traced ops); untraced ops run the program's own functions.
A target the program no longer has is skipped and named in the report, so
the benchmark keeps running across refactors.  Every metric of its layer is
then left out of the result instead of reading 0, so a comparison cannot
take a vanished layer for a speed-up.

A span records its inclusive time and call count, and the time it spent
inside every enclosing span, so a layer's self time is its span minus the
child spans named in :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Set

import numpy as np

PHASES = ("setup", "ops")
#: Layers whose spans a metric subtracts or counts, besides its own.
DEPENDS = {"gibbs.self_s": ("ac", "query"), "gibbs.passes_per_op": ("ac",)}


def _layer(name: str) -> str:
    """The layer of a span or metric name: its prefix before the first dot."""
    return name.split(".", 1)[0]


class Recorder:
    """Span times and counts, split into the set-up and op phases."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.totals: Dict[str, Dict[str, float]] = {p: defaultdict(float) for p in PHASES}
        self.missing: List[str] = []
        #: Layers with at least one probe whose target is missing.
        self.missing_layers: Set[str] = set()
        self._stack: List[str] = []
        self._undo: List[Callable[[], None]] = []

    def add(self, key: str, value: float = 1.0) -> None:
        self.totals[self.phase][key] += value

    def value(self, key: str, phase: Optional[str] = None) -> float:
        phases = PHASES if phase is None else (phase,)
        return sum(self.totals[p].get(key, 0.0) for p in phases)

    def span(self, name: str, function, on_call=None, on_return=None):
        """``function`` wrapped to record a span ``name``.

        ``on_call(args)`` runs before the call and its result is handed to
        ``on_return(result, args, context)``, which records counts.
        """
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            context = on_call(args) if on_call is not None else None
            recorder._stack.append(name)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                recorder._stack.pop()
                recorder.add(name + ".s", elapsed)
                recorder.add(name + ".calls")
                for outer in set(recorder._stack):
                    recorder.add(f"{outer}>{name}.s", elapsed)
                    recorder.add(f"{outer}>{name}.calls")
            if on_return is not None:
                on_return(result, args, context)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def _wrap_function(self, module_name: str, attribute: str, name: str, **hooks) -> None:
        """Wrap a module-level function in every ``repro`` module holding it."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self._note_missing(f"{module_name}.{attribute}", name)
            return
        original = vars(module).get(attribute)
        if original is None:
            self._note_missing(f"{module_name}.{attribute}", name)
            return
        wrapper = self.span(name, original, **hooks)
        for holder in list(sys.modules.values()):
            holder_name = getattr(holder, "__name__", "") or ""
            if not holder_name.startswith("repro"):
                continue
            if vars(holder).get(attribute) is original:
                setattr(holder, attribute, wrapper)
                self._undo.append(functools.partial(setattr, holder, attribute, original))

    def _wrap_method(self, module_name: str, qualified: str, name: str, **hooks) -> None:
        """Wrap ``Class.method`` on the class, so every instance sees it."""
        class_name, attribute = qualified.split(".")
        try:
            owner = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            self._note_missing(f"{module_name}.{qualified}", name)
            return
        original = vars(owner).get(attribute)
        if original is None:
            self._note_missing(f"{module_name}.{qualified}", name)
            return
        setattr(owner, attribute, self.span(name, original, **hooks))
        self._undo.append(functools.partial(setattr, owner, attribute, original))

    def _note_missing(self, target: str, name: str) -> None:
        if target not in self.missing:
            self.missing.append(target)
        self.missing_layers.add(_layer(name))

    @contextmanager
    def tracing(self):
        """Install every probe for the duration of the block."""
        install_probes(self)
        try:
            yield
        finally:
            while self._undo:
                self._undo.pop()()


def _batch_width(args) -> int:
    return int(np.shape(args[1])[0])


def install_probes(recorder: Recorder) -> None:
    """Wrap the entry point of every layer the benchmark reports on."""
    add = recorder.add
    function = recorder._wrap_function
    method = recorder._wrap_method

    # circuits.topology
    function("repro.circuits.topology", "canonicalize_circuit", "topology.canonicalize")
    # bayesnet, cnf
    function(
        "repro.bayesnet.from_circuit", "circuit_to_bayesnet", "bayesnet.build",
        on_return=lambda network, args, _: add("bayesnet.nodes", network.num_nodes),
    )
    function(
        "repro.cnf.encoder", "encode_bayesnet", "cnf.encode",
        on_return=lambda encoding, args, _: add("cnf.clauses", encoding.cnf.num_clauses),
    )

    # knowledge.compiler: the returned CompilationStats carry the counts.
    def compile_counts(result, args, _):
        stats = result[2]
        add("compiler.decisions", stats.decisions)
        add("compiler.formula_cache_hits", stats.cache_hits)
        add("compiler.component_splits", stats.component_splits)

    method("repro.knowledge.compiler", "KnowledgeCompiler.compile", "compiler.compile",
           on_return=compile_counts)
    method("repro.knowledge.compiler", "KnowledgeCompiler.decision_order", "compiler.order")

    # knowledge.transform
    function("repro.knowledge.transform", "forget", "transform.forget")
    function("repro.knowledge.transform", "smooth", "transform.smooth")

    # knowledge.arithmetic_circuit: flatten, upward and upward+downward passes.
    def flatten_counts(result, args, _):
        circuit = args[0]
        add("ac.nodes", circuit.num_nodes)
        add("ac.edges", circuit.num_edges)

    method("repro.knowledge.arithmetic_circuit", "ArithmeticCircuit.__init__", "ac.flatten",
           on_return=flatten_counts)
    method("repro.knowledge.arithmetic_circuit", "ArithmeticCircuit.evaluate_batch", "ac.upward",
           on_call=_batch_width,
           on_return=lambda result, args, width: add("ac.upward_width", width))
    method("repro.knowledge.arithmetic_circuit",
           "ArithmeticCircuit.evaluate_with_derivatives_batch", "ac.updown",
           on_call=_batch_width,
           on_return=lambda result, args, width: add("ac.updown_width", width))

    # simulator.kc_simulator: weight binding and evidence binding.
    for qualified in ("CompiledCircuit.base_literal_values",
                      "CompiledCircuit.base_literal_values_batch"):
        method("repro.simulator.kc_simulator", qualified, "query.bind")
    for qualified in ("CompiledCircuit.apply_evidence", "CompiledCircuit.apply_evidence_batch"):
        method("repro.simulator.kc_simulator", qualified, "query.evidence")

    # sampling.gibbs: whole sample() calls, and independence-move acceptance
    # (a chain accepted when its state row changed).
    def accepted_moves(result, args, before):
        add("gibbs.indep_proposals", before.shape[0])
        add("gibbs.indep_accepts", int(np.any(args[1] != before, axis=1).sum()))

    method("repro.sampling.gibbs", "GibbsSampler.sample", "gibbs.sample")
    method("repro.sampling.gibbs", "GibbsSampler.independence_move_batch", "gibbs.indep",
           on_call=lambda args: np.array(args[1], copy=True), on_return=accepted_moves)

    # knowledge.cache
    method("repro.knowledge.cache", "CompiledCircuitCache.lookup", "cache.lookup",
           on_return=lambda master, args, _: add(
               "cache.misses" if master is None else "cache.memory_hits"))

    # api: routing, the rewrite passes, the journal, and Device.run -> result
    # with the time spent inside backend work items.
    function("repro.api.routing", "select_backend", "routing.select")
    method("repro.circuits.passes.base", "PassPipeline.run", "passes.optimize",
           on_return=lambda result, args, _: add(
               "passes.rewrites", sum(stats.rewrites for stats in result.stats.passes)))
    method("repro.api.journal", "JobJournal.checkpoint_row", "journal.append")
    method("repro.api.device", "Device.run", "api.run")
    method("repro.api.scheduler", "Job.result", "api.result")
    function("repro.api.device", "_evaluate_items", "api.backend")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder, traced_ops: int) -> Dict[str, Optional[float]]:
    """Per-layer metrics from the recorder (totals over all traced work).

    ``traced_ops`` is the number of traced ops (set-up is traced as well);
    per-op figures divide the op-phase totals by it.  A metric that rests
    on a layer with a missing probe is ``None``.
    """
    v = recorder.value
    gibbs_children = sum(
        v(f"gibbs.sample>{child}.s")
        for child in ("ac.upward", "ac.updown", "query.bind", "query.evidence")
    )
    api_total = v("api.run.s") + v("api.result.s")
    api_backend = v("api.run>api.backend.s") + v("api.result>api.backend.s")
    passes = v("ac.upward.calls") + v("ac.updown.calls")
    gibbs_passes = v("gibbs.sample>ac.upward.calls", "ops") + v("gibbs.sample>ac.updown.calls", "ops")
    metrics: Dict[str, Optional[float]] = {
        "topology.canonicalize_s": v("topology.canonicalize.s"),
        "topology.canonicalize_calls": v("topology.canonicalize.calls"),
        "bayesnet.build_s": v("bayesnet.build.s"),
        "bayesnet.nodes": v("bayesnet.nodes"),
        "cnf.encode_s": v("cnf.encode.s"),
        "cnf.clauses": v("cnf.clauses"),
        "compiler.order_s": v("compiler.order.s"),
        "compiler.ddnnf_s": v("compiler.compile.s") - v("compiler.compile>compiler.order.s"),
        "compiler.compiles": v("compiler.compile.calls"),
        "compiler.decisions": v("compiler.decisions"),
        "compiler.formula_cache_hits": v("compiler.formula_cache_hits"),
        "compiler.component_splits": v("compiler.component_splits"),
        "transform.forget_smooth_s": v("transform.forget.s") + v("transform.smooth.s"),
        "ac.flatten_s": v("ac.flatten.s"),
        "ac.nodes": v("ac.nodes"),
        "ac.edges": v("ac.edges"),
        "ac.upward_passes": v("ac.upward.calls"),
        "ac.upward_s": v("ac.upward.s"),
        "ac.updown_passes": v("ac.updown.calls"),
        "ac.updown_s": v("ac.updown.s"),
        "ac.updown_ms_per_pass": 1000.0 * _ratio(v("ac.updown.s"), v("ac.updown.calls")),
        "ac.batch_width": _ratio(v("ac.upward_width") + v("ac.updown_width"), passes),
        "query.bind_s": v("query.bind.s"),
        "query.bind_calls": v("query.bind.calls"),
        "query.evidence_s": v("query.evidence.s"),
        "gibbs.self_s": v("gibbs.sample.s") - gibbs_children,
        "gibbs.passes_per_op": _ratio(gibbs_passes, traced_ops),
        "gibbs.indep_accept_frac": _ratio(
            v("gibbs.indep_accepts", "ops"), v("gibbs.indep_proposals", "ops")
        ),
        "cache.memory_hits": v("cache.memory_hits"),
        "cache.misses": v("cache.misses"),
        "routing.select_s": v("routing.select.s"),
        "routing.select_calls": v("routing.select.calls"),
        "passes.optimize_s": v("passes.optimize.s"),
        "passes.rewrites": v("passes.rewrites"),
        "journal.appends": v("journal.append.calls"),
        "journal.append_s": v("journal.append.s"),
        "api.self_s": api_total - api_backend,
        "api.self_frac": _ratio(api_total - api_backend, api_total),
    }
    for name in metrics:
        if {_layer(name), *DEPENDS.get(name, ())} & recorder.missing_layers:
            metrics[name] = None
    return metrics
