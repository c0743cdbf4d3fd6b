"""In-memory LRU of compiled circuits, keyed by circuit topology.

The CNF -> d-DNNF -> arithmetic-circuit compile is the expensive, exponential
stage of the pipeline; everything downstream of it is polynomial re-binding.
This module keeps fully constructed
:class:`~repro.simulator.kc_simulator.CompiledCircuit` masters keyed by
*circuit topology* (see :mod:`repro.circuits.topology`), shared by every
simulator in the process (parameter sweeps, variational loops and figure
harnesses all hit it).  A compile reaches another process only as part of
a pooled task's payload (:mod:`repro.api.device`), never through this cache.

The process-wide default cache is replaced with :func:`configure_default`
and retrieved with :func:`default_cache`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from ..circuits import topology
from ..circuits.passes import base as passes_base


class CacheStats:
    """Hit/miss counters for one :class:`CompiledCircuitCache`."""

    def __init__(self) -> None:
        self.memory_hits = 0
        self.misses = 0
        self.stores = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def __repr__(self) -> str:
        return f"CacheStats({self.as_dict()})"


class CompiledCircuitCache:
    """Bounded in-memory store for compiled circuits.

    Parameters
    ----------
    max_entries:
        Bound on the LRU; least-recently-used masters are evicted first.

    The class stores whatever master object the simulator hands it; all
    compile logic stays in
    :class:`~repro.simulator.kc_simulator.KnowledgeCompilationSimulator`.
    """

    def __init__(self, max_entries: int = 32):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = int(max_entries)
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def lookup(self, key: str) -> Optional[Any]:
        """Return the cached master for ``key``, or ``None``."""
        with self._lock:
            master = self._entries.get(key)
            if master is not None:
                self._entries.move_to_end(key)
                self.stats.memory_hits += 1
            else:
                self.stats.misses += 1
            return master

    def store(self, key: str, master: Any) -> None:
        """Insert ``master`` under ``key``, evicting LRU entries beyond the bound."""
        with self._lock:
            self._entries[key] = master
            self._entries.move_to_end(key)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return f"CompiledCircuitCache(entries={len(self._entries)}/{self.max_entries})"


# ----------------------------------------------------------------------
# Process-wide default
# ----------------------------------------------------------------------
_default_cache: Optional[CompiledCircuitCache] = None
_default_lock = threading.Lock()


def default_cache() -> CompiledCircuitCache:
    """The process-wide shared cache (created lazily on first use)."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = CompiledCircuitCache()
        return _default_cache


def configure_default(max_entries: int = 32) -> CompiledCircuitCache:
    """Replace the process-wide default cache and return the new instance.

    Also empties the front end's exact-content memos (canonical forms and
    rewrite-pipeline results), so a fresh configuration pays every rewrite,
    canonicalization and compile again.
    """
    global _default_cache
    with _default_lock:
        topology._CANONICAL_MEMO.clear()
        passes_base._PIPELINE_MEMO.clear()
        _default_cache = CompiledCircuitCache(max_entries=max_entries)
        return _default_cache
