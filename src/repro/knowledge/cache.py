"""Persistent compiled-circuit cache: in-memory LRU + content-addressed disk.

The CNF -> d-DNNF -> arithmetic-circuit compile is the expensive, exponential
stage of the pipeline; everything downstream of it is polynomial re-binding.
This module stores compiled artifacts keyed by *circuit topology* (see
:mod:`repro.circuits.topology`) on two levels:

* an **in-memory LRU** of fully constructed
  :class:`~repro.simulator.kc_simulator.CompiledCircuit` masters, shared by
  every simulator in the process (parameter sweeps, variational loops and
  figure harnesses all hit it);
* an optional **on-disk layer** of content-addressed pickles holding the
  compiled :class:`~repro.knowledge.arithmetic_circuit.ArithmeticCircuit`.
  Disk entries survive processes — a parallel experiment runner compiles once
  in one worker and every other worker hydrates from the file.  The cheap
  polynomial stages (circuit -> Bayesian network -> CNF encoding) are re-run
  on load and their fingerprint is checked against the stored one, so a
  stale or corrupt file degrades to a recompile, never to wrong results.

Only load cache directories you trust: entries are Python pickles.

The process-wide default cache is configured with :func:`configure_default`
(or the ``REPRO_COMPILE_CACHE_DIR`` environment variable, read once at first
use) and retrieved with :func:`default_cache`.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from ..circuits import topology
from ..circuits.passes import base as passes_base

#: Environment variable naming the disk-cache directory for the default cache.
CACHE_DIR_ENV = "REPRO_COMPILE_CACHE_DIR"

#: On-disk payload format; bump on incompatible changes.
PAYLOAD_FORMAT = 2


class CacheStats:
    """Hit/miss counters for one :class:`CompiledCircuitCache`."""

    def __init__(self) -> None:
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def __repr__(self) -> str:
        return f"CacheStats({self.as_dict()})"


class CompiledCircuitCache:
    """Two-level (memory + optional disk) store for compiled circuits.

    Parameters
    ----------
    max_entries:
        Bound on the in-memory LRU; least-recently-used masters are evicted
        first.  Disk entries are never evicted by this class.
    directory:
        Directory for the persistent layer, created on first write.  ``None``
        disables the disk layer (memory-only caching).

    The class stores whatever master object the simulator hands it and treats
    disk payloads as opaque dictionaries; all compile logic stays in
    :class:`~repro.simulator.kc_simulator.KnowledgeCompilationSimulator`.
    """

    def __init__(self, max_entries: int = 32, directory: Optional[str] = None):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = int(max_entries)
        self.directory = os.fspath(directory) if directory is not None else None
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # In-memory layer
    # ------------------------------------------------------------------
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

    def clear(self, disk: bool = False) -> None:
        """Drop all in-memory entries; with ``disk=True`` also delete disk files."""
        with self._lock:
            self._entries.clear()
        if disk and self.directory is not None and os.path.isdir(self.directory):
            for name in os.listdir(self.directory):
                if name.endswith(".pkl"):
                    try:
                        os.unlink(os.path.join(self.directory, name))
                    except OSError:
                        pass

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------
    def _path_for(self, key: str) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"{key}.pkl")

    def load_payload(self, key: str) -> Optional[Dict[str, Any]]:
        """Read the disk payload for ``key``; ``None`` on miss or any error.

        A payload whose ``format`` does not match :data:`PAYLOAD_FORMAT` is
        treated as a miss (callers then recompile and overwrite it).
        """
        path = self._path_for(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError):
            return None
        if not isinstance(payload, dict) or payload.get("format") != PAYLOAD_FORMAT:
            return None
        self.stats.disk_hits += 1
        return payload

    def store_payload(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically write the disk payload for ``key`` (no-op without a directory).

        The payload is pickled to a temporary file, flushed to stable
        storage, and published with ``os.replace`` — a concurrent reader (or
        a crash at any point) sees either the old complete file or the new
        complete file, never a torn write.  Failures of any kind degrade to
        "not cached" and always remove the temporary file.
        """
        path = self._path_for(key)
        if path is None:
            return
        payload = dict(payload, format=PAYLOAD_FORMAT)
        os.makedirs(self.directory, exist_ok=True)
        descriptor, temporary = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, path)
        except (OSError, pickle.PicklingError, AttributeError, TypeError, ValueError):
            try:
                os.unlink(temporary)
            except OSError:
                pass
        except BaseException:
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise

    def __repr__(self) -> str:
        return (
            f"CompiledCircuitCache(entries={len(self._entries)}/{self.max_entries}, "
            f"directory={self.directory!r})"
        )


# ----------------------------------------------------------------------
# Process-wide default
# ----------------------------------------------------------------------
_default_cache: Optional[CompiledCircuitCache] = None
_default_lock = threading.Lock()


def default_cache() -> CompiledCircuitCache:
    """The process-wide shared cache (created lazily on first use).

    The disk layer is enabled when the ``REPRO_COMPILE_CACHE_DIR``
    environment variable is set at creation time; parallel-runner workers use
    exactly this hook to hydrate compiles from their parent's directory.
    """
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = CompiledCircuitCache(directory=os.environ.get(CACHE_DIR_ENV) or None)
        return _default_cache


def configure_default(
    directory: Optional[str] = None, max_entries: int = 32
) -> CompiledCircuitCache:
    """Replace the process-wide default cache and return the new instance.

    Also empties the front end's exact-content memos (canonical forms and
    rewrite-pipeline results), so a fresh configuration pays every rewrite,
    canonicalization and compile again.
    """
    global _default_cache
    with _default_lock:
        topology._CANONICAL_MEMO.clear()
        passes_base._PIPELINE_MEMO.clear()
        _default_cache = CompiledCircuitCache(max_entries=max_entries, directory=directory)
        return _default_cache
