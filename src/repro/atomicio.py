"""Audited atomic-write helpers (the only sanctioned raw-write site).

Every persisted artifact in ``src/repro`` — journal manifests, benchmark
emitters, DIMACS dumps — must be written so that a
crash at *any* instruction leaves either the old file or the new file,
never a torn hybrid.  The discipline is the classic one:

1. write the full payload to a same-directory temp file (``os.replace``
   is only atomic within a filesystem),
2. flush + ``fsync`` the descriptor so the *data* is durable before the
   rename makes it *visible*,
3. ``os.replace`` onto the destination (atomic on POSIX and Windows).

The temp name embeds the pid so concurrent writers (pool workers, a
future multi-process service gateway) never collide; last replace wins,
and every observer sees a complete file.

The ``atomic-write`` reprolint rule flags any ``open(..., "w")`` outside
this module and the audited append-only writer
(``JobJournal.checkpoint_row``'s ``O_APPEND`` fingerprinted WAL).
"""

from __future__ import annotations

import os
from typing import Union

__all__ = ["atomic_write_bytes", "atomic_write_text"]


def atomic_write_bytes(path: Union[str, "os.PathLike[str]"], data: bytes) -> None:
    """Durably replace ``path`` with ``data`` (write-temp + fsync + rename)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp_path = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    handle = open(tmp_path, "wb")
    try:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp_path, path)
    except BaseException:
        handle.close()
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_text(
    path: Union[str, "os.PathLike[str]"], text: str, encoding: str = "utf-8"
) -> None:
    """Durably replace ``path`` with ``text`` (write-temp + fsync + rename)."""
    atomic_write_bytes(path, text.encode(encoding))
