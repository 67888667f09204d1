"""The per-database storage engine: mode, segment directory, buffer
pool, and spill bookkeeping.

One :class:`StorageEngine` is owned by each :class:`~repro.db.Database`.
In ``"memory"`` mode it is nearly inert (no directory, no pool) — spill
*decisions* still fire, as pure byte accounting, so simulated metrics
stay identical across modes. In ``"disk"`` mode it provides the segment
file directory (a private temp dir, cleaned up on garbage collection),
the shared :class:`~repro.storage.bufferpool.BufferPool`, and physical
spill files: operator state that exceeds the budget round-trips through
the exact segment codec before being consumed.
"""

from __future__ import annotations

import os
import tempfile
import threading
from typing import Dict, List, Optional, Sequence

from ..columnar import rows_from_columns
from ..config import ClusterConfig
from ..errors import ExecutionError
from .bufferpool import BufferPool
from .segment import encode_rows, read_segment_file, write_segment_file

STORAGE_MODES = ("memory", "disk")


class StorageEngine:
    """Storage-mode state shared by every table of one database."""

    def __init__(self, config: ClusterConfig):
        if config.storage_mode not in STORAGE_MODES:
            raise ExecutionError(
                f"unknown storage_mode {config.storage_mode!r}; "
                f"expected one of {STORAGE_MODES}"
            )
        self.config = config
        self.mode = config.storage_mode
        self.budget_bytes = config.effective_buffer_pool_bytes
        self.buffer_pool: Optional[BufferPool] = (
            BufferPool(self.budget_bytes) if self.mode == "disk" else None
        )
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        self._counter = 0
        #: the database's fault injector (assigned by Database right
        #: after executor construction); sealed base-table segment writes
        #: consult it at their durability barriers
        self.injector = None
        #: cumulative spill accounting across queries (service stats)
        self.spilled_bytes = 0.0
        self.spill_events = 0
        # one engine is shared by all concurrently admitted statements;
        # the lock guards the counters and lazy tempdir (assigned last)
        self._lock = threading.RLock()

    def set_injector(self, injector) -> None:
        """Share the database's fault injector with segment writers
        (Database assigns it right after executor construction)."""
        with self._lock:
            self.injector = injector

    @property
    def root(self) -> str:
        """The segment/spill file directory, created on first use."""
        with self._lock:
            if self._tempdir is None:
                self._tempdir = tempfile.TemporaryDirectory(
                    prefix="repro-segments-"
                )
            return self._tempdir.name

    def allocate_segment_path(self, stem: str) -> str:
        with self._lock:
            self._counter += 1
            counter = self._counter
        safe = "".join(c if c.isalnum() else "_" for c in stem) or "seg"
        return os.path.join(self.root, f"{safe}-{counter:08d}.seg")

    def note_spill(self, nbytes: float) -> None:
        with self._lock:
            self.spilled_bytes += nbytes
            self.spill_events += 1

    def spill_roundtrip(self, rows: Sequence[tuple]) -> List[tuple]:
        """Physically write spilled operator state through the segment
        codec and read it back (disk mode only; the codec is exact, so
        downstream results are unchanged). Memory mode returns the rows
        as-is — the spill is simulated, charged but not performed."""
        rows = list(rows)
        if self.mode != "disk" or not rows:
            return rows
        path = self.allocate_segment_path("spill")
        # spills are scratch (recomputed after a crash) and run from
        # concurrently admitted statements: not a durability barrier
        write_segment_file(path, encode_rows(rows), durable=False)
        try:
            return rows_from_columns(read_segment_file(path))
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass

    def stats(self) -> Dict[str, object]:
        """The storage block of ``QueryService.stats()``."""
        with self._lock:
            out: Dict[str, object] = {
                "mode": self.mode,
                "budget_bytes": self.budget_bytes,
                "spilled_bytes": self.spilled_bytes,
                "spill_events": self.spill_events,
            }
        if self.buffer_pool is not None:
            out["buffer_pool"] = self.buffer_pool.stats()
        return out

    def close(self) -> None:
        with self._lock:
            tempdir, self._tempdir = self._tempdir, None
        if tempdir is not None:
            tempdir.cleanup()
