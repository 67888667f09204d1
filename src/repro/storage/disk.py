"""The on-disk segment home: one sealed chunk of a table partition as
an immutable columnar segment file.

:class:`~repro.engine.storage.PartitionedTable` seals every full
``segment_rows`` chunk; in ``storage_mode="disk"`` sealing writes a
:class:`DiskSegment` (in memory mode it keeps a
:class:`~repro.storage.segment.MemorySegment`). Scans decode the file
back through the owning :class:`~repro.storage.engine.StorageEngine`'s
buffer pool. Per-row sizes and zone maps are those of the same rows in
memory, so every simulated charge (scan bytes, pruning decisions, spill
triggers) is bit-identical across ``storage_mode in ("memory", "disk")``.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..columnar import ColumnData, columns_from_rows
from .segment import (
    MemorySegment,
    ZoneMap,
    read_segment_file,
    write_segment_file,
)


class DiskSegment:
    """One sealed, immutable columnar segment file.

    The zone maps and per-row serialized sizes are computed at seal time
    and kept in memory (they are the scan's pruning/charging metadata);
    only the row payload lives on disk and is decoded on demand through
    the buffer pool, which stays the one budgeted home of decoded rows —
    nothing is cached on the segment.
    """

    __slots__ = ("path", "row_count", "width", "_zones", "_sizes", "_total")

    def __init__(self, path: str, rows: Sequence[tuple], width: int, injector=None):
        self.path = path
        self.row_count = len(rows)
        self.width = width
        seed = MemorySegment(rows, width)
        self._sizes = seed.sizes()
        self._total = seed.total_bytes
        self._zones: List[ZoneMap] = [seed.zone(i) for i in range(width)]
        # sealing is crash-atomic (temp file + fsync + os.replace): a
        # crash mid-seal leaves the final name absent, never torn
        write_segment_file(path, rows, width, injector=injector)

    def sizes(self) -> List[float]:
        return self._sizes

    @property
    def total_bytes(self) -> float:
        return self._total

    def zone(self, position: int) -> Optional[ZoneMap]:
        if position >= len(self._zones):
            return None
        return self._zones[position]

    def read(self, pool=None) -> Tuple[List[tuple], List[float], Optional[str]]:
        """Decode the segment's rows, going through the buffer pool when
        one is supplied; the third element reports ``"hit"``/``"miss"``."""
        if pool is None:
            return read_segment_file(self.path), self._sizes, None
        payload = pool.acquire(self.path)
        if payload is not None:
            pool.release(self.path)
            return payload, self._sizes, "hit"
        rows = read_segment_file(self.path)
        pool.insert(self.path, rows, self._total)
        pool.release(self.path)
        return rows, self._sizes, "miss"

    def columns(
        self, pool=None
    ) -> Tuple[List[ColumnData], np.ndarray, Optional[str]]:
        """The decoded rows turned column-wise, per scan."""
        rows, sizes, outcome = self.read(pool)
        return (
            columns_from_rows(rows, self.width),
            np.asarray(sizes, dtype=np.float64),
            outcome,
        )

    def unlink(self, pool=None) -> None:
        if pool is not None:
            pool.invalidate(self.path)
        try:
            os.unlink(self.path)
        except OSError:
            pass
