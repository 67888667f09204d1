"""The on-disk segment home: one sealed chunk of a table partition as
an immutable columnar segment file.

:class:`~repro.engine.storage.PartitionedTable` seals every full
``segment_rows`` chunk; in ``storage_mode="disk"`` sealing writes a
:class:`DiskSegment` (in memory mode it keeps a
:class:`~repro.storage.segment.MemorySegment`). Scans decode the file
straight into :class:`~repro.columnar.ColumnData`, and those columns are
what the owning :class:`~repro.storage.engine.StorageEngine`'s buffer
pool holds. Per-row sizes and zone maps are those of the same rows in
memory, so every simulated charge (scan bytes, pruning decisions, spill
triggers) is bit-identical across ``storage_mode in ("memory", "disk")``.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..columnar import ColumnData, rows_from_columns
from .segment import (
    ZoneMap,
    compute_zones,
    encode_columns,
    read_segment_file,
    write_segment_file,
)


class DiskSegment:
    """One sealed, immutable columnar segment file.

    The zone maps are computed at seal time, from the columns the table
    hands over (with their per-row serialized sizes), and both are kept in
    memory (they are the scan's pruning/charging metadata);
    only the column payload lives on disk and is decoded on demand through
    the buffer pool, which stays the one budgeted home of decoded columns
    — nothing is cached on the segment. Pooled columns are read-only and
    shared by every query that hits them, like a ``MemorySegment``'s.
    """

    __slots__ = ("path", "row_count", "_zones", "_sizes", "_total")

    def __init__(
        self,
        path: str,
        columns: Sequence[ColumnData],
        sizes: np.ndarray,
        injector=None,
    ):
        self.path = path
        self.row_count = len(sizes)
        self._sizes = sizes
        self._total = float(sizes.sum())
        self._zones: List[ZoneMap] = compute_zones(columns)
        # sealing is crash-atomic (temp file + fsync + os.replace): a
        # crash mid-seal leaves the final name absent, never torn
        blob, _ = encode_columns(columns, self._zones)
        write_segment_file(path, blob, injector=injector)

    def sizes(self) -> List[float]:
        return self._sizes.tolist()

    @property
    def total_bytes(self) -> float:
        return self._total

    def zone(self, position: int) -> Optional[ZoneMap]:
        if position >= len(self._zones):
            return None
        return self._zones[position]

    def columns(
        self, pool=None
    ) -> Tuple[List[ColumnData], np.ndarray, Optional[str]]:
        """Decode the segment into columns, going through the buffer
        pool when one is supplied; the third element reports
        ``"hit"``/``"miss"`` (a hit is the pooled columns, as they are)."""
        if pool is None:
            return read_segment_file(self.path), self._sizes, None
        columns, outcome = pool.acquire(self.path), "hit"
        if columns is None:
            columns, outcome = read_segment_file(self.path), "miss"
            pool.insert(self.path, columns, self._total)
        pool.release(self.path)
        return columns, self._sizes, outcome

    def read(self, pool=None) -> Tuple[List[tuple], List[float], Optional[str]]:
        """The same columns as row tuples with their per-row sizes."""
        columns, _, outcome = self.columns(pool)
        return rows_from_columns(columns), self.sizes(), outcome

    def unlink(self, pool=None) -> None:
        if pool is not None:
            pool.invalidate(self.path)
        try:
            os.unlink(self.path)
        except OSError:
            pass
