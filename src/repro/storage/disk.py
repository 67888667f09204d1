"""Disk-backed partitioned table storage.

Mirrors :class:`repro.engine.storage.PartitionedTable`'s API (same slot
selection, same insert-order chunking into ``segment_rows`` chunks) but
seals every full chunk into an immutable columnar segment file and keeps
only the partial tail chunk in memory. Scans decode sealed segments back
through the owning :class:`~repro.storage.engine.StorageEngine`'s buffer
pool.

Because the chunk boundaries, zone maps and per-row serialized sizes are
identical to the memory back end's logical segments, every simulated
charge (scan bytes, pruning decisions, spill triggers) is bit-identical
across ``storage_mode in ("memory", "disk")``.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..catalog import Schema
from ..engine.cluster import row_bytes, stable_hash
from ..errors import ExecutionError
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
    the buffer pool.
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

    def unlink(self, pool=None) -> None:
        if pool is not None:
            pool.invalidate(self.path)
        try:
            os.unlink(self.path)
        except OSError:
            pass


class DiskPartitionedTable:
    """Base-table storage laid out as sealed columnar segment files plus
    an in-memory tail buffer per partition."""

    def __init__(
        self,
        schema: Schema,
        slots: int,
        partition_by: Optional[Sequence[str]] = None,
        engine=None,
        name: str = "table",
        segment_rows: int = 4096,
    ):
        if engine is None:
            raise ExecutionError(
                "DiskPartitionedTable requires a StorageEngine "
                "(segment files need a home directory and buffer pool)"
            )
        self.schema = schema
        self.slots = slots
        self.engine = engine
        self.name = name
        self.segment_rows = max(1, int(segment_rows))
        #: column names the table is hash-partitioned on (None = round robin)
        self.partition_by = list(partition_by) if partition_by else None
        self._key_positions: Optional[List[int]] = None
        if self.partition_by:
            self._key_positions = []
            for column_name in self.partition_by:
                position = schema.index_of(column_name)
                if position is None:
                    raise ExecutionError(
                        f"cannot partition on unknown column {column_name!r}"
                    )
                self._key_positions.append(position)
        self._sealed: List[List[DiskSegment]] = [[] for _ in range(slots)]
        self._tails: List[List[tuple]] = [[] for _ in range(slots)]
        self._next = 0
        self._version = 0
        self._segment_cache: Dict[int, Tuple[int, list]] = {}

    @property
    def width(self) -> int:
        return len(self.schema.types)

    @property
    def row_count(self) -> int:
        return sum(self.partition_row_count(slot) for slot in range(self.slots))

    # -- mutation -----------------------------------------------------------

    def insert(self, row: Sequence) -> None:
        values = tuple(row)
        if self._key_positions is None:
            slot = self._next % self.slots
            self._next += 1
        else:
            key = tuple(values[i] for i in self._key_positions)
            slot = stable_hash(key) % self.slots
        self._tails[slot].append(values)
        self._seal_full_chunks(slot)
        self._version += 1

    def insert_many(self, rows: Iterable[Sequence]) -> int:
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def _seal_full_chunks(self, slot: int) -> None:
        tail = self._tails[slot]
        while len(tail) >= self.segment_rows:
            chunk = tail[: self.segment_rows]
            del tail[: self.segment_rows]
            path = self.engine.allocate_segment_path(self.name)
            self._sealed[slot].append(
                DiskSegment(
                    path, chunk, self.width, injector=self.engine.injector
                )
            )

    def _drop_sealed(self, slot: int) -> None:
        pool = self.engine.buffer_pool
        for segment in self._sealed[slot]:
            segment.unlink(pool)
        self._sealed[slot] = []

    def truncate(self) -> None:
        for slot in range(self.slots):
            self._drop_sealed(slot)
            self._tails[slot] = []
        self._next = 0
        self._version += 1

    def mutated(self) -> None:
        self._version += 1

    def replace_partition(self, slot: int, rows: Sequence[tuple]) -> None:
        """Rewrite one partition (DELETE): the old immutable segments
        are dropped and the surviving rows are re-sealed with the shared
        insert-order chunking rule."""
        self._drop_sealed(slot)
        self._tails[slot] = [tuple(row) for row in rows]
        self._seal_full_chunks(slot)
        self._version += 1

    # -- reads --------------------------------------------------------------

    def segments(self, slot: int) -> list:
        """Sealed segments plus the in-memory tail chunk, cached until
        the next mutation. Chunk boundaries match the memory back end."""
        cached = self._segment_cache.get(slot)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        segments: list = list(self._sealed[slot])
        tail = self._tails[slot]
        if tail:
            segments.append(MemorySegment(tail, self.width))
        self._segment_cache[slot] = (self._version, segments)
        return segments

    def partition_rows(self, slot: int) -> List[tuple]:
        """Decoded rows of one partition (bypasses the buffer pool:
        maintenance reads — stats, persistence — are not scans)."""
        return self.partition_suffix(slot, 0)

    def partition_row_count(self, slot: int) -> int:
        sealed = sum(segment.row_count for segment in self._sealed[slot])
        return sealed + len(self._tails[slot])

    def partition_suffix(self, slot: int, start: int) -> List[tuple]:
        """The rows of one partition from insert position ``start`` on.
        Sealed segments that end at or before ``start`` are skipped by
        their row count, never decoded — an incremental view folding
        one append reads only the segments that append touched."""
        out: List[tuple] = []
        offset = 0
        for segment in self._sealed[slot]:
            end = offset + segment.row_count
            if end > start:
                out.extend(segment.read(None)[0][max(start - offset, 0):])
            offset = end
        out.extend(self._tails[slot][max(start - offset, 0):])
        return out

    def all_rows(self) -> List[tuple]:
        out: List[tuple] = []
        for slot in range(self.slots):
            out.extend(self.partition_rows(slot))
        return out

    def total_bytes(self) -> float:
        total = sum(
            segment.total_bytes for slot in self._sealed for segment in slot
        )
        return total + sum(
            row_bytes(row) for tail in self._tails for row in tail
        )
