"""Segments: the one column codec, zone maps, pruning decisions, and
the in-memory home of a chunk.

A *segment* is one immutable chunk of a table partition: up to
``ClusterConfig.segment_rows`` consecutive rows in insert order. The one
table class (:class:`~repro.engine.storage.PartitionedTable`) decides
the boundaries; ``storage_mode`` only decides whether a sealed chunk
becomes a :class:`MemorySegment` or a
:class:`~repro.storage.disk.DiskSegment`, so a table
loaded the same way has the same zone maps, the same pruning decisions
and the same charged scan bytes whether it lives in memory or on disk.

This is the only module that knows how a column of SQL values becomes
bytes: :class:`~repro.columnar.ColumnData` is the stored form. Sealed
segment files, spill files, and the value collections inside snapshots
and WAL records are all one layout::

    RSEG2\\n\\0\\0 | column payloads, 8-byte aligned | pickled footer
             | footer length (u64 LE) | CRC32 of all preceding bytes (u32 LE)

A typed-scalar or tensor-block column is its array buffer followed by
its null mask, read back with ``np.frombuffer`` as a read-only view of
the file bytes; an object column (NULL-bearing or mixed scalars,
strings, labelled or ragged tensors, arbitrary-precision ints) is the
pinned-protocol pickle of its values. Decoding is *exact* because
``ColumnData.from_values`` -> ``pylist`` is: every value round trips to
the same bits and the same Python type, which is what lets disk mode,
spills and recovery preserve the bit-identical-results contract. The
footer carries the row count and, per column, dtype, shape, payload
length and — for sealed segments — the zone map: min/max over
comparable non-null values and the null count.
"""

from __future__ import annotations

import math
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..columnar import ColumnData, columns_from_rows, rows_from_columns
from ..errors import SnapshotCorruptError
from .durable import atomic_write, check_magic

SEGMENT_MAGIC = b"RSEG2\n"
#: the magic is padded to this, so column payloads start 8-byte aligned
_HEADER_BYTES = 8
#: the file ends with the footer's length (u64), then the CRC32 (u32) of
#: every byte before the checksum itself
_TRAILER = struct.Struct("<QI")
#: pinned pickle protocol (footer, object columns) so segment bytes are
#: stable across interpreters
_PICKLE_PROTOCOL = 4

#: comparison operators a zone map can prune on
PRUNABLE_OPS = ("=", "<", ">", "<=", ">=")


@dataclass(frozen=True)
class ZoneMap:
    """Per-segment, per-column summary: min/max over comparable non-null
    values (None when the column holds no comparable values) plus the
    null count."""

    lo: Optional[object]
    hi: Optional[object]
    null_count: int
    row_count: int


def compute_zone(column: ColumnData) -> ZoneMap:
    """The zone map of one column chunk: min/max over its non-NULL,
    non-NaN values (a NaN compares false with everything, so it bounds
    nothing). Values that do not admit a total order under Python
    comparison (tensors, mixed str/number columns) yield ``lo = hi =
    None`` and never prune."""
    count = len(column)
    nulls = 0 if column.nulls is None else int(np.count_nonzero(column.nulls))
    if column.is_block:
        # tensors have no order; one alone is its own min and max
        cells = np.flatnonzero(~column.null_mask())
        only = column.cell(cells[0]) if len(cells) == 1 else None
        return ZoneMap(only, only, nulls, count)
    if column.is_object:
        present = [value for value in column.pylist() if value is not None]
        nulls = count - len(present)
        values = [
            value
            for value in present
            if not (type(value) is float and value != value)
        ]
        try:
            return ZoneMap(min(values), max(values), nulls, count)
        except (TypeError, ValueError):  # incomparable, or nothing to compare
            return ZoneMap(None, None, nulls, count)
    data = column.data if column.nulls is None else column.data[~column.nulls]
    if data.dtype == np.float64:
        data = data[data == data]
    if not len(data):
        return ZoneMap(None, None, nulls, count)
    return ZoneMap(data.min().item(), data.max().item(), nulls, count)


def compute_zones(columns: Sequence[ColumnData]) -> List[ZoneMap]:
    """Zone maps for every column of a chunk held column-wise — the one
    function both segment homes and the tail view get theirs from."""
    return [compute_zone(column) for column in columns]


def zone_excludes(zone: ZoneMap, op: str, literal) -> bool:
    """True when ``column <op> literal`` cannot hold for any row of the
    segment, so the whole segment may be skipped. Conservative: any
    uncertainty (no min/max, incomparable literal) keeps the segment."""
    if zone.row_count == 0:
        return True
    if zone.null_count == zone.row_count:
        # every value is NULL; comparisons with NULL never match
        return True
    if zone.lo is None or zone.hi is None:
        return False
    try:
        if op == "=":
            return bool(literal < zone.lo) or bool(literal > zone.hi)
        if op == "<":
            return not bool(zone.lo < literal)
        if op == "<=":
            return not bool(zone.lo <= literal)
        if op == ">":
            return not bool(zone.hi > literal)
        if op == ">=":
            return not bool(zone.hi >= literal)
    except TypeError:
        return False
    return False


def segment_pruned(segment, predicates: Sequence[Tuple[int, str, object]]) -> bool:
    """Whether a conjunction of ``(column position, op, literal)``
    predicates excludes every row of ``segment``."""
    for position, op, literal in predicates:
        zone = segment.zone(position)
        if zone is not None and zone_excludes(zone, op, literal):
            return True
    return False


def chunk_offsets(count: int, segment_rows: int) -> Iterator[Tuple[int, int]]:
    """Consecutive ``[start, stop)`` chunk bounds covering ``count``
    rows: the table's segmentation rule."""
    step = max(1, int(segment_rows))
    for start in range(0, count, step):
        yield start, min(start + step, count)


# -- the column codec --------------------------------------------------------


def encode_columns(
    columns: Sequence[ColumnData], zones: Sequence[ZoneMap] = ()
) -> Tuple[bytes, dict]:
    """The one encoder: rows held column-wise become ``(blob, footer)``.
    A typed or block column is written as the array it already is (then
    its null mask, when it has one); an object column as the pickle of
    its values. ``zones`` adds the zone maps of a sealed segment to the
    footer."""
    parts = [SEGMENT_MAGIC.ljust(_HEADER_BYTES, b"\0")]
    metas: List[dict] = []
    for position, column in enumerate(columns):
        masked = False
        if column.is_object:
            payload = pickle.dumps(column.pylist(), protocol=_PICKLE_PROTOCOL)
        else:
            payload = column.data.tobytes()
            masked = column.nulls is not None
            if masked:
                payload += column.nulls.tobytes()
        meta = {
            "dtype": column.data.dtype.str,
            "shape": column.data.shape,
            "masked": masked,
            "length": len(payload),
        }
        if zones:
            zone = zones[position]
            meta.update(lo=zone.lo, hi=zone.hi, nulls=zone.null_count)
        metas.append(meta)
        # every payload starts 8-byte aligned, so the arrays read back
        # over the file bytes are aligned too
        parts += (payload, b"\0" * (-len(payload) % 8))
    footer = {"rows": len(columns[0]) if columns else 0, "columns": metas}
    footer_bytes = pickle.dumps(footer, protocol=_PICKLE_PROTOCOL)
    parts += (footer_bytes, struct.pack("<Q", len(footer_bytes)))
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body)), footer


def decode_columns(blob: bytes, path: str = "") -> List[ColumnData]:
    """The one decoder, exact inverse of :func:`encode_columns`. Typed
    and block columns come back as read-only ``np.frombuffer`` views of
    ``blob`` — no copy, and the arrays keep ``blob`` alive. Nothing is
    unpickled before the magic and the checksum hold; ``path`` only
    names the file in errors."""
    check_magic(blob, SEGMENT_MAGIC, path, "segment file")
    footer_end = len(blob) - _TRAILER.size
    if footer_end < _HEADER_BYTES:
        raise SnapshotCorruptError(
            "segment truncated inside its header", path=path, offset=len(blob)
        )
    footer_length, crc = _TRAILER.unpack_from(blob, footer_end)
    view = memoryview(blob)
    if zlib.crc32(view[:-4]) != crc:
        raise SnapshotCorruptError(
            "segment checksum mismatch (truncation, bit rot or torn write)",
            path=path,
            offset=0,
        )
    try:
        footer = pickle.loads(view[footer_end - footer_length : footer_end])
    except Exception as exc:
        raise SnapshotCorruptError(
            f"segment footer does not decode ({type(exc).__name__}: {exc})",
            path=path,
            offset=footer_end - footer_length,
        ) from exc
    columns: List[ColumnData] = []
    offset = _HEADER_BYTES
    for meta in footer["columns"]:
        shape = meta["shape"]
        if meta["dtype"] == "|O":
            values = pickle.loads(view[offset : offset + meta["length"]])
            columns.append(ColumnData.from_values(values))
        else:
            data = np.frombuffer(
                blob, dtype=meta["dtype"], count=math.prod(shape), offset=offset
            ).reshape(shape)
            nulls = None
            if meta["masked"]:
                nulls = np.frombuffer(
                    blob, dtype=np.bool_, count=shape[0], offset=offset + data.nbytes
                )
            columns.append(ColumnData(data, nulls))
        offset += meta["length"] + -meta["length"] % 8
    return columns


def encode_segment(rows: Sequence[tuple], width: int) -> Tuple[bytes, dict]:
    """A row chunk as a sealed segment: ``(blob, footer)``, the footer
    carrying the row count and per-column ``lo``/``hi``/``nulls``."""
    columns = columns_from_rows(rows, width)
    return encode_columns(columns, compute_zones(columns))


def encode_rows(rows: Sequence[tuple]) -> bytes:
    """Rows as a segment blob without zone maps: what spill files, WAL
    records and snapshots store (each inside its own envelope)."""
    width = len(rows[0]) if rows else 0
    return encode_columns(columns_from_rows(rows, width))[0]


def decode_segment(blob: bytes, path: str = "") -> List[tuple]:
    """The rows of any segment blob, exactly as they were encoded."""
    return rows_from_columns(decode_columns(blob, path))


def write_segment_file(
    path: str, blob: bytes, injector=None, durable: bool = True
) -> None:
    """Write one segment file. ``durable`` (the default, used for sealed
    base-table segments) goes through the crash-atomic
    :func:`~repro.storage.durable.atomic_write` path — temp file, fsync,
    ``os.replace`` — and counts as one durability barrier when an
    ``injector`` is armed. Spill files pass ``durable=False``: they are
    scratch state recomputed after any crash, and they are written from
    concurrently admitted statements, so routing them through the
    barrier counter would make crash points scheduling-dependent."""
    if durable:
        atomic_write(path, blob, injector=injector)
    else:
        with open(path, "wb") as handle:
            handle.write(blob)


def read_segment_file(path: str) -> List[ColumnData]:
    """Decode one segment file into columns (the only file reader)."""
    with open(path, "rb") as handle:
        return decode_columns(handle.read(), path)


# -- the in-memory segment home ----------------------------------------------


class MemorySegment:
    """An immutable chunk held in memory, column-wise: a sealed segment
    of a memory-mode partition, the current view of a partition's
    not-yet-sealed tail in either mode, or any run of a partition's rows
    handed to maintenance (view folds, snapshots). It holds one
    :class:`~repro.columnar.ColumnData` per column in the form
    ``from_values`` picks, and the per-row serialized sizes; row tuples
    are derived on demand through the exact ``pylist`` round trip disk
    mode relies on, and zone maps on first use. It answers the same
    questions as ``disk.DiskSegment`` (``row_count``, ``sizes``,
    ``total_bytes``, ``zone``, ``read``, ``columns``, ``unlink``), so
    the table and the scan never ask which one they hold."""

    __slots__ = ("_columns", "_sizes", "total_bytes", "_zones")

    def __init__(self, columns: Sequence[ColumnData], sizes: np.ndarray):
        self._columns = list(columns)
        self._sizes = sizes
        self.total_bytes = float(sizes.sum())
        self._zones: Optional[List[ZoneMap]] = None

    @property
    def row_count(self) -> int:
        return len(self._sizes)

    def sizes(self) -> List[float]:
        return self._sizes.tolist()

    def zone(self, position: int) -> Optional[ZoneMap]:
        if self._zones is None:
            self._zones = compute_zones(self._columns)
        if position >= len(self._zones):
            return None
        return self._zones[position]

    def read(self, pool=None) -> Tuple[List[tuple], List[float], Optional[str]]:
        """Rows, per-row serialized sizes, and the buffer-pool outcome
        (always None: memory segments never touch the pool)."""
        return rows_from_columns(self._columns), self.sizes(), None

    def columns(
        self, pool=None
    ) -> Tuple[List[ColumnData], np.ndarray, Optional[str]]:
        """The columns, the per-row serialized sizes, and the
        buffer-pool outcome. Every scan shares the same read-only
        columns."""
        return self._columns, self._sizes, None

    def unlink(self, pool=None) -> None:
        """Nothing outlives the object."""
