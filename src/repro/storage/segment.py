"""Segments: the columnar file encoding, zone maps, pruning decisions,
and the in-memory home of a chunk.

A *segment* is one immutable chunk of a table partition: up to
``ClusterConfig.segment_rows`` consecutive rows in insert order. The one
table class (:class:`~repro.engine.storage.PartitionedTable`) decides
the boundaries; ``storage_mode`` only decides whether a sealed chunk
becomes a :class:`MemorySegment` or a
:class:`~repro.storage.disk.DiskSegment`, so a table
loaded the same way has the same zone maps, the same pruning decisions
and the same charged scan bytes whether it lives in memory or on disk.

The on-disk encoding keeps columns of uniform scalar type (and
uniform-shape VECTOR/MATRIX columns) as raw numpy buffers; anything else
(NULLs, strings, mixed types, labeled vectors, arbitrary-precision ints)
falls back to a pickled column. Decoding is *exact*: every value round
trips to an equal object of the same Python type, which is what lets
disk mode and spill files preserve the bit-identical-results contract.

File layout::

    RSEG1\\n | column payloads ... | pickled footer | footer length (8B LE)

The footer carries the row count and, per column, the encoding, payload
length, tensor shape, min/max over comparable non-null values and the
null count — the zone map used for pruning.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..columnar import ColumnData, columns_from_rows
from ..engine.cluster import columns_row_bytes, row_bytes
from ..types.labeled import DEFAULT_LABEL
from ..types.tensor import Matrix, Vector

SEGMENT_MAGIC = b"RSEG1\n"
#: pinned pickle protocol so segment files are stable across interpreters
_PICKLE_PROTOCOL = 4
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

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


def compute_zone(values: Sequence) -> ZoneMap:
    """The zone map of one column chunk. Values that do not admit a
    total order under Python comparison (tensors, mixed str/number
    columns) yield ``lo = hi = None`` and never prune."""
    null_count = 0
    non_null = []
    for value in values:
        if value is None:
            null_count += 1
        else:
            non_null.append(value)
    lo = hi = None
    if non_null:
        try:
            lo = min(non_null)
            hi = max(non_null)
        except TypeError:
            lo = hi = None
    return ZoneMap(lo, hi, null_count, len(values))


def compute_zones(rows: Sequence[tuple], width: int) -> List[ZoneMap]:
    """Zone maps for every column of a row chunk."""
    if not rows:
        return [ZoneMap(None, None, 0, 0) for _ in range(width)]
    return [compute_zone(column) for column in zip(*rows)]


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


# -- column codec -----------------------------------------------------------


def _encoding_for(values: Sequence) -> Tuple[str, Optional[tuple]]:
    kinds = {type(value) for value in values}
    if kinds == {float}:
        return "f8", None
    if kinds == {bool}:
        return "b1", None
    if kinds == {int}:
        if all(_INT64_MIN <= value <= _INT64_MAX for value in values):
            return "i8", None
        return "obj", None
    if kinds == {Vector}:
        length = values[0].length
        if all(
            value.label == DEFAULT_LABEL and value.length == length
            for value in values
        ):
            return "vec", (len(values), length)
        return "obj", None
    if kinds == {Matrix}:
        shape = values[0].shape
        if all(value.shape == shape for value in values):
            return "mat", (len(values),) + shape
        return "obj", None
    return "obj", None


def _encode_column(encoding: str, shape: Optional[tuple], values: Sequence) -> bytes:
    if encoding == "f8":
        return np.asarray(values, dtype=np.float64).tobytes()
    if encoding == "i8":
        return np.asarray(values, dtype=np.int64).tobytes()
    if encoding == "b1":
        return np.asarray(values, dtype=np.bool_).tobytes()
    if encoding == "vec":
        stacked = np.stack([value.data for value in values])
        return np.ascontiguousarray(stacked, dtype=np.float64).tobytes()
    if encoding == "mat":
        stacked = np.stack([value.data for value in values])
        return np.ascontiguousarray(stacked, dtype=np.float64).tobytes()
    return pickle.dumps(list(values), protocol=_PICKLE_PROTOCOL)


def _decode_column(meta: dict, data: bytes, rows: int) -> List:
    encoding = meta["encoding"]
    if encoding == "f8":
        return np.frombuffer(data, dtype=np.float64).tolist()
    if encoding == "i8":
        return np.frombuffer(data, dtype=np.int64).tolist()
    if encoding == "b1":
        return np.frombuffer(data, dtype=np.bool_).tolist()
    if encoding == "vec":
        array = np.frombuffer(data, dtype=np.float64).reshape(meta["shape"]).copy()
        return [Vector(array[i]) for i in range(rows)]
    if encoding == "mat":
        array = np.frombuffer(data, dtype=np.float64).reshape(meta["shape"]).copy()
        return [Matrix(array[i]) for i in range(rows)]
    return pickle.loads(data)


def encode_segment(rows: Sequence[tuple], width: int) -> Tuple[bytes, dict]:
    """Serialize a row chunk; returns ``(blob, footer)`` where the
    footer holds the per-column encodings and zone maps."""
    columns = list(zip(*rows)) if rows else [() for _ in range(width)]
    payloads: List[bytes] = []
    metas: List[dict] = []
    for values in columns:
        encoding, shape = _encoding_for(values) if rows else ("obj", None)
        payload = _encode_column(encoding, shape, values)
        zone = compute_zone(values)
        metas.append(
            {
                "encoding": encoding,
                "shape": shape,
                "length": len(payload),
                "lo": zone.lo,
                "hi": zone.hi,
                "nulls": zone.null_count,
            }
        )
        payloads.append(payload)
    footer = {"rows": len(rows), "width": width, "columns": metas}
    footer_bytes = pickle.dumps(footer, protocol=_PICKLE_PROTOCOL)
    blob = (
        SEGMENT_MAGIC
        + b"".join(payloads)
        + footer_bytes
        + struct.pack("<Q", len(footer_bytes))
    )
    return blob, footer


def decode_segment(blob: bytes) -> List[tuple]:
    """Exact inverse of :func:`encode_segment`."""
    if not blob.startswith(SEGMENT_MAGIC):
        raise ValueError("not a segment file (bad magic)")
    (footer_length,) = struct.unpack("<Q", blob[-8:])
    footer = pickle.loads(blob[-8 - footer_length : -8])
    rows = footer["rows"]
    offset = len(SEGMENT_MAGIC)
    columns: List[List] = []
    for meta in footer["columns"]:
        payload = blob[offset : offset + meta["length"]]
        offset += meta["length"]
        columns.append(_decode_column(meta, payload, rows))
    if rows == 0:
        return []
    return list(zip(*columns))


def write_segment_file(
    path: str,
    rows: Sequence[tuple],
    width: int,
    injector=None,
    durable: bool = True,
) -> dict:
    """Write one segment file. ``durable`` (the default, used for sealed
    base-table segments) goes through the crash-atomic
    :func:`~repro.storage.durable.atomic_write` path — temp file, fsync,
    ``os.replace`` — and counts as one durability barrier when an
    ``injector`` is armed. Spill files pass ``durable=False``: they are
    scratch state recomputed after any crash, and they are written from
    parallel partition tasks, so routing them through the barrier
    counter would make crash points scheduling-dependent."""
    from .durable import atomic_write

    blob, footer = encode_segment(rows, width)
    if durable:
        atomic_write(path, blob, injector=injector)
    else:
        with open(path, "wb") as handle:
            handle.write(blob)
    return footer


def read_segment_file(path: str) -> List[tuple]:
    with open(path, "rb") as handle:
        return decode_segment(handle.read())


# -- the in-memory segment home ----------------------------------------------


class MemorySegment:
    """An immutable row chunk held in memory: a sealed segment of a
    memory-mode partition, or the current view of a partition's
    not-yet-sealed tail in either mode (the table makes a new view when
    the tail grows). Everything derived from the rows — per-row sizes,
    zone maps, the columnar form — is computed on first use and never
    invalidated, because the rows never change. It answers the same
    questions as ``disk.DiskSegment`` (``row_count``, ``sizes``,
    ``total_bytes``, ``zone``, ``read``, ``columns``, ``unlink``), so
    the table and the scan never ask which one they hold."""

    __slots__ = ("rows", "width", "_sizes", "_total", "_zones", "_columns")

    def __init__(self, rows: Sequence[tuple], width: int):
        self.rows = list(rows)
        self.width = width
        self._sizes: Optional[List[float]] = None
        self._total: Optional[float] = None
        self._zones: Optional[List[ZoneMap]] = None
        self._columns: Optional[Tuple[List[ColumnData], np.ndarray]] = None

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def sizes(self) -> List[float]:
        if self._sizes is None:
            self._sizes = [row_bytes(row) for row in self.rows]
        return self._sizes

    @property
    def total_bytes(self) -> float:
        if self._total is None:
            self._total = sum(self.sizes())
        return self._total

    def zone(self, position: int) -> Optional[ZoneMap]:
        if self._zones is None:
            self._zones = compute_zones(self.rows, self.width)
        if position >= len(self._zones):
            return None
        return self._zones[position]

    def read(self, pool=None) -> Tuple[List[tuple], List[float], Optional[str]]:
        """Rows, per-row serialized sizes, and the buffer-pool outcome
        (always None: memory segments never touch the pool)."""
        return self.rows, self.sizes(), None

    def columns(
        self, pool=None
    ) -> Tuple[List[ColumnData], np.ndarray, Optional[str]]:
        """The rows column-wise, their per-row serialized sizes, and the
        buffer-pool outcome. Every scan shares the same columns (tensor
        blocks included — they are read-only)."""
        if self._columns is None:
            columns = columns_from_rows(self.rows, self.width)
            self._columns = columns, columns_row_bytes(columns, len(self.rows))
        return self._columns + (None,)

    def unlink(self, pool=None) -> None:
        """Nothing outlives the object."""
