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

    RSEG3\\n\\0\\0 | column payloads, 8-byte aligned | footer (JSON)
             | footer length (u64 LE) | CRC32 of all preceding bytes (u32 LE)

A typed-scalar or tensor-block column is its array buffer followed by
its null mask, read back with ``np.frombuffer`` as a read-only view of
the file bytes; an object column (NULL-bearing or mixed scalars,
strings, labelled or ragged tensors, arbitrary-precision ints, and the
partial-aggregate states a spill writes) is its cells as a JSON list, a
value JSON has no exact form for tagged as a one-key object naming its
kind. Decoding is *exact*:
every value round trips to the same bits and the same Python type
(a float by its IEEE bits, an int of any size, a str with lone
surrogates), which is what lets disk mode, spills and recovery preserve
the bit-identical-results contract. The footer is plain data — the row
count and, per column, dtype, shape, whether a null mask follows, and
the payload length — and the decoder checks each entry against what
the encoder writes before it allocates anything. A sealed segment's
zone maps live on its in-memory home, not in the file.
"""

from __future__ import annotations

import base64
import json
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..columnar import ColumnData, columns_from_rows, rows_from_columns
from ..errors import SnapshotCorruptError
from ..la.aggregates import NanCells
from ..types import LabeledScalar, Matrix, Vector
from .durable import atomic_write, check_magic

SEGMENT_MAGIC = b"RSEG3\n"
#: the magic is padded to this, so column payloads start 8-byte aligned
_HEADER_BYTES = 8
#: the file ends with the footer's length (u64), then the CRC32 (u32) of
#: every byte before the checksum itself
_TRAILER = struct.Struct("<QI")
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

#: the dtypes a column may have, each with its bytes per element and
#: most dimensions: typed scalars, tensor blocks (float only), and
#: ``"|O"``, an object column, whose payload is its cells as JSON
_FORMS = {"<f8": (8, 3), "<i8": (8, 1), "|b1": (1, 1), "|O": (0, 1)}
_INT64 = range(-(2**63), 2**63)


def _cell(value):
    """One object-column cell as JSON-ready plain data: NULL, a bool, an
    int64, a str (lone surrogates escaped) and a non-NaN float (by its
    shortest exact repr) as JSON's own values; any other value — a
    wider int, a NaN with its payload bits, a labelled scalar, a tensor,
    and the partial-aggregate states (tuple, set, dict, NaN key) a spill
    writes — as an object of one key naming its kind."""
    kind = type(value)
    if value is None or kind is bool or kind is str:
        return value
    if kind is int:
        return value if value in _INT64 else {"I": hex(value)}
    if kind is float:
        return value if value == value else {"D": struct.pack("<d", value).hex()}
    if kind is Vector:
        return {"V": [_cell(value.label), _b64(value.data)]}
    if kind is Matrix:
        return {"M": [value.rows, value.cols, _b64(value.data)]}
    if kind is LabeledScalar:
        return {"L": [_cell(value.value), _cell(value.label)]}
    if kind is NanCells:
        return {"K": _cell(value.value)}
    if kind is tuple or kind is set:
        return {"U" if kind is tuple else "E": [_cell(item) for item in value]}
    if kind is dict:
        return {"H": [[_cell(key), _cell(item)] for key, item in value.items()]}
    raise TypeError(f"no segment encoding for a {kind.__name__} value")


def _b64(data: np.ndarray) -> str:
    return base64.b64encode(data.tobytes()).decode()


def _doubles(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text, validate=True), "<f8").copy()


def _uncell(node: dict):
    """The inverse of :func:`_cell` for a one-key object (JSON's own
    values need none); anything the encoder does not write raises."""
    ((kind, body),) = node.items()
    if kind == "I":
        return int(body, 16)
    if kind == "D":
        return struct.unpack("<d", bytes.fromhex(body))[0]
    if kind in ("U", "E", "H") and type(body) is list:
        if kind == "H":
            return {key: item for key, item in body}
        return (tuple if kind == "U" else set)(body)
    if kind == "K" and type(body) in (Vector, Matrix):
        return NanCells(body)
    if kind == "V" and type(body[0]) is int:
        label, data = body
        return Vector(_doubles(data), label)
    if kind == "M":
        rows, cols, data = body
        return Matrix(_doubles(data).reshape(rows, cols))
    if kind == "L" and type(body[0]) in (int, float) and type(body[1]) is int:
        return LabeledScalar(*body)
    raise ValueError(f"{node!r} is not a cell this codec writes")


#: the writer of footers and cells, and the parsers of a footer and of
#: an object column's cells
_COMPACT = json.JSONEncoder(separators=(",", ":"))
_FOOTER = json.JSONDecoder()
_CELLS = json.JSONDecoder(object_hook=_uncell)


def encode_columns(columns: Sequence[ColumnData]) -> Tuple[bytes, dict]:
    """The one encoder: rows held column-wise become ``(blob, footer)``.
    A typed or block column is written as the array it already is (then
    its null mask, when it has one); an object column as a JSON list
    of its cells. The footer is plain data: the row count
    and, per column, ``[dtype, shape, masked, payload length]``."""
    parts = [SEGMENT_MAGIC.ljust(_HEADER_BYTES, b"\0")]
    metas: List[list] = []
    for column in columns:
        masked = False
        if column.is_object:
            payload = _COMPACT.encode(list(map(_cell, column.pylist()))).encode()
        else:
            payload = column.data.tobytes()
            masked = column.nulls is not None
            if masked:
                payload += column.nulls.tobytes()
        metas.append(
            [column.data.dtype.str, list(column.data.shape), masked, len(payload)]
        )
        # every payload starts 8-byte aligned, so the arrays read back
        # over the file bytes are aligned too
        parts += (payload, b"\0" * (-len(payload) % 8))
    rows = len(columns[0]) if columns else 0
    footer_bytes = _COMPACT.encode([rows, metas]).encode()
    parts += (footer_bytes, struct.pack("<Q", len(footer_bytes)))
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body)), {"rows": rows, "columns": metas}


def decode_columns(blob: bytes, path: str = "") -> List[ColumnData]:
    """The one decoder, exact inverse of :func:`encode_columns`. Typed
    and block columns come back as read-only ``np.frombuffer`` views of
    ``blob`` — no copy, and the arrays keep ``blob`` alive. The footer
    is read only after the magic and the checksum hold, and every
    payload it names is bounds-checked before anything is allocated
    from it; ``path`` only names the file in errors."""
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
    footer_start = footer_end - footer_length
    columns: List[ColumnData] = []
    offset = _HEADER_BYTES
    try:
        if footer_start < _HEADER_BYTES:
            raise ValueError("the footer overruns the header")
        text = blob[footer_start:footer_end].decode()
        (rows, metas), end = _FOOTER.raw_decode(text)
        if end != len(text) or type(rows) is not int or rows < 0:
            raise ValueError("the footer is not [rows, columns]")
        # every entry is checked against what the encoder writes before
        # anything is allocated from it
        for dtype, shape, masked, length in metas:
            itemsize, most = _FORMS[dtype]
            if shape[0] != rows or len(shape) > most or min(shape) < 0 or (
                type(masked) is not bool or masked and not itemsize
            ):
                raise ValueError(f"footer entry {dtype, shape, masked} is not one written")
            count = math.prod(shape)
            if not 0 <= length <= footer_start - offset or itemsize and (
                length != count * itemsize + (rows if masked else 0)
            ):
                raise ValueError(f"footer entry {dtype, shape} claims {length} bytes")
            if dtype == "|O":
                values = _CELLS.decode(blob[offset : offset + length].decode())
                if type(values) is not list or len(values) != rows:
                    raise ValueError(f"an object column holds {rows} cells")
                columns.append(ColumnData.from_values(values))
            else:
                data = np.frombuffer(
                    blob, dtype=dtype, count=count, offset=offset
                ).reshape(shape)
                nulls = None
                if masked:
                    nulls = np.frombuffer(
                        blob, dtype=np.bool_, count=rows, offset=offset + data.nbytes
                    )
                columns.append(ColumnData(data, nulls))
            offset += length + -length % 8
    except (ValueError, TypeError, LookupError, RecursionError, struct.error) as exc:
        raise SnapshotCorruptError(
            f"segment does not decode ({type(exc).__name__}: {exc})",
            path=path,
            offset=offset,
        ) from exc
    return columns


def encode_segment(rows: Sequence[tuple], width: int) -> Tuple[bytes, dict]:
    """A row chunk of ``width`` columns as a segment: ``(blob, footer)``."""
    return encode_columns(columns_from_rows(rows, width))


def encode_rows(rows: Sequence[tuple]) -> bytes:
    """Rows as a segment blob: what spill files, WAL records and
    snapshots store (each inside its own envelope)."""
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
