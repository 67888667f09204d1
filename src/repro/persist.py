"""Saving and restoring a database to/from a single file.

The payload is a versioned pickle of plain data: schemas as
``(name, type-string)`` pairs, table rows (vectors/matrices as numpy
arrays), partitioning metadata, statistics-relevant row data, and view
definitions as their original ASTs. It is an *internal* format — the
paper's system keeps its data on HDFS; this is the laptop equivalent so
a loaded workload can be reused across sessions.

On disk, newly written snapshots are *framed*::

    RDBF1\\n | <u32 CRC32(payload) LE> | pickled payload

and are written atomically (same-directory temp file + fsync +
``os.replace`` + directory fsync, via
:func:`repro.storage.durable.atomic_write`), so a crash mid-save never
leaves a torn file under the final name, and bit-rot is detected by the
checksum instead of surfacing as an arbitrary unpickling failure.
Legacy files (a bare pickle, as written before the framing existed)
remain readable. Any validation failure raises a structured
:class:`~repro.errors.SnapshotCorruptError` naming the file and the
byte offset where validation stopped.

``restore_database`` also accepts a *directory*: the durability home of
a ``durability_mode="wal"`` database, recovered by replaying the
write-ahead log on top of the latest checkpoint (see
:mod:`repro.storage.wal` and docs/DURABILITY.md).
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib
from typing import Optional

from .catalog import TableStats
from .config import ClusterConfig
from .errors import ReproError, SnapshotCorruptError
from .types import LabeledScalar, Matrix, Vector

#: v1 stored schemas + a flat row list only; v2 adds per-table
#: statistics and the catalog version (restore skips the full
#: statistics rescan) and keeps rows *per partition*, so restoring onto
#: the same cluster shape reproduces the exact slot layout — and
#: therefore bit-identical per-slot summation order. v3 adds
#: materialized views: the definition plus a full view's stored result
#: rows and staleness flag (an incremental view's accumulator state is
#: re-folded from the restored partitions, which reproduces it
#: bit-for-bit — the partitions land verbatim). v1/v2 files remain
#: readable.
FORMAT_VERSION = 3
MAGIC = "repro-database"
#: header of framed (checksummed) snapshot files; files without it are
#: read as legacy bare pickles
FRAME_MAGIC = b"RDBF1\n"
_FRAME_CRC = struct.Struct("<I")


def _freeze_value(value):
    """Convert engine values to plain picklable data."""
    if isinstance(value, Vector):
        return ("vec", value.data, value.label)
    if isinstance(value, Matrix):
        return ("mat", value.data)
    if isinstance(value, LabeledScalar):
        return ("ls", value.value, value.label)
    return ("raw", value)


def _thaw_value(frozen):
    kind = frozen[0]
    if kind == "vec":
        return Vector(frozen[1], label=frozen[2])
    if kind == "mat":
        return Matrix(frozen[1])
    if kind == "ls":
        return LabeledScalar(frozen[1], frozen[2])
    return frozen[1]


def _freeze_stats(stats: TableStats) -> dict:
    """Table statistics as plain picklable data (format v2)."""
    columns = {}
    for name, col in stats.columns.items():
        columns[name] = {
            "distinct": col.distinct,
            "observed_length": col.observed_length,
            "observed_rows": col.observed_rows,
            "observed_cols": col.observed_cols,
            "value_set": (
                None
                if col.value_set is None
                else [_freeze_value(value) for value in col.value_set]
            ),
            "length_set": (
                None if col.length_set is None else sorted(col.length_set)
            ),
            "shape_set": (
                None if col.shape_set is None else sorted(col.shape_set)
            ),
        }
    return {
        "row_count": stats.row_count,
        "incremental": stats.incremental,
        "columns": columns,
    }


def _thaw_stats(frozen: dict) -> TableStats:
    stats = TableStats(
        row_count=frozen["row_count"], incremental=frozen["incremental"]
    )
    for name, col in frozen["columns"].items():
        col_stats = stats.column(name)
        col_stats.distinct = col["distinct"]
        col_stats.observed_length = col["observed_length"]
        col_stats.observed_rows = col["observed_rows"]
        col_stats.observed_cols = col["observed_cols"]
        col_stats.value_set = (
            None
            if col["value_set"] is None
            else {_thaw_value(value) for value in col["value_set"]}
        )
        col_stats.length_set = (
            None if col["length_set"] is None else set(col["length_set"])
        )
        col_stats.shape_set = (
            None
            if col["shape_set"] is None
            else {tuple(shape) for shape in col["shape_set"]}
        )
    return stats


def write_snapshot(path: str, payload: dict, injector=None) -> None:
    """Frame (CRC32) and atomically write one snapshot payload."""
    from .storage.durable import atomic_write

    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    blob = FRAME_MAGIC + _FRAME_CRC.pack(zlib.crc32(body)) + body
    atomic_write(path, blob, injector=injector)


def load_snapshot(path: str, injector=None) -> dict:
    """Read and validate one snapshot file (framed or legacy); raises
    :class:`SnapshotCorruptError` on any validation failure and
    :class:`ReproError` on a well-formed file of the wrong kind."""
    from .storage.durable import durable_read

    blob = durable_read(path, injector=injector)
    header = len(FRAME_MAGIC) + _FRAME_CRC.size
    if blob.startswith(FRAME_MAGIC):
        if len(blob) < header:
            raise SnapshotCorruptError(
                "snapshot truncated inside the frame header",
                path=path,
                offset=len(blob),
            )
        (crc,) = _FRAME_CRC.unpack_from(blob, len(FRAME_MAGIC))
        body = blob[header:]
        if zlib.crc32(body) != crc:
            raise SnapshotCorruptError(
                "snapshot checksum mismatch (bit rot or torn write)",
                path=path,
                offset=header,
            )
        offset_base = header
    else:
        body = blob
        offset_base = 0
    stream = io.BytesIO(body)
    try:
        payload = pickle.load(stream)
    except Exception as exc:
        raise SnapshotCorruptError(
            f"snapshot does not decode ({type(exc).__name__}: {exc})",
            path=path,
            offset=offset_base + stream.tell(),
        ) from exc
    if not isinstance(payload, dict) or payload.get("magic") != MAGIC:
        raise ReproError(f"{path!r} is not a repro database file")
    if payload.get("version") not in (1, 2, FORMAT_VERSION):
        raise ReproError(
            f"unsupported database file version {payload.get('version')!r}"
        )
    return payload


def save_database(db, path: str, injector=None) -> None:
    """Serialize a :class:`repro.Database` (schemas, data, statistics,
    views) to ``path`` — atomically: a crash mid-save leaves the
    previous file (or no file), never a torn one."""
    tables = []
    for entry in db.catalog.tables():
        storage = entry.storage
        tables.append(
            {
                "name": entry.name,
                "columns": [
                    (column.name, repr(column.data_type))
                    for column in entry.schema
                ],
                "partition_by": storage.partition_by,
                "partitions": [
                    [
                        tuple(_freeze_value(value) for value in row)
                        for row in storage.partition_rows(slot)
                    ]
                    for slot in range(storage.slots)
                ],
                "insert_cursor": storage.insert_cursor,
                "stats": _freeze_stats(entry.stats),
            }
        )
    views = [
        {
            "name": view.name,
            "query": view.query,  # plain-dataclass AST, picklable
            "column_names": view.column_names,
        }
        for view in db.catalog._views.values()
    ]
    matviews = [
        {
            "name": view.name,
            "query": view.query,
            "column_names": view.column_names,
            "mode": view.mode,
            # a full view's stored result rows travel verbatim (a stale
            # deferred view must come back with its *old* rows, not a
            # recompute); incremental state is re-folded from the
            # restored partitions instead, which is bit-identical
            "rows": (
                None
                if view.incremental
                else [
                    tuple(_freeze_value(value) for value in row)
                    for row in view.rows
                ]
            ),
            "stale": view.stale,
        }
        for view in db.catalog.materialized_views()
    ]
    payload = {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "config": db.config,
        "catalog_version": db.catalog.version,
        "tables": tables,
        "views": views,
        "matviews": matviews,
    }
    write_snapshot(path, payload, injector=injector)


def restore_database(path: str, config: Optional[ClusterConfig] = None):
    """Recreate a :class:`repro.Database` saved with
    :func:`save_database`; ``config`` overrides the saved cluster shape
    (data is re-partitioned for the new slot count).

    When ``path`` is a *directory*, it is treated as the durability home
    of a ``durability_mode="wal"`` database and recovered by replaying
    the write-ahead log on top of the latest checkpoint; the recovered
    database keeps logging to that directory. Restoring a bare snapshot
    *file* always yields a non-durable database (its WAL, if any, lives
    with the directory, not the file)."""
    from .db import Database

    if os.path.isdir(path):
        from .storage.wal import recover_database

        return recover_database(path, config)
    payload = load_snapshot(path)
    effective = _effective_config(payload["config"], config)
    if effective.durability_mode != "off":
        effective = effective.with_updates(durability_mode="off", data_dir=None)
    db = Database(effective)
    apply_snapshot(db, payload)
    return db


def apply_snapshot(db, payload: dict) -> None:
    """Materialize a snapshot payload into an empty database: tables,
    rows, statistics, views, catalog version."""
    for table in payload["tables"]:
        db.create_table(
            table["name"], table["columns"], partition_by=table["partition_by"]
        )
        entry = db.catalog.table(table["name"])
        _restore_rows(entry.storage, table)
        frozen_stats = table.get("stats")
        if frozen_stats is not None:
            entry.stats = _thaw_stats(frozen_stats)
        else:  # v1 files carry no statistics: rescan, as before
            db._refresh_stats(entry)
    for view in payload["views"]:
        db.catalog.create_view(view["name"], view["query"], view["column_names"])
    for frozen in payload.get("matviews", ()):
        rows = frozen.get("rows")
        db.views.restore(
            frozen["name"],
            frozen["query"],
            frozen["column_names"],
            rows=(
                None
                if rows is None
                else [
                    tuple(_thaw_value(value) for value in row) for row in rows
                ]
            ),
            stale=frozen.get("stale", False),
        )
    saved_catalog_version = payload.get("catalog_version")
    if saved_catalog_version is not None:
        # the saved version is authoritative for snapshot state: the
        # database is freshly built (no plan caches to invalidate), and
        # pinning it exactly is what lets WAL replay reproduce the
        # original catalog version bit-for-bit
        db.catalog.version = saved_catalog_version


def _restore_rows(storage, table: dict) -> None:
    """Reload one table's rows.

    v2 payloads carry rows per partition: restoring onto a cluster with
    the same slot count places every partition back verbatim (identical
    slot layout, identical within-slot order — per-slot partial sums
    come out bit-identical). A different slot count, or a v1 payload's
    flat row list, falls back to re-dealing through ``insert_many``
    (the documented re-partitioning behaviour).
    """
    partitions = table.get("partitions")
    if partitions is not None and len(partitions) == storage.slots:
        for slot, frozen_rows in enumerate(partitions):
            storage.replace_partition(
                slot,
                [tuple(_thaw_value(value) for value in row) for row in frozen_rows],
            )
        storage.insert_cursor = table.get("insert_cursor", 0)
        return
    if partitions is not None:
        frozen_rows = [row for part in partitions for row in part]
    else:  # v1: flat row list
        frozen_rows = table["rows"]
    storage.insert_many(
        tuple(_thaw_value(value) for value in row) for row in frozen_rows
    )


def _effective_config(
    saved: ClusterConfig, override: Optional[ClusterConfig]
) -> ClusterConfig:
    """Merge an override config with the saved one.

    The override wins for everything it explicitly sets, but fields the
    caller left at their defaults must not silently discard what the
    saved database carried: the fault plan and the execution mode.
    """
    if override is None:
        return saved
    updates = {}
    if override.fault_plan is None and saved.fault_plan is not None:
        updates["fault_plan"] = saved.fault_plan
    default_mode = ClusterConfig.__dataclass_fields__["execution_mode"].default
    if (
        override.execution_mode == default_mode
        and saved.execution_mode != default_mode
    ):
        updates["execution_mode"] = saved.execution_mode
    if updates:
        return override.with_updates(**updates)
    return override
