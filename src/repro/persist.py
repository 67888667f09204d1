"""Saving and restoring a database to/from a single file.

A snapshot is a CRC-framed envelope around plain data: schemas as
``(name, type-string)`` pairs, partitioning metadata, table statistics,
the cluster config and view definitions as their original ASTs. Every
collection of SQL *values* in it — each table partition, a full view's
stored rows, the statistics' distinct-value sets — is a segment blob of
the one column codec (:mod:`repro.storage.segment`); this module owns
no value format. It is an *internal* format — the paper's system keeps
its data on HDFS; this is the laptop equivalent so a loaded workload can
be reused across sessions. On disk::

    RDBF2\\n | <u32 CRC32(payload) LE> | pickled payload

written atomically (same-directory temp file + fsync + ``os.replace`` +
directory fsync, via :func:`repro.storage.durable.atomic_write`), so a
crash mid-save never leaves a torn file under the final name. The
envelope is still a pickle because the config and the view ASTs are
Python objects (see ROADMAP), so nothing is unpickled before the magic
and the checksum hold: a file without the magic, truncated, or failing
its checksum raises a structured
:class:`~repro.errors.SnapshotCorruptError` naming the file and the
byte offset where validation stopped, and a file of another format
(``RDBF1``; a payload version other than :data:`FORMAT_VERSION`) is
refused with a :class:`~repro.errors.ReproError` naming what it carries.
There is no reader for older formats and no migrator.

``restore_database`` also accepts a *directory*: the durability home of
a ``durability_mode="wal"`` database, recovered by replaying the
write-ahead log on top of the latest checkpoint (see
:mod:`repro.storage.wal` and docs/DURABILITY.md).
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Optional

from .catalog import ColumnStats, TableStats
from .config import ClusterConfig
from .errors import ReproError, SnapshotCorruptError
from .storage.durable import atomic_write, check_magic, durable_read
from .storage.segment import decode_segment, encode_columns, encode_rows

#: payload layout: per-table statistics and the catalog version (restore
#: skips the statistics rescan); rows *per partition*, so restoring onto
#: the same cluster shape reproduces the exact slot layout — and
#: therefore bit-identical per-slot summation order; materialized views
#: (the definition plus a full view's stored rows and staleness flag; an
#: incremental view's accumulator state is re-folded from the restored
#: partitions, which reproduces it bit-for-bit — the partitions land
#: verbatim); since 4, every value collection is a segment blob.
FORMAT_VERSION = 4
MAGIC = "repro-database"
FRAME_MAGIC = b"RDBF2\n"
_FRAME_CRC = struct.Struct("<I")


def _freeze_stats(stats: TableStats) -> dict:
    """Table statistics as plain data: every field of every column as it
    is, except the distinct-value set, which is a one-column segment."""
    columns = {
        name: dict(
            vars(col),
            value_set=None
            if col.value_set is None
            else encode_rows([(value,) for value in col.value_set]),
        )
        for name, col in stats.columns.items()
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
        values = col["value_set"]
        if values is not None:
            values = {value for (value,) in decode_segment(values)}
        stats.columns[name] = ColumnStats(**dict(col, value_set=values))
    return stats


def write_snapshot(path: str, payload: dict, injector=None) -> None:
    """Frame (CRC32) and atomically write one snapshot payload."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    blob = FRAME_MAGIC + _FRAME_CRC.pack(zlib.crc32(body)) + body
    atomic_write(path, blob, injector=injector)


def load_snapshot(path: str, injector=None) -> dict:
    """Read and validate one snapshot file; raises
    :class:`SnapshotCorruptError` on any validation failure and
    :class:`ReproError` on a well-formed file of the wrong kind or
    version."""
    blob = durable_read(path, injector=injector)
    check_magic(blob, FRAME_MAGIC, path, "database snapshot")
    header = len(FRAME_MAGIC) + _FRAME_CRC.size
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
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise SnapshotCorruptError(
            f"snapshot does not decode ({type(exc).__name__}: {exc})",
            path=path,
            offset=header,
        ) from exc
    if not isinstance(payload, dict) or payload.get("magic") != MAGIC:
        raise ReproError(f"{path!r} is not a repro database file")
    if payload.get("version") != FORMAT_VERSION:
        raise ReproError(
            f"{path!r} is a database file of version "
            f"{payload.get('version')!r}; this version reads only "
            f"{FORMAT_VERSION}"
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
                    # the columns the table holds, as they are: no row is
                    # rebuilt to be taken apart again
                    encode_columns(storage.partition_chunk(slot).columns()[0])[0]
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
            "rows": None if view.incremental else encode_rows(view.rows),
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
        entry.stats = _thaw_stats(table["stats"])
    for view in payload["views"]:
        db.catalog.create_view(view["name"], view["query"], view["column_names"])
    for frozen in payload["matviews"]:
        rows = frozen["rows"]  # None for an incremental view: it re-folds
        db.views.create(
            frozen["name"],
            frozen["query"],
            frozen["column_names"],
            restored=(
                None if rows is None else decode_segment(rows),
                frozen["stale"],
            ),
        )
    # the saved version is authoritative for snapshot state: restoring
    # replays a subset of the operations that produced it, and pinning
    # it is what lets WAL replay reproduce the original catalog version
    # bit-for-bit. Never backwards, though: the relations just created
    # carry stamps of this counter, and a stamp must not repeat.
    db.catalog.version = max(db.catalog.version, payload["catalog_version"])


def _restore_rows(storage, table: dict) -> None:
    """Reload one table's rows, saved per partition: restoring onto a
    cluster with the same slot count places every partition back
    verbatim (identical slot layout, identical within-slot order —
    per-slot partial sums come out bit-identical). A different slot
    count re-deals through ``insert_many`` (the documented
    re-partitioning behaviour).
    """
    partitions = [decode_segment(blob) for blob in table["partitions"]]
    if len(partitions) == storage.slots:
        for slot, rows in enumerate(partitions):
            storage.replace_partition(slot, rows)
        storage.insert_cursor = table["insert_cursor"]
        return
    storage.insert_many(row for part in partitions for row in part)


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
