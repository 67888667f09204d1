"""Saving and restoring a database to/from a single file.

A snapshot is a CRC-framed envelope around plain data: schemas as
``(name, type-string)`` pairs, partitioning metadata, table statistics,
the cluster config as its dataclass fields, and each view as the
normalised text of the statement that created it. Every collection of
SQL *values* in it — each table partition, a full view's stored rows,
the statistics' distinct-value sets — is a segment blob of the one
column codec (:mod:`repro.storage.segment`); this module owns no value
format. It is an *internal* format — the paper's system keeps its data
on HDFS; this is the laptop equivalent so a loaded workload can be
reused across sessions. On disk::

    RDBF3\\n | <u32 CRC32(payload) LE> | payload

where the payload is the one plain-data envelope
(:func:`~repro.storage.durable.encode_payload`: a JSON head and the
segment blobs it names), written atomically (same-directory temp file +
fsync + ``os.replace`` + directory fsync, via
:func:`repro.storage.durable.atomic_write`), so a crash mid-save never
leaves a torn file under the final name. Nothing in a snapshot is code:
a file without the magic, truncated, failing its checksum, or whose
payload does not decode or validate raises a structured
:class:`~repro.errors.SnapshotCorruptError` naming the file and the
byte offset where validation stopped, and a file of another format
(``RDBF2``; a payload version other than :data:`FORMAT_VERSION`) is
refused with a :class:`~repro.errors.ReproError` naming what it carries.
There is no reader for older formats and no migrator.

``restore_database`` also accepts a *directory*: the durability home of
a ``durability_mode="wal"`` database, recovered by replaying the
write-ahead log on top of the latest checkpoint (see
:mod:`repro.storage.wal` and docs/DURABILITY.md).
"""

from __future__ import annotations

import dataclasses
import os
import struct
import zlib
from typing import Optional

from .catalog import ColumnStats, TableStats
from .config import ClusterConfig
from .errors import ReproError, SnapshotCorruptError
from .faults import FaultPlan
from .sql import ast, parse_keyed
from .storage.durable import (
    atomic_write,
    check_magic,
    checked,
    decode_payload,
    durable_read,
    encode_payload,
    validating,
)
from .storage.segment import decode_segment, encode_columns, encode_rows

#: payload layout: per-table statistics and the catalog version (restore
#: skips the statistics rescan); rows *per partition*, so restoring onto
#: the same cluster shape reproduces the exact slot layout — and
#: therefore bit-identical per-slot summation order; materialized views
#: (the definition plus a full view's stored rows and staleness flag; an
#: incremental view's accumulator state is re-folded from the restored
#: partitions, which reproduces it bit-for-bit — the partitions land
#: verbatim); since 4, every value collection is a segment blob; since
#: 5, the payload is plain data and a view is its statement's text.
FORMAT_VERSION = 5
MAGIC = "repro-database"
FRAME_MAGIC = b"RDBF3\n"
_FRAME_CRC = struct.Struct("<I")

#: the most slots a config read from a file may have, 50 times the
#: paper's 80: a bound on the memory a file can ask for, not on what a
#: cluster built in code may have
MAX_SLOTS = 4096

#: what a field of a config dataclass may hold, by its annotation: a
#: float field also takes an int, as the constructor does
_KINDS = {"int": (int,), "float": (float, int), "str": (str,), "bool": (bool,)}


def freeze_config(config: ClusterConfig) -> dict:
    """A cluster config as plain data: its fields, the fault plan's
    nested as its own."""
    fields = dict(vars(config))
    if config.fault_plan is not None:
        fields["fault_plan"] = dict(vars(config.fault_plan))
    return fields


def thaw_config(fields: dict) -> ClusterConfig:
    """The inverse of :func:`freeze_config`. A file may not ask for more
    than :data:`MAX_SLOTS` slots: every table allocates per-slot state
    up front, so a few bytes would otherwise ask for unbounded memory."""
    plan = checked(fields, dict).get("fault_plan")
    if plan is not None:
        fields = dict(fields, fault_plan=_thaw_fields(FaultPlan, plan))
    config = _thaw_fields(ClusterConfig, fields)
    if config.slots > MAX_SLOTS:
        raise ValueError(f"a saved cluster of {config.slots} slots")
    return config


def _thaw_fields(cls, fields: dict):
    """A config dataclass from its written fields. A name the class does
    not have (a field since removed) is dropped and a missing one takes
    its default; a value of another kind than its field's is refused."""
    checked(fields, dict)
    kept = {}
    for field in dataclasses.fields(cls):
        if field.name not in fields:
            continue
        value = fields[field.name]
        kind = field.type.removeprefix("Optional[").removesuffix("]")
        unset = value is None and kind != field.type  # an Optional's None
        if kind in _KINDS and type(value) not in _KINDS[kind] and not unset:
            raise TypeError(f"config field {field.name} holds {value!r}")
        kept[field.name] = value
    return cls(**kept)


def _freeze_stats(stats: TableStats) -> dict:
    """Table statistics as plain data: every field of every column as it
    is, the accumulator sets as lists, except the distinct-value set,
    which is a one-column segment."""
    columns = []
    for name, col in stats.columns.items():
        frozen = dict(vars(col))
        if col.value_set is not None:
            frozen["value_set"] = encode_rows([(value,) for value in col.value_set])
        for field in ("length_set", "shape_set"):
            if frozen[field] is not None:
                frozen[field] = list(frozen[field])
        columns.append([name, frozen])
    return {
        "row_count": stats.row_count,
        "incremental": stats.incremental,
        "columns": columns,
    }


def thaw_columns(pairs: list) -> list:
    """A table's written ``(name, type-string)`` pairs, each checked."""
    columns = [tuple(checked(pair, list, str)) for pair in checked(pairs, list)]
    if any(len(pair) != 2 for pair in columns):
        raise ValueError("a column is not a (name, type) pair")
    return columns


def _thaw_stats(frozen: dict) -> TableStats:
    """The inverse of :func:`_freeze_stats`. The planner reads statistics
    as they are (an observed dimension sizes a type), so each is checked
    here: counts are ints of at least zero, dimensions of at least one."""
    stats = TableStats(
        row_count=_at_least(0, frozen["row_count"]),
        incremental=checked(frozen["incremental"], bool),
    )
    for name, col in checked(frozen["columns"], list):
        col = dict(checked(col, dict))
        for field, floor in _STAT_FLOORS.items():
            if col[field] is not None:
                _at_least(floor, col[field])
        if col["value_set"] is not None:
            col["value_set"] = {
                value for (value,) in decode_segment(checked(col["value_set"], bytes))
            }
        if col["length_set"] is not None:
            col["length_set"] = set(_dims(col["length_set"]))
        if col["shape_set"] is not None:
            col["shape_set"] = {
                _dims(shape, 2) for shape in checked(col["shape_set"], list)
            }
        if col["placed"] is not None:
            key, share = checked(col["placed"], list)
            col["placed"] = tuple(checked(key, list)), checked(share, float)
        stats.columns[checked(name, str)] = ColumnStats(**col)
    return stats


#: the least value of each scalar column statistic
_STAT_FLOORS = {
    "distinct": 0,
    "observed_length": 1,
    "observed_rows": 1,
    "observed_cols": 1,
}


def _at_least(floor: int, value):
    if checked(value, int) < floor:
        raise ValueError(f"a statistic of {value}, below {floor}")
    return value


def _dims(values: list, count: Optional[int] = None) -> tuple:
    """Written tensor dimensions: ints of at least one, ``count`` of
    them when given."""
    for value in checked(values, list):
        _at_least(1, value)
    if count is not None and len(values) != count:
        raise ValueError(f"{len(values)} dimensions, not {count}")
    return tuple(values)


def write_snapshot(path: str, payload: dict, injector=None) -> None:
    """Frame (CRC32) and atomically write one snapshot payload."""
    body = encode_payload(payload)
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
    payload = decode_payload(body, path, header)
    if payload.get("magic") != MAGIC:
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
    matviews = [
        {
            "text": view.text,
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
        "config": freeze_config(db.config),
        "catalog_version": db.catalog.version,
        "tables": tables,
        "views": [view.text for view in db.catalog._views.values()],
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
    with validating(path):
        effective = _effective_config(thaw_config(payload["config"]), config)
        if effective.durability_mode != "off":
            effective = effective.with_updates(durability_mode="off", data_dir=None)
        # the constructor is where a config's values are checked
        db = Database(effective)
    apply_snapshot(db, payload, path)
    return db


def apply_snapshot(db, payload: dict, path: str = "") -> None:
    """Materialize a snapshot payload read from ``path`` into an empty
    database: tables, rows, statistics, views, catalog version. Each
    part is read and checked (:func:`validating`) before the database
    builds anything from it, so an error raised while building surfaces
    as itself."""
    with validating(path):
        tables = checked(payload["tables"], list)
        views = [
            _definition(text, ast.CreateView)
            for text in checked(payload["views"], list)
        ]
        matviews = checked(payload["matviews"], list)
        version = checked(payload["catalog_version"], int)
    for table in tables:
        _restore_table(db, table, path)
    for view, text in views:
        db.catalog.create_view(view.name, view.query, view.column_names, text)
    for frozen in matviews:
        with validating(path):
            view, text = _definition(frozen["text"], ast.CreateMaterializedView)
            rows = frozen["rows"]  # None for an incremental view: it re-folds
            restored = (
                None if rows is None else decode_segment(checked(rows, bytes)),
                checked(frozen["stale"], bool),
            )
        db.views.create(view, text, restored=restored)
    # the saved version is authoritative for snapshot state: restoring
    # replays a subset of the operations that produced it, and pinning
    # it is what lets WAL replay reproduce the original catalog version
    # bit-for-bit. Never backwards, though: the relations just created
    # carry stamps of this counter, and a stamp must not repeat.
    db.catalog.version = max(db.catalog.version, version)


def _definition(text: str, kind: type):
    """A view's defining statement, parsed back from its saved text; the
    view's name, columns and mode follow from it."""
    statement, key = parse_keyed(checked(text, str))
    if type(statement) is not kind:
        raise TypeError(f"{text!r} does not define a {kind.__name__}")
    return statement, key


def _restore_table(db, table: dict, path: str) -> None:
    """Recreate one saved table: schema, rows, statistics."""
    with validating(path):
        name = checked(table["name"], str)
        columns = thaw_columns(table["columns"])
        partition_by = table["partition_by"]
        if partition_by is not None:
            checked(partition_by, list, str)
    db.create_table(name, columns, partition_by=partition_by)
    entry = db.catalog.table(name)
    _restore_rows(entry, table, path)
    # read after the rows are placed and their decoded form is freed, so
    # the long-lived statistics do not pin the memory it took
    with validating(path):
        entry.stats = _thaw_stats(table["stats"])


def _restore_rows(entry, table: dict, path: str) -> None:
    """Reload one table's rows, saved per partition: restoring onto a
    cluster with the same slot count places every partition back
    verbatim (identical slot layout, identical within-slot order —
    per-slot partial sums come out bit-identical). A different slot
    count re-deals them, as one append (the documented re-partitioning
    behaviour). Rows a column's type does not admit do not validate
    (``Schema.misfit``, the rule a load checks by).
    """
    storage = entry.storage
    with validating(path):
        partitions = [
            decode_segment(checked(blob, bytes))
            for blob in checked(table["partitions"], list)
        ]
        if any(len(rows[0]) != storage.width for rows in partitions if rows):
            raise ValueError(f"rows of table {table['name']!r} are not its columns")
        cursor = checked(table["insert_cursor"], int)
        verbatim = len(partitions) == storage.slots
        if not verbatim:
            partitions = [[row for part in partitions for row in part]]
        placed = [storage.columns_of(rows) for rows in partitions]
        for columns in placed:
            misfit = entry.schema.misfit(columns)
            if misfit is not None:
                raise ValueError(f"rows of table {table['name']!r}: {misfit}")
    if not verbatim:
        storage.append(placed[0])
        return
    for slot, columns in enumerate(placed):
        storage.place(slot, columns)
    storage.insert_cursor = cursor


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
