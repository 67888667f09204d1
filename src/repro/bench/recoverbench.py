"""Recovery-time benchmark: crash a durable database, measure replay.

``repro-bench recover`` builds a ``durability_mode="wal"`` database,
commits a growing number of statements, then *abandons* it without a
clean shutdown (the WAL is the only persistent copy — exactly the state
a ``kill -9`` leaves) and measures how long ``Database.restore(data_dir)``
takes to bring every acknowledged statement back. One extra point takes
a checkpoint first, demonstrating that recovery cost tracks WAL length
(records to replay), not database size, and recording what the
checkpoint cost (bytes, seconds); a last one repeats it in
``storage_mode="disk"`` with a small ``segment_rows``, so the
bit-identity gate also covers partitions that live in sealed segment
files.

Every point is verified, not just timed: the recovered database must
match the abandoned one bit-for-bit — every partition's stored columns
(arrays and tensor blocks by their bytes), per-table statistics, and the
catalog version. ``ok()``
gates on those checks plus WAL-truncation behaviour; wall-clock numbers
are recorded for the JSON artifact but never gated (CI machines vary).
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..catalog.statistics import TypedDistinct
from ..config import ClusterConfig
from ..db import Database
from ..storage import DiskSegment
from ..types import Matrix, Vector


def _column_fingerprint(column) -> object:
    """One stored column by exact bits: a typed array or tensor block is
    its dtype, shape, bytes and null mask as they are; an object column
    is its values, tensors by their bytes."""
    if not column.is_object:
        return (
            column.data.dtype.str,
            column.data.shape,
            column.data.tobytes(),
            column.null_mask().tobytes(),
        )
    return [
        (type(value).__name__, value.label, value.data.tobytes())
        if isinstance(value, Vector)
        else (type(value).__name__, value.shape, value.data.tobytes())
        if isinstance(value, Matrix)
        else value
        for value in column.pylist()
    ]


def state_fingerprint(db: Database) -> Dict[str, object]:
    """A comparable digest of everything durability promises to keep:
    per-partition columns as the table holds them (their form follows
    from the values, so equal rows have equal columns), per-table row
    counts, distinct counts and values, view names and the catalog version."""
    tables = {}
    for entry in db.catalog.tables():
        storage = entry.storage
        tables[entry.name] = {
            "partitions": [
                [
                    _column_fingerprint(column)
                    for column in storage.partition_chunk(slot).columns()[0]
                ]
                for slot in range(storage.slots)
            ],
            "row_count": entry.stats.row_count,
            "distincts": {
                name: (col.distinct, sorted(map(repr, col.values or ())))
                for name, col in sorted(entry.stats.columns.items())
            },
        }
    return {
        "tables": tables,
        "views": sorted(db.catalog._views),
        "catalog_version": db.catalog.version,
    }


def _workload(db: Database, statements: int, seed: int) -> None:
    """Commit ``statements`` acknowledged operations: inserts with
    vector payloads plus periodic deletes (replay must reproduce both)."""
    rng = np.random.default_rng(seed)
    for i in range(statements):
        if i % 7 == 6:
            db.execute("DELETE FROM points WHERE k = :k", {"k": i - 3})
        else:
            db.execute(
                "INSERT INTO points VALUES (:k, :v)",
                {"k": i, "v": Vector(rng.standard_normal(8))},
            )


@dataclass
class RecoveryPoint:
    """One measured recovery."""

    statements: int
    checkpointed: bool
    storage_mode: str
    #: sealed segment files the abandoned database's rows lived in
    segment_files: int
    wal_bytes: int
    records_replayed: int
    recovery_seconds: float
    #: size and wall time of the mid-run checkpoint (None without one)
    checkpoint_bytes: Optional[int]
    checkpoint_seconds: Optional[float]
    stats_bytes_per_value: float  # held by the recovered typed columns' statistics
    matches: bool


@dataclass
class RecoveryReport:
    points: List[RecoveryPoint] = field(default_factory=list)

    def ok(self) -> bool:
        if not self.points:
            return False
        if not all(point.matches for point in self.points):
            return False
        if any(
            point.storage_mode == "disk" and not point.segment_files
            for point in self.points
        ):
            return False  # the disk point must exercise segment files
        # a checkpoint must actually shed replay work: its point replays
        # (strictly) fewer records than the same-size uncheckpointed run
        plain = {p.statements: p for p in self.points if not p.checkpointed}
        for point in self.points:
            if point.checkpointed and point.statements in plain:
                if point.records_replayed >= plain[point.statements].records_replayed:
                    return False
        return True

    def to_json(self) -> Dict[str, object]:
        return {"points": [asdict(point) for point in self.points]}


def run_recovery_bench(
    sizes=(8, 32, 128), seed: int = 0, smoke: bool = False
) -> RecoveryReport:
    if smoke:
        sizes = tuple(size for size in sizes if size <= 32) or (8,)
    report = RecoveryReport()
    for statements in sizes:
        for checkpointed in (False, True) if statements == sizes[-1] else (False,):
            report.points.append(
                _measure(statements, checkpointed=checkpointed, seed=seed)
            )
    # few slots and tiny segments, so most rows sit in sealed files
    report.points.append(
        _measure(
            sizes[-1],
            checkpointed=True,
            seed=seed,
            storage_mode="disk",
            machines=2,
            cores_per_machine=2,
            segment_rows=4,
        )
    )
    return report


def _measure(
    statements: int, checkpointed: bool, seed: int, **shape
) -> RecoveryPoint:
    data_dir = tempfile.mkdtemp(prefix="repro-recover-")
    try:
        config = ClusterConfig(durability_mode="wal", data_dir=data_dir, **shape)
        db = Database(config)
        db.execute("CREATE TABLE points (k INTEGER, v VECTOR[])")
        checkpoint_bytes = checkpoint_seconds = None
        if checkpointed:
            # checkpoint halfway: recovery replays only the second half
            _workload(db, statements // 2, seed)
            start = time.perf_counter()
            checkpoint_bytes = os.path.getsize(db.checkpoint())
            checkpoint_seconds = time.perf_counter() - start
            _workload(db, statements - statements // 2, seed + 1)
        else:
            _workload(db, statements, seed)
        expected = state_fingerprint(db)
        storage = db.catalog.table("points").storage
        wal_bytes = db.durability.wal_bytes()
        # abandon without close(): the dirty state a SIGKILL leaves
        start = time.perf_counter()
        recovered = Database.restore(data_dir)
        elapsed = time.perf_counter() - start
        typed = [c.values for e in recovered.catalog.tables()
                 for c in e.stats.columns.values() if isinstance(c.values, TypedDistinct)]
        held = sum(sys.getsizeof(v.tail) + sum(map(sys.getsizeof, v.tail))
                   + sum(run.nbytes for run in v.runs) for v in typed)
        point = RecoveryPoint(
            statements=statements,
            checkpointed=checkpointed,
            storage_mode=config.storage_mode,
            segment_files=sum(
                isinstance(segment, DiskSegment)
                for slot in range(storage.slots)
                for segment in storage.segments(slot)
            ),
            wal_bytes=wal_bytes,
            records_replayed=recovered.durability.records_replayed,
            recovery_seconds=elapsed,
            checkpoint_bytes=checkpoint_bytes,
            checkpoint_seconds=checkpoint_seconds,
            stats_bytes_per_value=held / max(sum(map(len, typed)), 1),
            matches=state_fingerprint(recovered) == expected,
        )
        recovered.close()
        db.close()
        return point
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def format_recovery(report: RecoveryReport) -> str:
    lines = [
        "recovery time vs WAL length (replay of acknowledged statements)",
        f"{'stmts':>6}  {'storage':>7}  {'ckpt bytes':>10}  {'ckpt s':>8}  "
        f"{'wal bytes':>10}  {'replayed':>8}  {'recovery s':>10}  "
        f"{'stats B/val':>11}  match",
    ]
    for point in report.points:
        if point.checkpointed:
            checkpoint = (
                f"{point.checkpoint_bytes:>10}  {point.checkpoint_seconds:>8.4f}"
            )
        else:
            checkpoint = f"{'-':>10}  {'-':>8}"
        lines.append(
            f"{point.statements:>6}  {point.storage_mode:>7}  {checkpoint}  "
            f"{point.wal_bytes:>10}  {point.records_replayed:>8}  "
            f"{point.recovery_seconds:>10.4f}  {point.stats_bytes_per_value:>11.1f}  "
            f"{'yes' if point.matches else 'NO'}"
        )
    return "\n".join(lines)
