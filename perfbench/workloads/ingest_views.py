"""``ingest_views``: appends beside reads under incremental views, durable.

``Database.open`` with ``durability_mode="wal"`` (an fsync per committed
statement — the repo default) on disk storage with eager view refresh.
``points(i, x, v VECTOR[])`` (d=8) carries two incremental views (Gram;
normal equations); an identical ``plain`` table carries none. Each step
appends the same 64 rows to both tables and reads both views and the
most recent 2000 rows. Writes and reads share the ``views`` fold,
``catalog.statistics``, ``storage.wal`` and ``persist`` checkpoints, so a
view that speeds reads at the cost of appends, or a checkpoint stall,
shows. After the window the database is abandoned without ``close``,
reopened through recovery, and checked against numpy over every
acknowledged append.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

from common import Op, close
from repro import ClusterConfig, Database, Vector

DIM = 8
BATCH_ROWS = 64
RECENT_ROWS = 2000
#: steps per second of ``--seconds``: the step count is fixed by the
#: argument, not by the clock, because the tables grow with every step
#: and latency depends on their size
STEPS_PER_SECOND = 14
WARMUP_STEPS = 3

VIEWS = (
    "CREATE MATERIALIZED VIEW gram AS "
    "SELECT SUM(outer_product(v, v)) AS g, COUNT(v) AS n FROM points",
    "CREATE MATERIALIZED VIEW normal AS "
    "SELECT SUM(outer_product(v, v)) AS xtx, SUM(v * x) AS xty FROM points",
)
READ_GRAM = "SELECT SUM(outer_product(v, v)), COUNT(v) FROM points"
READ_NORMAL = "SELECT SUM(outer_product(v, v)), SUM(v * x) FROM points"
RECENT_SCAN = "SELECT COUNT(i), SUM(x) FROM points WHERE i >= :lo"


class IngestViews:
    name = "ingest_views"
    kinds: Dict[str, str] = {
        "append_viewed": "write",
        "append_plain": "write",
        "view_read_gram": "read",
        "view_read_normal": "read",
        "recent_scan": "read",
        "checkpoint": "aux",
    }
    probe_table = "points"
    #: (append under views, the same append under none)
    tax_classes = ("append_viewed", "append_plain")

    def __init__(self, seed: int):
        self.seed = seed
        self.fixed_passes = None  # set by plan()
        self._checkpoint_steps: set = set()
        # the numpy mirror of every acknowledged append
        self._rows = 0
        self._x = np.empty(0)  # sized by plan()
        self._gram = np.zeros((DIM, DIM))
        self._xty = np.zeros(DIM)
        self._config = None

    def plan(self, seconds: float) -> None:
        """Fix the step count from ``--seconds``; checkpoints fall at a
        quarter, a half and three quarters of it."""
        steps = max(24, int(round(seconds * STEPS_PER_SECOND)))
        self.fixed_passes = steps
        self._x = np.empty((WARMUP_STEPS + steps) * BATCH_ROWS)
        self._checkpoint_steps = {
            WARMUP_STEPS + steps // 4,
            WARMUP_STEPS + steps // 2,
            WARMUP_STEPS + 3 * steps // 4,
        }

    def config(self, data_dir: str) -> ClusterConfig:
        self._config = ClusterConfig(
            machines=2,
            cores_per_machine=2,
            job_startup_s=1.0,
            storage_mode="disk",
            durability_mode="wal",
            data_dir=data_dir,
            view_refresh_mode="eager",
        )
        return self._config

    def describe(self) -> Dict[str, object]:
        return {
            "storage_mode": "disk",
            "execution_mode": "batch",
            "flush_policy": "wal: fsync per committed statement",
            "view_refresh_mode": "eager",
            "segment_rows": self._config.segment_rows,
            "buffer_pool_bytes": self._config.effective_buffer_pool_bytes,
            "batch_rows": BATCH_ROWS,
            "steps": self.fixed_passes,
            "checkpoint_steps": sorted(self._checkpoint_steps),
        }

    def setup(self, db) -> None:
        for table in ("points", "plain"):
            db.execute(f"CREATE TABLE {table} (i INTEGER, x DOUBLE, v VECTOR[])")
        for view in VIEWS:
            db.execute(view)

    def fold_probe(self):
        """What the standalone view-fold probe needs: the table and view
        DDL and one batch of rows."""
        _, _, rows = self._batch(0)
        return (
            "CREATE TABLE points (i INTEGER, x DOUBLE, v VECTOR[])",
            VIEWS[0],
            "gram",
            "points",
            rows,
        )

    # -- the step ---------------------------------------------------------------

    def _batch(self, step: int):
        rng = np.random.default_rng([self.seed, 30, step])
        block = rng.normal(size=(BATCH_ROWS, DIM))
        first = step * BATCH_ROWS
        ids = np.arange(first, first + BATCH_ROWS)
        x = ids / 7.0
        rows = [
            (int(ids[r]), float(x[r]), Vector(block[r])) for r in range(BATCH_ROWS)
        ]
        return block, x, rows

    def _fold(self, block: np.ndarray, x: np.ndarray) -> int:
        """The floor of a viewed append: keep the rows and fold them into
        the running Gram and X^T y."""
        self._x[self._rows : self._rows + len(x)] = x
        self._rows += len(x)
        self._gram += block.T @ block
        self._xty += block.T @ x
        return len(block)

    def _recent(self, lo: int):
        tail = self._x[lo : self._rows]
        return len(tail), tail.sum()

    def op_groups(self, step: int) -> List[List[Op]]:
        block, x, rows = self._batch(step)
        lo = max(0, (step + 1) * BATCH_ROWS - RECENT_ROWS)
        count = lambda result, expected: result == expected
        ops = [
            Op("append_viewed", "write", action="load", table="points", rows=rows,
               oracle=lambda: self._fold(block, x), check=count),
            Op("append_plain", "write", action="load", table="plain", rows=rows,
               oracle=lambda: len(block.copy()), check=count),
            Op("view_read_gram", "read", sql=READ_GRAM,
               oracle=lambda: (self._gram.copy(), self._rows),
               check=lambda result, expected: result.metrics.view_hits == 1
               and close(result.rows[0][0], expected[0])
               and result.rows[0][1] == expected[1]),
            Op("view_read_normal", "read", sql=READ_NORMAL,
               oracle=lambda: (self._gram.copy(), self._xty.copy()),
               check=lambda result, expected: result.metrics.view_hits == 1
               and close(result.rows[0][0], expected[0])
               and close(result.rows[0][1], expected[1])),
            Op("recent_scan", "read", sql=RECENT_SCAN, params={"lo": lo},
               oracle=lambda: self._recent(lo),
               check=lambda result, expected: result.rows[0][0] == expected[0]
               and close(result.rows[0][1], expected[1])),
        ]
        if step in self._checkpoint_steps:
            ops.append(Op("checkpoint", "aux", action="checkpoint"))
        # one group: a step's reads must follow its own appends
        return [ops]

    # -- abandon and recover ------------------------------------------------------

    def finish(self, db) -> Dict[str, object]:
        """Abandon ``db`` without ``close`` (its WAL is the only copy of
        the statements since the last checkpoint), recover, and check
        row counts and the Gram view against the numpy mirror."""
        data_dir = self._config.data_dir
        wal_bytes = os.path.getsize(os.path.join(data_dir, "wal.log"))
        checkpoint = os.path.join(data_dir, "checkpoint.db")
        checkpoint_bytes = (
            os.path.getsize(checkpoint) if os.path.exists(checkpoint) else 0
        )
        start = time.perf_counter()
        recovered = Database.open(self._config)
        recover_ms = (time.perf_counter() - start) * 1e3
        expected_rows = self._rows
        lost = 0
        for table in ("points", "plain"):
            got = recovered.execute(f"SELECT COUNT(i) FROM {table}").scalar()
            lost += abs(expected_rows - int(got))
        gram = recovered.execute(READ_GRAM)
        mismatches = 0 if close(gram.rows[0][0], self._gram) else 1
        recovered.close()
        return {
            "lost_acknowledged_rows": lost,
            "recovered_view_mismatches": mismatches,
            "failed": (1 if lost else 0) + mismatches,
            "attempted": 2,
            "recover_ms": recover_ms,
            "wal_bytes_at_end": wal_bytes,
            "checkpoint_bytes_at_end": checkpoint_bytes,
            "user_bytes": expected_rows * (DIM + 2) * 8 * 2,
        }
