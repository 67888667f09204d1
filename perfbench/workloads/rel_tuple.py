"""``rel_tuple``: scalar-only tuple tables on disk storage, embedded.

The same ``engine`` layer as ``la_vector`` used the relational way —
join, group, sort, no tensors — plus ``storage``: tables are sealed
into 1024-row columnar segments and read back through a buffer pool a
quarter the size of the big table, so scans keep decoding segments and
evicting. A tensor-kernel gain must read *no change* here; a segment
codec, buffer-pool or operator-restructuring change must show here.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from common import Op, rows_close
from repro import ClusterConfig

SEGMENT_ROWS = 1024
#: serialized size the engine charges per (int, int, double) row
ROW_BYTES = 40

GRAM_TUPLE = (
    "SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value) "
    "FROM x AS x1, x AS x2 WHERE x1.row_index = x2.row_index "
    "GROUP BY x1.col_index, x2.col_index"
)
GROUP_FILTER = (
    "SELECT col_index, SUM(value), COUNT(value) FROM big "
    "WHERE row_index < :k GROUP BY col_index"
)
TOP_K = "SELECT row_index, col_index, value FROM big ORDER BY value DESC LIMIT 10"
RANGE_COUNT = (
    "SELECT COUNT(value) FROM big WHERE row_index >= :lo AND row_index < :hi"
)
CTAS = (
    "CREATE TABLE colsum AS "
    "SELECT col_index, SUM(value) AS s FROM x GROUP BY col_index"
)
DROP = "DROP TABLE colsum"


def _tuples(matrix: np.ndarray) -> List[tuple]:
    rows, cols = matrix.shape
    return [
        (i + 1, j + 1, float(matrix[i, j])) for i in range(rows) for j in range(cols)
    ]


class RelTuple:
    name = "rel_tuple"
    kinds: Dict[str, str] = {
        "gram_tuple": "read",
        "group_filter": "read",
        "top_k": "read",
        "range_count": "read",
        "ctas_colsum": "write",
        "drop_colsum": "aux",
    }
    fixed_passes = None
    probe_table = "big"

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        self.x = rng.normal(size=(512, 6))
        self.big = rng.normal(size=(2048, 8))
        self.big_bytes = self.big.size * ROW_BYTES
        self.pool_bytes = self.big_bytes // 4

    def plan(self, seconds: float) -> None:
        pass

    def config(self, data_dir: str) -> ClusterConfig:
        return ClusterConfig(
            machines=2,
            cores_per_machine=2,
            job_startup_s=1.0,
            storage_mode="disk",
            segment_rows=SEGMENT_ROWS,
            buffer_pool_bytes=self.pool_bytes,
        )

    def describe(self) -> Dict[str, object]:
        return {
            "storage_mode": "disk",
            "execution_mode": "batch",
            "flush_policy": "fsync per sealed segment (durability off)",
            "segment_rows": SEGMENT_ROWS,
            "buffer_pool_bytes": self.pool_bytes,
            "shapes": {
                "x": f"512x6 as {self.x.size} tuples",
                "big": f"2048x8 as {self.big.size} tuples",
            },
        }

    def setup(self, db) -> None:
        for table, data in (("x", self.x), ("big", self.big)):
            db.execute(
                f"CREATE TABLE {table} "
                "(row_index INTEGER, col_index INTEGER, value DOUBLE)"
            )
            db.load(table, _tuples(data))

    # -- numpy floors / oracles ------------------------------------------------

    def _gram_rows(self):
        gram = self.x.T @ self.x
        d = gram.shape[0]
        return [(i + 1, j + 1, gram[i, j]) for i in range(d) for j in range(d)]

    def _group_rows(self, k: int):
        head = self.big[: k - 1]
        sums = head.sum(axis=0)
        return [(j + 1, sums[j], len(head)) for j in range(head.shape[1])]

    def _top_rows(self):
        flat = self.big.ravel()
        top = np.argpartition(flat, -10)[-10:]
        cols = self.big.shape[1]
        return [(int(i) // cols + 1, int(i) % cols + 1, flat[i]) for i in top]

    def _colsum_rows(self):
        sums = self.x.sum(axis=0)
        return [(j + 1, sums[j]) for j in range(len(sums))]

    def op_groups(self, pass_index: int) -> List[List[Op]]:
        rng = np.random.default_rng([self.seed, 20, pass_index])
        k = int(rng.integers(256, 2048))
        lo = int(rng.integers(1, 1800))
        hi = lo + 200
        rows = lambda result, expected: rows_close(result.rows, expected)
        return [
            [Op("gram_tuple", "read", sql=GRAM_TUPLE,
                oracle=self._gram_rows, check=rows)],
            [Op("group_filter", "read", sql=GROUP_FILTER, params={"k": k},
                oracle=lambda: self._group_rows(k),
                check=lambda result, expected: rows_close(
                    # COUNT is an int: keep it out of the sort key
                    [(r[0], r[1], float(r[2])) for r in result.rows],
                    [(e[0], e[1], float(e[2])) for e in expected]))],
            [Op("top_k", "read", sql=TOP_K, oracle=self._top_rows, check=rows)],
            [Op("range_count", "read", sql=RANGE_COUNT,
                params={"lo": lo, "hi": hi},
                oracle=lambda: int(
                    np.isfinite(self.big[lo - 1 : hi - 1]).sum()),
                check=lambda result, expected: result.scalar() == expected)],
            [
                Op("ctas_colsum", "write", sql=CTAS,
                   oracle=self._colsum_rows, check=rows),
                Op("drop_colsum", "aux", sql=DROP),
            ],
        ]

    def finish(self, db) -> Dict[str, object]:
        return {}
