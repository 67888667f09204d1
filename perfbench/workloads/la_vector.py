"""``la_vector``: the paper's vector-style computations, embedded.

Gram (4096x8, the ROADMAP anchor), wide Gram (2048x64), regression
(3072x8) and the distance computation (96x8: a CTAS write, an argmax
read, a DROP) through ``Database.execute`` on memory storage in batch
mode. The ``engine`` batch operators, the ``la`` kernels and
``columnar`` do nearly all of the work; parse, bind, optimize and
physical planning are under 2 % of an op, and ``storage``, ``service``
and ``server`` are never entered. Native tensor columns, aggregate
fusion and cheaper cost-ledger bookkeeping must show here.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from common import Op, close, rows_close
from repro import ClusterConfig

GRAM = "SELECT SUM(outer_product(x.value, x.value)) FROM {table} AS x"
REGRESSION = (
    "SELECT matrix_vector_multiply("
    "matrix_inverse(SUM(outer_product(x.value, x.value))), "
    "SUM(x.value * y.y_i)) "
    "FROM reg_x AS x, reg_y AS y WHERE x.id = y.id"
)
DIST_CTAS = (
    "CREATE TABLE distances AS "
    "SELECT a.id AS id, MIN(inner_product(mxx.mx_data, a.value)) AS dist "
    "FROM dist_x AS a, mx AS mxx WHERE a.id <> mxx.id GROUP BY a.id"
)
DIST_ARGMAX = (
    "SELECT d.id FROM distances AS d, "
    "(SELECT MAX(dd.dist) AS g FROM distances AS dd) AS gg "
    "WHERE d.dist = gg.g"
)
DIST_DROP = "DROP TABLE distances"


class LaVector:
    name = "la_vector"
    kinds: Dict[str, str] = {
        "gram": "read",
        "gram_wide": "read",
        "regression": "read",
        "dist_argmax": "read",
        "dist_ctas": "write",
        "dist_drop": "aux",
    }
    #: time-boxed: passes repeat until the window is over
    fixed_passes = None
    #: table whose rows feed the standalone layer probes
    probe_table = "gram_x"
    #: the class whose ``engine.execute`` runs the probed ``la`` kernels
    #: (outer product + SUM) over exactly the probe table
    kernel_class = "gram"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.gram_x = rng.normal(size=(4096, 8))
        self.wide_x = rng.normal(size=(2048, 64))
        self.reg_x = rng.normal(size=(3072, 8))
        self.reg_y = self.reg_x @ rng.normal(size=8) + 0.1 * rng.normal(size=3072)
        self.dist_x = rng.normal(size=(96, 8))
        base = rng.normal(size=(8, 8))
        self.metric = base @ base.T / 8 + np.eye(8)
        self._mins = np.zeros(len(self.dist_x))

    def plan(self, seconds: float) -> None:
        pass

    def config(self, data_dir: str) -> ClusterConfig:
        return ClusterConfig(machines=2, cores_per_machine=2, job_startup_s=1.0)

    def describe(self) -> Dict[str, object]:
        return {
            "storage_mode": "memory",
            "execution_mode": "batch",
            "flush_policy": "none (durability off)",
            "shapes": {
                "gram_x": "4096x8",
                "wide_x": "2048x64",
                "reg_x/reg_y": "3072x8",
                "dist_x": "96x8",
            },
        }

    def setup(self, db) -> None:
        for table, data in (
            ("gram_x", self.gram_x),
            ("wide_x", self.wide_x),
            ("reg_x", self.reg_x),
            ("dist_x", self.dist_x),
        ):
            db.execute(f"CREATE TABLE {table} (id INTEGER, value VECTOR[])")
            db.load(table, [(i, data[i]) for i in range(len(data))])
        db.execute("CREATE TABLE reg_y (id INTEGER, y_i DOUBLE)")
        db.load("reg_y", [(i, float(v)) for i, v in enumerate(self.reg_y)])
        db.execute("CREATE TABLE metric (mat MATRIX[][])")
        db.load("metric", [(self.metric,)])
        db.execute(
            "CREATE VIEW mx (id, mx_data) AS "
            "SELECT x.id, matrix_vector_multiply(mm.mat, x.value) "
            "FROM dist_x AS x, metric AS mm"
        )

    # -- numpy floors / oracles ------------------------------------------------

    def _min_distances(self) -> np.ndarray:
        """The CTAS's floor: every point's least distance to another,
        kept (as the CTAS keeps its table) for the argmax that follows."""
        dist = self.dist_x @ self.metric @ self.dist_x.T
        np.fill_diagonal(dist, np.inf)
        self._mins = dist.min(axis=1)
        return self._mins

    def _argmax_ids(self) -> set:
        mins = self._mins
        near_best = np.flatnonzero(np.isclose(mins, mins.max(), rtol=1e-9))
        return {int(i) for i in near_best}

    def _regression(self) -> np.ndarray:
        x, y = self.reg_x, self.reg_y
        return np.linalg.solve(x.T @ x, x.T @ y)

    @staticmethod
    def _check_argmax(result, near_best: set) -> bool:
        ids = {int(row[0]) for row in result.rows}
        return bool(ids) and ids <= near_best

    def op_groups(self, pass_index: int) -> List[List[Op]]:
        """One pass: four groups whose order the harness rotates. The
        statements take no parameters — the seed drives the data."""
        scalar = lambda result, expected: close(result.scalar(), expected)
        return [
            [Op("gram", "read", sql=GRAM.format(table="gram_x"),
                oracle=lambda: self.gram_x.T @ self.gram_x, check=scalar)],
            [Op("gram_wide", "read", sql=GRAM.format(table="wide_x"),
                oracle=lambda: self.wide_x.T @ self.wide_x, check=scalar)],
            [Op("regression", "read", sql=REGRESSION,
                oracle=self._regression, check=scalar)],
            [
                Op("dist_ctas", "write", sql=DIST_CTAS,
                   oracle=self._min_distances,
                   check=lambda result, mins: rows_close(
                       result.rows, [(i, mins[i]) for i in range(len(mins))])),
                Op("dist_argmax", "read", sql=DIST_ARGMAX,
                   oracle=self._argmax_ids, check=self._check_argmax),
                Op("dist_drop", "aux", sql=DIST_DROP),
            ],
        ]

    def finish(self, db) -> Dict[str, object]:
        return {}
