"""Micro-benchmark for the two interpreter back ends (``repro-bench exec``).

Runs the paper's Gram / regression / distance computations, and a
filtered GROUP BY and a Top-K over tuple tables, at mini scale through
``execution_mode="row"`` and ``"batch"`` and compares *real*
wall-clock time. The simulated :class:`QueryMetrics` and the result rows
must be identical in both modes — the batch-columnar pipeline is a pure
interpreter optimization (see ``docs/ENGINE.md``) — so the report also
verifies the equivalence contract and ``--check`` turns any divergence
(or a batch path that lost its wall-clock lead) into a failing exit code.

Loading is untimed: both modes share the same row-wise INSERT path, and
the interesting number is query execution throughput.

Each case also runs in batch mode on ``PAPER_CLUSTER``'s 80 slots: the
interpreter pays real Python per simulated slot, and the
``slots80_vs_slots4`` ratio is that cost (recorded, never gated).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..config import PAPER_CLUSTER, ClusterConfig, TEST_CLUSTER
from ..db import Database
from ..engine.cluster import stable_hash
from .workloads import Workload, generate

#: mini-scale shapes; small enough for CI, large enough that per-tuple
#: interpreter overhead (not constant costs) dominates the measurement
EXEC_SCALES = {
    "gram (vector)": (4096, 8),
    "gram (tuple)": (384, 6),
    "group filter (tuple)": (2048, 8),
    "top-k (tuple)": (2048, 8),
    "regression (vector)": (3072, 8),
    "distance (vector)": (96, 8),
}

#: the --check gate on the batch-vs-row geomean: half of the 3.9x measured
#: on the six smoke shapes with tensor-block columns and typed key
#: kernels (3.93 / 3.92 / 3.78 over three runs; a ratio taken on one
#: host, so runner speed cancels — at smoke size fixed per-call costs
#: hide most of the kernels' lead, which is 9.5x on the full shapes)
MIN_GEOMEAN_SPEEDUP = 1.9

#: reduced shapes for the CI smoke run (--check)
EXEC_SCALES_SMOKE = {
    "gram (vector)": (512, 8),
    "gram (tuple)": (96, 6),
    "group filter (tuple)": (256, 8),
    "top-k (tuple)": (256, 8),
    "regression (vector)": (384, 8),
    "distance (vector)": (40, 8),
}


@dataclass(frozen=True)
class ExecCase:
    """One benchmark workload: untimed setup plus timed queries."""

    name: str
    setup: Callable[[Database], None]
    queries: Tuple[str, ...]


@dataclass(frozen=True)
class ExecCaseResult:
    name: str
    row_wall_s: float
    batch_wall_s: float
    #: the same batch run on ``PAPER_CLUSTER``'s 80 slots
    batch_wall_80_s: float
    simulated_s: float
    rows_match: bool
    metrics_match: bool

    @property
    def speedup(self) -> float:
        if self.batch_wall_s <= 0:
            return float("inf")
        return self.row_wall_s / self.batch_wall_s

    @property
    def slots80_vs_slots4(self) -> float:
        if self.batch_wall_s <= 0:
            return float("inf")
        return self.batch_wall_80_s / self.batch_wall_s


@dataclass(frozen=True)
class ExecReport:
    cases: List[ExecCaseResult]

    @property
    def all_match(self) -> bool:
        return all(case.rows_match and case.metrics_match for case in self.cases)

    @property
    def geomean_speedup(self) -> float:
        product = 1.0
        for case in self.cases:
            product *= case.speedup
        return product ** (1.0 / len(self.cases)) if self.cases else 1.0

    def ok(self) -> bool:
        """The --check criterion: identical results and simulated
        metrics in both modes, and the batch path keeping its lead."""
        return self.all_match and self.geomean_speedup >= MIN_GEOMEAN_SPEEDUP


def _gram_vector(n: int, d: int) -> ExecCase:
    workload = generate(n, d, seed=7)
    return ExecCase(
        "gram (vector)",
        lambda db: _load_vectors(db, workload),
        ("SELECT SUM(outer_product(x.value, x.value)) FROM x_vm AS x",),
    )


def _gram_tuple(n: int, d: int) -> ExecCase:
    workload = generate(n, d, seed=7)
    return ExecCase(
        "gram (tuple)",
        lambda db: _load_tuples(db, workload),
        (
            """SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value)
            FROM x AS x1, x AS x2
            WHERE x1.row_index = x2.row_index
            GROUP BY x1.col_index, x2.col_index""",
        ),
    )


def _group_filter_tuple(n: int, d: int) -> ExecCase:
    workload = generate(n, d, seed=10)
    return ExecCase(
        "group filter (tuple)",
        lambda db: _load_tuples(db, workload),
        (
            f"""SELECT col_index, SUM(value), COUNT(value), MIN(value)
            FROM x WHERE row_index < {n // 2} GROUP BY col_index""",
        ),
    )


def _top_k_tuple(n: int, d: int) -> ExecCase:
    workload = generate(n, d, seed=11)
    return ExecCase(
        "top-k (tuple)",
        lambda db: _load_tuples(db, workload),
        (
            """SELECT row_index, col_index, value
            FROM x ORDER BY value DESC, row_index LIMIT 10""",
        ),
    )


def _regression_vector(n: int, d: int) -> ExecCase:
    workload = generate(n, d, seed=8)
    return ExecCase(
        "regression (vector)",
        lambda db: _load_regression(db, workload),
        (
            """SELECT matrix_vector_multiply(
                   matrix_inverse(SUM(outer_product(x.value, x.value))),
                   SUM(x.value * y.y_i))
            FROM x_vm AS x, y_vm AS y
            WHERE x.id = y.id""",
        ),
    )


def _distance_vector(n: int, d: int) -> ExecCase:
    workload = generate(n, d, seed=9)
    return ExecCase(
        "distance (vector)",
        lambda db: _load_distance(db, workload),
        (
            """CREATE TABLE DISTANCESM AS
            SELECT a.id AS id, MIN(inner_product(mxx.mx_data, a.value)) AS dist
            FROM x_vm AS a, MX AS mxx
            WHERE a.id <> mxx.id
            GROUP BY a.id""",
            """SELECT d.id
            FROM DISTANCESM AS d,
                 (SELECT MAX(dd.dist) AS g FROM DISTANCESM AS dd) AS gg
            WHERE d.dist = gg.g""",
        ),
    )


#: case name -> builder(n, d); the tuple cases beside the paper's three
#: computations put the key kernels (GROUP BY, join, Top-K) on the clock
_CASES = {
    "gram (vector)": _gram_vector,
    "gram (tuple)": _gram_tuple,
    "group filter (tuple)": _group_filter_tuple,
    "top-k (tuple)": _top_k_tuple,
    "regression (vector)": _regression_vector,
    "distance (vector)": _distance_vector,
}


def _cases(scales) -> List[ExecCase]:
    """The cases ``scales`` (name -> ``(n, d)``) names, in table order."""
    return [build(*scales[name]) for name, build in _CASES.items() if name in scales]


def _load_vectors(db: Database, workload: Workload) -> None:
    db.execute("CREATE TABLE x_vm (id INTEGER, value VECTOR[])")
    db.load("x_vm", [(i, workload.X[i]) for i in range(workload.n)])


def _load_tuples(db: Database, workload: Workload) -> None:
    db.execute(
        "CREATE TABLE x (row_index INTEGER, col_index INTEGER, value DOUBLE)"
    )
    db.load(
        "x",
        [
            (i + 1, j + 1, float(workload.X[i, j]))
            for i in range(workload.n)
            for j in range(workload.d)
        ],
    )


def _load_regression(db: Database, workload: Workload) -> None:
    _load_vectors(db, workload)
    db.execute("CREATE TABLE y_vm (id INTEGER, y_i DOUBLE)")
    db.load("y_vm", [(i, float(workload.y[i])) for i in range(workload.n)])


def _load_distance(db: Database, workload: Workload) -> None:
    _load_vectors(db, workload)
    db.execute("CREATE TABLE MM (mat MATRIX[][])")
    db.load("MM", [(workload.A,)])
    db.execute(
        """CREATE VIEW MX (id, mx_data) AS
        SELECT x.id, matrix_vector_multiply(mm.mat, x.value)
        FROM x_vm AS x, MM AS mm"""
    )


def _run_case(
    case: ExecCase, config: ClusterConfig, mode: str, repeats: int
) -> Tuple[float, list, list]:
    """Best-of-``repeats`` wall clock plus result digest and simulated
    per-statement seconds (identical across repeats — execution is
    deterministic)."""
    best = None
    digest: list = []
    simulated: list = []
    for _ in range(repeats):
        db = Database(config, execution_mode=mode)
        case.setup(db)
        start = time.perf_counter()
        digest = []
        simulated = []
        for sql in case.queries:
            result = db.execute(sql)
            digest.append(sorted(stable_hash(tuple(row)) for row in result.rows))
            simulated.append(result.metrics.total_seconds)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, digest, simulated


def run_exec_bench(
    config: ClusterConfig = TEST_CLUSTER,
    repeats: int = 3,
    smoke: bool = False,
) -> ExecReport:
    scales = EXEC_SCALES_SMOKE if smoke else EXEC_SCALES
    results = []
    for case in _cases(scales):
        row_wall, row_digest, row_sim = _run_case(case, config, "row", repeats)
        batch_wall, batch_digest, batch_sim = _run_case(
            case, config, "batch", repeats
        )
        batch_wall_80, _, _ = _run_case(case, PAPER_CLUSTER, "batch", repeats)
        results.append(
            ExecCaseResult(
                name=case.name,
                row_wall_s=row_wall,
                batch_wall_s=batch_wall,
                batch_wall_80_s=batch_wall_80,
                simulated_s=sum(row_sim),
                rows_match=row_digest == batch_digest,
                metrics_match=row_sim == batch_sim,
            )
        )
    return ExecReport(results)


def format_exec(report: ExecReport) -> str:
    lines = [
        "Execution-mode micro-benchmark (real wall-clock, row vs batch)",
        "",
        f"{'workload':24} {'row':>9} {'batch':>9} {'speedup':>8}  "
        f"{'batch@80':>9} {'80 vs 4':>8}  {'simulated':>10}  equivalent",
    ]
    for case in report.cases:
        equivalent = (
            "yes"
            if case.rows_match and case.metrics_match
            else "DIVERGED"
        )
        lines.append(
            f"{case.name:24} {case.row_wall_s * 1e3:7.1f}ms "
            f"{case.batch_wall_s * 1e3:7.1f}ms {case.speedup:7.2f}x  "
            f"{case.batch_wall_80_s * 1e3:7.1f}ms {case.slots80_vs_slots4:7.2f}x  "
            f"{case.simulated_s:9.3f}s  {equivalent}"
        )
    lines.append("")
    lines.append(
        f"geometric-mean speedup: {report.geomean_speedup:.2f}x; "
        f"rows and simulated metrics identical in both modes: "
        f"{'yes' if report.all_match else 'NO'}"
    )
    lines.append(
        f"batch@80: the batch run on PAPER_CLUSTER's {PAPER_CLUSTER.slots} "
        "slots (per-slot interpreter cost; recorded, not gated)"
    )
    return "\n".join(lines)
