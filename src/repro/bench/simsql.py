"""The catalogue of the paper's programs (section 5): Gram matrix,
least-squares regression and metric distance, each in the three SimSQL
styles, plus the tuple-table probes the benchmarks add.

Every entry of :data:`CASES` is real extended SQL on
:class:`repro.Database` — the queries the paper lists, written here once
— as a :class:`~repro.bench.harness.Case`: untimed setup, the
metric-bearing statements, and a read-back of the value (verified
against numpy ground truth by the callers). :class:`SimSQLPlatform`
runs one and merges its statements' metrics; ``repro-bench
exec|spill|faults|trace`` pick theirs by name through :func:`cases`;
:func:`price` prices one at the paper's scale from its compiled plans,
over tables holding that scale's statistics and no rows.

* **tuple** — classical normalized SQL over ``x(row_index, col_index,
  value)``; no vector/matrix types at all. The final d x d solve of the
  regression is done client-side (the paper omits its tuple regression
  code; with d x d being tiny, pulling it to the client is the natural
  reading).
* **vector** — one VECTOR per data point.
* **block** — data points grouped 1000-per-MATRIX (``block_size`` here);
  the grouping happens in a view, so, as in the paper, blocking time is
  charged to the computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..catalog.statistics import TableStats, TypedDistinct
from ..config import ClusterConfig
from ..db import Database, Result
from ..engine import Cluster, QueryMetrics, count_job_boundaries
from ..errors import ExecutionError, ResourceExhaustedError
from ..plan.physical import PExchange
from ..sql import ast, parse_statement
from ..types import MatrixType, VectorType
from .harness import Case, run_case
from .workloads import Shape, Workload, generate

STYLES = ("tuple", "vector", "block")

#: per-statement compile/optimize/submit overhead of the SimSQL prototype,
#: which compiles every query to Java (the paper: "as a prototype system,
#: it is not engineered for high throughput"): a platform fixed cost the
#: engine does not model, so :func:`price` adds it once per statement
COMPILE_S = 25.0

#: sentinel added to diagonal blocks so self-distances never win the MIN
INF_DISTANCE = 1.0e18

#: the seed each computation's synthetic workload is generated with
#: wherever a benchmark picks a case by name (:func:`cases`)
SEEDS = {
    "gram": 7,
    "regression": 8,
    "distance": 9,
    "group filter": 10,
    "top-k": 11,
    "group by": 12,
}

# -- loading (always untimed setup) -------------------------------------------


def _table(db: Database, ddl: str, workload, rows, count, **columns) -> None:
    """Create table ``ddl`` and load ``rows()`` into it — or, for a
    :class:`Shape`, give it the statistics of ``count`` such rows
    (:func:`_statistics`) and store none: :func:`price` compiles over
    it."""
    db.execute(ddl)
    name = ddl.split()[2]
    if isinstance(workload, Shape):
        db.catalog.table(name).stats = _statistics(count, columns)
    else:
        db.load(name, rows())


def _statistics(count: float, columns) -> TableStats:
    """The statistics of ``count`` rows: each named column's known values
    (a range or distinct values: the key domains placement hashes),
    distinct count (a number) or tensor dims (a tuple)."""
    stats = TableStats(row_count=count)
    for column, known in columns.items():
        column_stats = stats.column(column)
        if isinstance(known, range):
            known = TypedDistinct(np.arange(known.start, known.stop, known.step))
        if isinstance(known, (TypedDistinct, set)):
            column_stats.values = known
            column_stats.distinct = len(known)
        elif isinstance(known, tuple) and len(known) == 1:
            column_stats.observed_length = known[0]
        elif isinstance(known, tuple):
            column_stats.observed_rows, column_stats.observed_cols = known
        else:
            column_stats.distinct = known
    return stats


def _load_tuple_points(db: Database, workload) -> None:
    n, d = workload.n, workload.d
    _table(
        db, "CREATE TABLE x (row_index INTEGER, col_index INTEGER, value DOUBLE)",
        workload,
        lambda: [
            (i + 1, j + 1, float(workload.X[i, j])) for i in range(n) for j in range(d)
        ],
        n * d, row_index=n, col_index=range(1, d + 1), value=n * d,
    )


def _load_vector_points(db: Database, workload) -> None:
    _table(
        db, "CREATE TABLE x_vm (id INTEGER, value VECTOR[])", workload,
        lambda: [(i, workload.X[i]) for i in range(workload.n)],
        workload.n, id=workload.n, value=(workload.d,),
    )


def _load_outcomes(db: Database, workload) -> None:
    _table(
        db, "CREATE TABLE y_vm (id INTEGER, y_i DOUBLE)", workload,
        lambda: [(i, float(workload.y[i])) for i in range(workload.n)],
        workload.n, id=workload.n, y_i=workload.n,
    )


def _load_metric_matrix(db: Database, workload) -> None:
    _table(
        db, "CREATE TABLE MM (mat MATRIX[][])", workload,
        lambda: [(workload.A,)], 1, mat=(workload.d, workload.d),
    )


def _load_blocked(db: Database, workload, block_size: int) -> None:
    _load_vector_points(db, workload)
    blocks = _blocks(workload, block_size)
    _table(
        db, "CREATE TABLE block_index (mi INTEGER)", workload,
        lambda: [(b,) for b in range(blocks)], blocks, mi=range(blocks),
    )
    db.execute(
        f"""CREATE VIEW MLX (mi, m) AS
        SELECT ind.mi, ROWMATRIX(label_vector(
            x.value, x.id - ind.mi * {block_size} + 1))
        FROM x_vm AS x, block_index AS ind
        WHERE x.id / {block_size} = ind.mi
        GROUP BY ind.mi"""
    )


def _blocks(workload, block_size: int) -> int:
    if workload.n % block_size:
        raise ExecutionError(
            f"block style needs n divisible by block_size "
            f"({workload.n} % {block_size} != 0)"
        )
    return workload.n // block_size


# -- the listings -------------------------------------------------------------

TUPLE_GRAM = """SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value)
    FROM x AS x1, x AS x2
    WHERE x1.row_index = x2.row_index
    GROUP BY x1.col_index, x2.col_index"""

VECTOR_GRAM = "SELECT SUM(outer_product(x.value, x.value)) FROM x_vm AS x"


def _dense(result: Result, shape: Tuple[int, ...]) -> np.ndarray:
    """A tuple-style result ``(index..., value)`` as a dense array."""
    out = np.zeros(shape)
    for *index, value in result.rows:
        out[tuple(i - 1 for i in index)] = value
    return out


def _scalar_data(results: List[Result]) -> np.ndarray:
    return results[-1].scalar().data


def _first_id(results: List[Result]) -> int:
    return int(results[-1].rows[0][0])


def _rows(results: List[Result]) -> List[tuple]:
    return results[-1].rows


#: what a catalogue entry builds for one workload: (setup, statements, value)
Program = Tuple[
    Callable[[Database], None], Tuple[str, ...], Callable[[List[Result]], object]
]

#: (computation, style) -> builder(workload, block_size)
CASES: Dict[Tuple[str, str], Callable[[Workload, int], Program]] = {}


def _program(computation: str, style: str):
    def register(build):
        CASES[(computation, style)] = build
        return build

    return register


@_program("gram", "tuple")
def _gram_tuple(workload: Workload, block_size: int) -> Program:
    return (
        lambda db: _load_tuple_points(db, workload),
        (TUPLE_GRAM,),
        lambda results: _dense(results[0], (workload.d, workload.d)),
    )


@_program("gram", "vector")
def _gram_vector(workload: Workload, block_size: int) -> Program:
    return lambda db: _load_vector_points(db, workload), (VECTOR_GRAM,), _scalar_data


@_program("gram", "block")
def _gram_block(workload: Workload, block_size: int) -> Program:
    return (
        lambda db: _load_blocked(db, workload, block_size),
        ("SELECT SUM(matrix_multiply(trans_matrix(mlx.m), mlx.m)) FROM MLX AS mlx",),
        _scalar_data,
    )


@_program("regression", "tuple")
def _regression_tuple(workload: Workload, block_size: int) -> Program:
    def setup(db: Database) -> None:
        _load_tuple_points(db, workload)
        _table(
            db, "CREATE TABLE yt (row_index INTEGER, value DOUBLE)", workload,
            lambda: [(i + 1, float(workload.y[i])) for i in range(workload.n)],
            workload.n, row_index=workload.n, value=workload.n,
        )

    def value(results: List[Result]) -> np.ndarray:
        gram = _dense(results[0], (workload.d, workload.d))
        xty = _dense(results[1], (workload.d,))
        return np.linalg.solve(gram, xty)  # client-side d x d solve

    xty_sql = """SELECT x.col_index, SUM(x.value * yt.value)
        FROM x, yt
        WHERE x.row_index = yt.row_index
        GROUP BY x.col_index"""
    return setup, (TUPLE_GRAM, xty_sql), value


@_program("regression", "vector")
def _regression_vector(workload: Workload, block_size: int) -> Program:
    def setup(db: Database) -> None:
        _load_vector_points(db, workload)
        _load_outcomes(db, workload)

    sql = """SELECT matrix_vector_multiply(
               matrix_inverse(SUM(outer_product(x.value, x.value))),
               SUM(x.value * y.y_i))
        FROM x_vm AS x, y_vm AS y
        WHERE x.id = y.id"""
    return setup, (sql,), _scalar_data


@_program("regression", "block")
def _regression_block(workload: Workload, block_size: int) -> Program:
    def setup(db: Database) -> None:
        _load_blocked(db, workload, block_size)
        _load_outcomes(db, workload)
        db.execute(
            f"""CREATE VIEW MLY (mi, v) AS
            SELECT ind.mi, VECTORIZE(label_scalar(
                yy.y_i, yy.id - ind.mi * {block_size} + 1))
            FROM y_vm AS yy, block_index AS ind
            WHERE yy.id / {block_size} = ind.mi
            GROUP BY ind.mi"""
        )

    sql = """SELECT matrix_vector_multiply(
               matrix_inverse(SUM(matrix_multiply(trans_matrix(x.m), x.m))),
               SUM(matrix_vector_multiply(trans_matrix(x.m), y.v)))
        FROM MLX AS x, MLY AS y
        WHERE x.mi = y.mi"""
    return setup, (sql,), _scalar_data


@_program("distance", "tuple")
def _distance_tuple(workload: Workload, block_size: int) -> Program:
    def setup(db: Database) -> None:
        _load_tuple_points(db, workload)
        d = workload.d
        _table(
            db,
            "CREATE TABLE matA (row_index INTEGER, col_index INTEGER, value DOUBLE)",
            workload,
            lambda: [
                (a + 1, b + 1, float(workload.A[a, b]))
                for a in range(d)
                for b in range(d)
            ],
            d * d, row_index=range(1, d + 1), col_index=range(1, d + 1), value=d * d,
        )
        db.execute(
            """CREATE VIEW XA (i, b, v) AS
            SELECT x.row_index, a.col_index, SUM(x.value * a.value)
            FROM x, matA AS a
            WHERE x.col_index = a.row_index
            GROUP BY x.row_index, a.col_index"""
        )

    queries = (
        """CREATE TABLE DIST AS
        SELECT xa.i AS i, x2.row_index AS j, SUM(xa.v * x2.value) AS d
        FROM XA AS xa, x AS x2
        WHERE xa.b = x2.col_index
        GROUP BY xa.i, x2.row_index""",
        """CREATE TABLE MIND AS
        SELECT dd.i AS i, MIN(dd.d) AS md
        FROM DIST AS dd
        WHERE dd.i <> dd.j
        GROUP BY dd.i""",
        """SELECT m.i
        FROM MIND AS m, (SELECT MAX(mm.md) AS g FROM MIND AS mm) AS gg
        WHERE m.md = gg.g""",
    )
    return setup, queries, _first_id


@_program("distance", "vector")
def _distance_vector(workload: Workload, block_size: int) -> Program:
    def setup(db: Database) -> None:
        _load_vector_points(db, workload)
        _load_metric_matrix(db, workload)
        db.execute(
            """CREATE VIEW MX (id, mx_data) AS
            SELECT x.id, matrix_vector_multiply(mm.mat, x.value)
            FROM x_vm AS x, MM AS mm"""
        )

    queries = (
        """CREATE TABLE DISTANCESM AS
        SELECT a.id AS id, MIN(inner_product(mxx.mx_data, a.value)) AS dist
        FROM x_vm AS a, MX AS mxx
        WHERE a.id <> mxx.id
        GROUP BY a.id""",
        """SELECT d.id
        FROM DISTANCESM AS d,
             (SELECT MAX(dd.dist) AS g FROM DISTANCESM AS dd) AS gg
        WHERE d.dist = gg.g""",
    )
    # point ids are 0-based in the vector layout; report 1-based
    return setup, queries, lambda results: _first_id(results) + 1


@_program("distance", "block")
def _distance_block(workload: Workload, block_size: int) -> Program:
    if _blocks(workload, block_size) < 2:
        raise ExecutionError("block distance needs at least two blocks")

    def setup(db: Database) -> None:
        _load_blocked(db, workload, block_size)
        _load_metric_matrix(db, workload)
        _table(
            db, "CREATE TABLE INFDIAG (m MATRIX[][])", workload,
            lambda: [(np.diag(np.full(block_size, INF_DISTANCE)),)],
            1, m=(block_size, block_size),
        )
        # Hoist A x t(Xb) out of the block cross product, the blocked
        # analogue of the vector variant's MX view: it is computed once
        # per block instead of once per block *pair*.
        db.execute(
            """CREATE VIEW AMXT (mi, m) AS
            SELECT mx.mi, matrix_multiply(mp.mat, trans_matrix(mx.m))
            FROM MLX AS mx, MM AS mp"""
        )
        db.execute(
            """CREATE VIEW DISTANCES (id1, id2, dm) AS
            SELECT mxx.mi, amxt.mi, matrix_multiply(mxx.m, amxt.m)
            FROM MLX AS mxx, AMXT AS amxt"""
        )
        db.execute(
            """CREATE VIEW OFFDIAG (id1, v) AS
            SELECT d.id1, MIN(row_mins(d.dm))
            FROM DISTANCES AS d
            WHERE d.id1 <> d.id2
            GROUP BY d.id1"""
        )
        db.execute(
            """CREATE VIEW ONDIAG (id1, v) AS
            SELECT d.id1, MIN(row_mins(d.dm + msk.m))
            FROM DISTANCES AS d, INFDIAG AS msk
            WHERE d.id1 = d.id2
            GROUP BY d.id1"""
        )

    queries = (
        """CREATE TABLE MINDIST AS
        SELECT o.id1 AS id1,
               max_vector(min_vectors(o.v, s.v)) AS best,
               index_max(min_vectors(o.v, s.v)) AS pos
        FROM OFFDIAG AS o, ONDIAG AS s
        WHERE o.id1 = s.id1""",
        f"""SELECT b.id1 * {block_size} + b.pos
        FROM MINDIST AS b,
             (SELECT MAX(bb.best) AS g FROM MINDIST AS bb) AS gg
        WHERE b.best = gg.g""",
    )
    return setup, queries, _first_id


# The tuple-table probes beside the paper's programs: they put the key
# kernels (filtered GROUP BY, Top-K) on ``repro-bench exec|trace``, and
# the merge of many (slot, key) states on ``repro-bench exec``.


@_program("group filter", "tuple")
def _group_filter_tuple(workload: Workload, block_size: int) -> Program:
    sql = f"""SELECT col_index, SUM(value), COUNT(value), MIN(value)
        FROM x WHERE row_index < {workload.n // 2} GROUP BY col_index"""
    return lambda db: _load_tuple_points(db, workload), (sql,), _rows


@_program("top-k", "tuple")
def _top_k_tuple(workload: Workload, block_size: int) -> Program:
    sql = """SELECT row_index, col_index, value
        FROM x ORDER BY value DESC, row_index LIMIT 10"""
    return lambda db: _load_tuple_points(db, workload), (sql,), _rows


#: the GROUP BY probe's keys
PROBE_GROUPS = 37


@_program("group by", "tuple")
def _group_by_tuple(workload: Workload, block_size: int) -> Program:
    """A table built by single-row INSERTs (each key seen once per
    ``PROBE_GROUPS`` rows), grouped into ``PROBE_GROUPS`` keys: on many
    slots, every slot holds a state of every key."""

    def setup(db: Database) -> None:
        db.execute("CREATE TABLE g (a INTEGER, b INTEGER, v DOUBLE)")
        for i in range(workload.n):
            db.execute(
                "INSERT INTO g VALUES (:a, :b, :v)",
                {"a": i, "b": i % PROBE_GROUPS, "v": float(workload.X[i, 0])},
            )

    sql = "SELECT b, SUM(v), COUNT(*) FROM g GROUP BY b"
    return setup, (sql,), _rows


def case(
    computation: str, style: str, workload: Workload, block_size: int = 4
) -> Case:
    """The catalogue entry ``(computation, style)`` over ``workload``."""
    build = CASES.get((computation, style))
    if build is None:
        raise ValueError(f"no {style!r} program for computation {computation!r}")
    return Case(f"{computation} ({style})", *build(workload, block_size))


def cases(scales: Dict[Tuple[str, str], Tuple[int, int]]) -> List[Case]:
    """The entries ``scales`` names — ``(computation, style) -> (n, d)``
    — in its order, each over its :data:`SEEDS` workload."""
    return [
        case(computation, style, generate(n, d, seed=SEEDS[computation]))
        for (computation, style), (n, d) in scales.items()
    ]


@dataclass
class RunOutcome:
    """Result value plus merged metrics for one computation."""

    value: object
    metrics: QueryMetrics

    @property
    def seconds(self) -> float:
        return self.metrics.total_seconds


class SimSQLPlatform:
    """Runs gram / regression / distance in one of the three styles."""

    def __init__(
        self,
        style: str,
        config: Optional[ClusterConfig] = None,
        block_size: int = 4,
    ):
        if style not in STYLES:
            raise ValueError(f"style must be one of {STYLES}, got {style!r}")
        self.style = style
        self.config = config or ClusterConfig()
        self.block_size = block_size

    @property
    def name(self) -> str:
        return f"{self.style.capitalize()} SimSQL"

    def run(self, computation: str, workload: Workload) -> RunOutcome:
        program = case(computation, self.style, workload, self.block_size)
        _, results = run_case(program, self.config)
        metrics = reduce(QueryMetrics.merge, (result.metrics for result in results))
        return RunOutcome(program.value(results), metrics)

    def gram(self, workload: Workload) -> RunOutcome:
        return self.run("gram", workload)

    def regression(self, workload: Workload) -> RunOutcome:
        return self.run("regression", workload)

    def distance(self, workload: Workload) -> RunOutcome:
        return self.run("distance", workload)


@dataclass
class Priced:
    """A program priced from its compiled plans (:func:`price`)."""

    seconds: float
    #: operator -> its estimated seconds over every statement, plus the
    #: fixed ``startup`` and ``compile`` costs
    breakdown: Dict[str, float]
    #: each statement's priced physical plan
    plans: List[object]
    #: what they compiled over: tables holding statistics and no rows
    database: Database


def _estimated(root, columns) -> TableStats:
    """The statistics of a CTAS target priced without its rows: its
    plan's root estimate of ``columns``."""
    known = {}
    for column in columns:
        data_type = root.types.get(column.column_id, column.data_type)
        stats = root.values.get(column.column_id)
        if isinstance(data_type, VectorType):
            known[column.name] = (data_type.length,)
        elif isinstance(data_type, MatrixType):
            known[column.name] = (data_type.rows, data_type.cols)
        elif stats is not None:
            known[column.name] = stats.values
        elif column.column_id in root.distinct:
            known[column.name] = root.distinct[column.column_id]
    return _statistics(root.rows, known)


def _operator(node) -> str:
    """A physical operator's name in a priced breakdown."""
    name = type(node).__name__[1:]
    return f"{name}({node.kind})" if isinstance(node, PExchange) else name


def operators(plan):
    """A physical plan's operators in the order the executor runs and
    records them: each one's inputs first."""
    for child in plan.children():
        yield from operators(child)
    yield plan


def price(
    computation: str,
    style: str,
    shape,
    config: ClusterConfig,
    block_size: int = 4,
) -> Optional[Priced]:
    """Price catalogue entry ``(computation, style)`` at ``shape`` without
    running it: its statements compile (``Database._compile``) over tables
    that hold only the statistics of a :class:`Shape`'s rows (or, given a
    :class:`Workload`, over its loaded rows' statistics), and each costs
    its plan's estimated seconds, one job startup per job (the executor's
    count) and :data:`COMPILE_S`. A CTAS target gets the statistics of its
    plan's root estimate. None — the paper's "Fail" — when an operator
    holds more on its busiest slot than a slot's memory: the executor's
    own rule (``Cluster.check_memory``), read off the estimates."""
    program = case(computation, style, shape, block_size)
    db = Database(config)
    program.setup(db)
    cluster = Cluster(config)
    breakdown: Dict[str, float] = {}
    seconds, jobs, plans = 0.0, 0, []
    for sql in program.queries:
        statement = parse_statement(sql)
        ctas = isinstance(statement, ast.CreateTableAs)
        plan = db._compile(statement.query if ctas else statement, None)
        nodes = list(operators(plan.physical))
        try:
            for node in nodes:
                cluster.check_memory(node.describe(), [node.est_held_bytes])
        except ResourceExhaustedError:
            return None
        for node in nodes:
            name = _operator(node)
            breakdown[name] = breakdown.get(name, 0.0) + node.est_seconds
            seconds += node.est_seconds
        jobs += max(1, count_job_boundaries(plan.physical))
        plans.append(plan.physical)
        if ctas:
            columns = plan.physical.columns
            db.create_table(statement.name, [(c.name, c.data_type) for c in columns])
            root = db.cost_model.price_physical(plan.physical)
            db.catalog.table(statement.name).stats = _estimated(root, columns)
    breakdown["startup"] = jobs * config.job_startup_s
    breakdown["compile"] = len(program.queries) * COMPILE_S
    total = seconds + breakdown["startup"] + breakdown["compile"]
    return Priced(total, breakdown, plans, db)
