"""An operator pays once for its bookkeeping: byte totals come from the
column form. That is a shortcut to the same numbers, so it is held
against the long way."""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.engine import storage as engine_storage
from repro.engine.cluster import columns_row_bytes, row_bytes
from repro.engine.storage import Batch
from repro.types import LabeledScalar, Matrix, Vector

# -- byte totals by column form -----------------------------------------------


def _cell(kind, rng):
    """One value of a column that ``ColumnData.from_values`` forms as
    ``kind`` (NULLs aside: a masked column holds some)."""
    if kind in ("masked block", "masked float") and rng.random() < 0.3:
        return None
    if kind == "int":
        return rng.randint(-(2**40), 2**40)
    if kind in ("float", "masked float"):
        return rng.choice([rng.uniform(-1e6, 1e6), math.nan, -0.0, math.inf])
    if kind == "bool":
        return rng.random() < 0.5
    if kind in ("block", "masked block"):
        return Vector([rng.random() for _ in range(3)])
    if kind == "matrix":
        return Matrix(np.full((2, 2), rng.random()))
    return rng.choice(["", "text", 7, 2.5, LabeledScalar(1.5, 2), Vector([1.0])])


KINDS = (
    "int", "float", "bool", "block", "matrix", "object",
    "masked block", "masked float",
)


def _batch(kinds, count, rng, sized):
    rows = [tuple(_cell(kind, rng) for kind in kinds) for _ in range(count)]
    sizes = [row_bytes(row) for row in rows] if sized else None
    return Batch.from_rows(range(len(kinds)), rows, sizes)


def _assert_exact(batch):
    """``total_bytes`` is the per-row sizes' sum, bit for bit, by either
    long way: the column sizing kernel, or one ``row_bytes`` per row."""
    total = batch.total_bytes()
    by_columns = float(np.sum(columns_row_bytes(batch.columns, len(batch))))
    by_rows = float(sum(row_bytes(row) for row in batch.rows()))
    assert total.hex() == by_columns.hex() == by_rows.hex()


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    count=st.integers(0, 9),
    seed=st.integers(0, 2**16),
)
def test_total_bytes_is_the_sum_of_the_row_sizes(kinds, count, seed):
    rng = random.Random(seed)
    for sized in (False, True):
        batch = _batch(kinds, count, rng, sized)
        other = _batch(kinds, rng.randint(0, 5), rng, not sized)
        _assert_exact(batch)
        picks = [rng.randrange(count) for _ in range(rng.randint(0, 6) if count else 0)]
        _assert_exact(batch.take(picks))
        mask = np.array([rng.random() < 0.5 for _ in range(count)], dtype=bool)
        _assert_exact(batch.filter(mask))
        _assert_exact(Batch.concat(batch.column_ids, [batch, other]))
        pairs = [
            (rng.randrange(count), rng.randrange(len(other)))
            for _ in range(rng.randint(0, 6))
            if count and len(other)
        ]
        for probe_is_left in (True, False):
            _assert_exact(
                batch.join(
                    range(2 * len(kinds)),
                    other,
                    [i for i, _ in pairs],
                    [j for _, j in pairs],
                    probe_is_left,
                )
            )


def test_fixed_width_statements_never_size_rows_one_by_one(monkeypatch):
    """Over typed and block columns no operator builds a per-row size
    array: the vector Gram on memory storage, and the tuple Gram's join
    and the range count on disk storage, cold and from the plan cache."""
    vectors = Database(TEST_CLUSTER)
    vectors.execute("CREATE TABLE gram_x (id INTEGER, value VECTOR[])")
    vectors.load("gram_x", [(i, np.arange(8.0) + i) for i in range(64)])
    tuples = Database(TEST_CLUSTER.with_updates(storage_mode="disk", segment_rows=32))
    tuples.execute("CREATE TABLE big (row_index INTEGER, col_index INTEGER, value DOUBLE)")
    tuples.load("big", [(i // 4 + 1, i % 4 + 1, i / 7.0) for i in range(256)])
    sized = []
    monkeypatch.setattr(
        engine_storage,
        "columns_row_bytes",
        lambda *args: sized.append(args) or columns_row_bytes(*args),
    )
    for db, sql in (
        (vectors, "SELECT SUM(outer_product(x.value, x.value)) FROM gram_x AS x"),
        (tuples, "SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value) "
                 "FROM big AS x1, big AS x2 WHERE x1.row_index = x2.row_index "
                 "GROUP BY x1.col_index, x2.col_index"),
        (tuples, "SELECT COUNT(value) FROM big WHERE row_index >= 9 AND row_index < 30"),
    ):
        # a misestimate recompiles once, as feedback arrives
        runs = [db.execute(sql) for _ in range(3)]
        assert runs[0].rows and runs[-1].metrics.plan_cached
    assert sized == []
    tuples.close()



# -- one ledger charge per operator on a warm run -----------------------------

#: warm reads at 80 slots: a Gram, the paper's regression (a hash join
#: under two SUMs), a GROUP BY over a join with an expression key and a
#: filtered scan; no ORDER BY (Sort and Top-K order and charge each slot
#: on its own)
WARM_READS = (
    "SELECT SUM(outer_product(x.v, x.v)) FROM x",
    "SELECT matrix_vector_multiply(matrix_inverse(SUM(outer_product(x.v, x.v))), "
    "SUM(x.v * y.y)) FROM x, y WHERE x.id = y.id",
    "SELECT g.k, COUNT(*), SUM(y.y) FROM y, g WHERE y.id * 2 = g.id + 2 GROUP BY g.k",
    "SELECT id, y FROM y WHERE y > 0.5",
)


def _warm_db():
    db = Database(TEST_CLUSTER.with_updates(machines=10, cores_per_machine=8))
    rng = np.random.default_rng(3)
    db.execute("CREATE TABLE x (id INTEGER, v VECTOR[])")
    db.load("x", [(i, Vector(rng.normal(size=3))) for i in range(200)])
    db.execute("CREATE TABLE y (id INTEGER, y DOUBLE)")
    db.load("y", [(i, float(rng.random())) for i in range(200)])
    db.execute("CREATE TABLE g (id INTEGER, k INTEGER)")
    db.load("g", [(i, i // 50) for i in range(400)])
    # feedback settles, then every read is a plan-cache hit
    for _ in range(3):
        for sql in WARM_READS:
            db.execute(sql)
    return db


def _count_calls(monkeypatch, owner, names, calls):
    """Count the calls of each of ``owner``'s methods ``names`` into
    ``calls``."""
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _original=original, **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def test_a_warm_run_charges_each_operator_a_few_times(monkeypatch):
    """At 80 slots a warm read makes a few ``OperatorRun`` charge calls
    per operator, not one per slot: a ledger's slots are charged by one
    call."""
    from repro.engine.cluster import OperatorRun

    db = _warm_db()
    charges = [name for name in vars(OperatorRun) if name.startswith("charge")]
    for sql in WARM_READS:
        calls = [0]
        with monkeypatch.context() as patch:
            _count_calls(patch, OperatorRun, charges, calls)
            result = db.execute(sql)
        assert result.metrics.plan_cached
        assert calls[0] <= 5 * len(result.metrics.operators), sql


def test_a_warm_run_makes_no_cost_ledger_per_slot(monkeypatch):
    """At 80 slots no operator makes an ``EvalCost`` per slot: a ledger
    over a stage is one object, charged as it is."""
    from repro.plan.expressions import EvalCost

    db = _warm_db()
    for sql in WARM_READS:
        calls = [0]
        with monkeypatch.context() as patch:
            _count_calls(patch, EvalCost, ["__init__"], calls)
            result = db.execute(sql)
        assert calls[0] <= 3 * len(result.metrics.operators), sql


def test_feedback_and_service_statistics_walk_no_tree(monkeypatch):
    """Cardinality feedback and the service's q-error statistics read the
    run's records by plan position: neither calls a plan node's
    ``children()`` nor the trace's ``walk()``."""
    from repro.engine.metrics import OperatorTrace
    from repro.plan.physical import PhysicalNode
    from repro.service.metrics import ServiceMetrics

    db = _warm_db()
    service = db.service()
    session = service.session()
    inside, walks = [False], [0]
    for owner, name in ((db, "_absorb_feedback"), (ServiceMetrics, "observe")):
        original = getattr(owner, name)

        def scoped(*args, _original=original, **kwargs):
            inside[0] = True
            try:
                return _original(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(owner, name, scoped)
    classes = [PhysicalNode]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    for owner, name in [(cls, "children") for cls in classes if "children" in vars(cls)] + [
        (OperatorTrace, "walk")
    ]:
        original = getattr(owner, name)

        def counted(*args, _original=original, **kwargs):
            walks[0] += inside[0]
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    for sql in WARM_READS:
        result = session.execute(sql)
        assert result.metrics.plan_cached and result.metrics.trace is not None
    assert service.stats()["estimate_errors"]["trace_operators"] > 0
    assert walks[0] == 0
