"""Materialized views: lifecycle, delta maintenance, view-based answering.

The contract (docs/VIEWS.md): answering a query from a materialized view
is **bit-identical** to rescanning the base table — across execution
modes, storage modes, and under fault injection — and an incremental
view's delta-maintained state always equals a from-scratch REFRESH, no
matter how appends were batched. The satellite fixes ride along: the
plan cache invalidates per referenced table (an INSERT into A keeps
plans over B), and DROP TABLE refuses to orphan dependent views.
"""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.errors import (
    CatalogError,
    CompileError,
    DependentViewError,
    RuntimeTypeError,
)
from repro.faults import FaultPlan
from repro.types import Matrix, Vector, VectorType

DIM = 3

ROWS = [
    (i % 5, float(i) - 7.5, Vector([float(i + j * j) - 4.0 for j in range(DIM)]))
    for i in range(23)
]
EXTRA = [
    (i % 5, float(3 * i) + 0.25, Vector([float(i - j) + 1.5 for j in range(DIM)]))
    for i in range(9)
]

#: (CREATE MATERIALIZED VIEW body, equivalent SELECT) pairs — all in the
#: incrementally maintainable class (scalar aggregates, optional
#: parameter-free predicate, tensor aggregates included)
INCREMENTAL_CASES = [
    (
        "SELECT SUM(x) AS sx, COUNT(x) AS cx, AVG(x) AS ax, "
        "MIN(x) AS mnx, MAX(x) AS mxx FROM t",
        "SELECT SUM(x), COUNT(x), AVG(x), MIN(x), MAX(x) FROM t",
    ),
    (
        "SELECT SUM(outer_product(v, v)) AS g, COUNT(v) AS n FROM t",
        "SELECT SUM(outer_product(v, v)), COUNT(v) FROM t",
    ),
    (
        "SELECT SUM(x) AS s, COUNT(x) AS c FROM t WHERE k < 3",
        "SELECT SUM(x), COUNT(x) FROM t WHERE k < 3",
    ),
]


def _db(view_sql=None, rows=ROWS, **overrides):
    config = TEST_CLUSTER.with_updates(**overrides)
    db = Database(config)
    db.execute("CREATE TABLE t (k INTEGER, x DOUBLE, v VECTOR[])")
    db.load("t", rows)
    if view_sql is not None:
        db.execute(f"CREATE MATERIALIZED VIEW mv AS {view_sql}")
    return db


# -- SQL surface -------------------------------------------------------------


class TestSQLSurface:
    def test_create_select_refresh_drop(self):
        db = _db("SELECT SUM(x) AS sx FROM t")
        assert db.execute("SELECT * FROM mv").rows == [
            (sum(row[1] for row in ROWS),)
        ]
        db.execute("REFRESH MATERIALIZED VIEW mv")
        db.execute("DROP MATERIALIZED VIEW mv")
        assert db.catalog.materialized_view("mv") is None

    def test_full_mode_view_is_queryable_by_name(self):
        db = _db("SELECT k, COUNT(k) AS c FROM t GROUP BY k ORDER BY k")
        rows = db.execute("SELECT * FROM mv").rows
        assert rows == db.execute(
            "SELECT k, COUNT(k) FROM t GROUP BY k ORDER BY k"
        ).rows
        assert len(rows) == 5

    def test_drop_if_exists_tolerates_missing(self):
        db = _db()
        db.execute("DROP MATERIALIZED VIEW IF EXISTS nothing")
        with pytest.raises(CatalogError):
            db.execute("DROP MATERIALIZED VIEW nothing")

    def test_refresh_of_missing_view_fails(self):
        db = _db()
        with pytest.raises(CatalogError):
            db.execute("REFRESH MATERIALIZED VIEW nothing")

    def test_duplicate_name_rejected(self):
        db = _db("SELECT SUM(x) AS sx FROM t")
        with pytest.raises(CatalogError):
            db.execute("CREATE MATERIALIZED VIEW mv AS SELECT COUNT(x) AS c FROM t")

    def test_parameters_rejected_in_definition(self):
        db = _db()
        with pytest.raises(CompileError, match="parameters are not allowed"):
            db.execute(
                "CREATE MATERIALIZED VIEW p AS SELECT SUM(x) AS s FROM t "
                "WHERE k < :limit"
            )

    def test_explicit_column_names(self):
        db = _db()
        db.execute(
            "CREATE MATERIALIZED VIEW named (total, n) AS "
            "SELECT SUM(x), COUNT(x) FROM t"
        )
        result = db.execute("SELECT * FROM named")
        assert result.columns == ["total", "n"]


# -- the dependent-view guard (satellite) ------------------------------------


class TestDropTableGuard:
    def test_drop_base_table_names_dependents(self):
        db = _db("SELECT SUM(x) AS sx FROM t")
        with pytest.raises(DependentViewError) as exc:
            db.execute("DROP TABLE t")
        assert exc.value.table == "t"
        assert exc.value.views == ["mv"]
        assert "mv" in str(exc.value)
        # the table must still be intact and the view still servable
        assert db.execute("SELECT * FROM mv").rows
        db.execute("DROP MATERIALIZED VIEW mv")
        db.execute("DROP TABLE t")
        assert not db.catalog.has_relation("t")


# -- bit-identity battery ----------------------------------------------------


def _assert_view_answers_identically(query_pairs, appends=(), **overrides):
    """Rows from a database whose queries are answered by materialized
    views must equal — via exact (bitwise for tensors) equality — the
    rows of an identical database with no views at all."""
    with_views = _db(**overrides)
    plain = _db(**overrides)
    for i, (view_sql, _) in enumerate(query_pairs):
        with_views.execute(f"CREATE MATERIALIZED VIEW v{i} AS {view_sql}")
    for batch in appends:
        with_views.load("t", batch)
        plain.load("t", batch)
    for _, query in query_pairs:
        viewful = with_views.execute(query)
        baseline = plain.execute(query)
        assert viewful.metrics.view_hits >= 1, query
        assert baseline.metrics.view_hits == 0
        assert viewful.rows == baseline.rows, query


class TestBitIdentity:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    @pytest.mark.parametrize("storage", ["memory", "disk"])
    def test_across_modes(self, mode, storage):
        _assert_view_answers_identically(
            INCREMENTAL_CASES,
            appends=[EXTRA],
            execution_mode=mode,
            storage_mode=storage,
        )

    @pytest.mark.parametrize("refresh_mode", ["eager", "deferred"])
    def test_across_refresh_modes(self, refresh_mode):
        _assert_view_answers_identically(
            INCREMENTAL_CASES,
            appends=[EXTRA, EXTRA[:3]],
            view_refresh_mode=refresh_mode,
        )

    def test_under_faults(self):
        plan = FaultPlan(
            seed=11,
            slot_crash_rate=0.15,
            lost_partition_rate=0.1,
            transient_error_rate=0.1,
            straggler_rate=0.2,
        )
        _assert_view_answers_identically(
            INCREMENTAL_CASES,
            appends=[EXTRA],
            fault_plan=plan,
            storage_mode="disk",
        )

    def test_spec_subset_and_permutation(self):
        """A query may use any subset of the view's aggregates in any
        order — the ViewScan permutes the stored finished values."""
        db = _db("SELECT SUM(x) AS sx, COUNT(x) AS cx, MAX(x) AS mx FROM t")
        plain = _db()
        query = "SELECT MAX(x), SUM(x) FROM t"
        viewful = db.execute(query)
        assert viewful.metrics.view_hits == 1
        assert viewful.rows == plain.execute(query).rows


# -- randomized delta maintenance (the O(delta) path) ------------------------


def _wide_batches(rnd):
    """Append batches of ``(k, x, v, m)`` rows of full-width doubles:
    random mantissas over magnitudes 1e-8…1e8, so nearly every addition
    rounds and a fold that re-associates shows in the last bits (small
    exactly-representable values would hide it); some ``-0.0``, some
    NULLs; an empty, a one-row and two many-row batches in any order."""

    def wide():
        return rnd.choice((-0.0, 1.0, 1.0, -1.0, -1.0)) * (
            rnd.uniform(1.0, 10.0) * 10.0 ** rnd.randint(-8, 7)
        )

    def tensor(*shape):
        return np.array([wide() for _ in range(math.prod(shape))]).reshape(shape)

    def maybe(value):
        return None if rnd.random() < 0.1 else value

    return [
        [
            (rnd.randint(0, 6), maybe(wide()), maybe(tensor(DIM)), maybe(tensor(2, 2)))
            for _ in range(size)
        ]
        for size in rnd.sample((0, 1, 12, 17), 4)
    ]


wide_batches = st.randoms(use_true_random=False).map(_wide_batches)

#: every aggregate of the incremental class over every column form, with
#: and without a predicate
WIDE_SCHEMA = "CREATE TABLE t (k INTEGER, x DOUBLE, v VECTOR[], m MATRIX[][])"
WIDE_AGGREGATES = (
    "SUM(x), COUNT(x), AVG(x), MIN(x), MAX(x), "
    "SUM(v), AVG(v), MIN(v), MAX(v), SUM(m), AVG(m), MIN(m), MAX(m), "
    "SUM(outer_product(v, v)), SUM(v * x)"
)
WIDE_QUERIES = [
    f"SELECT {WIDE_AGGREGATES} FROM t",
    f"SELECT {WIDE_AGGREGATES} FROM t WHERE k < 4",
]


def _bits(rows):
    """Result rows as ``(type, bits)`` per value: ``==`` would call
    ``0.0`` and ``-0.0`` (or an int and a float) the same."""

    def bits(value):
        if isinstance(value, (Vector, Matrix)):
            return type(value), value.data.shape, value.data.tobytes()
        if isinstance(value, float):
            return float, struct.pack("<d", value)
        return type(value), value

    return [tuple(bits(value) for value in row) for row in rows]


class TestDeltaMaintenance:
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batches=wide_batches)
    def test_folded_state_equals_refresh_from_scratch(self, batches):
        """However appends are batched, the delta-maintained answer is
        bit-identical to (a) a rescan on a view-less database, (b) a
        view built after all the data arrived and (c) a REFRESH from
        scratch — in every mode combination, over values chosen so that
        the order of the additions shows. Fails against a fold that
        merges a delta's partial state into the stored one
        (``state + Σdelta``)."""

        def database(config, views_first):
            db = Database(config)
            db.execute(WIDE_SCHEMA)
            if views_first:
                create_views(db)
            for batch in batches:
                db.load("t", batch)
            return db

        def create_views(db):
            for i, query in enumerate(WIDE_QUERIES):
                db.execute(f"CREATE MATERIALIZED VIEW mv{i} AS {query}")

        for execution_mode, storage_mode, refresh_mode in itertools.product(
            ("row", "batch"), ("memory", "disk"), ("eager", "deferred")
        ):
            config = TEST_CLUSTER.with_updates(
                execution_mode=execution_mode,
                storage_mode=storage_mode,
                view_refresh_mode=refresh_mode,
                segment_rows=2,  # partitions seal mid-run
            )
            maintained = database(config, views_first=True)
            plain = database(config, views_first=False)
            rescans = [plain.execute(query) for query in WIDE_QUERIES]
            create_views(plain)  # built after all the data arrived
            for i, (query, rescan) in enumerate(zip(WIDE_QUERIES, rescans)):
                assert rescan.metrics.view_hits == 0
                expected = _bits(rescan.rows)
                for db in (maintained, plain):
                    answer = db.execute(query)
                    assert answer.metrics.view_hits == 1
                    assert _bits(answer.rows) == expected, (query, config)
                maintained.execute(f"REFRESH MATERIALIZED VIEW mv{i}")
                assert _bits(maintained.execute(query).rows) == expected

    def test_maintenance_is_o_delta(self):
        """Every appended row is folded exactly once, ever — the per-slot
        consumed cursors never rescan the prefix."""
        db = _db("SELECT SUM(x) AS sx FROM t")
        view = db.catalog.materialized_view("mv")
        assert view.delta_rows == 0  # the initial build is not maintenance
        db.load("t", EXTRA)
        db.load("t", EXTRA)
        db.execute("SELECT SUM(x) FROM t")
        assert view.delta_rows == 2 * len(EXTRA)

    def test_disk_fold_reads_only_the_unconsumed_suffix(self, monkeypatch):
        """In disk mode a view read with nothing new to fold decodes no
        segment file, and a small append decodes none of the segments
        sealed before it — the fold asks the table for the suffix from
        its consumed-row cursor instead of the whole partition."""
        from repro.storage import disk

        query = "SELECT SUM(x), COUNT(x) FROM t"
        db = _db(
            "SELECT SUM(x) AS sx, COUNT(x) AS cx FROM t",
            storage_mode="disk",
            segment_rows=2,
        )
        storage = db.catalog.table("t").storage
        sealed_before = {
            segment.path for slot in storage._sealed for segment in slot
        }
        assert len(sealed_before) >= 2
        decoded = []
        real_read = disk.read_segment_file

        def counting_read(path):
            decoded.append(path)
            return real_read(path)

        monkeypatch.setattr(disk, "read_segment_file", counting_read)
        current = db.execute(query)
        assert current.metrics.view_hits == 1
        assert decoded == []
        db.load("t", EXTRA[:1])
        appended = db.execute(query)
        assert appended.metrics.view_hits == 1
        assert sealed_before.isdisjoint(decoded)
        monkeypatch.undo()
        rescanned = _db(rows=ROWS + EXTRA[:1], storage_mode="disk", segment_rows=2)
        assert appended.rows == rescanned.execute(query).rows

    def test_empty_table_view_answers_the_empty_aggregate(self):
        db = _db(rows=[])
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT SUM(x) AS s, COUNT(x) AS c FROM t")
        plain = _db(rows=[])
        query = "SELECT SUM(x), COUNT(x) FROM t"
        viewful = db.execute(query)
        assert viewful.metrics.view_hits == 1
        assert viewful.rows == plain.execute(query).rows


# -- a fold that raises, and states carried across column forms ---------------

#: length-4 vectors for a column that so far holds length-3 ones
LONGER = [(2, 1234.0, Vector([1.0, 2.0, 3.0, 4.0]))] * 8


class TestRaisingFold:
    """Maintenance that raises changes nothing about the write: it
    completes and is logged exactly as it would with no view, and the
    error surfaces at the read that uses the view — the error a rescan
    of that data raises."""

    @pytest.mark.parametrize("storage", ["memory", "disk"])
    @pytest.mark.parametrize(
        "view_sql",
        ["SELECT SUM(v) AS s FROM t", "SELECT k, SUM(v) AS s FROM t GROUP BY k"],
        ids=["incremental", "full"],
    )
    def test_write_completes_and_the_read_raises(self, storage, view_sql, tmp_path):
        durable = TEST_CLUSTER.with_updates(
            storage_mode=storage, durability_mode="wal", data_dir=str(tmp_path)
        )
        db = Database.open(durable)
        plain = Database(TEST_CLUSTER.with_updates(storage_mode=storage))
        for database in (db, plain):
            database.execute("CREATE TABLE t (k INTEGER, x DOUBLE, v VECTOR[])")
            database.load("t", ROWS)
        db.execute(f"CREATE MATERIALIZED VIEW mv AS {view_sql}")
        for database in (db, plain):
            assert database.load("t", LONGER) == len(LONGER)
            database.load("t", EXTRA)  # later writes are not poisoned either
        query = view_sql.replace(" AS s", "")
        counts = "SELECT COUNT(k), SUM(x) FROM t"
        live = db.execute(counts).rows
        assert live == plain.execute(counts).rows
        for database in (db, plain):
            with pytest.raises(RuntimeTypeError):
                database.execute(query)
        # live ≡ recovered, by WAL replay and then from a checkpoint
        db.close()
        for checkpoint in (True, False):
            recovered = Database.open(durable)
            assert recovered.execute(counts).rows == live
            with pytest.raises(RuntimeTypeError):
                recovered.execute(query)
            if checkpoint:
                recovered.checkpoint()
                recovered.close()
        # removing the offending rows heals the view
        for database in (recovered, plain):
            database.execute("DELETE FROM t WHERE x = 1234.0")
        healed = recovered.execute(query)
        assert healed.metrics.view_hits == (1 if "GROUP" not in view_sql else 0)
        assert _bits(sorted(healed.rows)) == _bits(sorted(plain.execute(query).rows))


class TestCarriedState:
    """A stored state continues through whichever kernel the next
    delta's column form selects."""

    QUERY = "SELECT SUM(v), SUM(outer_product(v, v)), COUNT(v) FROM t WHERE k < 4"

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_block_object_block_and_null_only_deltas(self, mode):
        def vec(i):
            return Vector([0.1 * i, 1e8 / (i + 1), -1e-8 * i])

        uniform = [(i % 4, 1.0, vec(i)) for i in range(11)]
        appends = [
            uniform,  # one block per slot
            # object columns: a ragged cell (the predicate drops it) and
            # a labelled one
            uniform[:5] + [(9, 1.0, Vector([1.0, 2.0]))] * 2
            + [(1, 1.0, Vector([1.0, 2.0, 3.0], label=3))] * 3,
            # a block whose only cells left by the predicate are NULL
            [(1, 1.0, None)] * 4 + [(9, 1.0, vec(2))] * 4,
            [(1, 1.0, None)] * 5,  # NULL-only
            uniform[3:],  # blocks again
        ]
        view_sql = (
            "SELECT SUM(v) AS s, SUM(outer_product(v, v)) AS g, COUNT(v) AS n "
            "FROM t WHERE k < 4"
        )
        db = _db(view_sql, rows=[], execution_mode=mode)
        plain = _db(rows=[], execution_mode=mode)
        for batch in appends:
            db.load("t", batch)
            plain.load("t", batch)
            answer = db.execute(self.QUERY)
            assert answer.metrics.view_hits == 1
            assert _bits(answer.rows) == _bits(plain.execute(self.QUERY).rows)

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_fused_sum_steps_span_appends(self, mode):
        """A Gram view's open step carries across appends of every size
        against the 128-row steps — one row, a step less one, a step and
        one, several steps — so each fold cuts the steps a rescan of the
        slot cuts, and the answer is the rescan's to the bit."""
        from repro.engine.aggregation import STEP_ROWS

        rng = np.random.default_rng(5)
        query = "SELECT SUM(outer_product(v, v)), SUM(outer_product(v, v * x)) FROM t"
        db = _db(
            "SELECT SUM(outer_product(v, v)) AS g, "
            "SUM(outer_product(v, v * x)) AS h FROM t",
            rows=[],
            execution_mode=mode,
        )
        plain = _db(rows=[], execution_mode=mode)
        for per_slot in (1, STEP_ROWS - 1, 1, STEP_ROWS + 1, 3 * STEP_ROWS, 7):
            count = per_slot * TEST_CLUSTER.slots
            wide = rng.normal(size=(count, 4)) * 10.0 ** rng.integers(-6, 6, (count, 4))
            batch = [(i, x, Vector(v)) for i, (x, *v) in enumerate(wide.tolist())]
            db.load("t", batch)
            plain.load("t", batch)
            answer = db.execute(query)
            assert answer.metrics.view_hits == 1
            assert _bits(answer.rows) == _bits(plain.execute(query).rows), per_slot

    SCALARS = "SUM(x), AVG(x), MIN(x), MAX(x), COUNT(x), SUM(k), AVG(k), MIN(k)"

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_typed_null_bearing_typed_scalar_deltas(self, mode):
        """Scalar states through the typed kernels (``np.add.at`` from
        the carried value, first-attaining MIN/MAX), then the ``add``
        chain of a NULL-bearing delta, then the kernels again: view ≡
        REFRESH ≡ rescan by bits, ``-0.0`` sums and an int SUM that
        leaves int64 included."""
        rng = np.random.default_rng(3)
        wide = (rng.normal(size=30) * 10.0 ** rng.integers(-8, 8, size=30)).tolist()
        appends = [
            [(0, -0.0, None)] * 5,  # a -0.0 total, typed
            [(i, x, None) for i, x in enumerate(wide[:13])],  # typed
            [(1, None, None), (None, 2.5, None), (3, wide[13], None)] * 2,
            [(2**62, x, None) for x in wide[14:]],  # typed; SUM(k) > int64
            [(None, None, None)] * 4,  # NULL-only
            [(5, 0.0, None), (6, -0.0, None)] * 3,  # MIN/MAX ties on ±0.0
        ]
        query = f"SELECT {self.SCALARS} FROM t"
        named = ", ".join(
            f"{item} AS a{i}" for i, item in enumerate(self.SCALARS.split(", "))
        )
        db = _db(f"SELECT {named} FROM t", rows=[], execution_mode=mode)
        plain = _db(rows=[], execution_mode=mode)
        for batch in appends:
            db.load("t", batch)
            plain.load("t", batch)
            answer = db.execute(query)
            assert answer.metrics.view_hits == 1
            assert _bits(answer.rows) == _bits(plain.execute(query).rows)
        db.execute("REFRESH MATERIALIZED VIEW mv")
        assert _bits(db.execute(query).rows) == _bits(plain.execute(query).rows)

    def test_state_of_another_cell_shape_is_a_structured_error(self):
        """Not numpy's ValueError from stacking the state onto the
        block or its open rows onto the operands — and never a silent
        broadcast of a smaller state."""
        from repro.engine.aggregation import STEP_ROWS, OpenSum, advance
        from repro.la.aggregates import sum_block
        from repro.la.functions import lookup
        from repro.plan.expressions import ColumnVar, FuncExpr

        with pytest.raises(RuntimeTypeError):
            sum_block(np.ones((2, 4)), np.ones(3))
        v = ColumnVar(0, VectorType(None), "v")
        gram = FuncExpr(lookup("outer_product"), [v, v])
        for dim in (3, 1):
            # open rows only, a total only, and both
            for count in (STEP_ROWS - 1, STEP_ROWS, STEP_ROWS + 1):
                state = advance(gram, [np.ones((count, dim))])
                for more in (2, STEP_ROWS):  # no step completes / one does
                    with pytest.raises(RuntimeTypeError):
                        advance(gram, [np.ones((more, 4))], state)
            # a total of another shape than its open rows' products
            state = OpenSum(gram, np.ones((dim, dim)), (np.ones((2, 4)),))
            with pytest.raises(RuntimeTypeError):
                state.finish()
            with pytest.raises(RuntimeTypeError):
                advance(gram, [np.ones((STEP_ROWS, 4))], state)
        # end to end: a deferred view folds at the read, which raises it
        db = _db(
            "SELECT SUM(v) AS s, SUM(outer_product(v, v)) AS g FROM t",
            view_refresh_mode="deferred",
        )
        db.load("t", LONGER)
        for query in ("SELECT SUM(v) FROM t", "SELECT SUM(outer_product(v, v)) FROM t"):
            with pytest.raises(RuntimeTypeError):
                db.execute(query)


# -- refresh-mode semantics --------------------------------------------------


class TestLabelAggregates:
    """A view over the label aggregates keeps per-slot label dicts that
    its folds write into; each answer merges them into a fresh dict, so
    an answer leaves the stored states as they were and the next fold
    and answer see them unchanged."""

    QUERY = (
        "SELECT VECTORIZE(label_scalar(x, k + 1)), ROWMATRIX(label_vector(v, k + 1)), "
        "COLMATRIX(label_vector(v, k + 1)), AVG(x) FROM t"
    )

    @pytest.mark.parametrize("refresh_mode", ["eager", "deferred"])
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_answers_equal_a_rescan_across_appends(self, mode, refresh_mode):
        from repro.sql import parse_statement

        view_sql = (
            "SELECT VECTORIZE(label_scalar(x, k + 1)) AS vx, "
            "ROWMATRIX(label_vector(v, k + 1)) AS rm, "
            "COLMATRIX(label_vector(v, k + 1)) AS cm, AVG(x) AS ax FROM t"
        )
        db, unread = (
            _db(view_sql, rows=[], execution_mode=mode, view_refresh_mode=refresh_mode)
            for _ in range(2)
        )
        # labels k + 1 in 1..5 repeat across slots and across appends: a
        # later row's label overwrites an earlier one's cell
        appends = [ROWS[:7], EXTRA, ROWS[7:], EXTRA[::-1]]

        def stored(database):  # the view's per-slot states
            view = database.catalog.materialized_view("mv")
            return [states for states in view._slot_states if states is not None]

        for step, batch in enumerate(appends):
            db.load("t", batch)
            unread.load("t", batch)
            rescan = db._run_select(parse_statement(self.QUERY), None, use_views=False)
            assert rescan.metrics.view_hits == 0
            for _ in range(2):  # an answer must not disturb the next one
                answer = db.execute(self.QUERY)
                assert answer.metrics.view_hits == 1, step
                assert _bits(answer.rows) == _bits(rescan.rows), (step, mode)
            # the answers wrote into no stored state: the states equal
            # those of a view never read, rebuilt from scratch
            unread.execute("REFRESH MATERIALIZED VIEW mv")
            assert stored(db) == stored(unread), step


class TestRefreshModes:
    def test_eager_maintains_inside_the_write(self):
        db = _db("SELECT SUM(x) AS sx FROM t", view_refresh_mode="eager")
        result = db.execute("INSERT INTO t VALUES (1, 2.5, NULL)")
        assert result.metrics.view_maintenance == 1
        assert result.metrics.view_delta_rows == 1
        view = db.catalog.materialized_view("mv")
        assert view.delta_rows == 1

    def test_deferred_folds_at_the_next_read(self):
        db = _db("SELECT SUM(x) AS sx FROM t", view_refresh_mode="deferred")
        view = db.catalog.materialized_view("mv")
        result = db.execute("INSERT INTO t VALUES (1, 2.5, NULL)")
        assert result.metrics.view_maintenance == 0
        assert view.delta_rows == 0  # nothing folded at write time
        answer = db.execute("SELECT SUM(x) FROM t")
        assert answer.metrics.view_hits == 1
        assert view.delta_rows == 1  # the read caught up

    def test_deferred_full_view_goes_stale_until_refresh(self):
        db = _db(
            "SELECT k, SUM(x) AS s FROM t GROUP BY k ORDER BY k",
            view_refresh_mode="deferred",
        )
        query = "SELECT k, SUM(x) AS s FROM t GROUP BY k ORDER BY k"
        assert db.execute(query).metrics.view_hits == 1
        db.execute("INSERT INTO t VALUES (0, 100.0, NULL)")
        view = db.catalog.materialized_view("mv")
        assert view.stale and not view.fresh
        # a stale view must not answer queries (results would be wrong)
        fresh_result = db.execute(query)
        assert fresh_result.metrics.view_hits == 0
        assert fresh_result.rows[0][1] == pytest.approx(
            sum(row[1] for row in ROWS if row[0] == 0) + 100.0
        )
        db.execute("REFRESH MATERIALIZED VIEW mv")
        assert db.execute(query).metrics.view_hits == 1

    def test_eager_full_view_recomputes_on_write(self):
        db = _db(
            "SELECT k, SUM(x) AS s FROM t GROUP BY k ORDER BY k",
            view_refresh_mode="eager",
        )
        result = db.execute("INSERT INTO t VALUES (0, 100.0, NULL)")
        assert result.metrics.view_refreshes == 1
        answer = db.execute("SELECT k, SUM(x) AS s FROM t GROUP BY k ORDER BY k")
        assert answer.metrics.view_hits == 1

    def test_delete_refolds_incremental_views(self):
        db = _db("SELECT SUM(x) AS sx, COUNT(x) AS cx FROM t")
        plain = _db()
        db.execute("DELETE FROM t WHERE k = 2")
        plain.execute("DELETE FROM t WHERE k = 2")
        query = "SELECT SUM(x), COUNT(x) FROM t"
        viewful = db.execute(query)
        assert viewful.metrics.view_hits == 1
        assert viewful.rows == plain.execute(query).rows


# -- the optimizer integration ----------------------------------------------


class TestPlanIntegration:
    def test_trace_shows_viewscan_and_no_base_scan(self):
        db = _db("SELECT SUM(x) AS sx FROM t")
        text = db.explain("SELECT SUM(x) FROM t")
        assert "ViewScan mv" in text
        assert "Scan t" not in text
        analyzed = db.explain_analyze("SELECT SUM(x) FROM t")
        assert "ViewScan mv" in analyzed
        assert "Scan t" not in analyzed

    def test_unmatched_query_still_scans(self):
        db = _db("SELECT SUM(x) AS sx FROM t")
        text = db.explain("SELECT SUM(x) FROM t WHERE k = 1")
        assert "Scan t" in text
        result = db.execute("SELECT SUM(x) FROM t WHERE k = 1")
        assert result.metrics.view_hits == 0
        assert result.metrics.view_misses >= 1

    def test_metrics_report_mentions_views(self):
        db = _db("SELECT SUM(x) AS sx FROM t")
        result = db.execute("SELECT SUM(x) FROM t")
        assert "VIEWS" in result.metrics.report()

    def test_whole_statement_match_for_full_views(self):
        db = _db("SELECT k, COUNT(k) AS c FROM t GROUP BY k ORDER BY k")
        plain = _db()
        query = "SELECT k, COUNT(k) AS c FROM t GROUP BY k ORDER BY k"
        viewful = db.execute(query)
        assert viewful.metrics.view_hits == 1
        assert viewful.rows == plain.execute(query).rows

    def test_registry_stats_surface(self):
        db = _db("SELECT SUM(x) AS sx FROM t")
        db.execute("SELECT SUM(x) FROM t")
        stats = db.views.stats()
        assert stats["count"] == 1
        assert stats["hits"] == 1
        assert stats["views"]["mv"]["mode"] == "incremental"


# -- plan-cache selective invalidation (satellite) ---------------------------


class TestPlanCacheInvalidation:
    def _service(self):
        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE a (x DOUBLE)")
        db.execute("CREATE TABLE b (y DOUBLE)")
        db.load("a", [(float(i),) for i in range(8)])
        db.load("b", [(float(i),) for i in range(8)])
        return db, db.service()

    def test_insert_into_a_keeps_plans_over_b(self):
        db, service = self._service()
        session = service.session()
        sql = "SELECT COUNT(y) FROM b"
        for _ in range(3):  # compile, learn-and-recompile, converge
            session.execute(sql)
        hits = service.plan_cache.hits
        session.execute(sql)
        assert service.plan_cache.hits == hits + 1
        session.execute("INSERT INTO a VALUES (99.0)")
        # the fix: data changes in table a do not evict plans over b
        session.execute(sql)
        assert service.plan_cache.hits == hits + 2
        session.close()

    def test_insert_into_b_invalidates_plans_over_b(self):
        """The plan over b read b's row count for its estimates only: the
        INSERT re-prices it, and the hit carries the new count."""
        db, service = self._service()
        session = service.session()
        sql = "SELECT COUNT(y) FROM b"
        for _ in range(3):
            session.execute(sql)
        repriced = service.plan_cache.repriced
        session.execute("INSERT INTO b VALUES (99.0)")
        result = session.execute(sql)
        assert result.scalar() == 9
        assert service.plan_cache.repriced == repriced + 1
        scan = next(n for n in result.metrics.trace.walk() if n.name == "Scan b")
        assert scan.est_rows == 9.0
        session.close()

    def test_ddl_invalidates_only_plans_that_read_the_relation(self):
        db, service = self._service()
        session = service.session()
        sql = "SELECT COUNT(y) FROM b"
        for _ in range(3):
            session.execute(sql)
        hits = service.plan_cache.hits
        session.execute(sql)
        assert service.plan_cache.hits == hits + 1
        stamp = db.catalog.stamp("b")
        db.execute("CREATE TABLE c (z DOUBLE)")
        assert db.catalog.stamp("b") == stamp < db.catalog.stamp("c")
        session.execute(sql)  # b was not touched: still a hit
        assert service.plan_cache.hits == hits + 2
        # a materialized view over b is something plans over b could
        # answer from: creating it stamps b
        db.execute("CREATE MATERIALIZED VIEW mb AS SELECT COUNT(y) AS n FROM b")
        assert db.catalog.stamp("b") > stamp
        result = session.execute(sql)
        assert service.plan_cache.hits == hits + 2
        assert result.metrics.compile_seconds > 0.0
        assert result.metrics.view_hits == 1
        session.close()

    def test_service_stats_expose_views(self):
        db, service = self._service()
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT SUM(x) AS s FROM a")
        stats = service.stats()
        assert stats["views"]["count"] == 1


# -- durability --------------------------------------------------------------


class TestPersistence:
    def test_views_survive_save_restore(self, tmp_path):
        db = _db("SELECT SUM(x) AS sx, COUNT(x) AS cx FROM t")
        db.execute(
            "CREATE MATERIALIZED VIEW grp AS "
            "SELECT k, SUM(x) AS s FROM t GROUP BY k ORDER BY k"
        )
        expected = db.execute("SELECT SUM(x), COUNT(x) FROM t").rows
        expected_grp = db.execute("SELECT * FROM grp").rows
        path = str(tmp_path / "snap.db")
        db.save(path)
        restored = Database.restore(path)
        assert [v.name for v in restored.catalog.materialized_views()] == [
            "mv",
            "grp",
        ]
        result = restored.execute("SELECT SUM(x), COUNT(x) FROM t")
        assert result.metrics.view_hits == 1
        assert result.rows == expected
        assert restored.execute("SELECT * FROM grp").rows == expected_grp

    def test_stale_deferred_view_stays_stale_across_restore(self, tmp_path):
        db = _db(
            "SELECT k, SUM(x) AS s FROM t GROUP BY k ORDER BY k",
            view_refresh_mode="deferred",
        )
        old_rows = db.execute("SELECT * FROM mv").rows
        db.execute("INSERT INTO t VALUES (0, 1000.0, NULL)")
        path = str(tmp_path / "snap.db")
        db.save(path)
        restored = Database.restore(path)
        view = restored.catalog.materialized_view("mv")
        assert view.stale
        # the stored (old) rows came back verbatim, and queries bypass it
        assert restored.execute("SELECT * FROM mv").rows == old_rows
        query = "SELECT k, SUM(x) FROM t GROUP BY k ORDER BY k"
        assert restored.execute(query).metrics.view_hits == 0

    def test_views_survive_wal_replay(self, tmp_path):
        home = str(tmp_path / "dur")
        config = TEST_CLUSTER.with_updates(
            durability_mode="wal", data_dir=home
        )
        db = Database.open(config)
        db.execute("CREATE TABLE t (k INTEGER, x DOUBLE)")
        db.load("t", [(i % 3, float(i)) for i in range(12)])
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT SUM(x) AS s FROM t")
        db.execute("INSERT INTO t VALUES (0, 50.0)")
        expected = db.execute("SELECT SUM(x) FROM t").rows
        recovered = Database.restore(home)
        result = recovered.execute("SELECT SUM(x) FROM t")
        assert result.metrics.view_hits == 1
        assert result.rows == expected
