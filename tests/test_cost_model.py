"""Tests for cardinality/selectivity estimation and the size-aware cost
model (paper section 4)."""

import inspect
import re

import numpy as np
import pytest

from repro import Database, PAPER_CLUSTER, TEST_CLUSTER
from repro.plan import Binder, CostModel
from repro.plan.logical import JoinNode, ScanNode
from repro.plan.physical import PExchange, PHashJoin
from repro.sql import parse_statement
from repro.types import MatrixType


@pytest.fixture
def db():
    database = Database(TEST_CLUSTER)
    database.execute("CREATE TABLE a (id INTEGER, v DOUBLE)")
    database.execute("CREATE TABLE b (id INTEGER, w DOUBLE)")
    database.execute("CREATE TABLE wide (id INTEGER, m MATRIX[100][1000])")
    database.load("a", [[i % 50, float(i)] for i in range(100)])
    database.load("b", [[i, float(i)] for i in range(20)])
    database.catalog.table("wide").stats.row_count = 10
    return database


def bound(db, sql):
    return Binder(db.catalog).bind_select(parse_statement(sql))


def model(db, blind=False):
    return CostModel(db.config, size_blind=blind)


class TestCardinality:
    def test_scan_rows_from_stats(self, db):
        plan = bound(db, "SELECT id FROM a")
        scan = plan.children()[0]
        assert isinstance(scan, ScanNode)
        assert model(db).estimate(scan).rows == 100

    def test_equality_filter_uses_distinct(self, db):
        plan = bound(db, "SELECT id FROM a WHERE id = 7")
        filt = plan.children()[0]
        estimate = model(db).estimate(filt)
        # 100 rows / 50 distinct ids = 2
        assert estimate.rows == pytest.approx(2.0)

    def test_range_filter_selectivity(self, db):
        plan = bound(db, "SELECT id FROM a WHERE v > 10")
        filt = plan.children()[0]
        assert model(db).estimate(filt).rows == pytest.approx(100 / 3.0)

    def test_conjunction_multiplies(self, db):
        plan = bound(db, "SELECT id FROM a WHERE id = 7 AND v > 10")
        filt = plan.children()[0]
        # 100 * (1/50) * (1/3) = 0.67, clamped to the 1-row floor
        assert model(db).estimate(filt).rows == pytest.approx(1.0)

    def test_join_cardinality_via_distinct(self, db):
        plan = bound(db, "SELECT a.v FROM a, b WHERE a.id = b.id")
        # the canonical bound plan is Project(Filter(Join))
        filt = plan.children()[0]
        estimate = model(db).estimate(filt)
        # 100 * 20 / max(50, 20) = 40
        assert estimate.rows == pytest.approx(40.0)

    def test_group_count_capped_by_input(self, db):
        plan = bound(db, "SELECT id, COUNT(*) FROM b GROUP BY id")
        agg = plan.children()[0]
        assert model(db).estimate(agg).rows <= 20

    def test_scalar_aggregate_one_row(self, db):
        plan = bound(db, "SELECT SUM(v) FROM a")
        agg = plan.children()[0]
        assert model(db).estimate(agg).rows == 1


class TestWidths:
    def test_tensor_width_dominates(self, db):
        narrow = bound(db, "SELECT id FROM a")
        wide = bound(db, "SELECT m FROM wide")
        cost_model = model(db)
        assert cost_model.estimate(wide).width_bytes > 1000 * cost_model.estimate(
            narrow
        ).width_bytes

    def test_size_blind_sees_8_bytes(self, db):
        wide = bound(db, "SELECT m FROM wide")
        blind = model(db, blind=True)
        assert blind.estimate(wide).width_bytes < 100
        assert blind.type_width(MatrixType(1000, 1000)) == 8.0

    def test_inferred_output_width(self, db):
        # matrix_multiply(MATRIX[100][1000], trans) -> MATRIX[100][100]
        plan = bound(
            db, "SELECT matrix_multiply(m, trans_matrix(m)) FROM wide"
        )
        estimate = model(db).estimate(plan)
        assert estimate.width_bytes == pytest.approx(16 + 8 * 100 * 100 + 8)


class TestPlanCost:
    def test_cost_positive_and_monotone_in_rows(self, db):
        small = model(db).plan_cost(bound(db, "SELECT id FROM b"))
        large = model(db).plan_cost(bound(db, "SELECT id FROM a"))
        assert 0 < small < large

    def test_filter_adds_cost(self, db):
        base = model(db).plan_cost(bound(db, "SELECT id FROM a"))
        filtered = model(db).plan_cost(bound(db, "SELECT id FROM a WHERE v > 1"))
        assert filtered > base

    def test_wide_join_costs_more_than_narrow(self, db):
        narrow = model(db).plan_cost(
            bound(db, "SELECT a.id FROM a, b WHERE a.id = b.id")
        )
        wide = model(db).plan_cost(
            bound(db, "SELECT wide.id FROM wide, b WHERE wide.id = b.id")
        )
        assert wide > narrow

    def test_selectivity_bounds(self, db):
        cost_model = model(db)
        plan = bound(db, "SELECT id FROM a WHERE id = 1 OR v > 2 OR v < -2")
        filt = plan.children()[0]
        child = cost_model.estimate(filt.child)
        sel = cost_model.selectivity(filt.predicate, child)
        assert 0.0 <= sel <= 1.0


def _walk_logical(node):
    yield node
    for child in node.children():
        yield from _walk_logical(child)


class TestEstimatorInvariants:
    """Regression guards for the estimator bugfix sweep: distinct counts
    never exceed estimated rows, OR uses inclusion-exclusion, and
    DISTINCT consults the statistics."""

    INVARIANT_QUERIES = [
        "SELECT a.v FROM a, b WHERE a.id = b.id",
        "SELECT a.v FROM a, b WHERE a.id = b.id AND a.v > 5",
        "SELECT DISTINCT id FROM a",
        "SELECT a.id, COUNT(*) FROM a, b WHERE a.id = b.id GROUP BY a.id",
        "SELECT id FROM a WHERE id = 1 OR v > 2",
        "SELECT a.id AS aid FROM a, b WHERE a.id = b.id ORDER BY aid LIMIT 3",
    ]

    @pytest.mark.parametrize("sql", INVARIANT_QUERIES)
    def test_distinct_never_exceeds_rows(self, db, sql):
        cost_model = model(db)
        for node in _walk_logical(bound(db, sql)):
            estimate = cost_model.estimate(node)
            for value in estimate.distinct.values():
                assert value <= estimate.rows + 1e-9

    def test_join_distinct_clamped_to_output(self, db):
        # a.id has 50 distinct over 100 rows; joining b (20 rows) emits
        # ~40 rows, so the merged 50 must be clamped down
        plan = bound(db, "SELECT a.v FROM a, b WHERE a.id = b.id")
        filt = plan.children()[0]
        estimate = model(db).estimate(filt)
        assert estimate.rows == pytest.approx(40.0)
        assert all(value <= estimate.rows for value in estimate.distinct.values())

    def test_or_uses_inclusion_exclusion(self, db):
        cost_model = model(db)
        plan = bound(db, "SELECT id FROM a WHERE v > 10 OR v < 90")
        filt = plan.children()[0]
        child = cost_model.estimate(filt.child)
        sel = cost_model.selectivity(filt.predicate, child)
        # 1/3 + 1/3 - 1/9, not min(2/3, 1)
        assert sel == pytest.approx(1.0 / 3.0 + 1.0 / 3.0 - 1.0 / 9.0)

    def test_distinct_node_uses_column_stats(self, db):
        # id has 50 distinct values over 100 rows: the estimate must be
        # the statistic, not the old flat rows * 0.9 guess
        plan = bound(db, "SELECT DISTINCT id FROM a")
        estimate = model(db).estimate(plan)
        assert estimate.rows == pytest.approx(50.0)


class TestPhysicalEstimates:
    """CostModel.price_physical backs the EXPLAIN ANALYZE estimate
    columns; it must cover every physical node and keep the same
    invariants as the logical estimator."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM a WHERE v > 10",
            "SELECT a.v FROM a, b WHERE a.id = b.id",
            "SELECT id, COUNT(*) FROM a GROUP BY id",
            "SELECT DISTINCT id FROM a",
            "SELECT id, v FROM a ORDER BY v LIMIT 5",
        ],
    )
    def test_every_physical_node_estimated(self, db, sql):
        from repro.plan import PhysicalPlanner

        cost_model = model(db)
        physical = PhysicalPlanner(cost_model).plan(bound(db, sql))

        def check(node):
            estimate = cost_model.price_physical(node)
            assert estimate.rows == node.est_rows >= 1.0
            assert estimate.width_bytes == node.est_width_bytes > 0.0
            assert node.est_seconds >= 0.0
            for value in estimate.distinct.values():
                assert value <= estimate.rows + 1e-9
            for child in node.children():
                check(child)

        check(physical)

    def test_scan_estimate_matches_logical(self, db):
        from repro.plan import PhysicalPlanner
        from repro.plan.physical import PScan

        cost_model = model(db)
        physical = PhysicalPlanner(cost_model).plan(bound(db, "SELECT id FROM a"))
        node = physical
        while not isinstance(node, PScan):
            node = node.children()[0]
        assert cost_model.price_physical(node).rows == node.est_rows == 100


class TestOneFormulaSet:
    """The cost model prices an operator through the OperatorRun charges
    its handler makes, on the busiest slot: with exact row estimates and
    rows spread evenly, estimated seconds are the charged seconds, bit
    for bit."""

    #: statement -> the operators (name prefixes) whose inputs it
    #: estimates exactly
    CHECKED = {
        "SELECT id FROM t WHERE v > 10": ("Scan t", "Filter"),
        "SELECT id, v * 2.0 FROM t": ("Scan t", "Project"),
        "SELECT id, v FROM t ORDER BY v": ("Exchange gather", "Sort(final)"),
        "SELECT t.id, s.w FROM t, s WHERE t.id = s.id": ("Exchange broadcast",),
    }

    @pytest.mark.parametrize("cluster", [TEST_CLUSTER, PAPER_CLUSTER], ids=["4", "80"])
    def test_estimated_seconds_are_the_charged_seconds(self, cluster):
        config = cluster.with_updates(balanced_placement=True)
        database = Database(config)
        database.execute("CREATE TABLE t (id INTEGER, v DOUBLE)")
        database.execute("CREATE TABLE s (id INTEGER, w DOUBLE)")
        database.load("t", [[i, float(i)] for i in range(32 * config.slots)])
        database.load("s", [[i, float(i)] for i in range(config.slots)])
        seen = set()
        for sql, checked in self.CHECKED.items():
            for node in database.execute(sql).metrics.trace.walk():
                name = next((n for n in checked if node.name.startswith(n)), None)
                if name is not None:
                    seen.add(name)
                    estimated, charged = node.est_seconds, node.wall_seconds
                    assert estimated.hex() == charged.hex(), (sql, node.name)
        assert seen == {name for names in self.CHECKED.values() for name in names}

    def test_rates_are_read_in_one_module(self):
        """Only engine/cluster.py turns work into seconds: the paper-scale
        figures are priced by this same cost model (``bench.simsql.price``),
        so no other module reads a rate either."""
        from repro.engine import executor
        from repro.plan import cost

        rates = re.compile(
            r"\b(tuple_cpu_s|flop_rate|blas1_rate|stream_rate|disk_rate|"
            r"network_rate)(_per_slot)?\b"
        )
        for module in (cost, executor):
            assert rates.findall(inspect.getsource(module)) == [], module.__name__


class TestJoinLayout:
    """One rule picks a join's build side and strategy
    (``CostModel.join_layout``): the DP prices the join the physical
    planner builds."""

    def test_tied_inputs_price_the_join_that_is_built(self):
        database = Database(TEST_CLUSTER)
        database.execute("CREATE TABLE r (k INTEGER)")
        database.execute("CREATE TABLE s (k INTEGER, x DOUBLE, y DOUBLE)")
        # 40 rows of 24 bytes against 24 rows of 40 bytes: the inputs tie
        # on estimated bytes and differ in rows
        database.load("r", [[i % 8] for i in range(40)])
        database.load("s", [[i % 8, float(i), 0.0] for i in range(24)])
        estimates = database.cost_model.planning_pass()
        statement = parse_statement("SELECT * FROM r, s WHERE r.k = s.k")
        plan = database._compile(statement, None, estimates=estimates)

        def walk(node):
            yield node
            for child in node.children():
                yield from walk(child)

        join = next(node for node in walk(plan.logical) if isinstance(node, JoinNode))
        left, right = estimates.estimate(join.left), estimates.estimate(join.right)
        assert left.total_bytes == right.total_bytes and left.rows != right.rows
        priced = database.cost_model._join_seconds(
            join, left, right, estimates.estimate(join)
        )
        built = next(node for node in walk(plan.physical) if isinstance(node, PHashJoin))
        moved = sum(
            child.est_seconds
            for child in built.children()
            if isinstance(child, PExchange)
        )
        assert priced == moved + built.est_seconds


def _trace(database, sql):
    trace = database.execute(sql).metrics.trace
    return {node.name.split(" ")[0]: node for node in trace.walk()}


class TestPaperScaleRules:
    """The rules that let the paper's figures be priced from plans over
    statistics alone (``bench.simsql.price``); each one also prices every
    real plan."""

    def test_an_integer_division_key_has_its_quotients(self):
        """``x.id / 8 = ind.mi`` (the blocking join): ⌈distinct(id) / 8⌉
        distinct keys, so the join keeps every point, as it does."""
        database = Database(TEST_CLUSTER)
        database.execute("CREATE TABLE x (id INTEGER, v DOUBLE)")
        database.execute("CREATE TABLE ind (mi INTEGER)")
        database.load("x", [[i, float(i)] for i in range(64)])
        database.load("ind", [[b] for b in range(8)])
        sql = "SELECT x.v, ind.mi FROM x, ind WHERE x.id / 8 = ind.mi"
        join = _trace(database, sql)["HashJoin(broadcast)"]
        assert join.est_rows == join.rows_out == 64

    def test_a_label_aggregate_spans_its_group(self):
        """ROWMATRIX's rows are its group's labelled vectors (8 here, not
        the unknown-dimension default): the estimated bytes of the blocks
        are the built blocks' bytes."""
        database = Database(PAPER_CLUSTER)
        database.execute("CREATE TABLE x (id INTEGER, v VECTOR[])")
        database.load("x", [[i, np.arange(6.0) + i] for i in range(800)])
        nodes = _trace(
            database,
            "SELECT x.id / 8, ROWMATRIX(label_vector(x.v, x.id - (x.id / 8) * 8 + 1)) "
            "FROM x GROUP BY x.id / 8",
        )
        final = nodes["FinalAggregate"]
        assert final.rows_out == 100
        assert final.est_bytes == final.bytes_out

    @pytest.mark.parametrize("balanced", [False, True], ids=["hashed", "balanced"])
    def test_hash_placement_prices_the_busiest_slot(self, balanced):
        """100 keys on 80 slots: a hash exchange puts four or five on one
        slot (balanced placement: two). The estimate places the key
        column's known values as the executor does, so the merge after
        the exchange is priced what it is charged, bit for bit."""
        config = PAPER_CLUSTER.with_updates(balanced_placement=balanced)
        database = Database(config)
        database.execute("CREATE TABLE t (k INTEGER, v DOUBLE)")
        database.load("t", [[i, float(i)] for i in range(100)])
        sql = "SELECT k, COUNT(*) FROM t GROUP BY k"
        final = _trace(database, sql)["FinalAggregate"]
        assert final.est_seconds.hex() == final.wall_seconds.hex()

    def test_a_join_holds_its_inputs_not_its_pairs(self):
        """A pipelined operator's slot holds what its inputs hold: the
        vector distance's nested-loop join at the paper's scale holds its
        probe rows and the broadcast copy, far below a slot's memory,
        though its pairs would not fit; the aggregation it feeds holds its
        states."""
        from repro.bench.simsql import operators, price
        from repro.bench.workloads import Shape
        from repro.plan.physical import PNestedLoopJoin

        priced = price("distance", "vector", Shape(100_000, 10), PAPER_CLUSTER)
        plan = priced.plans[0]
        joins = [n for n in operators(plan) if isinstance(n, PNestedLoopJoin)]
        join = max(joins, key=lambda node: node.est_rows)  # the pairs of points
        held = sum(child.est_held_bytes for child in join.children())
        assert join.est_held_bytes == held < PAPER_CLUSTER.memory_per_slot
        assert join.est_bytes / PAPER_CLUSTER.slots > PAPER_CLUSTER.memory_per_slot
        for node in operators(plan):
            if not node.pipelined:
                assert node.est_held_bytes <= node.est_bytes
