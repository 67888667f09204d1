"""EXPLAIN ANALYZE / OperatorTrace coverage.

The trace contract: every executed statement carries a per-operator
``OperatorTrace`` tree mirroring the physical plan, the root's
``rows_out`` equals the delivered row count, the database layer
annotates every node with the cost model's estimates, and the row and
batch back ends produce bit-identical traces (the equivalence contract
of docs/ENGINE.md extends to tracing).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.engine import OperatorTrace
from repro.errors import CompileError
from repro.sql import parse_statement
from repro.types import Vector

TABLE_A_ROWS = [(i % 7, float(i) - 3.5, i % 3) for i in range(40)]
TABLE_B_ROWS = [(i % 5, float(i * 2)) for i in range(15)]
TABLE_V_ROWS = [
    (i, i % 3, Vector([float(i + j * j) - 5.0 for j in range(4)]))
    for i in range(24)
]


def _db(mode="row"):
    db = Database(TEST_CLUSTER, execution_mode=mode)
    db.execute("CREATE TABLE ta (k INTEGER, x DOUBLE, g INTEGER)")
    db.execute("CREATE TABLE tb (k INTEGER, y DOUBLE)")
    db.execute("CREATE TABLE tv (id INTEGER, g INTEGER, v VECTOR[])")
    db.load("ta", TABLE_A_ROWS)
    db.load("tb", TABLE_B_ROWS)
    db.load("tv", TABLE_V_ROWS)
    return db


def _trace_digest(trace):
    return [
        (
            node.name,
            node.op_index,
            node.rows_in,
            node.rows_out,
            node.bytes_out,
            node.wall_seconds,
            node.network_bytes,
            node.est_rows,
            node.est_bytes,
            node.est_seconds,
        )
        for node in trace.walk()
    ]


QUERIES = [
    "SELECT k, x FROM ta WHERE x > 0",
    "SELECT ta.g, COUNT(*), SUM(ta.x + tb.y) FROM ta, tb "
    "WHERE ta.k = tb.k GROUP BY ta.g",
    "SELECT DISTINCT g FROM ta",
    "SELECT k, x FROM ta ORDER BY x LIMIT 5",
    "SELECT SUM(outer_product(t.v, t.v)) FROM tv AS t WHERE t.id < 12",
]


class TestTrace:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    @pytest.mark.parametrize("sql", QUERIES)
    def test_root_rows_match_delivered(self, mode, sql):
        result = _db(mode).execute(sql)
        trace = result.metrics.trace
        assert trace is not None
        assert trace.rows_out == len(result.rows)

    @pytest.mark.parametrize("sql", QUERIES)
    def test_every_operator_annotated(self, sql):
        trace = _db().execute(sql).metrics.trace
        for node in trace.walk():
            assert node.est_rows is not None and node.est_rows >= 1.0
            assert node.est_width_bytes is not None
            assert node.est_bytes is not None
            assert node.est_seconds is not None and node.est_seconds >= 0.0
            assert node.q_error is not None and node.q_error >= 1.0

    def test_trace_shape_mirrors_physical_plan(self):
        db = _db()
        plan = db._compile(parse_statement(QUERIES[1]), None)
        physical = plan.physical
        trace = db._execute_plan(plan).metrics.trace

        def plan_names(p):
            return (p.describe(), tuple(plan_names(c) for c in p.children()))

        def trace_names(t):
            return (t.name, tuple(trace_names(c) for c in t.children))

        assert trace_names(trace) == plan_names(physical)

    def test_dml_statements_also_traced(self):
        db = _db()
        result = db.execute(
            "CREATE TABLE tc AS SELECT k, x FROM ta WHERE x > 0"
        )
        assert result.metrics.trace is not None
        assert result.metrics.trace.rows_out == len(result.rows)

    def test_fault_free_trace_has_no_retries(self):
        trace = _db().execute(QUERIES[1]).metrics.trace
        for node in trace.walk():
            assert node.retries == 0
            assert node.fault_count == 0


class TestModeEquivalence:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_traces_bit_identical(self, sql):
        row_trace = _db("row").execute(sql).metrics.trace
        batch_trace = _db("batch").execute(sql).metrics.trace
        assert _trace_digest(row_trace) == _trace_digest(batch_trace)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        op=st.sampled_from(["=", "<>", "<", ">", "<=", ">="]),
        threshold=st.integers(-4, 40),
        grouped=st.booleans(),
        limit=st.one_of(st.none(), st.integers(0, 50)),
    )
    def test_random_queries_trace_identically(self, op, threshold, grouped, limit):
        if grouped:
            sql = (
                "SELECT ta.g, SUM(ta.x), COUNT(*) FROM ta "
                f"WHERE ta.x {op} {threshold} GROUP BY ta.g"
            )
        else:
            sql = f"SELECT ta.k, ta.x FROM ta WHERE ta.x {op} {threshold}"
        if limit is not None:
            sql += f" ORDER BY {'g' if grouped else 'x'} LIMIT {limit}"
        row_db = _db("row")
        logical = row_db._compile(parse_statement(sql), None).logical
        logical_rows = row_db.cost_model.estimate(logical).rows
        row_result = row_db.execute(sql)
        batch_result = _db("batch").execute(sql)
        assert _trace_digest(row_result.metrics.trace) == _trace_digest(
            batch_result.metrics.trace
        )
        assert row_result.metrics.trace.rows_out == len(row_result.rows)
        # one rule set: the logical and the physical walker agree on the
        # root — except, on purpose, for LIMIT 0 (CostModel.limit_rule)
        physical_rows = row_result.metrics.trace.est_rows
        if limit == 0:
            assert (logical_rows, physical_rows) == (0.0, 1.0)
        else:
            assert logical_rows == physical_rows


class TestExplainAnalyze:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_renders_estimates_actuals_and_q_error(self, mode):
        text = _db(mode).explain_analyze(QUERIES[1])
        assert "est rows" in text and "act rows" in text
        assert "q-err" in text
        assert "est s" in text and "act s" in text
        assert "HashJoin" in text
        assert "delivered" in text
        assert "worst cardinality q-error" in text

    def test_modes_render_identically(self):
        assert _db("row").explain_analyze(QUERIES[0]) == _db(
            "batch"
        ).explain_analyze(QUERIES[0])

    def test_limit_zero_prints_both_estimates_it_always_did(self):
        """Deliberate, see ``CostModel.limit_rule``: the logical plan
        knows LIMIT 0 is exactly no rows; a physical operator's estimate
        is floored at one row so its q-error is a defined ratio."""
        db = _db()
        sql = "SELECT k, x FROM ta ORDER BY x LIMIT 0"
        logical = db.explain(sql, verbose=True).split("== physical ==")[0]
        assert "LIMIT 0  [~0 rows x" in logical
        top_k = db.explain_analyze(sql).splitlines()[2].split()
        assert top_k[:3] == ["TopK(final)", "LIMIT", "0"]
        assert (top_k[3], top_k[4]) == ("1", "0")  # est rows, act rows

    def test_select_only(self):
        with pytest.raises(CompileError):
            _db().explain_analyze("DROP TABLE ta")

    def test_params_supported(self):
        text = _db().explain_analyze(
            "SELECT k FROM ta WHERE x > :t", params={"t": 0.0}
        )
        assert "Scan ta" in text


class TestQError:
    def test_perfect_estimate_is_one(self):
        trace = OperatorTrace(name="x", rows_out=100, est_rows=100.0)
        assert trace.q_error == pytest.approx(1.0)

    def test_symmetric(self):
        over = OperatorTrace(name="x", rows_out=10, est_rows=40.0)
        under = OperatorTrace(name="x", rows_out=40, est_rows=10.0)
        assert over.q_error == pytest.approx(4.0)
        assert under.q_error == pytest.approx(4.0)

    def test_zero_actual_floored(self):
        trace = OperatorTrace(name="x", rows_out=0, est_rows=1.0)
        assert trace.q_error == pytest.approx(1.0)

    def test_none_before_annotation(self):
        assert OperatorTrace(name="x", rows_out=5).q_error is None

    def test_max_q_error_over_subtree(self):
        child = OperatorTrace(name="c", rows_out=10, est_rows=30.0)
        root = OperatorTrace(
            name="r", rows_out=10, est_rows=10.0, children=[child]
        )
        assert root.max_q_error() == pytest.approx(3.0)


class TestServiceIntegration:
    def test_pending_query_exposes_trace(self):
        service = _db().service(max_concurrency=2)
        session = service.session()
        pending = session.submit("SELECT k, x FROM ta WHERE x > 0")
        result = service.wait(pending)
        assert pending.trace is not None
        assert pending.trace.rows_out == len(result.rows)
        assert pending.trace.max_q_error() >= 1.0
        session.close()

    def test_stats_aggregate_estimate_errors(self):
        service = _db().service(max_concurrency=2)
        session = service.session()
        for sql in QUERIES[:3]:
            session.execute(sql)
        stats = service.stats()
        errors = stats["estimate_errors"]
        assert errors["operators"] > 0
        assert errors["mean_q_error"] >= 1.0
        assert errors["worst_q_error"] >= 1.0
        assert errors["worst_operator"]
        assert "estimates:" in service.report()
        session.close()

    def test_cached_plan_still_annotates(self):
        service = _db().service(max_concurrency=2)
        session = service.session()
        # the first run may teach the cardinality-feedback statistics
        # something (bumping their version and recompiling once); the
        # workload converges after that, so the second repetition of
        # the *converged* plan is a genuine cache hit
        first = session.submit("SELECT k FROM ta WHERE x > 1")
        service.wait(first)
        second = session.submit("SELECT k FROM ta WHERE x > 1")
        service.wait(second)
        third = session.submit("SELECT k FROM ta WHERE x > 1")
        service.wait(third)
        assert third.cache_hit
        assert third.trace is not None
        assert _trace_digest(second.trace) == _trace_digest(third.trace)
        session.close()


class TestRender:
    def test_render_marks_retries_and_faults(self):
        trace = OperatorTrace(
            name="Scan t", rows_out=5, est_rows=5.0, retries=2, fault_count=1
        )
        assert "[retries 2, faults 1]" in trace.render()

    def test_long_labels_truncated(self):
        deep = OperatorTrace(name="x" * 80, rows_out=1)
        line = deep.render().splitlines()[1]
        assert "..." in line
