"""The closed optimizer feedback loop (docs/ENGINE.md, "Adaptive
optimization"): cardinality feedback folded back from completed traces,
the fingerprint scheme that keys it, the feedback-versioned plan cache,
and the executed-flag semantics that keep skipped operators from
becoming phantom observations.
"""

import pytest

from repro import Database, TEST_CLUSTER
from repro.catalog import (
    FeedbackStatistics,
    join_fingerprint,
    predicate_fingerprint,
)
from repro.catalog.statistics import estimate_needs_feedback
from repro.engine.metrics import OperatorTrace
from repro.plan.expressions import (
    BinaryExpr,
    BoolExpr,
    ColumnVar,
    LiteralExpr,
    ParamCell,
    ParamExpr,
)
from repro.service.metrics import ServiceMetrics
from repro.service import PlanCacheKey
from repro.types import DOUBLE, INTEGER


def _col(name, column_id=1, data_type=DOUBLE):
    return ColumnVar(column_id, data_type, name)


def _lit(value):
    return LiteralExpr(value, DOUBLE)


class TestFingerprints:
    def test_stable_across_compilations(self):
        # two compilations assign different column ids to the same name
        first = BinaryExpr("<", _col("x", column_id=1), _lit(3.0))
        second = BinaryExpr("<", _col("x", column_id=17), _lit(3.0))
        assert predicate_fingerprint(first) == predicate_fingerprint(second)

    def test_commutative_sides_normalized(self):
        a_eq_b = BinaryExpr("=", _col("a"), _col("b", 2))
        b_eq_a = BinaryExpr("=", _col("b", 2), _col("a"))
        assert predicate_fingerprint(a_eq_b) == predicate_fingerprint(b_eq_a)
        # non-commutative comparisons keep their orientation
        lt = BinaryExpr("<", _col("a"), _col("b", 2))
        gt = BinaryExpr("<", _col("b", 2), _col("a"))
        assert predicate_fingerprint(lt) != predicate_fingerprint(gt)

    def test_conjunct_order_normalized(self):
        p = BinaryExpr("<", _col("x"), _lit(1.0))
        q = BinaryExpr(">", _col("y", 2), _lit(2.0))
        assert predicate_fingerprint(
            BoolExpr("AND", p, q)
        ) == predicate_fingerprint(BoolExpr("AND", q, p))

    def test_scope_separates_tables(self):
        pred = BinaryExpr("<", _col("x"), _lit(3.0))
        assert predicate_fingerprint(pred, "ta") != predicate_fingerprint(
            pred, "tb"
        )
        # ... but scope is case-insensitive like the rest
        assert predicate_fingerprint(pred, "TA") == predicate_fingerprint(
            pred, "ta"
        )

    def test_parameters_are_unfingerprintable(self):
        param = ParamExpr("k", DOUBLE, ParamCell("k"))
        pred = BinaryExpr("<", _col("x"), param)
        assert predicate_fingerprint(pred) is None
        assert join_fingerprint([(_col("a"), param)]) is None

    def test_join_orientation_insensitive(self):
        a, b = _col("a", 1, INTEGER), _col("b", 2, INTEGER)
        c, d = _col("c", 3, INTEGER), _col("d", 4, INTEGER)
        assert join_fingerprint([(a, b), (c, d)]) == join_fingerprint(
            [(d, c), (b, a)]
        )


class TestFeedbackStatistics:
    def test_new_observation_bumps_version(self):
        stats = FeedbackStatistics()
        assert stats.version == 0
        assert stats.record_scan_rows("t", 100.0)
        assert stats.version == 1
        assert stats.scan_rows("t") == 100.0

    def test_within_tolerance_reobservation_keeps_version(self):
        stats = FeedbackStatistics()
        stats.record_scan_rows("t", 100.0)
        version = stats.version
        assert not stats.record_scan_rows("t", 105.0)  # within 10%
        assert stats.version == version
        assert stats.scan_rows("t") == 100.0
        assert stats.record_scan_rows("t", 200.0)  # drifted: update
        assert stats.version == version + 1
        assert stats.scan_rows("t") == 200.0

    def test_lookups_are_none_safe(self):
        stats = FeedbackStatistics()
        assert stats.scan_rows("missing") is None
        assert stats.selectivity(None) is None
        assert stats.join_selectivity(None) is None

    def test_needs_feedback_threshold(self):
        assert not estimate_needs_feedback(100.0, 100.0)
        assert not estimate_needs_feedback(100.0, 140.0)  # q = 1.4
        assert estimate_needs_feedback(100.0, 160.0)  # q = 1.6
        assert estimate_needs_feedback(10.0, 1.0)
        # zero-row actuals clamp to 1, so tiny estimates don't explode
        assert not estimate_needs_feedback(1.0, 0.0)


def _mean_q_error(result):
    errors = [
        node.q_error
        for node in result.metrics.trace.walk()
        if node.q_error is not None
    ]
    assert errors
    return sum(errors) / len(errors)


def _filter_db(feedback_mode="on"):
    db = Database(TEST_CLUSTER.with_updates(feedback_mode=feedback_mode))
    db.execute("CREATE TABLE pts (i INTEGER, v DOUBLE)")
    db.load("pts", [(i, float(i % 100)) for i in range(400)])
    return db


class TestFeedbackLoop:
    def test_repeated_workload_converges(self):
        db = _filter_db()
        sql = "SELECT i FROM pts WHERE v < 3.0"
        first = db.execute(sql)
        second = db.execute(sql)
        third = db.execute(sql)
        assert _mean_q_error(second) < _mean_q_error(first)
        # converged: no further version churn, estimates stay put
        assert _mean_q_error(third) == _mean_q_error(second)
        assert db.feedback.version >= 1

    def test_feedback_off_stays_flat(self):
        db = _filter_db(feedback_mode="off")
        sql = "SELECT i FROM pts WHERE v < 3.0"
        first = db.execute(sql)
        second = db.execute(sql)
        assert _mean_q_error(second) == _mean_q_error(first)
        assert db.feedback.version == 0

    def test_stale_row_count_corrected(self):
        db = _filter_db()
        # a hand-built fixture whose statistics were never refreshed
        db.catalog.table("pts").stats.row_count = 40000
        first = db.execute("SELECT COUNT(i) FROM pts")
        second = db.execute("SELECT COUNT(i) FROM pts")
        assert _mean_q_error(second) < _mean_q_error(first)
        assert db.feedback.scan_rows("pts") == 400.0

    def test_rows_never_change(self):
        db_on = _filter_db()
        db_off = _filter_db(feedback_mode="off")
        sql = "SELECT i FROM pts WHERE v < 3.0 ORDER BY i LIMIT 7"
        for _ in range(3):
            assert db_on.execute(sql).rows == db_off.execute(sql).rows


class TestExecutedFlag:
    def test_not_executed_suppresses_q_error(self):
        ran = OperatorTrace(name="Scan", rows_out=0, est_rows=50.0)
        skipped = OperatorTrace(
            name="Scan", rows_out=0, est_rows=50.0, executed=False
        )
        assert ran.q_error == 50.0
        assert skipped.q_error is None
        assert "[not executed]" in skipped.render()

    def test_skipped_subtree_teaches_nothing(self):
        db = _filter_db()
        db.execute("SELECT i, v FROM pts ORDER BY v LIMIT 0")
        # the scan under a LIMIT 0 Top-K reports 0 rows but never ran:
        # no phantom "table is empty" observation may be recorded
        assert db.feedback.scan_rows("pts") is None


class TestPlanCacheStaleness:
    def test_key_includes_every_execution_knob(self):
        base = PlanCacheKey("select 1", (), "")
        assert base == PlanCacheKey("select 1", (), "")
        variants = [
            PlanCacheKey(
                "select 1", (), "", exec_fingerprint=("batch", "memory", 1)
            ),
            PlanCacheKey(
                "select 1", (), "", exec_fingerprint=("row", "disk", 1)
            ),
            PlanCacheKey(
                "select 1", (), "", exec_fingerprint=("row", "memory", 4)
            ),
            PlanCacheKey("select 1", (), "", feedback_version=3),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_execution_mode_flip_recompiles(self):
        db = _filter_db()
        service = db.service()
        session = service.session()
        sql = "SELECT i FROM pts WHERE v < 3.0"
        for _ in range(3):  # compile, learn-and-recompile, converge
            session.execute(sql)
        hits = service.plan_cache.hits
        session.execute(sql)
        assert service.plan_cache.hits == hits + 1
        db.set_execution_mode("row" if db.execution_mode == "batch" else "batch")
        result = session.execute(sql)
        assert service.plan_cache.hits == hits + 1  # miss: recompiled
        assert result.metrics.compile_seconds > 0.0
        session.close()

    def test_feedback_version_invalidates(self):
        db = _filter_db()
        service = db.service()
        session = service.session()
        sql = "SELECT COUNT(i) FROM pts"
        session.execute(sql)
        session.execute(sql)
        # teach the feedback store out-of-band: cached plans are stale
        assert db.feedback.record_scan_rows("pts", 9999.0)
        result = session.execute(sql)
        assert result.metrics.compile_seconds > 0.0
        session.close()

    def test_purge_stale_drops_old_feedback_versions(self):
        db = _filter_db()
        service = db.service()
        session = service.session()
        session.execute("SELECT COUNT(i) FROM pts")
        assert len(service.plan_cache) == 1
        db.feedback.record_scan_rows("pts", 9999.0)
        dropped = service.plan_cache.purge_stale(db.feedback.version)
        assert dropped == 1
        assert len(service.plan_cache) == 0
        session.close()


class TestEstimateErrorCoverage:
    def test_empty_aggregates_are_identity(self):
        metrics = ServiceMetrics()
        assert metrics.mean_q_error == 1.0
        assert metrics.q_error_p95 == 1.0
        assert metrics.estimate_coverage == 1.0
        errors = metrics.snapshot()["estimate_errors"]
        assert errors["operators"] == 0
        assert errors["trace_operators"] == 0
        assert errors["coverage"] == 1.0

    def test_coverage_counts_unannotated_operators(self):
        db = _filter_db()
        service = db.service()
        session = service.session()
        # LIMIT 0 skips a subtree: those operators appear in the trace
        # but carry no q-error, so coverage must drop below 1
        session.execute("SELECT i, v FROM pts ORDER BY v LIMIT 0")
        errors = service.stats()["estimate_errors"]
        assert errors["trace_operators"] > errors["operators"] > 0
        assert 0.0 < errors["coverage"] < 1.0
        assert errors["mean_q_error"] >= 1.0
        session.close()
