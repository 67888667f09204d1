"""Property-based tests (hypothesis) for the query service layer.

The plan-cache correctness property: under any interleaving of queries
and catalog-changing operations (DDL, deletes, loads/stats refreshes), a
query served through the cache returns exactly the rows — and exactly
the engine metrics — of a freshly planned execution; a plan cached
before a change to a relation it read is never served after it, and a
change to a relation it did not read leaves it hitting.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.sql import parse_statement

QUERIES = (
    "SELECT COUNT(i) FROM points WHERE i < :k",
    "SELECT SUM(outer_product(vec, vec)) FROM points WHERE i < :k",
    "SELECT i, SUM(vec * vec) FROM points WHERE i < :k GROUP BY i ORDER BY i",
)

#: op name -> (callable, whether it changes a relation the queries read)
#: — each bumps the catalog version one way or another
INVALIDATORS = {
    "create_table": (
        lambda db, n: db.execute(f"CREATE TABLE scratch_{n} (x DOUBLE)"),
        False,
    ),
    "delete": (  # row n exists: a DELETE that removes nothing changes nothing
        lambda db, n: db.execute(f"DELETE FROM points WHERE i = {n}"),
        True,
    ),
    "load": (lambda db, n: db.load("points", [(200 + n, np.zeros(4))]), True),
}


def run_fresh(db, sql, params):
    """A from-scratch compile and execution, past the plan cache."""
    return db._execute_plan(db._compile(parse_statement(sql), params))

steps = st.lists(
    st.tuples(
        st.sampled_from(sorted(INVALIDATORS)) | st.none(),  # None: no invalidation
        st.integers(min_value=0, max_value=len(QUERIES) - 1),
        st.integers(min_value=1, max_value=20),  # :k
    ),
    min_size=1,
    max_size=6,
)


def build_db():
    db = Database(TEST_CLUSTER)
    db.execute("CREATE TABLE points (i INTEGER, vec VECTOR[])")
    rng = np.random.default_rng(11)
    data = rng.normal(size=(24, 4))
    db.load("points", [(i, data[i]) for i in range(24)])
    return db


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=steps)
def test_cached_plans_always_match_fresh_planning(steps):
    db = build_db()
    service = db.service()
    session = service.session()
    seen_since_invalidation = set()
    feedback_version = db.feedback.version
    for n, (invalidator, query_index, k) in enumerate(steps):
        if invalidator is not None:
            version_before = db.catalog.version
            change, touches_points = INVALIDATORS[invalidator]
            change(db, n)
            assert db.catalog.version > version_before
            if touches_points:
                seen_since_invalidation.clear()
        if db.feedback.version != feedback_version:
            # a prior execution taught the cardinality-feedback
            # statistics something; their version is part of the cache
            # key, so every statement legitimately recompiles once
            seen_since_invalidation.clear()
            feedback_version = db.feedback.version
        sql = QUERIES[query_index]
        renewed = service.plan_cache.repriced + service.plan_cache.revalidated
        cached = session.execute(sql, {"k": k})
        fresh = db.execute(sql, {"k": k})
        # correctness: identical rows, columns, and engine metrics
        assert cached.rows == fresh.rows
        assert cached.columns == fresh.columns
        assert cached.metrics.total_seconds == pytest.approx(
            fresh.metrics.total_seconds
        )
        # staleness: a plan cached before an invalidation is never
        # served as it is after it — the first execution of each
        # statement after any invalidating op recompiles, or renews the
        # cached plan (none of these statements makes a choice on the
        # statistics a DELETE or load moves, so they are re-priced)
        if sql in seen_since_invalidation:
            assert cached.metrics.compile_seconds == 0.0
        else:
            assert cached.metrics.compile_seconds > 0.0 or (
                service.plan_cache.repriced + service.plan_cache.revalidated
                == renewed + 1
            )
        seen_since_invalidation.add(sql)


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=24),
    repeats=st.integers(min_value=2, max_value=5),
)
def test_prepared_statement_repeats_are_hits_and_exact(k, repeats):
    db = build_db()
    session = db.service().session()
    stmt = session.prepare("SELECT SUM(outer_product(vec, vec)) FROM points WHERE i < :k")
    results = [stmt.execute(k=k) for _ in range(repeats)]
    fresh = run_fresh(
        db, "SELECT SUM(outer_product(vec, vec)) FROM points WHERE i < :k", {"k": k}
    )
    assert results[0].metrics.compile_seconds > 0
    for result in results[1:]:
        assert result.metrics.compile_seconds == 0.0
    for result in results:
        assert result.rows == fresh.rows
