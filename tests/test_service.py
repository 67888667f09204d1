"""The query service layer: sessions, plan cache, prepared statements,
admission control, and the fair-share slot scheduler."""

import numpy as np
import pytest

from repro import (
    CatalogError,
    CompileError,
    Database,
    ServiceOverloadedError,
    SessionClosedError,
    TEST_CLUSTER,
)
from repro.service import (
    CachedPlan,
    PlanCache,
    PlanCacheKey,
    ServiceConfig,
    SlotScheduler,
    normalize_sql,
    param_signature,
    percentile,
)


@pytest.fixture
def db():
    database = Database(TEST_CLUSTER)
    database.execute("CREATE TABLE points (i INTEGER, vec VECTOR[])")
    rng = np.random.default_rng(3)
    data = rng.normal(size=(40, 5))
    database.load("points", [(i, data[i]) for i in range(40)])
    return database


@pytest.fixture
def service(db):
    return db.service(max_concurrency=2, admission_queue_limit=4)


# -- sessions ---------------------------------------------------------------


def test_sessions_auto_named_and_released(service):
    s1 = service.session()
    s2 = service.session()
    assert s1.name != s2.name
    assert set(service.sessions()) == {s1.name, s2.name}
    s1.close()
    assert set(service.sessions()) == {s2.name}
    # the name is reusable once released
    again = service.session(s1.name)
    assert again.name == s1.name


def test_duplicate_session_name_rejected(service):
    service.session("alice")
    with pytest.raises(ValueError):
        service.session("alice")


def test_closed_session_refuses_work(service):
    session = service.session()
    session.close()
    with pytest.raises(SessionClosedError):
        session.execute("SELECT COUNT(i) FROM points")
    with pytest.raises(SessionClosedError):
        session.set_param("k", 1)


def test_session_context_manager(service):
    with service.session("ctx") as session:
        assert session.execute("SELECT COUNT(i) FROM points").scalar() == 40
    assert session.closed
    assert "ctx" not in service.sessions()


# -- temp view isolation (satellite: same-named views don't interfere) ------


def test_same_named_temp_views_are_isolated(service):
    alice = service.session("alice")
    bob = service.session("bob")
    alice.execute("CREATE TEMP VIEW mine AS SELECT i FROM points WHERE i < 10")
    bob.execute("CREATE TEMP VIEW mine AS SELECT i FROM points WHERE i >= 30")
    assert alice.execute("SELECT COUNT(i) FROM mine").scalar() == 10
    assert bob.execute("SELECT COUNT(i) FROM mine").scalar() == 10
    assert alice.execute("SELECT MAX(i) FROM mine").scalar() == 9
    assert bob.execute("SELECT MIN(i) FROM mine").scalar() == 30


def test_temp_view_invisible_to_other_sessions_and_database(service, db):
    alice = service.session("alice")
    bob = service.session("bob")
    alice.create_temp_view("narrow", "SELECT i FROM points WHERE i < 5")
    assert alice.temp_views() == ["narrow"]
    assert bob.temp_views() == []
    with pytest.raises(Exception):
        bob.execute("SELECT COUNT(i) FROM narrow")
    with pytest.raises(Exception):
        db.execute("SELECT COUNT(i) FROM narrow")


def test_temp_view_shadows_shared_relation(service):
    session = service.session()
    session.create_temp_view("points", "SELECT i FROM points WHERE i < 3")
    assert session.execute("SELECT COUNT(i) FROM points").scalar() == 3
    # other sessions still see the shared table
    other = service.session()
    assert other.execute("SELECT COUNT(i) FROM points").scalar() == 40


def test_same_session_duplicate_temp_view_rejected(service):
    session = service.session()
    session.create_temp_view("v", "SELECT i FROM points")
    with pytest.raises(CatalogError):
        session.create_temp_view("v", "SELECT i FROM points")


def test_drop_temp_view(service):
    session = service.session()
    session.create_temp_view("v", "SELECT i FROM points WHERE i < 7")
    session.drop_temp_view("v")
    assert session.temp_views() == []
    with pytest.raises(CatalogError):
        session.drop_temp_view("v")
    session.drop_temp_view("v", if_exists=True)  # no error


def test_create_temp_view_requires_session(db):
    with pytest.raises(CompileError):
        db.execute("CREATE TEMP VIEW v AS SELECT i FROM points")


def test_explain_sees_temp_views(service):
    session = service.session()
    session.create_temp_view("v", "SELECT i FROM points WHERE i < 7")
    text = session.explain("SELECT COUNT(i) FROM v")
    assert "logical" in text and "physical" in text


# -- session parameters -----------------------------------------------------


def test_session_params_default_and_override(service):
    session = service.session()
    session.set_param("k", 10)
    assert session.execute("SELECT COUNT(i) FROM points WHERE i < :k").scalar() == 10
    # per-call params win over the session default
    assert (
        session.execute("SELECT COUNT(i) FROM points WHERE i < :k", {"k": 3}).scalar()
        == 3
    )
    session.unset_param("k")
    with pytest.raises(Exception):
        session.execute("SELECT COUNT(i) FROM points WHERE i < :k")


# -- plan cache -------------------------------------------------------------


def test_repeated_statement_hits_cache(service):
    session = service.session()
    sql = "SELECT SUM(outer_product(vec, vec)) FROM points WHERE i < :k"
    first = session.execute(sql, {"k": 10})
    assert first.metrics.compile_seconds > 0
    second = session.execute(sql, {"k": 25})
    assert second.metrics.compile_seconds == 0.0
    stats = service.plan_cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_cache_hit_across_sessions(service):
    sql = "SELECT COUNT(i) FROM points WHERE i < :k"
    service.session().execute(sql, {"k": 5})
    result = service.session().execute(sql, {"k": 9})
    assert result.metrics.compile_seconds == 0.0
    assert result.scalar() == 9


def test_whitespace_and_keyword_case_normalized(service):
    session = service.session()
    session.execute("SELECT COUNT(i) FROM points")
    result = session.execute("select   count(i)\nFROM   POINTS")
    assert result.metrics.compile_seconds == 0.0


def test_string_literal_not_confused_with_identifier():
    # 'points' the string must not normalize to the same text as the
    # identifier points
    a = normalize_sql("SELECT 'points' FROM points")
    assert a.count("points") >= 1 and "'points'" in a


def test_param_type_change_recompiles(service):
    session = service.session()
    sql = "SELECT SUM(vec * :w) FROM points"
    session.execute(sql, {"w": 2.0})
    hit = session.execute(sql, {"w": 3.5})
    assert hit.metrics.compile_seconds == 0.0
    # same statement, int-typed parameter: different plan signature
    miss = session.execute(sql, {"w": 2})
    assert miss.metrics.compile_seconds > 0


def test_vector_param_dimension_change_recompiles(service):
    session = service.session()
    sql = "SELECT SUM(vec * :v) FROM points"
    session.execute(sql, {"v": np.ones(5)})
    assert session.execute(sql, {"v": np.zeros(5)}).metrics.compile_seconds == 0.0
    # plans bake in templated dimensions: a 5-vector plan can't serve 3
    sig5 = param_signature({"v": __import__("repro").Vector(np.ones(5))})
    sig3 = param_signature({"v": __import__("repro").Vector(np.ones(3))})
    assert sig5 != sig3


def test_cached_and_fresh_agree(service, db):
    session = service.session()
    sql = (
        "SELECT i, SUM(outer_product(vec, vec)) FROM points "
        "WHERE i < :k GROUP BY i ORDER BY i"
    )
    miss = session.execute(sql, {"k": 12})
    hit = session.execute(sql, {"k": 12})
    fresh = db.execute(sql, {"k": 12})
    assert hit.metrics.compile_seconds == 0.0
    assert miss.rows == fresh.rows
    assert hit.rows == fresh.rows
    assert hit.columns == fresh.columns
    # identical engine metrics: the cached plan is the same plan
    assert hit.metrics.total_seconds == pytest.approx(miss.metrics.total_seconds)
    assert hit.metrics.total_seconds == pytest.approx(fresh.metrics.total_seconds)


def _recreate_points(db):
    db.execute("DROP TABLE points")
    db.execute("CREATE TABLE points (i INTEGER, vec VECTOR[])")


def _scan_estimate(result):
    return next(
        node.est_rows for node in result.metrics.trace.walk()
        if node.name.startswith("Scan")
    )


@pytest.mark.parametrize(
    "invalidate, outcome",
    [
        # creating the relation a plan read — again, under the same name
        # and empty, so ``vec`` has no refined dimension: a shape change
        (_recreate_points, "compiled"),
        # rows change and the scan's estimate with them, no choice does:
        # the same plan is priced again
        (lambda db: db.execute("DELETE FROM points WHERE i = 39"), "repriced"),
        (lambda db: db.load("points", [(100, np.zeros(5))]), "repriced"),
    ],
    ids=["create-table", "delete", "load-stats-refresh"],
)
def test_ddl_and_stats_invalidate_cached_plans(db, invalidate, outcome):
    """No stale plan is served: a moved shape compiles again, moved
    statistics that fed only estimates re-price the cached plan."""
    service = db.service()
    session = service.session()
    sql = "SELECT COUNT(i) FROM points WHERE i < :k"
    session.execute(sql, {"k": 20})
    assert session.execute(sql, {"k": 20}).metrics.compile_seconds == 0.0
    version = db.catalog.version
    repriced = service.plan_cache.repriced
    invalidate(db)
    assert db.catalog.version > version
    result = session.execute(sql, {"k": 20})
    rows = db.catalog.table("points").stats.row_count
    assert _scan_estimate(result) == max(rows, 1), "stale estimates served"
    if outcome == "compiled":
        assert result.metrics.compile_seconds > 0, "stale plan must not be served"
    else:
        assert result.metrics.compile_seconds == 0.0
        assert service.plan_cache.repriced == repriced + 1


def test_ddl_on_other_relations_keeps_cached_plans(db):
    """Validity is "what the plan read is unchanged": a CTAS and DROP of
    an unrelated table move the catalog version, not the plan."""
    session = db.service().session()
    sql = "SELECT COUNT(i) FROM points WHERE i < :k"
    session.execute(sql, {"k": 20})
    version = db.catalog.version
    stamp = db.catalog.stamp("points")
    db.execute("CREATE TABLE other AS SELECT i FROM points")
    db.execute("DROP TABLE other")
    assert db.catalog.version > version
    assert db.catalog.stamp("points") == stamp
    assert db.catalog.stamp("other") == 0
    assert session.execute(sql, {"k": 20}).metrics.compile_seconds == 0.0


def test_dml_through_session_invalidates(service):
    session = service.session()
    sql = "SELECT COUNT(i) FROM points"
    assert session.execute(sql).scalar() == 40
    session.execute("DELETE FROM points WHERE i >= 30")
    result = session.execute(sql)
    # the plan is priced again for the 30 rows left, not compiled again
    assert result.metrics.compile_seconds == 0.0
    assert service.plan_cache.repriced == 1
    assert _scan_estimate(result) == 30
    assert result.scalar() == 30


def test_cache_lru_eviction(db):
    service = db.service(plan_cache_capacity=2)
    session = service.session()
    session.execute("SELECT COUNT(i) FROM points")
    session.execute("SELECT MAX(i) FROM points")
    session.execute("SELECT MIN(i) FROM points")  # evicts COUNT
    stats = service.plan_cache.stats()
    assert stats["entries"] == 2 and stats["evictions"] == 1
    assert session.execute("SELECT COUNT(i) FROM points").metrics.compile_seconds > 0


def test_temp_views_scope_the_cache(service):
    plain = service.session()
    sql = "SELECT COUNT(i) FROM points"
    plain.execute(sql)
    shadowed = service.session()
    shadowed.create_temp_view("points", "SELECT i FROM points WHERE i < 3")
    result = shadowed.execute(sql)
    # must NOT reuse the shared-catalog plan: name resolution differs
    assert result.metrics.compile_seconds > 0
    assert result.scalar() == 3
    assert plain.execute(sql).scalar() == 40


def recompile(entry):
    """A lookup's ``renew`` that never renews: a moved stamp recompiles."""
    return None, "shape"


def test_plan_cache_unit_lru_and_counters():
    cache = PlanCache(capacity=2)
    k1 = PlanCacheKey("a", (), "")
    k2 = PlanCacheKey("b", (), "")
    k3 = PlanCacheKey("c", (), "")
    assert cache.lookup(k1, recompile) is None
    cache.store(k1, "plan1")
    cache.store(k2, "plan2")
    assert cache.lookup(k1, recompile) == "plan1"  # k1 now most recent
    cache.store(k3, "plan3")  # evicts k2
    assert cache.lookup(k2, recompile) is None
    assert cache.lookup(k1, recompile) == "plan1"
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["hits"] == 2 and stats["misses"] == 2
    cache.purge_stale(feedback_version=1)
    assert cache.stats()["entries"] == 0
    assert cache.stats()["invalidated"] == 2


def test_plan_cache_unit_stamps_and_resize():
    cache = PlanCache(capacity=3)
    stamps = {"t": 4, "v": 7}
    key = PlanCacheKey("q", (), "")
    cache.store(key, CachedPlan(None, None, stamps=(("t", 4), ("v", 7))))
    assert cache.lookup(key, recompile, stamps.get) is not None
    stamps["v"] = 9  # something the plan read changed
    assert cache.lookup(key, recompile, stamps.get) is None
    assert cache.stats()["invalidated"] == 1 and len(cache) == 0
    for name in "abc":
        cache.store(PlanCacheKey(name, (), ""), CachedPlan(None, None))
    cache.resize(1)
    assert len(cache) == 1 and cache.stats()["evictions"] == 2
    assert cache.lookup(PlanCacheKey("c", (), ""), recompile) is not None
    with pytest.raises(ValueError):
        cache.resize(0)


# -- prepared statements ----------------------------------------------------


def test_prepared_statement_plans_once(service):
    session = service.session()
    stmt = session.prepare("SELECT COUNT(i) FROM points WHERE i < :k")
    results = [stmt.execute(k=k) for k in (5, 10, 15)]
    assert [r.scalar() for r in results] == [5, 10, 15]
    assert results[0].metrics.compile_seconds > 0
    assert all(r.metrics.compile_seconds == 0.0 for r in results[1:])


def test_prepare_rejects_non_select(service):
    session = service.session()
    with pytest.raises(CompileError):
        session.prepare("DELETE FROM points WHERE i = 0")


# -- scheduler --------------------------------------------------------------


def test_scheduler_immediate_start_when_idle():
    sched = SlotScheduler(max_concurrency=2, queue_limit=2)
    ticket = sched.submit("a", 10.0, arrival=0.0)
    assert ticket.start == 0.0 and ticket.finish == 10.0
    assert ticket.queue_seconds == 0.0


def test_scheduler_queues_then_rejects():
    sched = SlotScheduler(max_concurrency=1, queue_limit=1)
    sched.submit("a", 10.0, arrival=0.0)
    queued = sched.submit("b", 10.0, arrival=0.0)
    assert queued.start is None  # waiting
    with pytest.raises(ServiceOverloadedError) as exc:
        sched.submit("c", 10.0, arrival=0.0)
    assert exc.value.queue_depth == 1
    assert exc.value.queue_limit == 1
    assert sched.rejected == 1
    # the queued query runs after the first finishes
    first = sched.next_completion()
    assert first.tenant == "a"
    second = sched.next_completion()
    assert second.tenant == "b"
    assert second.start == 10.0 and second.queue_seconds == 10.0


def test_scheduler_fair_share_prefers_light_tenant():
    sched = SlotScheduler(max_concurrency=1, queue_limit=8)
    # the heavy tenant racks up usage, then queues another query BEFORE
    # the light tenant arrives
    sched.submit("heavy", 100.0, arrival=0.0)
    heavy_waiting = sched.submit("heavy", 100.0, arrival=1.0)
    light_waiting = sched.submit("light", 5.0, arrival=2.0)
    first = sched.next_completion()
    assert first.tenant == "heavy"
    # fair share: the light tenant starts first despite arriving later
    assert light_waiting.start == 100.0
    assert heavy_waiting.start is None
    order = [t.tenant for t in sched.drain()]
    assert order == ["light", "heavy"]


def test_scheduler_fifo_within_tenant():
    sched = SlotScheduler(max_concurrency=1, queue_limit=8)
    sched.submit("a", 10.0, arrival=0.0)
    first = sched.submit("a", 1.0, arrival=0.0)
    second = sched.submit("a", 1.0, arrival=0.0)
    sched.next_completion()
    assert [t.seq for t in sched.drain()] == [first.seq, second.seq]


def test_scheduler_gangs_run_concurrently():
    sched = SlotScheduler(max_concurrency=3, queue_limit=0)
    tickets = [sched.submit("t", 10.0, arrival=0.0) for _ in range(3)]
    assert all(t.start == 0.0 for t in tickets)
    assert {t.gang for t in tickets} == {0, 1, 2}
    with pytest.raises(ServiceOverloadedError):
        sched.submit("t", 10.0, arrival=0.0)


def test_scheduler_clock_monotonic_and_late_arrival():
    sched = SlotScheduler(max_concurrency=1, queue_limit=2)
    sched.submit("a", 5.0, arrival=0.0)
    # arriving after the first finished: starts immediately, no queueing
    ticket = sched.submit("b", 5.0, arrival=20.0)
    assert ticket.start == 20.0 and ticket.queue_seconds == 0.0
    assert sched.clock == 20.0


# -- admission + queueing visible end to end --------------------------------


def test_concurrent_sessions_observe_queueing_delay(db):
    service = db.service(max_concurrency=2, admission_queue_limit=8)
    sessions = [service.session() for _ in range(4)]
    pendings = [
        s.submit("SELECT SUM(outer_product(vec, vec)) FROM points") for s in sessions
    ]
    done = []
    while True:
        pending = service.next_completion()
        if pending is None:
            break
        done.append(pending)
    assert len(done) == 4
    delays = [p.metrics.queue_seconds for p in done]
    # 2 gangs: two queries start immediately, two wait for a gang
    assert sorted(d == 0.0 for d in delays) == [False, False, True, True]
    assert all(
        p.metrics.elapsed_seconds
        >= p.metrics.queue_seconds + p.metrics.total_seconds
        for p in done
    )
    snapshot = service.stats()
    assert snapshot["scheduler"]["queue_peak"] >= 2


def test_overload_fails_fast_with_typed_error(db):
    service = db.service(max_concurrency=1, admission_queue_limit=1)
    sessions = [service.session() for _ in range(4)]
    admitted, errors = [], []
    for s in sessions:
        try:
            admitted.append(s.submit("SELECT COUNT(i) FROM points"))
        except ServiceOverloadedError as error:
            errors.append(error)
    assert len(admitted) == 2 and len(errors) == 2
    assert all(e.queue_limit == 1 for e in errors)
    # rejected queries consume nothing and are counted
    assert service.stats()["rejected"] == 2
    while service.next_completion() is not None:
        pass
    assert service.stats()["queries"] == 2


def test_sequential_session_never_queues_behind_itself(service):
    session = service.session()
    for _ in range(4):
        result = session.execute("SELECT COUNT(i) FROM points")
        assert result.metrics.queue_seconds == 0.0


# -- metrics ----------------------------------------------------------------


def test_service_metrics_snapshot(service):
    a = service.session("a")
    b = service.session("b")
    a.execute("SELECT COUNT(i) FROM points")
    a.execute("SELECT COUNT(i) FROM points")
    b.execute("SELECT MAX(i) FROM points")
    snapshot = service.stats()
    assert snapshot["queries"] == 3
    assert snapshot["sessions"]["a"]["queries"] == 2
    assert snapshot["sessions"]["b"]["queries"] == 1
    assert snapshot["latency_p50"] > 0
    assert snapshot["latency_p95"] >= snapshot["latency_p50"]
    assert 0 < snapshot["plan_cache"]["hit_rate"] < 1
    report = service.report()
    assert "plan cache" in report and "scheduler" in report


def test_service_metrics_retain_a_bounded_window():
    """A long-lived service keeps exact counts, sums and means, and a
    fixed window of samples for the percentiles — not a float per query
    (and per traced operator) forever."""
    from collections import deque

    from repro.engine.metrics import OperatorTrace, QueryMetrics
    from repro.service.metrics import PERCENTILE_WINDOW, ServiceMetrics

    metrics = ServiceMetrics()
    compile_s = [0.001 * (i % 7) for i in range(10_000)]
    q_errors = []
    for i, seconds in enumerate(compile_s):
        trace = OperatorTrace("Scan", rows_out=10, est_rows=10.0 + i % 3)
        q_errors.append(trace.q_error)
        observed = QueryMetrics(
            compile_seconds=seconds, queue_seconds=2 * seconds, trace=trace
        )
        metrics.observe("s", observed, cache_hit=False)
    retained = [v for v in vars(metrics).values() if isinstance(v, (list, deque))]
    assert retained and all(len(v) == PERCENTILE_WINDOW for v in retained)
    assert metrics.queries == 10_000
    assert metrics.mean_compile_seconds == sum(compile_s) / 10_000
    assert metrics.mean_queue_seconds == sum(2 * s for s in compile_s) / 10_000
    assert metrics.mean_q_error == sum(q_errors) / 10_000
    errors = metrics.snapshot()["estimate_errors"]
    assert errors["operators"] == errors["trace_operators"] == 10_000
    assert metrics.latency_p95 >= metrics.latency_p50 > 0
    assert metrics.q_error_p95 == percentile(q_errors[-PERCENTILE_WINDOW:], 95.0)


def test_percentile_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 100.0) == 4.0
    assert percentile(values, 50.0) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        percentile(values, 101.0)


# -- executor satellite: empty-input aggregates ------------------------------


def test_empty_input_distinct_aggregates(db):
    assert db.execute("SELECT COUNT(DISTINCT i) FROM points WHERE i < 0").scalar() == 0
    assert db.execute("SELECT SUM(i) FROM points WHERE i < 0").scalar() is None
