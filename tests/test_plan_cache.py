"""The one plan cache under ``Database``: every door (``db.execute``,
scripts, sessions, prepared handles, the server) reuses a compiled plan
while what it read is unchanged, and a cached plan is the plan a fresh
compile would produce."""

import copy
import logging
import random
import threading

import numpy as np
import pytest

import repro.sql.lexer as lexer_module
import repro.sql.parser as parser_module
from repro import Database, TEST_CLUSTER, Vector
from repro.bench.harness import digest
from repro.bench.simsql import CASES, case
from repro.bench.workloads import generate
from repro.errors import ServiceOverloadedError
from repro.plan import Binder, CostModel, Optimizer, PhysicalPlanner
from repro.server import Server, ServerClient
from repro.sql import ast, parse_keyed, parse_statement


def make_db(config=TEST_CLUSTER, mode=None):
    db = Database(config, execution_mode=mode)
    db.execute("CREATE TABLE a (k INTEGER, x DOUBLE)")
    db.execute("CREATE TABLE b (k INTEGER, y DOUBLE)")
    db.load("a", [(i % 5, float(i)) for i in range(40)])
    db.load("b", [(i % 5, float(i * i)) for i in range(15)])
    return db


def run_fresh(db, sql, params=None):
    """A from-scratch compile of ``sql``'s query and its execution, past
    the plan cache: ``(result, physical plan)``."""
    statement = parse_statement(sql)
    plan = db._compile(getattr(statement, "query", statement), params)
    return db._execute_plan(plan), plan.physical


def cached_physical(db, sql, params=None):
    """The physical plan the cache holds for ``sql`` right now (None
    when it holds none)."""
    statement, key = parse_keyed(sql)
    plan, hit = db._plan(getattr(statement, "query", statement), params, key)
    return plan.physical if hit else None


def estimates(trace):
    """The estimate columns of a trace tree, in pre-order."""
    return [
        (node.est_rows, node.est_width_bytes, node.est_bytes, node.est_seconds)
        for node in trace.walk()
    ]


def assert_cached_equals_fresh(db, sql, params=None, undo=None):
    """Execute ``sql`` through the cache and from scratch on the same
    database: same rows, simulated seconds, simulated peak, physical
    plan and estimates. ``undo`` reverts a write between the two (DROP
    after a CTAS).
    An execution that teaches the feedback store something moves the
    statistics the other compile would see, so the pair is taken again
    until the store is quiet."""
    for _ in range(6):
        version = db.feedback.version
        cached = db.execute(sql, params)
        held = cached_physical(db, sql, params)
        if undo is not None:
            db.execute(undo)
        fresh, physical = run_fresh(db, sql, params)
        if db.feedback.version == version:
            break
    else:  # pragma: no cover - feedback converges in two rounds
        raise AssertionError("feedback never settled")
    assert digest([cached]) == digest([fresh])
    assert cached.rows == fresh.rows
    assert cached.metrics.total_seconds == fresh.metrics.total_seconds
    assert cached.metrics.peak_memory_bytes == fresh.metrics.peak_memory_bytes
    assert held.pretty() == physical.pretty()
    assert estimates(cached.metrics.trace) == estimates(fresh.metrics.trace)
    return cached


# -- satellite: REFRESH through a session ------------------------------------


@pytest.mark.parametrize("door", ["embedded", "session"])
def test_refresh_makes_cached_plans_answer_from_the_view_again(door):
    """Deferred full view, INSERT (the view goes stale and is rightly
    ignored), REFRESH, same SELECT: the plan compiled while the view was
    stale must not outlive the refresh — through either door."""
    db = make_db(TEST_CLUSTER.with_updates(view_refresh_mode="deferred"))
    sql = "SELECT k, COUNT(k) AS c FROM a GROUP BY k ORDER BY k"
    db.execute(f"CREATE MATERIALIZED VIEW mv AS {sql}")
    session = db.service().session()
    execute = db.execute if door == "embedded" else session.execute
    assert execute(sql).metrics.view_hits == 1
    execute("INSERT INTO a VALUES (1, 99.0)")
    stale = execute(sql)
    assert stale.metrics.view_hits == 0
    assert execute(sql).metrics.plan_cached  # the scan plan is cached
    execute("REFRESH MATERIALIZED VIEW mv")
    refreshed = execute(sql)
    assert refreshed.metrics.view_hits == 1
    assert not refreshed.metrics.plan_cached
    assert refreshed.rows == stale.rows


# -- satellite: a recreated name never aliases --------------------------------


@pytest.mark.parametrize("door", ["embedded", "session"])
def test_recreated_relations_recompile(door):
    db = make_db()
    execute = db.execute if door == "embedded" else db.service().session().execute

    # a table: different rows *and* a different column type
    execute("CREATE TABLE t2 AS SELECT k, x FROM a WHERE k = 1")
    first = execute("SELECT x FROM t2 ORDER BY x")
    assert first.rows[0] == (1.0,)
    execute("DROP TABLE t2")
    execute("CREATE TABLE t2 AS SELECT k, k + 100 AS x FROM a WHERE k = 2")
    second = execute("SELECT x FROM t2 ORDER BY x")
    assert not second.metrics.plan_cached
    assert set(second.rows) == {(102,)}

    # a plain view
    execute("CREATE VIEW v AS SELECT x FROM a WHERE k = 0")
    assert execute("SELECT COUNT(x) FROM v").scalar() == 8
    execute("DROP VIEW v")
    execute("CREATE VIEW v AS SELECT x FROM a WHERE k < 2")
    again = execute("SELECT COUNT(x) FROM v")
    assert not again.metrics.plan_cached and again.scalar() == 16

    # a materialized view, read by name
    execute("CREATE MATERIALIZED VIEW m AS SELECT SUM(x) AS s FROM a")
    assert execute("SELECT s FROM m").scalar() == sum(range(40))
    execute("DROP MATERIALIZED VIEW m")
    execute("CREATE MATERIALIZED VIEW m AS SELECT SUM(y) AS s FROM b")
    again = execute("SELECT s FROM m")
    assert not again.metrics.plan_cached
    assert again.scalar() == sum(i * i for i in range(15))


def test_stamps_of_a_recreated_name_never_repeat():
    """On the parent a dropped table's version restarted at zero, and
    only the global DDL version in the key hid the aliasing."""
    db = make_db()
    seen = set()
    for _ in range(3):
        db.execute("CREATE TABLE scratch AS SELECT k FROM a")
        assert db.catalog.stamp("scratch") not in seen
        seen.add(db.catalog.stamp("scratch"))
        db.execute("DROP TABLE scratch")
        assert db.catalog.stamp("scratch") == 0


# -- plans valid by content ----------------------------------------------------

RECREATE = "CREATE TABLE t (k INTEGER, x DOUBLE)"
#: a plain scan; a scalar aggregate; a self-join whose join order and
#: layout read t's statistics
OVER_T = (
    "SELECT k, x FROM t ORDER BY k",
    "SELECT SUM(x), COUNT(k) FROM t",
    "SELECT t.k AS k, u.x AS x FROM t, t AS u WHERE t.k = u.k ORDER BY k",
)


def t_rows(offset, count=12):
    return [(i, float(i) + offset) for i in range(count)]


def expected_over_t(sql, rows):
    if sql.startswith("SELECT SUM"):
        return [(sum(x for _, x in rows), len(rows))]
    return sorted(rows)


def hexes(trace):
    """The estimate columns of a trace tree, floats by ``.hex()``."""
    return [tuple(v if v is None else float(v).hex() for v in row) for row in estimates(trace)]


def plan_tables(plan):
    """Every table a cached plan's logical and physical nodes hold."""
    stack, found = [plan.logical, plan.physical], []
    while stack:
        node = stack.pop()
        if hasattr(node, "table"):
            found.append(node.table)
        stack.extend(node.children())
    return found


@pytest.mark.parametrize("door", ["embedded", "session"])
@pytest.mark.parametrize("storage", ["memory", "disk"])
@pytest.mark.parametrize("mode", ["batch", "row"])
def test_a_revalidated_plan_reads_the_live_table(mode, storage, door):
    """DROP, CREATE and a load of other rows with equal statistics: every
    statement over the table is a plan-cache hit — revalidated, not
    compiled — and returns the new rows, read through the live table;
    the cached plans hold no reference to the dropped one."""
    db = Database(TEST_CLUSTER.with_updates(storage_mode=storage), execution_mode=mode)
    execute = db.execute if door == "embedded" else db.service().session().execute
    execute(RECREATE)
    db.load("t", t_rows(0))
    for sql in OVER_T:
        settle(db, sql, execute)
    for offset in (100, 200):
        dropped = db.catalog.table("t")
        execute("DROP TABLE t")
        execute(RECREATE)
        db.load("t", t_rows(offset))
        live = db.catalog.table("t")
        assert live is not dropped and live.statistics_read() == dropped.statistics_read()
        for sql in OVER_T:
            revalidated = db.plan_cache.revalidated
            result = execute(sql)
            assert result.metrics.plan_cached, sql
            assert db.plan_cache.revalidated == revalidated + 1
            fresh, physical = run_fresh(db, sql)
            assert result.rows == fresh.rows and digest([result]) == digest([fresh])
            assert result.rows == expected_over_t(sql, t_rows(offset))
            assert hexes(result.metrics.trace) == hexes(fresh.metrics.trace)
            statement, key = parse_keyed(sql)
            plan, hit = db._plan(statement, None, key)
            assert hit and plan.physical.pretty() == physical.pretty()
            tables = plan_tables(plan)
            assert tables and all(table is live for table in tables)


def test_what_a_plan_read_moved_recompiles_or_reprices(monkeypatch):
    """A different column type or refined dimension recompiles; a
    different row count recompiles a statement whose join read it, and
    re-prices one that made no choice on it — the re-priced hit equal to
    a fresh compile in rows, plan and every estimate by ``.hex()``."""
    db = Database(TEST_CLUSTER)
    db.execute(RECREATE)
    db.load("t", t_rows(0))
    scan, _, join = OVER_T
    for sql in OVER_T:
        settle(db, sql)

    # the row count moves: the join compiles again, the scan is re-priced
    db.load("t", t_rows(0, 3))
    stats = db.plan_cache.stats()
    assert not db.execute(join).metrics.plan_cached
    renewed = db.execute(scan)
    assert renewed.metrics.plan_cached
    assert db.plan_cache.stats()["repriced"] == stats["repriced"] + 1
    assert db.plan_cache.stats()["invalidated"] == stats["invalidated"] + 1
    fresh, physical = run_fresh(db, scan)
    assert renewed.rows == fresh.rows
    assert cached_physical(db, scan).pretty() == physical.pretty()
    assert hexes(renewed.metrics.trace) == hexes(fresh.metrics.trace)
    assert node_named(renewed, "Scan t").est_rows == 15.0
    hit_with_fresh_estimates(db, scan, monkeypatch)

    # a different column type, under equal statistics
    db.execute("DROP TABLE t")
    db.execute("CREATE TABLE t (k INTEGER, x INTEGER)")
    db.load("t", [(k, int(x)) for k, x in t_rows(0)] + [(k, int(x)) for k, x in t_rows(0)[:3]])
    for sql in OVER_T:
        assert not db.execute(sql).metrics.plan_cached, sql

    # a refined dimension: VECTOR[] holding length 3, then length 4
    vectors = "SELECT k, v FROM w ORDER BY k"
    db.execute("CREATE TABLE w (k INTEGER, v VECTOR[])")
    db.load("w", [(i, Vector(np.full(3, float(i)))) for i in range(5)])
    settle(db, vectors)
    db.execute("DROP TABLE w")
    db.execute("CREATE TABLE w (k INTEGER, v VECTOR[])")
    db.load("w", [(i, Vector(np.full(4, float(i)))) for i in range(5)])
    result = db.execute(vectors)
    assert not result.metrics.plan_cached
    assert result.rows[1][1] == Vector(np.ones(4))


def test_each_recompile_names_its_reason(caplog):
    """The ``repro.plan_cache`` logger says why a cached plan compiles
    again: a shape it read moved, a statistics read that fed a choice
    moved, or the feedback version moved."""
    db = make_db()
    join = "SELECT a.k, SUM(b.y) FROM a, b WHERE a.k = b.k GROUP BY a.k"
    scan = "SELECT SUM(x) FROM a"
    for sql in (join, scan):
        settle(db, sql)
    with caplog.at_level(logging.DEBUG, logger="repro.plan_cache"):
        db.execute("INSERT INTO b VALUES (1, 2.0)")
        db.execute(join)
        db.execute("CREATE MATERIALIZED VIEW m AS SELECT k, COUNT(k) AS c FROM a GROUP BY k")
        db.execute(scan)
        db.feedback.record_scan_rows("a", 1000.0)
        db.execute(scan)
    messages = [record.getMessage() for record in caplog.records]
    assert any(
        m.endswith("a choice-feeding statistics read moved") and "sum ( b . y )" in m
        for m in messages
    )
    assert any(m.endswith("a shape it read moved") and "sum ( x )" in m for m in messages)
    assert any(m.endswith("the feedback version moved") for m in messages)


def test_session_temp_view_shadowing_a_table_is_scoped():
    db = make_db()
    service = db.service()
    plain, shadowed = service.session(), service.session()
    sql = "SELECT COUNT(x) FROM a"
    assert plain.execute(sql).scalar() == 40
    shadowed.create_temp_view("a", "SELECT x FROM a WHERE k = 0")
    result = shadowed.execute(sql)
    assert not result.metrics.plan_cached and result.scalar() == 8
    assert shadowed.execute(sql).metrics.plan_cached
    # neither the other session nor the embedded door sees the shadow
    assert plain.execute(sql).scalar() == 40
    assert db.execute(sql).scalar() == 40
    shadowed.drop_temp_view("a")
    assert shadowed.execute(sql).scalar() == 40


# -- satellite: cached == fresh -----------------------------------------------


@pytest.mark.parametrize("mode", ["batch", "row"])
@pytest.mark.parametrize("program", sorted(CASES), ids=lambda key: "-".join(key))
def test_catalogue_programs_cached_equal_fresh(program, mode):
    """Every program of the paper catalogue, second execution: what the
    cache serves is what a from-scratch compile produces."""
    computation, style = program
    entry = case(computation, style, generate(16, 4, seed=5), block_size=4)
    db = Database(TEST_CLUSTER, execution_mode=mode)
    entry.setup(db)

    def created(sql):
        statement = parse_statement(sql)
        return statement.name if isinstance(statement, ast.CreateTableAs) else None

    def drop_created():
        for sql in reversed(entry.queries):
            if created(sql):
                db.execute(f"DROP TABLE {created(sql)}")

    first = [db.execute(sql) for sql in entry.queries]
    drop_created()
    second = []
    for sql in entry.queries:
        name = created(sql)
        second.append(
            assert_cached_equals_fresh(
                db, sql, undo=f"DROP TABLE {name}" if name else None
            )
        )
        if name:  # the statements after a CTAS read its table
            db.execute(sql)
    assert digest(first) == digest(second)
    # the value is still the program's value
    np.testing.assert_allclose(entry.value(first), entry.value(second))


PARAMETRISED = (
    ("SELECT k, SUM(x), COUNT(x) FROM a WHERE x < :hi GROUP BY k", "hi"),
    ("SELECT COUNT(x) FROM a WHERE x >= :lo AND x < :hi", "lo hi"),
    ("SELECT k, x FROM a WHERE x > :lo ORDER BY x DESC LIMIT 3", "lo"),
    (
        "SELECT a.k, SUM(a.x * b.y) FROM a, b "
        "WHERE a.k = b.k AND b.y < :hi GROUP BY a.k",
        "hi",
    ),
    ("SELECT COUNT(x) FROM a WHERE k = :key", "key"),
)


@pytest.mark.parametrize("mode", ["batch", "row"])
def test_parametrised_statements_cached_equal_fresh(mode):
    db = make_db(mode=mode)
    rng = random.Random(7)
    for sql, names in PARAMETRISED:
        for round_ in range(4):
            lo = float(rng.randrange(0, 20))
            values = {"lo": lo, "hi": lo + rng.randrange(5, 30), "key": round_ % 5}
            params = {name: values[name] for name in names.split()}
            result = assert_cached_equals_fresh(db, sql, params)
            # a generic plan: changing values never recompiles it
            assert result.metrics.plan_cached or round_ == 0


@pytest.mark.parametrize("refresh_mode", ["eager", "deferred"])
def test_interleaved_changes_keep_cached_equal_to_fresh(refresh_mode):
    """A seeded interleaving of everything that can move what a plan
    read; after every step a cached lookup and a fresh compile agree."""
    db = make_db(TEST_CLUSTER.with_updates(view_refresh_mode=refresh_mode))
    rng = random.Random(11)
    full_view = "SELECT k, COUNT(k) AS c FROM a GROUP BY k ORDER BY k"
    view_bodies = ["SELECT k, x FROM a WHERE k < 3", "SELECT k, x FROM a WHERE k > 1"]

    def toggle(name, create, drop):
        db.execute(drop if db.catalog.has_relation(name) else create)

    def refresh():
        if db.catalog.materialized_view("m") is not None:
            db.execute("REFRESH MATERIALIZED VIEW m")
            db.execute("REFRESH MATERIALIZED VIEW mi")

    def toggle_matviews():
        toggle("m", f"CREATE MATERIALIZED VIEW m AS {full_view}",
               "DROP MATERIALIZED VIEW m")
        toggle("mi", "CREATE MATERIALIZED VIEW mi AS SELECT SUM(x) AS s FROM a",
               "DROP MATERIALIZED VIEW mi")

    steps = [
        lambda n: db.execute(f"INSERT INTO a VALUES ({n % 5}, {n}.5)"),
        lambda n: db.execute("INSERT INTO b SELECT k, x FROM a WHERE x < :hi", {"hi": 3.0}),
        lambda n: db.load("b", [(n % 5, float(n))]),
        lambda n: db.execute("DELETE FROM a WHERE x = :x", {"x": float(n)}),
        lambda n: toggle("s", "CREATE TABLE s AS SELECT k, x FROM a WHERE k = 1",
                         "DROP TABLE s"),
        lambda n: toggle("v", f"CREATE VIEW v AS {view_bodies[n % 2]}", "DROP VIEW v"),
        lambda n: toggle_matviews(),
        lambda n: refresh(),
        lambda n: db.set_execution_mode("row" if db.execution_mode == "batch" else "batch"),
        # the estimate is far off: the execution records feedback
        lambda n: db.execute("SELECT COUNT(x) FROM a WHERE x * 0.0 > 1.0"),
    ]
    probes = [
        (None, full_view, None),
        (None, "SELECT SUM(x) FROM a", None),
        (None, "SELECT a.k, SUM(b.y) FROM a, b WHERE a.k = b.k AND a.x < :hi GROUP BY a.k",
         {"hi": 20.0}),
        ("s", "SELECT COUNT(x) FROM s", None),
        ("v", "SELECT k, SUM(x) FROM v GROUP BY k", None),
        ("m", "SELECT c FROM m WHERE k = 1", None),
    ]
    for n in range(40):
        rng.choice(steps)(n)
        for needs, sql, params in probes:
            if needs is None or db.catalog.has_relation(needs):
                assert_cached_equals_fresh(db, sql, params)
    stats = db.plan_cache.stats()
    assert stats["hits"] > 0 and stats["invalidated"] > 0


# -- satellite: the hot path --------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Call counters on the front end's and the planner's entry points."""
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(lexer_module, "tokenize")
    count(parser_module, "tokenize")
    count(Binder, "bind_select")
    count(Optimizer, "optimize")
    count(PhysicalPlanner, "plan")
    return calls


HOT = (
    ("SELECT k, SUM(x) FROM a WHERE x < :hi GROUP BY k", {"hi": 10.0}, {"hi": 30.0}),
    ("SELECT COUNT(y) FROM b", None, None),
)


def test_hot_statement_never_reaches_lexer_binder_or_optimizer(counted):
    db = make_db()
    with Server(db) as server, ServerClient(*server.address) as client:
        session = server.service.session()
        prepared = session.prepare(HOT[0][0])
        doors = {
            "embedded": db.execute,
            "session": session.execute,
            "prepared": lambda sql, params: prepared.execute(params),
            "served": lambda sql, params: client.query(sql, params),
        }
        for sql, first, second in HOT:
            db.execute(sql, first)  # compile once, by whichever door
            for door, execute in doors.items():
                if door == "prepared" and sql != prepared.sql:
                    continue
                counted.clear()
                execute(sql, second)
                assert counted == {}, (door, sql, counted)
        # a CTAS re-issued after a DROP reuses its query's plan too
        ctas = "CREATE TABLE colsum AS SELECT k, SUM(x) AS s FROM a GROUP BY k"
        db.execute(ctas)
        db.execute("DROP TABLE colsum")
        counted.clear()
        assert db.execute(ctas).metrics.plan_cached
        db.execute("DROP TABLE colsum")
        assert counted == {}


def test_served_stats_count_embedded_statements_too():
    db = make_db()
    service = db.service()
    sql = "SELECT COUNT(y) FROM b"
    db.execute(sql)
    pending = service.session().submit(sql)
    assert pending.cache_hit and pending.metrics.plan_cached
    service.wait(pending)
    cache = service.stats()["plan_cache"]
    assert (cache["hits"], cache["misses"]) == (1, 1)
    assert {"entries", "capacity", "hit_rate", "evictions", "invalidated"} <= set(cache)
    # an INSERT re-prices the plan, a DROP and CREATE alike revalidates
    # it: both are hits, counted apart, and /stats serves the counts
    db.execute("INSERT INTO b VALUES (1, 1.0)")
    db.execute(sql)
    db.execute("CREATE TABLE b2 AS SELECT k, y FROM b")
    db.execute("DROP TABLE b")
    db.execute("CREATE TABLE b AS SELECT k, y FROM b2")
    db.execute(sql)
    with Server(db) as server, ServerClient(*server.address) as client:
        served = client.stats()["plan_cache"]
    assert (served["repriced"], served["revalidated"]) == (1, 1)
    assert served["hits"] == 3  # the two CTAS compiled their queries: misses


LABEL_CASES = (
    ("SELECT k AS Total FROM a WHERE k < 1", "SELECT k AS total FROM a WHERE k < 1"),
    ("SELECT K FROM a WHERE k < 1", "SELECT k FROM a WHERE k < 1"),
    ("SELECT t.X FROM a t WHERE k < 1", "SELECT t.x FROM a t WHERE k < 1"),
    ("SELECT s FROM (SELECT SUM(x) AS S FROM a) q", "SELECT s FROM (SELECT SUM(x) AS s FROM a) q"),
)


def test_output_labels_keep_their_case_through_the_cache():
    """A label's spelling is the result's column name: statements that
    differ only in a label's case compile apart, each keeps its own
    columns, and case variants elsewhere still share a plan."""
    db = make_db()
    for first, second in LABEL_CASES:
        for sql in (first, second, first):
            assert db.execute(sql).columns == run_fresh(db, sql)[0].columns, sql
    misses = db.plan_cache.stats()["misses"]
    assert db.execute("select K from A where K < 1").columns == ["K"]
    assert db.execute("SELECT t.x FROM A T WHERE K < 1").columns == ["x"]
    assert db.plan_cache.stats()["misses"] == misses


def test_served_sessions_share_the_cache_but_not_a_label_case():
    db = make_db()
    with Server(db) as server, ServerClient(*server.address) as one, \
            ServerClient(*server.address) as two:
        one.open_session("one")
        two.open_session("two")
        for first, second in LABEL_CASES:
            expected = [run_fresh(db, sql)[0].columns for sql in (first, second)]
            assert one.query(first, session="one")["columns"] == expected[0]
            assert two.query(second, session="two")["columns"] == expected[1]
            assert one.query(second, session="one")["columns"] == expected[1]
            assert two.query(first, session="two")["columns"] == expected[0]
        assert server.service.stats()["plan_cache"]["hits"] >= 2 * len(LABEL_CASES)


def test_plan_line_in_explain_analyze_and_report():
    db = make_db()
    sql = "SELECT SUM(x) FROM a"
    assert db.explain_analyze(sql).splitlines()[-2].endswith("plan: compiled")
    assert db.explain_analyze(sql).splitlines()[-2].endswith("plan: cached")
    assert "plan: cached" in db.execute(sql).metrics.report()
    db.execute("INSERT INTO a VALUES (0, 1.0)")  # re-priced: still a hit
    assert "plan: cached" in db.execute(sql).profile()
    db.execute("CREATE MATERIALIZED VIEW c AS SELECT COUNT(k) AS c FROM a")
    assert "plan: compiled" in db.execute(sql).profile()


# -- satellite: ASTs are immutable ---------------------------------------------


def test_asts_survive_bind_plan_execute_and_wal_logging(tmp_path):
    """The parse memo hands the same AST to every caller, so nothing —
    binder, optimizer, view registration, WAL logging — may write to it."""
    config = TEST_CLUSTER.with_updates(
        durability_mode="wal", data_dir=str(tmp_path / "data")
    )
    for number, (computation, style) in enumerate(sorted(CASES)):
        entry = case(computation, style, generate(16, 4, seed=5), block_size=4)
        db = Database(config.with_updates(data_dir=str(tmp_path / f"d{number}")))
        entry.setup(db)
        for sql in entry.queries:
            statement = parse_statement(sql)
            before = copy.deepcopy(statement)
            db.execute(sql)
            assert parse_statement(sql) is statement  # memoised
            assert statement == before
        db.close()
    db = Database(config)
    db.execute("CREATE TABLE t (k INTEGER, x DOUBLE)")
    for sql in (
        "INSERT INTO t VALUES (1, 2.0), (2, :x)",
        "INSERT INTO t SELECT k + 1, x FROM t WHERE x < :x",
        "CREATE VIEW tv (kk, xx) AS SELECT k, x FROM t",
        "CREATE MATERIALIZED VIEW tm AS SELECT SUM(x) AS s FROM t",
        "SELECT kk FROM tv UNION ALL SELECT k FROM t",
        "DELETE FROM t WHERE x > :x",
        "REFRESH MATERIALIZED VIEW tm",
    ):
        statement = parse_statement(sql)
        before = copy.deepcopy(statement)
        db.execute(sql, {"x": 5.0})
        assert statement == before, sql
    db.close()


# -- satellite: threads and bounds ---------------------------------------------


def test_concurrent_embedded_executions_keep_their_own_parameters():
    db = make_db()
    sql = "SELECT COUNT(x) FROM a WHERE x < :hi"
    db.execute(sql, {"hi": 1.0})
    barrier = threading.Barrier(4)
    failures = []

    def worker(index):
        barrier.wait()
        for round_ in range(25):
            hi = float(1 + (index * 7 + round_) % 40)
            got = db.execute(sql, {"hi": hi}).scalar()
            if got != int(hi):
                failures.append((index, hi, got))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert db.plan_cache.stats()["misses"] == 1


def test_distinct_insert_texts_leave_both_maps_bounded():
    db = Database(TEST_CLUSTER)
    db.execute("CREATE TABLE t (k INTEGER)")
    db.service(plan_cache_capacity=4)
    parser_module._memo.clear()
    for n in range(10_000):
        parse_statement(f"INSERT INTO t VALUES ({n})")
    assert len(parser_module._memo) == parser_module._MEMO_CAPACITY
    for n in range(12):
        db.execute(f"SELECT COUNT(k) FROM t WHERE k < {n}")
    assert len(db.plan_cache) == 4 == db.plan_cache.capacity
    # a bulk text is parsed but never kept
    bulk = "INSERT INTO t VALUES " + ", ".join(f"({n})" for n in range(3000))
    assert len(bulk) > parser_module._MEMO_MAX_TEXT
    parse_statement(bulk)
    assert bulk not in parser_module._memo


def test_script_statements_go_through_the_cache():
    db = make_db()
    script = "SELECT COUNT(x) FROM a; SELECT COUNT(y) FROM b;"
    assert [r.metrics.plan_cached for r in db.execute_script(script)] == [False] * 2
    assert [r.metrics.plan_cached for r in db.execute_script(script)] == [True] * 2
    # a script statement and the same statement alone share an entry
    assert db.execute("select count(x)   from A").metrics.plan_cached


# -- estimates live on the cached plan ------------------------------------------


def never_estimate(*args, **kwargs):
    raise AssertionError("a plan-cache hit re-estimated its plan")


def settle(db, sql, execute=None):
    """Run ``sql`` until an execution teaches the feedback store nothing,
    so its plan stays cached."""
    execute = execute or db.execute
    for _ in range(6):
        version = db.feedback.version
        execute(sql)
        if db.feedback.version == version:
            return
    raise AssertionError("feedback never settled")  # pragma: no cover


def hit_with_fresh_estimates(db, sql, monkeypatch, execute=None):
    """Settle ``sql``, then run it once more as a plan-cache hit, with
    ``CostModel._physical_rule`` raising, beside its EXPLAIN ANALYZE
    (a hit too). The hit's trace carries what a fresh pricing of the
    cached plan gives, and EXPLAIN ANALYZE prints the trace of a
    from-scratch compile. ``execute`` is the door (``db.execute`` when
    None). Returns the hit."""
    execute = execute or db.execute
    settle(db, sql, execute)
    with monkeypatch.context() as patch:
        patch.setattr(CostModel, "_physical_rule", never_estimate)
        hit = execute(sql)
        text = db.explain_analyze(sql)
    assert hit.metrics.plan_cached and "plan: cached" in text
    held = estimates(hit.metrics.trace)
    physical = cached_physical(db, sql)
    db.cost_model.price_physical(physical)

    def walk(node):
        yield node.est_rows, node.est_width_bytes, node.est_bytes, node.est_seconds
        for child in node.children():
            yield from walk(child)

    assert held == list(walk(physical))
    fresh, _ = run_fresh(db, sql)
    assert text.startswith(fresh.metrics.trace.render() + "\n")
    return hit


def node_named(result, prefix):
    return next(n for n in result.metrics.trace.walk() if n.name.startswith(prefix))


def test_cache_hits_carry_the_estimates_of_the_current_statistics(monkeypatch):
    """Estimates are made once, when a plan compiles. After each event
    that moves what they read — statistics (INSERT), a feedback record,
    incremental view maintenance (with a full view's row count), a DROP
    and CREATE of a read table — a hit carries the new numbers."""
    db = make_db()
    db.execute("CREATE MATERIALIZED VIEW total AS SELECT SUM(x) AS s FROM a")
    db.execute("CREATE MATERIALIZED VIEW per_k AS SELECT k, COUNT(k) AS c FROM a GROUP BY k")
    join = "SELECT a.k, SUM(b.y) FROM a, b WHERE a.k = b.k AND a.x < 20.0 GROUP BY a.k"
    total, per_k = "SELECT SUM(x) AS s FROM a", "SELECT k, COUNT(k) AS c FROM a GROUP BY k"

    def check_all():
        return [hit_with_fresh_estimates(db, sql, monkeypatch) for sql in (join, total, per_k)]

    check_all()
    db.execute("INSERT INTO b VALUES (2, 9.0)")  # statistics of b move
    assert node_named(check_all()[0], "Scan b").est_rows == 16.0
    # within the recording threshold of the 16 rows seen: it stays learnt
    db.feedback.record_scan_rows("b", 20.0)
    assert node_named(check_all()[0], "Scan b").est_rows == 20.0
    inserted = db.execute("INSERT INTO a VALUES (7, 3.5)")
    assert inserted.metrics.view_maintenance == 1  # `total` folds, `per_k` recomputes
    assert node_named(check_all()[2], "ViewScan per_k").est_rows == 6.0
    db.execute("DROP TABLE b")
    db.execute("CREATE TABLE b (k INTEGER, y DOUBLE)")
    db.load("b", [(i % 3, float(i)) for i in range(40)])
    # 40 rows against the 20 learnt: feedback learns them anew
    assert node_named(check_all()[0], "Scan b").est_rows == 40.0


# -- plans outlive appends -------------------------------------------------------

GRAM = "SELECT SUM(outer_product(v, v)), COUNT(v) FROM points"
PER_K = "SELECT k, COUNT(i) AS c FROM points GROUP BY k ORDER BY k"
RECENT = "SELECT COUNT(i), SUM(x) FROM points WHERE i >= :lo"
OUTLIVE = (
    GRAM,  # answered from the incremental view `gram`
    PER_K,  # answered whole from the full view `per_k` while it is fresh
    "SELECT COUNT(i), SUM(x) FROM points WHERE i >= 2",  # estimates a scan
    "SELECT SUM(v * x) FROM points",  # no view answers it
)
POINTS = "CREATE TABLE points (i INTEGER, k INTEGER, x DOUBLE, v VECTOR[], w VECTOR[])"
MATVIEWS = (
    "CREATE MATERIALIZED VIEW gram AS "
    "SELECT SUM(outer_product(v, v)) AS g, COUNT(v) AS n FROM points",
    f"CREATE MATERIALIZED VIEW per_k AS {PER_K}",
)


def points_rows(first, count, dim=4, w_dim=2):
    rng = np.random.default_rng(first)
    return [
        (i, i % 3, float(i) / 7.0, rng.normal(size=dim), rng.normal(size=w_dim))
        for i in range(first, first + count)
    ]


def points_db(refresh_mode="eager"):
    db = Database(TEST_CLUSTER.with_updates(view_refresh_mode=refresh_mode))
    db.execute(POINTS)
    for sql in MATVIEWS:
        db.execute(sql)
    return db


@pytest.mark.parametrize("refresh_mode", ["eager", "deferred"])
@pytest.mark.parametrize("door", ["embedded", "session"])
def test_every_hit_has_fresh_estimates_across_appends_and_view_events(
    door, refresh_mode, monkeypatch
):
    """A plan keeps hitting while neither the shape nor the statistics
    it read moved. After each event — the first append (which fixes the
    ``VECTOR[]`` dimensions), later appends, a dimension that stops
    agreeing, DELETE, REFRESH, DROP and CREATE of a view and of the table
    — every statement's hit equals a fresh compile, through either
    door, and so after a DROP and CREATE of the table with equal
    content."""
    db = points_db(refresh_mode)
    execute = db.execute if door == "embedded" else db.service().session().execute
    step = iter(range(0, 10_000, 12))

    def append(**dims):
        db.load("points", points_rows(next(step), 12, **dims))

    def recreate_table(rows=None):
        for name in ("gram", "per_k"):
            execute(f"DROP MATERIALIZED VIEW {name}")
        execute("DROP TABLE points")
        execute(POINTS)
        for sql in MATVIEWS:
            execute(sql)
        db.load("points", rows or points_rows(next(step), 12, dim=3))

    def recreate_equal():
        """The same schema, views and rows again: equal shapes (but for
        the views, new objects) and equal statistics."""
        before = db.catalog.table("points").statistics_read()
        recreate_table(db.execute("SELECT i, k, x, v, w FROM points").rows)
        assert db.catalog.table("points").statistics_read() == before

    events = [
        ("first append", append),
        ("second append", append),
        ("insert", lambda: execute(
            "INSERT INTO points VALUES (5000, 1, 1.5, :v, :w)",
            {"v": Vector(np.ones(4)), "w": Vector(np.ones(2))})),
        ("w stops agreeing", lambda: append(w_dim=3)),
        ("insert select", lambda: execute(
            "INSERT INTO points SELECT i + 6000, k, x, v, w FROM points WHERE i < 3")),
        ("delete", lambda: execute("DELETE FROM points WHERE i = 1")),
        ("refresh incremental", lambda: execute("REFRESH MATERIALIZED VIEW gram")),
        ("refresh full", lambda: execute("REFRESH MATERIALIZED VIEW per_k")),
        ("append after refresh", append),
        ("drop and create the view", lambda: (
            execute("DROP MATERIALIZED VIEW gram"), execute(MATVIEWS[0]))),
        ("drop and create the table", recreate_table),
        ("append to the new table", lambda: append(dim=3)),
        ("drop and recreate with equal content", recreate_equal),
        ("append after the equal recreate", lambda: append(dim=3)),
    ]
    for label, event in events:
        event()
        for sql in OUTLIVE:
            hit = hit_with_fresh_estimates(db, sql, monkeypatch, execute)
            if sql == GRAM:
                assert hit.metrics.view_hits == 1, label
    assert db.plan_cache.stats()["invalidated"] > 0


JOINED = "SELECT p.k, COUNT(q.i) FROM points AS p, points AS q WHERE p.i = q.k GROUP BY p.k"


def test_view_answered_reads_skip_compile_after_appends(monkeypatch):
    """From the second append on, a read answered from an incremental
    view is a plan-cache hit as it is, and a scan whose statistics fed
    only its estimates is re-priced: neither calls ``Database._compile``,
    nor binds or optimizes. A statement whose join order read the
    appended table still recompiles. (A full view over the table would
    recompute on every append, which stamps its shape.)"""
    db = points_db()
    db.execute("DROP MATERIALIZED VIEW per_k")
    compiles = []
    compile_ = Database._compile
    binds, optimizes = [], []
    bind_select, optimize = Binder.bind_select, Optimizer.optimize

    def counting(self, statement, *args, **kwargs):
        compiles.append(statement)
        return compile_(self, statement, *args, **kwargs)

    monkeypatch.setattr(Database, "_compile", counting)
    monkeypatch.setattr(
        Binder, "bind_select", lambda self, stmt: binds.append(stmt) or bind_select(self, stmt)
    )
    monkeypatch.setattr(
        Optimizer, "optimize",
        lambda self, *args: optimizes.append(args[0]) or optimize(self, *args),
    )
    read_gram, recent = parse_statement(GRAM), parse_statement(RECENT)
    joined = parse_statement(JOINED)
    for step in range(4):
        db.load("points", points_rows(12 * step, 12))
        del compiles[:], binds[:], optimizes[:]
        gram = db.execute(GRAM)
        scan = db.execute(RECENT, {"lo": 12 * step})
        join = db.execute(JOINED)
        assert gram.metrics.view_hits == 1
        assert scan.rows[0][0] == 12
        assert compiles.count(joined) == 1  # every step: its join order read the row count
        if step >= 1:
            assert compiles.count(read_gram) == compiles.count(recent) == 0
            assert gram.metrics.plan_cached and scan.metrics.plan_cached
            assert node_named(scan, "Scan points").est_rows == 12.0 * (step + 1)
            assert len(binds) == len(optimizes) == 1  # the join's compile
        assert join.rows == run_fresh(db, JOINED)[0].rows
    stats = db.plan_cache.stats()
    assert stats["repriced"] == 3 and stats["invalidated"] >= 3


def test_stamps_split_into_shape_and_statistics():
    """An append moves the table's statistics stamp; its shape stamp
    moves only when a refined dimension the binder reads changes (the
    first append, or values that stop agreeing), or when a view over it
    is rebuilt — one catalog version per statement either way."""
    db = points_db()
    catalog = db.catalog

    def stamps():
        return catalog.stamp("points"), catalog.statistics_stamp("points")

    def load(rows):
        before, version = stamps(), catalog.version
        db.load("points", rows)
        assert catalog.version == version + 1
        assert stamps()[1] == catalog.version
        return stamps()[0] != before[0]

    # the first rows fix v's and w's dimensions, and the full view
    # recomputes (an eager rebuild): shape
    assert load(points_rows(0, 12))
    db.execute("DROP MATERIALIZED VIEW per_k")
    assert not load(points_rows(12, 12))  # the same dimensions: statistics only
    assert load(points_rows(24, 12, w_dim=3))  # w's lengths stop agreeing
    assert not load(points_rows(36, 12, w_dim=5))  # and stay unknown
    # a DELETE rebuilds the incremental view: shape
    shape = catalog.stamp("points")
    db.execute("DELETE FROM points WHERE i = 3")
    assert catalog.stamp("points") > shape


@pytest.mark.parametrize("refresh_mode", ["eager", "deferred"])
def test_a_dml_that_changes_no_row_changes_nothing(refresh_mode):
    """A DELETE matching nothing, an INSERT ... SELECT of no rows and a
    load of none keep the statistics, every stamp and the catalog
    version, and rebuild no view: no statistics pass, no stamp for the
    plans over the table to miss on, no view maintenance."""
    db = points_db(refresh_mode)
    db.load("points", points_rows(0, 12))
    db.execute("REFRESH MATERIALIZED VIEW per_k")
    assert db.execute(RECENT, {"lo": 0}).rows[0][0] == 12
    views = [db.catalog.materialized_view(name) for name in ("gram", "per_k")]
    refreshes = [view.refresh_count for view in views]
    version, stats = db.catalog.version, db.catalog.table("points").stats
    for sql in (
        "DELETE FROM points WHERE i > 100",
        "INSERT INTO points SELECT i, k, x, v, w FROM points WHERE i > 100",
    ):
        result = db.execute(sql)
        assert result.metrics.view_refreshes == 0
    db.load("points", [])
    assert db.catalog.version == version
    assert db.catalog.table("points").stats is stats
    assert [view.refresh_count for view in views] == refreshes
    assert all(view.fresh for view in views)
    assert db.execute(RECENT, {"lo": 0}).metrics.plan_cached
    assert db.execute(PER_K).metrics.view_hits == 1


def peak_by_walking_estimates(db, physical):
    """The per-slot peak admission compared against before estimates were
    kept on the plan: a fresh walk of ``CostModel._physical_rule``."""
    slots = db.config.slots

    def walk(node):
        inputs = [walk(child) for child in node.children()]
        est, _ = db.cost_model._physical_rule(node, [est for est, _ in inputs])
        per_slot = est.total_bytes
        if node.partitioning.kind != "broadcast":
            per_slot = est.total_bytes / slots
        return est, max([per_slot] + [peak for _, peak in inputs])

    return walk(physical)[1]


def test_admission_budget_decides_on_the_compiled_estimates(monkeypatch):
    """With ``memory_budget_bytes`` set, a hit is admitted exactly when
    the per-slot peak of the old walk fits — to the last bit — and never
    re-estimates its plan to decide."""
    db = make_db()
    for sql in (
        "SELECT k, x FROM a",
        "SELECT a.k, SUM(b.y) FROM a, b WHERE a.k = b.k GROUP BY a.k",
        "SELECT a.x, b.y FROM a, b WHERE a.x < b.y",  # a broadcast build side
    ):
        settle(db, sql)
        demand = peak_by_walking_estimates(db, cached_physical(db, sql))
        for budget, admitted in ((demand, True), (np.nextafter(demand, 0.0), False)):
            session = db.service(memory_budget_bytes=float(budget)).session()
            with monkeypatch.context() as patch:
                patch.setattr(CostModel, "_physical_rule", never_estimate)
                if admitted:
                    assert session.execute(sql).metrics.plan_cached
                else:
                    with pytest.raises(ServiceOverloadedError):
                        session.execute(sql)
