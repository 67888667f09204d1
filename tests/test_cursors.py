"""Streaming cursors, session garbage collection, and structured error
payloads — the session-side half of the network serving layer."""

import pytest

from repro import Database, TEST_CLUSTER
from repro.errors import (
    CursorClosedError,
    CursorInvalidatedError,
    QueryTimeoutError,
    RateLimitedError,
    ServiceOverloadedError,
    SessionClosedError,
    SqlSyntaxError,
)
from repro.service import ServiceConfig


@pytest.fixture
def db():
    database = Database(TEST_CLUSTER)
    database.execute("CREATE TABLE t (i INTEGER, x DOUBLE)")
    database.load("t", [(i, float(i)) for i in range(10)])
    return database


@pytest.fixture
def service(db):
    return db.service(default_page_size=4)


# -- pagination basics -------------------------------------------------------


def test_cursor_pages_through_result(service):
    with service.session() as session:
        result = session.execute("SELECT i, x FROM t")
        cursor = session.open_cursor(result)
        first = cursor.fetchmany()
        assert len(first) == 4  # default_page_size
        assert cursor.position == 4
        assert not cursor.exhausted
        rest = cursor.fetchall()
        assert len(rest) == 6
        assert cursor.exhausted
        assert first + rest == result.rows


def test_page_size_one(service):
    with service.session() as session:
        result = session.execute("SELECT i FROM t")
        cursor = session.open_cursor(result, page_size=1)
        pages = []
        while not cursor.exhausted:
            page = cursor.fetchmany()
            assert len(page) == 1
            pages.append(page[0])
        assert pages == result.rows
        assert cursor.pages_served == 10


def test_fetch_past_end_returns_empty(service):
    with service.session() as session:
        result = session.execute("SELECT i FROM t")
        cursor = session.open_cursor(result, page_size=100)
        assert len(cursor.fetchmany()) == 10
        assert cursor.exhausted
        # an exhausted cursor is still open; fetches return empty pages
        assert cursor.fetchmany() == []
        assert cursor.fetchmany() == []
        assert not cursor.closed


def test_empty_result_cursor(service):
    with service.session() as session:
        result = session.execute("SELECT i FROM t WHERE i < :k", {"k": -1})
        cursor = session.open_cursor(result)
        assert cursor.exhausted
        assert cursor.rows_total == 0
        assert cursor.fetchmany() == []
        assert cursor.fetchall() == []


def test_fetch_size_clamped_to_page_size(service):
    with service.session() as session:
        result = session.execute("SELECT i FROM t")
        cursor = session.open_cursor(result, page_size=3)
        # asking for more than the negotiated bound gets clamped
        assert len(cursor.fetchmany(1000)) == 3
        # asking for less is honored
        assert len(cursor.fetchmany(2)) == 2


def test_open_cursor_page_size_clamped_by_config(db):
    service = db.service(default_page_size=4, max_page_size=6)
    with service.session() as session:
        result = session.execute("SELECT i FROM t")
        cursor = session.open_cursor(result, page_size=1000)
        assert cursor.page_size == 6


def test_bad_page_sizes_rejected(service):
    with service.session() as session:
        result = session.execute("SELECT i FROM t")
        with pytest.raises(ValueError):
            session.open_cursor(result, page_size=0)
        cursor = session.open_cursor(result)
        with pytest.raises(ValueError):
            cursor.fetchmany(0)


# -- close and invalidation --------------------------------------------------


def test_fetch_after_cursor_close(service):
    with service.session() as session:
        cursor = session.open_cursor(session.execute("SELECT i FROM t"))
        cursor.close()
        assert cursor.closed
        with pytest.raises(CursorClosedError):
            cursor.fetchmany()
        cursor.close()  # idempotent


def test_fetch_after_session_close(service):
    session = service.session()
    cursor = session.open_cursor(session.execute("SELECT i FROM t"))
    session.close()
    with pytest.raises(CursorClosedError):
        cursor.fetchmany()
    assert cursor.closed


def test_session_close_releases_cursors(service):
    session = service.session()
    c1 = session.open_cursor(session.execute("SELECT i FROM t"))
    c2 = session.open_cursor(session.execute("SELECT x FROM t"))
    assert session.open_cursors() == [c1, c2]
    session.close()
    assert c1.closed and c2.closed
    assert session.open_cursors() == []


def test_ddl_invalidates_cursor(service):
    # DDL on the relation the cursor's statement read
    with service.session() as session:
        cursor = session.open_cursor(session.execute("SELECT i FROM t"))
        assert len(cursor.fetchmany()) == 4
        session.execute("DROP TABLE t")
        with pytest.raises(CursorInvalidatedError):
            cursor.fetchmany()
        assert cursor.closed


def test_dml_invalidates_cursor(service):
    with service.session() as session:
        cursor = session.open_cursor(session.execute("SELECT i FROM t"))
        session.execute("INSERT INTO t VALUES (99, 99.0)")
        with pytest.raises(CursorInvalidatedError):
            cursor.fetchmany()


def test_materialized_view_over_the_read_table_invalidates_cursor(service):
    # a view over t moves t's shape stamp, not its statistics stamp
    with service.session() as session:
        cursor = session.open_cursor(session.execute("SELECT i FROM t"))
        session.execute("CREATE MATERIALIZED VIEW total AS SELECT SUM(x) AS s FROM t")
        with pytest.raises(CursorInvalidatedError):
            cursor.fetchmany()


def test_changes_to_other_tables_keep_the_cursor(service, db):
    """A cursor is pinned to the stamps of the relations its statement
    read, not to the catalog's version: DDL and DML elsewhere leave it
    paging."""
    db.execute("CREATE TABLE events (e INTEGER)")
    with service.session() as session:
        cursor = session.open_cursor(session.execute("SELECT i FROM t"))
        assert len(cursor.fetchmany()) == 4
        session.execute("INSERT INTO events VALUES (1)")
        session.execute("CREATE TABLE other (j INTEGER)")
        session.execute("DROP TABLE other")
        assert len(cursor.fetchmany()) == 4
        session.execute("INSERT INTO t VALUES (99, 99.0)")
        with pytest.raises(CursorInvalidatedError, match="t changed"):
            cursor.fetchmany()


def test_a_dml_that_changes_no_row_keeps_the_cursor(service):
    with service.session() as session:
        cursor = session.open_cursor(session.execute("SELECT i FROM t"))
        session.execute("DELETE FROM t WHERE i > 100")
        session.execute("INSERT INTO t SELECT i, x FROM t WHERE i > 100")
        assert len(cursor.fetchall()) == 10


def test_temp_view_does_not_invalidate_cursor(service):
    # temp views are session-local: the shared catalog version does not
    # move, so open cursors stay valid
    with service.session() as session:
        cursor = session.open_cursor(session.execute("SELECT i FROM t"))
        session.execute("CREATE TEMP VIEW v AS SELECT i FROM t")
        assert len(cursor.fetchall()) == 10


def test_ephemeral_session_closes_with_last_cursor(service):
    session = service.session()
    cursor = session.open_cursor(session.execute("SELECT i FROM t"))
    session.ephemeral = True
    cursor.close()
    assert session.closed
    assert session.name not in service.sessions()


# -- session TTL garbage collection ------------------------------------------


def make_clock(start=0.0):
    state = {"now": start}

    def advance(delta):
        state["now"] += delta

    return (lambda: state["now"]), advance


def test_session_gc_reaps_idle_sessions(db):
    from repro.service import QueryService

    clock, advance = make_clock()
    service = QueryService(
        db, ServiceConfig(session_ttl_s=10.0), time_source=clock
    )
    idle = service.session("idle")
    idle.execute("SELECT i FROM t")
    busy = service.session("busy")
    advance(11.0)
    busy.execute("SELECT i FROM t")  # refreshes busy.last_used
    collected = service.gc_sessions()
    assert collected == ["idle"]
    assert idle.closed and not busy.closed
    stats = service.stats()["session_gc"]
    assert stats["collected"] == 1
    assert stats["active"] == 1


def test_session_gc_releases_temp_views_and_cursors(db):
    from repro.service import QueryService

    clock, advance = make_clock()
    service = QueryService(
        db, ServiceConfig(session_ttl_s=5.0), time_source=clock
    )
    session = service.session("doomed")
    session.execute("CREATE TEMP VIEW v AS SELECT i FROM t")
    cursor = session.open_cursor(session.execute("SELECT i FROM v"))
    advance(6.0)
    assert service.gc_sessions() == ["doomed"]
    assert cursor.closed
    assert session.temp_views() == []
    with pytest.raises(SessionClosedError):
        session.execute("SELECT i FROM t")


def test_session_gc_triggered_by_new_session(db):
    from repro.service import QueryService

    clock, advance = make_clock()
    service = QueryService(
        db, ServiceConfig(session_ttl_s=5.0), time_source=clock
    )
    old = service.session("old")
    advance(6.0)
    service.session("new")  # session() sweeps before allocating
    assert old.closed


def test_session_gc_disabled_by_default(db):
    service = db.service()
    session = service.session()
    assert service.gc_sessions() == []
    assert not session.closed


# -- structured error payloads -----------------------------------------------


def test_error_payload_base_shape():
    exc = SessionClosedError("session 'x' is closed")
    payload = exc.to_payload()
    assert payload == {
        "code": "session_closed",
        "message": "session 'x' is closed",
    }


def test_overload_payload_carries_retry_after():
    exc = ServiceOverloadedError(
        "queue full", retry_after_s=1.5, queue_depth=8, queue_limit=8
    )
    payload = exc.to_payload()
    assert payload["code"] == "service_overloaded"
    assert payload["retry_after_s"] == 1.5
    assert payload["queue_depth"] == 8
    assert payload["queue_limit"] == 8


def test_timeout_payload_carries_budget_and_elapsed():
    exc = QueryTimeoutError("too slow", timeout_s=2.0, elapsed_s=3.5)
    payload = exc.to_payload()
    assert payload["code"] == "query_timeout"
    assert payload["timeout_s"] == 2.0
    assert payload["elapsed_s"] == 3.5


def test_rate_limited_payload():
    exc = RateLimitedError("slow down", tenant="acme", retry_after_s=0.25)
    payload = exc.to_payload()
    assert payload["code"] == "rate_limited"
    assert payload["tenant"] == "acme"
    assert payload["retry_after_s"] == 0.25


def test_syntax_error_payload_carries_position():
    exc = SqlSyntaxError("unexpected token", line=2, column=7)
    payload = exc.to_payload()
    assert payload["code"] == "sql_syntax"
    assert payload["line"] == 2
    assert payload["column"] == 7


def test_live_overload_error_is_structured(db):
    service = db.service(max_concurrency=1, admission_queue_limit=0)
    s1 = service.session()
    s2 = service.session()
    s1.submit("SELECT SUM(x) FROM t")
    with pytest.raises(ServiceOverloadedError) as excinfo:
        s2.submit("SELECT SUM(x) FROM t")
    payload = excinfo.value.to_payload()
    assert payload["code"] == "service_overloaded"
    assert payload["retry_after_s"] > 0
