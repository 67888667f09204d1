"""The HTTP serving layer: wire protocol, streaming fetch, detached
jobs, rate limiting, shedding, and the concurrent-vs-serial
bit-identity stress test."""

import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.errors import ReproError
from repro.server import (
    Server,
    ServerClient,
    ServerConfig,
    ServerError,
    canonical_json,
    canonical_result,
    decode_cursor_token,
    decode_params,
    decode_value,
    encode_cursor_token,
    encode_value,
)
from repro.server.ratelimit import TenantRateLimiter, TokenBucket
from repro.service import QueryService, ServiceConfig
from repro.types import LabeledScalar, Matrix, Vector


def make_db(rows=24, dims=4, seed=7, config=TEST_CLUSTER):
    db = Database(config)
    db.execute("CREATE TABLE points (i INTEGER, vec VECTOR[])")
    db.execute("CREATE TABLE outcomes (i INTEGER, y_i DOUBLE)")
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, dims))
    beta = rng.normal(size=dims)
    outcomes = data @ beta
    db.load("points", [(i, data[i]) for i in range(rows)])
    db.load("outcomes", [(i, float(outcomes[i])) for i in range(rows)])
    return db


@pytest.fixture
def server():
    with Server(make_db(), service_config=ServiceConfig(default_page_size=8)) as srv:
        yield srv


@pytest.fixture
def client(server):
    with ServerClient(*server.address) as c:
        yield c


def wait_job(client, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        poll = client.poll_job(job_id)
        if poll["state"] in ("done", "error"):
            return poll
        time.sleep(0.005)
    raise AssertionError(f"job {job_id} never finished")


# -- protocol encoding -------------------------------------------------------


def test_value_codec_roundtrip():
    values = [
        None,
        True,
        7,
        2.5,
        "text",
        LabeledScalar(1.5, 3),
        Vector([1.0, 2.0, 3.0], label=9),
        Matrix([[1.0, 0.0], [0.0, 1.0]]),
    ]
    for value in values:
        decoded = decode_value(encode_value(value))
        if isinstance(value, Vector):
            assert isinstance(decoded, Vector)
            assert np.array_equal(decoded.data, value.data)
            assert decoded.label == value.label
        elif isinstance(value, Matrix):
            assert isinstance(decoded, Matrix)
            assert np.array_equal(decoded.data, value.data)
        else:
            assert decoded == value


def _double_of(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: every double JSON numbers cannot carry, a NaN's payload and sign, a
#: signed zero, and plain ones
ODD_DOUBLES = (
    float("inf"), float("-inf"), _double_of(0x7FF8_0000_DEAD_BEEF),
    _double_of(0xFFF8_0000_0000_1234), -0.0, 0.0, 1.5, 2.0**-1074,
)


def _bits(cell):
    """A result cell with every double by its eight bytes."""
    if isinstance(cell, float):
        return struct.pack("<d", cell)
    if isinstance(cell, (Vector, Matrix)):
        return type(cell).__name__, cell.data.shape, cell.data.astype("<f8").tobytes()
    return cell


def test_non_finite_cells_round_trip_bit_for_bit():
    """±inf, NaN with payload bits and -0.0 in DOUBLE, VECTOR and MATRIX
    cells come back from ``query_all`` with every bit — paged, over one
    keep-alive connection that stays up."""
    db = Database(TEST_CLUSTER)
    db.execute("CREATE TABLE odd (i INTEGER, x DOUBLE, v VECTOR[])")
    db.load("odd", [
        (i, x, np.array([x, -x, ODD_DOUBLES[-1 - i]]))
        for i, x in enumerate(ODD_DOUBLES)
    ])
    sql = "SELECT i, x, v, row_matrix(v) FROM odd ORDER BY i"
    want = [tuple(map(_bits, row)) for row in db.execute(sql).rows]
    assert len(want) == len(ODD_DOUBLES)
    with Server(db) as srv, ServerClient(*srv.address) as client:
        _, rows = client.query_all(sql, page_size=3)
        assert [tuple(map(_bits, row)) for row in rows] == want
        assert client.health()["status"] == "ok"
    for x in ODD_DOUBLES:
        for value in (x, Vector([x, 1.0]), Matrix([[x], [-x]])):
            assert _bits(decode_value(encode_value(value))) == _bits(value)


def test_an_unencodable_response_is_500_and_the_connection_stays(client, monkeypatch):
    """A response the server cannot serialize is answered 500 ``internal``
    on the same connection, which keeps serving."""
    import repro.server.app as app_module

    real = app_module.canonical_json

    def failing(payload):
        if "columns" in payload:
            raise ValueError("Out of range float values are not JSON compliant")
        return real(payload)

    monkeypatch.setattr(app_module, "canonical_json", failing)
    status, _, body = client.request("POST", "/query", payload={"sql": "SELECT i FROM points"})
    assert status == 500 and body["error"]["code"] == "internal"
    assert client.health()["status"] == "ok"


def test_canonical_json_is_deterministic():
    a = canonical_json({"b": [1.0, 0.1], "a": "x"})
    b = canonical_json({"a": "x", "b": [1.0, 0.1]})
    assert a == b
    assert " " not in a


def test_cursor_token_roundtrip():
    token = encode_cursor_token("session-1", 42)
    assert decode_cursor_token(token) == ("session-1", 42)
    assert "session-1" not in token  # opaque, not plain text


# -- basic endpoints ---------------------------------------------------------


def test_health(client):
    payload = client.health()
    assert payload["status"] == "ok"
    assert payload["protocol_version"] == 2


def test_stats_includes_server_section(client):
    client.query("SELECT COUNT(i) FROM points")
    stats = client.stats()
    assert stats["server"]["requests_total"] >= 2
    assert "rate_limiter" in stats
    assert "jobs" in stats
    assert "session_gc" in stats


def test_query_single_page(client):
    resp = client.query("SELECT SUM(y_i) FROM outcomes")
    assert resp["done"] is True
    assert "cursor" not in resp
    assert resp["row_count"] == 1
    assert len(resp["rows"]) == 1


def test_query_pagination_over_wire(client):
    resp = client.query("SELECT i, y_i FROM outcomes", page_size=5)
    assert resp["done"] is False
    assert len(resp["rows"]) == 5
    rows = list(resp["rows"])
    pages = 1
    while not resp["done"]:
        resp = client.fetch(resp["cursor"])
        rows.extend(resp["rows"])
        pages += 1
    assert len(rows) == 24
    assert pages == 5  # 24 rows / 5 per page
    assert sorted(row[0] for row in rows) == list(range(24))


def test_query_with_params_and_vector_values(client):
    cols, rows = client.query_all(
        "SELECT i, vec FROM points WHERE i < :k", {"k": 3}
    )
    assert cols == ["i", "vec"]
    assert len(rows) == 3
    assert all(isinstance(row[1], Vector) for row in rows)


def test_named_sessions_and_temp_views(client):
    name = client.open_session("alice")
    assert name == "alice"
    client.query("CREATE TEMP VIEW few AS SELECT i FROM points WHERE i < 2",
                 session="alice")
    _, rows = client.query_all("SELECT COUNT(i) FROM few", session="alice")
    assert rows == [[2]]
    client.close_session("alice")
    with pytest.raises(ServerError) as excinfo:
        client.query("SELECT i FROM points", session="alice")
    assert excinfo.value.status == 410
    assert excinfo.value.code == "session_closed"


def test_fetch_after_session_close_is_410(client):
    client.open_session("bob")
    resp = client.query("SELECT i FROM outcomes", session="bob", page_size=4)
    token = resp["cursor"]
    client.close_session("bob")
    with pytest.raises(ServerError) as excinfo:
        client.fetch(token)
    assert excinfo.value.status == 410
    assert excinfo.value.code == "cursor_closed"


def test_ddl_invalidates_wire_cursor(client):
    client.open_session("carol")
    resp = client.query("SELECT i FROM outcomes", session="carol", page_size=4)
    # DDL elsewhere leaves the cursor paging; DDL on what it read does not
    client.query("CREATE TABLE scratch (j INTEGER)", session="carol")
    assert len(client.fetch(resp["cursor"])["rows"]) == 4
    client.query("DROP TABLE outcomes", session="carol")
    with pytest.raises(ServerError) as excinfo:
        client.fetch(resp["cursor"])
    assert excinfo.value.status == 410
    assert excinfo.value.code == "cursor_invalidated"


def test_ephemeral_sessions_do_not_accumulate(server, client):
    for _ in range(5):
        client.query("SELECT COUNT(i) FROM points")
    # fully-drained anonymous queries release their sessions at once
    assert server.service.sessions() == {}
    resp = client.query("SELECT i FROM outcomes", page_size=4)
    assert len(server.service.sessions()) == 1  # cursor keeps it alive
    while not resp["done"]:
        resp = client.fetch(resp["cursor"])
    assert server.service.sessions() == {}


def test_ephemeral_sessions_leave_no_per_request_state(server, client):
    """Anonymous queries fold into one ``ephemeral`` stats row and leave
    no fair-share entry behind: ``/stats`` must not grow per request."""
    for _ in range(300):
        client.query("SELECT COUNT(i) FROM points")
    stats = server.stats()
    assert stats["queries"] == 300
    assert len(stats["sessions"]) <= 2
    assert stats["sessions"]["ephemeral"]["queries"] == 300
    assert len(server.service.scheduler.usage) <= 2


# -- error mapping -----------------------------------------------------------


def test_syntax_error_is_400_with_structured_payload(client):
    with pytest.raises(ServerError) as excinfo:
        client.query("SELEKT broken")
    exc = excinfo.value
    assert exc.status == 400
    assert exc.code == "sql_syntax"
    assert "line" in exc.payload


def test_unknown_column_is_400(client):
    with pytest.raises(ServerError) as excinfo:
        client.query("SELECT nope FROM points")
    assert excinfo.value.status == 400
    assert excinfo.value.code == "name_resolution"


def test_unknown_route_404_and_method_405(client):
    status, _, body = client.request("GET", "/nope")
    assert status == 404
    assert body["error"]["code"] == "not_found"
    status, _, body = client.request("PUT", "/query")
    assert status == 405


def test_bad_json_body_is_400(client):
    status, _, body = client.request("POST", "/query", payload=None)
    assert status == 400 or body.get("error")
    # raw invalid bytes
    import socket as _socket

    raw = (
        b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n"
        b"Connection: close\r\n\r\nnotjs"
    )
    with _socket.create_connection(client._sock.getpeername() if client._sock
                                   else (client.host, client.port)) as s:
        s.sendall(raw)
        reply = s.recv(65536)
    assert b"400" in reply.split(b"\r\n", 1)[0]


def test_bad_page_size_is_400(client):
    for bad in (0, -3, "ten", 1.5, True):
        status, _, body = client.request(
            "POST", "/query",
            payload={"sql": "SELECT i FROM points", "page_size": bad},
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"
    # still no stray sessions from the rejected requests
    assert client.health()["status"] == "ok"


def test_job_bad_page_size_is_400_and_registers_no_job(client):
    status, _, body = client.request(
        "POST", "/jobs",
        payload={"sql": "SELECT i FROM points", "page_size": 0},
    )
    assert status == 400
    assert body["error"]["code"] == "bad_request"
    assert client.stats()["jobs"]["live"] == 0


def test_bad_fetch_size_is_400(client):
    resp = client.query("SELECT i FROM outcomes", page_size=4)
    for bad in (0, -1, "lots"):
        status, _, body = client.request(
            "POST", "/fetch", payload={"cursor": resp["cursor"], "size": bad}
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"
    # the cursor survived the rejected fetches
    page = client.fetch(resp["cursor"])
    assert len(page["rows"]) == 4


def test_bad_params_get_400_not_dropped_connection(client):
    # bare JSON array (ambiguous) and unknown $type both raise ValueError
    # deep in decode_params; the server must answer 400, not hang up
    for bad in ([1.0, 2.0], {"$type": "tensor", "data": []}):
        status, _, body = client.request(
            "POST", "/query",
            payload={"sql": "SELECT i FROM points", "params": {"v": bad}},
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"
    # same keep-alive connection still works
    assert client.health()["status"] == "ok"


@pytest.mark.parametrize(
    "params",
    [
        {"k": {"$type": "vector"}},  # no 'data'
        [1, 2],  # not an object
        {"k": {"$type": "vector", "data": [1.0], "label": None}},
        {"k": {"$type": "labeled", "value": None}},
        {"k": {"$type": "vector", "f64": "not base64!"}},
        {"k": {"$type": "vector", "f64": "AAAA"}},  # 3 bytes
        {"k": {"$type": "vector", "f64": 7}},
        {"k": {"$type": "matrix", "f64": "AAAAAAAAAAA=", "shape": [2, 2]}},
        {"k": {"$type": "matrix", "f64": "AAAAAAAAAAA="}},  # no shape
        {"k": {"$type": "double", "f64": "AAAAAAAAAAAAAAAAAAAAAA=="}},  # 16 bytes
    ],
)
def test_malformed_params_are_400_not_500(client, params):
    status, _, body = client.request(
        "POST", "/query", payload={"sql": "SELECT i FROM points", "params": params}
    )
    assert status == 400
    assert body["error"]["code"] == "bad_request"


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["$type", "vector", "matrix", "labeled", "data", "label"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["$type", "data", "label", "value"]) | st.text(max_size=4),
        children,
        max_size=4,
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_decode_params_returns_or_raises_a_client_error(params):
    """Whatever JSON a client posts as ``params``: a decoded dict, or
    the ValueError / ReproError the server turns into a 4xx."""
    try:
        decoded = decode_params(params)
    except (ValueError, ReproError):
        return
    assert isinstance(decoded, dict)


def _raw_roundtrip(address, data):
    import socket

    with socket.create_connection(address) as s:
        s.sendall(data)
        reply = b""
        while True:
            part = s.recv(65536)
            if not part:
                break
            reply += part
    return reply


def test_malformed_content_length_is_400(server):
    reply = _raw_roundtrip(
        server.address,
        b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n",
    )
    assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
    assert b"bad_content_length" in reply


def test_oversized_body_is_413():
    db = make_db()
    with Server(db, config=ServerConfig(max_body_bytes=64)) as srv:
        reply = _raw_roundtrip(
            srv.address,
            b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n",
        )
    assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 413 Payload Too Large"
    assert b"body_too_large" in reply


def test_oversized_head_is_413_and_bad_request_line_closes(server):
    reply = _raw_roundtrip(
        server.address,
        b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * (70 * 1024) + b"\r\n\r\n",
    )
    assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 413 Payload Too Large"
    assert b"headers_too_large" in reply
    assert _raw_roundtrip(server.address, b"GARBAGE\r\n\r\n") == b""


def test_query_timeout_is_504():
    db = make_db()
    with Server(db, service_config=ServiceConfig(query_timeout_s=1e-6)) as srv:
        with ServerClient(*srv.address) as c:
            with pytest.raises(ServerError) as excinfo:
                c.query("SELECT SUM(y_i) FROM outcomes")
            assert excinfo.value.status == 504
            assert excinfo.value.code == "query_timeout"
            assert excinfo.value.payload["timeout_s"] == 1e-6


def test_service_overload_is_429_with_retry_after():
    db = make_db()
    config = ServiceConfig(memory_budget_bytes=1.0)  # rejects everything
    with Server(db, service_config=config) as srv:
        with ServerClient(*srv.address) as c:
            with pytest.raises(ServerError) as excinfo:
                c.query("SELECT SUM(y_i) FROM outcomes")
            exc = excinfo.value
            assert exc.status == 429
            assert exc.code == "service_overloaded"
            assert "retry-after" in exc.headers


def test_inflight_cap_sheds_with_retry_after_header():
    db = make_db()
    with Server(db, config=ServerConfig(max_inflight=0,
                                        shed_retry_after_s=0.125)) as srv:
        with ServerClient(*srv.address) as c:
            with pytest.raises(ServerError) as excinfo:
                c.health()
            exc = excinfo.value
            assert exc.status == 429
            assert exc.headers["retry-after"] == "0.125"
            assert exc.retry_after_s == 0.125
        assert srv.shed_total == 1


# -- rate limiting -----------------------------------------------------------


def test_token_bucket_refills():
    clock = {"now": 0.0}
    bucket = TokenBucket(rate=2.0, burst=2.0, time_source=lambda: clock["now"])
    assert bucket.try_acquire() is None
    assert bucket.try_acquire() is None
    retry_after = bucket.try_acquire()
    assert retry_after == pytest.approx(0.5)
    clock["now"] += 0.5
    assert bucket.try_acquire() is None
    assert bucket.stats()["granted"] == 3
    assert bucket.stats()["rejected"] == 1


def test_rate_limiter_is_per_tenant():
    clock = {"now": 0.0}
    limiter = TenantRateLimiter(rate=1.0, burst=1.0,
                                time_source=lambda: clock["now"])
    limiter.acquire("a")
    limiter.acquire("b")  # separate bucket, not affected by a's spend
    from repro.errors import RateLimitedError

    with pytest.raises(RateLimitedError) as excinfo:
        limiter.acquire("a")
    assert excinfo.value.tenant == "a"
    assert excinfo.value.retry_after_s > 0


def test_wire_rate_limit_429():
    db = make_db()
    config = ServerConfig(rate_limit_qps=0.001, rate_limit_burst=1.0)
    with Server(db, config=config) as srv:
        with ServerClient(*srv.address) as c:
            c.query("SELECT COUNT(i) FROM points", tenant="acme")
            with pytest.raises(ServerError) as excinfo:
                c.query("SELECT COUNT(i) FROM points", tenant="acme")
            exc = excinfo.value
            assert exc.status == 429
            assert exc.code == "rate_limited"
            assert exc.payload["tenant"] == "acme"
            assert "retry-after" in exc.headers
            # another tenant still gets through
            c.query("SELECT COUNT(i) FROM points", tenant="other")
        assert srv.rate_limited_total == 1


def test_rate_limited_ephemeral_session_is_released():
    """A 429 on an anonymous query must not leak its ephemeral session
    into the service (unbounded growth under sustained shed traffic)."""
    db = make_db()
    config = ServerConfig(rate_limit_qps=0.001, rate_limit_burst=1.0)
    with Server(db, config=config) as srv:
        with ServerClient(*srv.address) as c:
            c.query("SELECT COUNT(i) FROM points", tenant="acme")
            for _ in range(3):
                with pytest.raises(ServerError) as excinfo:
                    c.query("SELECT COUNT(i) FROM points", tenant="acme")
                assert excinfo.value.status == 429
        assert srv.service.sessions() == {}


# -- detached jobs -----------------------------------------------------------


def test_job_lifecycle(client):
    job_id = client.submit_job("SELECT SUM(y_i) FROM outcomes")
    poll = wait_job(client, job_id)
    assert poll["state"] == "done"
    assert poll["columns"] == ["sum"]
    assert poll["row_count"] == 1
    page = client.fetch(poll["cursor"])
    assert page["done"] is True
    assert len(page["rows"]) == 1
    # the result was fetched; polling again reflects that
    assert client.poll_job(job_id).get("fetched") is True
    client.delete_job(job_id)
    with pytest.raises(ServerError) as excinfo:
        client.poll_job(job_id)
    assert excinfo.value.status == 404


def test_job_error_surfaces_structured_payload(client):
    job_id = client.submit_job("SELECT nope FROM points")
    poll = wait_job(client, job_id)
    assert poll["state"] == "error"
    assert poll["error"]["code"] == "name_resolution"
    client.delete_job(job_id)


def test_division_by_zero_is_an_execution_error(client):
    """A scalar divided by zero is the engine's structured error on the
    wire and in a job — never the catch-all ``internal``."""
    with pytest.raises(ServerError) as excinfo:
        client.query("SELECT 1 / (i - i) FROM points")
    assert excinfo.value.code == "execution_error"
    assert "division by zero" in str(excinfo.value)
    job_id = client.submit_job("SELECT y_i / 0.0 FROM outcomes")
    poll = wait_job(client, job_id)
    assert poll["state"] == "error"
    assert poll["error"]["code"] == "execution_error"
    client.delete_job(job_id)


def test_oversized_tensor_is_an_execution_error(client):
    """A tensor numpy cannot allocate answers the engine's structured
    error, not ``bad_request`` carrying numpy's message."""
    with pytest.raises(ServerError) as excinfo:
        client.query("SELECT zeros_vector(4611686018427387904) FROM points")
    assert excinfo.value.code == "execution_error"
    assert "zeros_vector: cannot allocate" in str(excinfo.value)


def test_job_result_streams_in_pages(client):
    job_id = client.submit_job("SELECT i, y_i FROM outcomes", page_size=10)
    poll = wait_job(client, job_id)
    rows = []
    resp = client.fetch(poll["cursor"])
    rows.extend(resp["rows"])
    while not resp["done"]:
        resp = client.fetch(resp["cursor"])
        rows.extend(resp["rows"])
    assert len(rows) == 24
    client.delete_job(job_id)


def test_delete_running_job_releases_session(server, client):
    job_id = client.submit_job("SELECT SUM(outer_product(vec, vec)) FROM points")
    client.delete_job(job_id)
    wait_deadline = time.monotonic() + 10.0
    while time.monotonic() < wait_deadline:
        if not any(n.startswith("job-") for n in server.service.sessions()):
            break
        time.sleep(0.005)
    assert not any(n.startswith("job-") for n in server.service.sessions())


class _ImmediateExecutor:
    """Runs the job synchronously in submit(), for deterministic tests."""

    def submit(self, fn, *args):
        fn(*args)


def test_job_internal_error_lands_in_error_state_not_stuck_running():
    """A non-ReproError inside the worker (here: an invalid page_size
    reaching the cursor directly, bypassing HTTP validation) must
    transition the job to 'error' and release its session — never leave
    it 'running' forever."""
    from repro.server.jobs import JobManager

    service = QueryService(make_db(), ServiceConfig())
    manager = JobManager(service, _ImmediateExecutor())
    job = manager.submit("SELECT COUNT(i) FROM points", page_size=0)
    assert job.state == "error"
    assert job.error["code"] == "internal"
    assert job.session.closed
    assert service.sessions() == {}
    assert manager.stats()["failed"] == 1


def test_delete_during_submit_window_closes_session():
    """delete() racing submit() in the window between job registration
    and session assignment must not leak the session."""
    from repro.server.jobs import JobManager

    service = QueryService(make_db(), ServiceConfig())
    manager = JobManager(service, _ImmediateExecutor())
    real_session = service.session

    def delete_in_window(name=None, tenant=None):
        session = real_session(name, tenant=tenant)
        # the job is registered but job.session is still None: exactly
        # the window where a concurrent DELETE /jobs/<id> sees nothing
        assert manager.delete(name[len("job-"):])
        return session

    service.session = delete_in_window
    try:
        job = manager.submit("SELECT COUNT(i) FROM points")
    finally:
        service.session = real_session
    assert job.state == "deleted"
    assert job.session.closed
    assert service.sessions() == {}


# -- one thread per connection: what the design keeps ------------------------


class Held:
    """Holds every ``/query`` handler on an Event, inside the statement
    permit: ``arrived`` counts handlers that got in, ``peak`` is the most
    that were ever in at once."""

    def __init__(self, server):
        self.release = threading.Event()
        self.arrived = threading.Semaphore(0)
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()
        self._query = server._query
        server._query = self

    def __call__(self, payload):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        self.arrived.release()
        try:
            self.release.wait(10)
            return self._query(payload)
        finally:
            with self._lock:
                self.active -= 1

    def wait_arrived(self):
        assert self.arrived.acquire(timeout=10), "no held handler arrived"


def in_background(fn, *args):
    outcome = {}

    def run():
        try:
            outcome["value"] = fn(*args)
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


def finished(thread, outcome):
    thread.join(10)
    assert not thread.is_alive()
    return outcome["value"]


def query_from_new_connection(server, sql="SELECT COUNT(i) FROM points"):
    with ServerClient(*server.address) as c:
        return c.query(sql)


def wait_inflight(server, count):
    """Poll until ``count`` requests are admitted (a state, not a delay)."""
    deadline = time.monotonic() + 10
    while server.stats()["server"]["inflight"] != count:
        assert time.monotonic() < deadline, "requests never became in flight"
        time.sleep(0.001)


def test_health_answers_while_a_statement_is_held(server):
    held = Held(server)
    thread, outcome = in_background(query_from_new_connection, server)
    held.wait_arrived()
    with ServerClient(*server.address) as c:
        health = c.health()
    # the held statement and this request
    assert health["status"] == "ok" and health["inflight"] == 2
    held.release.set()
    assert finished(thread, outcome)["rows"] == [[24]]


def test_inflight_cap_sheds_across_connections():
    db = make_db()
    with Server(db, config=ServerConfig(max_inflight=1)) as srv:
        held = Held(srv)
        thread, outcome = in_background(query_from_new_connection, srv)
        held.wait_arrived()
        with ServerClient(*srv.address) as c:
            with pytest.raises(ServerError) as excinfo:
                c.query("SELECT COUNT(i) FROM points")
        assert excinfo.value.status == 429
        assert excinfo.value.code == "service_overloaded"
        assert "retry-after" in excinfo.value.headers
        held.release.set()
        assert finished(thread, outcome)["rows"] == [[24]]
        assert srv.shed_total == 1


@pytest.mark.parametrize("worker_threads", [1, 2])
def test_worker_threads_bound_the_statements_running_at_once(worker_threads):
    db = make_db(config=TEST_CLUSTER.with_updates(worker_threads=worker_threads))
    with Server(db) as srv:
        held = Held(srv)
        runs = [in_background(query_from_new_connection, srv) for _ in range(2)]
        held.wait_arrived()
        if worker_threads == 1:
            # the second request is admitted and waits for the permit
            wait_inflight(srv, 2)
            assert not held.arrived.acquire(blocking=False)
        else:
            held.wait_arrived()  # both are in at once
        held.release.set()
        for thread, outcome in runs:
            assert finished(thread, outcome)["rows"] == [[24]]
    assert held.peak == worker_threads


def test_connection_threads_keep_every_count_under_a_fast_switch_interval():
    """More client connections than cores, the interpreter switching
    threads every few microseconds: no count the connection threads
    share loses an update."""
    clients, rounds = 6, 15
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Server(make_db()) as srv:
            barrier = threading.Barrier(clients)

            def hammer():
                with ServerClient(*srv.address) as c:
                    barrier.wait(10)
                    for _ in range(rounds):
                        c.query("SELECT COUNT(i) FROM points WHERE i < :k", {"k": 9})
                        c.health()

            runs = [in_background(hammer) for _ in range(clients)]
            for thread, outcome in runs:
                finished(thread, outcome)
            stats = srv.stats()["server"]
    finally:
        sys.setswitchinterval(previous)
    requests = clients * rounds * 2
    assert stats["requests_total"] == requests
    assert stats["responses_by_status"] == {"200": requests}
    assert stats["inflight"] == 0
    assert stats["connections_total"] == clients


def test_client_timeout_never_resends_the_request():
    db = make_db()
    db.execute("CREATE TABLE events (i INTEGER)")
    with Server(db) as srv:
        inserted = threading.Event()
        release = threading.Event()
        real_query = srv._query

        def slow_query(payload):
            try:
                return real_query(payload)
            finally:
                inserted.set()
                release.wait(10)

        srv._query = slow_query
        with ServerClient(*srv.address, timeout=0.2) as c:
            with pytest.raises(TimeoutError):
                c.query("INSERT INTO events VALUES (1)")
            assert c._sock is None  # a connection out of step is dropped
        assert inserted.wait(10)
        release.set()
        srv._query = real_query
        wait_inflight(srv, 0)
        with ServerClient(*srv.address) as c:
            assert c.query("SELECT COUNT(i) FROM events")["rows"] == [[1]]


def test_failed_connection_thread_start_is_429_and_serving_goes_on(
    server, monkeypatch
):
    real_start = threading.Thread.start

    def start(thread):
        if thread.name == "repro-server-conn":
            raise RuntimeError("can't start new thread")
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    with ServerClient(*server.address) as c:
        with pytest.raises(ServerError) as excinfo:
            c.health()
    assert excinfo.value.status == 429
    assert excinfo.value.code == "service_overloaded"
    assert "retry-after" in excinfo.value.headers
    monkeypatch.undo()
    with ServerClient(*server.address) as c:
        assert c.health()["status"] == "ok"
        stats = c.stats()["server"]
    assert (stats["connections_open"], stats["connections_total"]) == (1, 2)


# -- concurrency stress: bit-identity vs serial ------------------------------


STRESS_QUERIES = [
    ("SELECT SUM(outer_product(vec, vec)) FROM points WHERE i < :k", {"k": 11}),
    ("SELECT SUM(vec * :w) FROM points", {"w": 0.75}),
    ("SELECT COUNT(i) FROM points WHERE i < :k", {"k": 19}),
    ("SELECT i, y_i FROM outcomes WHERE i < :k", {"k": 17}),
    ("SELECT SUM(vec * y_i) FROM points, outcomes "
     "WHERE points.i = outcomes.i AND points.i < :k", {"k": 13}),
    ("SELECT i, vec * :w FROM points WHERE i < :k", {"k": 9, "w": -1.5}),
]


def serial_answers():
    """Ground truth: the same queries, one session, no concurrency."""
    db = make_db()
    service = QueryService(db, ServiceConfig())
    answers = {}
    with service.session() as session:
        for sql, params in STRESS_QUERIES:
            result = session.execute(sql, params)
            answers[sql] = canonical_result(result.columns, result.rows)
    return answers


def test_concurrent_results_bit_identical_to_serial():
    """Many real threads over real sockets, every response compared
    byte-for-byte against a serial single-session run."""
    expected = serial_answers()
    db = make_db()
    threads = 8
    rounds = 6
    mismatches = []
    errors = []
    barrier = threading.Barrier(threads)

    with Server(db, service_config=ServiceConfig(default_page_size=7)) as srv:

        def hammer(worker_id):
            try:
                with ServerClient(*srv.address) as c:
                    barrier.wait()
                    for round_no in range(rounds):
                        sql, params = STRESS_QUERIES[
                            (worker_id + round_no) % len(STRESS_QUERIES)
                        ]
                        resp = c.query(sql, params, page_size=7)
                        rows = list(resp["rows"])
                        while not resp["done"]:
                            resp = c.fetch(resp["cursor"])
                            rows.extend(resp["rows"])
                        actual = canonical_json(
                            {"columns": resp["columns"], "rows": rows}
                        )
                        if actual != expected[sql]:
                            mismatches.append((worker_id, sql))
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append((worker_id, repr(exc)))

        workers = [
            threading.Thread(target=hammer, args=(n,)) for n in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

    assert errors == []
    assert mismatches == []


def test_concurrent_mixed_api_and_wire_traffic():
    """Direct Python-API sessions and HTTP clients share one service;
    results on both paths must agree with the serial baseline."""
    expected = serial_answers()
    db = make_db()
    errors = []
    mismatches = []

    with Server(db, service_config=ServiceConfig(default_page_size=16)) as srv:

        def api_worker():
            try:
                for sql, params in STRESS_QUERIES:
                    with srv.service.session() as session:
                        result = session.execute(sql, params)
                        actual = canonical_result(result.columns, result.rows)
                        if actual != expected[sql]:
                            mismatches.append(("api", sql))
            except Exception as exc:  # pragma: no cover
                errors.append(("api", repr(exc)))

        def wire_worker():
            try:
                with ServerClient(*srv.address) as c:
                    for sql, params in STRESS_QUERIES:
                        resp = c.query(sql, params)
                        rows = list(resp["rows"])
                        while not resp["done"]:
                            resp = c.fetch(resp["cursor"])
                            rows.extend(resp["rows"])
                        actual = canonical_json(
                            {"columns": resp["columns"], "rows": rows}
                        )
                        if actual != expected[sql]:
                            mismatches.append(("wire", sql))
            except Exception as exc:  # pragma: no cover
                errors.append(("wire", repr(exc)))

        workers = [threading.Thread(target=api_worker) for _ in range(3)]
        workers += [threading.Thread(target=wire_worker) for _ in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

    assert errors == []
    assert mismatches == []
