"""The HTTP serving layer in front of :class:`QueryService`.

A deliberately small HTTP/1.1 server — stdlib sockets only, no web
framework — exposing the query service over real sockets:

======  ======================  ==========================================
method  path                    purpose
======  ======================  ==========================================
GET     /health                 liveness + protocol version
GET     /stats                  service + server counters (JSON)
POST    /sessions               open a named session (temp views, params)
DELETE  /sessions/<name>        close it (releases temp views + cursors)
POST    /query                  execute a statement; first page + cursor
POST    /fetch                  next page of a streaming cursor
POST    /jobs                   submit a detached job, return its id
GET     /jobs/<id>              poll a job (cursor token once done)
DELETE  /jobs/<id>              drop the job and release its result
======  ======================  ==========================================

**Concurrency model.** One thread per accepted connection reads a
request with blocking reads, runs the handler, writes the response and
reads the next: a request never changes threads. A
``threading.BoundedSemaphore`` of ``ClusterConfig.worker_threads``
permits bounds the handlers executing at once, detached jobs included;
``/health`` takes none, so it answers during a long statement.
Statements on different connections genuinely overlap on reads: the
service releases its lock around cluster execution and the database's
reader–writer admission gate runs concurrent SELECTs against a stable
catalog snapshot (DDL/DML still admits exclusively). Load shedding
answers 429 with a ``Retry-After`` header at a server-wide in-flight
cap (``ServerConfig.max_inflight``, counted across connections), at
per-tenant token buckets (``ServerConfig.rate_limit_qps``) on the
statement-submitting endpoints, and on a connection whose thread
cannot be started (the server keeps serving the others).
Service-level overloads (admission queue full, circuit breaker open)
and timeouts surface the same way: the structured error payload in the
body, the HTTP status from :func:`~repro.server.protocol.status_for_error`.

**Streaming.** ``POST /query`` returns at most ``page_size`` rows plus
an opaque cursor token when more remain; ``POST /fetch`` pages through
the rest and closes the cursor on the final page. Anonymous queries run
on ephemeral sessions that are released the moment their last cursor
closes; named sessions persist until ``DELETE /sessions/<name>`` or TTL
garbage collection.
"""

from __future__ import annotations

import base64
import binascii
import json
import socket
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..db import Database
from ..errors import (
    CursorClosedError,
    ReproError,
    ServiceOverloadedError,
    SessionClosedError,
)
from ..service import QueryService, ServiceConfig
from .jobs import JobManager
from .protocol import (
    PROTOCOL_VERSION,
    canonical_json,
    decode_params,
    encode_rows,
    error_body,
    retry_after_header,
    status_for_error,
)
from .ratelimit import TenantRateLimiter

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}

#: the request line and headers together; a longer head answers 413
_HEAD_LIMIT = 64 * 1024
_RECV_BYTES = 64 * 1024


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of the network layer (the service has its own config)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read it back from ``Server.address``
    port: int = 0
    #: requests being processed at once before the server sheds with 429
    max_inflight: int = 64
    #: per-tenant token-bucket refill rate (requests/second) on /query
    #: and /jobs; None disables rate limiting
    rate_limit_qps: Optional[float] = None
    #: bucket capacity (burst); defaults to the refill rate
    rate_limit_burst: Optional[float] = None
    #: Retry-After hint on in-flight-cap shedding (seconds)
    shed_retry_after_s: float = 0.05
    #: reject request bodies larger than this
    max_body_bytes: int = 8 * 1024 * 1024

    def with_updates(self, **kwargs) -> "ServerConfig":
        return replace(self, **kwargs)


class _HttpError(Exception):
    """Non-:class:`ReproError` protocol failures (bad JSON, bad route)."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


def _error(code: str, message: str) -> Dict[str, object]:
    return {"error": {"code": code, "message": message}}


def _shutdown(sock: socket.socket) -> None:
    """Wake the thread blocked accepting or reading on ``sock``."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def encode_cursor_token(session_name: str, cursor_id: int) -> str:
    """Opaque cursor handle: the client never parses it, the server
    round-trips it back to (session, cursor)."""
    raw = canonical_json({"c": cursor_id, "s": session_name}).encode("ascii")
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


def decode_cursor_token(token: str) -> Tuple[str, int]:
    try:
        padded = token + "=" * (-len(token) % 4)
        raw = base64.urlsafe_b64decode(padded.encode("ascii"))
        payload = json.loads(raw.decode("ascii"))
        return str(payload["s"]), int(payload["c"])
    except (ValueError, KeyError, binascii.Error, UnicodeDecodeError):
        raise _HttpError(400, "bad_cursor", f"malformed cursor token {token!r}")


class Server:
    """One HTTP server bound to one :class:`QueryService`: ``start()`` and
    ``stop()`` it, or serve within a ``with`` block."""

    def __init__(
        self,
        db: Database,
        config: Optional[ServerConfig] = None,
        service: Optional[QueryService] = None,
        service_config: Optional[ServiceConfig] = None,
    ):
        self.config = config or ServerConfig()
        self.service = service or QueryService(db, service_config)
        self.db = self.service.db
        #: bounds the handlers executing at once, requests and jobs alike
        self.gate = threading.BoundedSemaphore(self.db.config.worker_threads)
        self.limiter = TenantRateLimiter(
            self.config.rate_limit_qps, self.config.rate_limit_burst
        )
        self.jobs = JobManager(self.service, gate=self.gate)
        self._inflight = 0
        self.requests_total = 0
        self.shed_total = 0
        self.rate_limited_total = 0
        self.connections_total = 0
        self.responses_by_status: Dict[int, int] = {}
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        #: open connection -> the thread serving it
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self.address: Optional[Tuple[str, int]] = None
        # assigned last: post-construction writes require the lock (see
        # repro.service.locking)
        self._lock = threading.RLock()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Server":
        """Bind, start the accept thread; ``self.address`` is then valid."""
        family = socket.AF_INET6 if ":" in self.config.host else socket.AF_INET
        listener = socket.create_server(
            (self.config.host, self.config.port), family=family
        )
        thread = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name="repro-server-accept", daemon=True,
        )
        with self._lock:
            self._listener = listener
            self._accept_thread = thread
            self.address = tuple(listener.getsockname()[:2])
        thread.start()
        return self

    def stop(self) -> None:
        """Close the listener, end every connection (a running statement
        finishes first) and release the detached jobs."""
        self._close_listener()
        with self._lock:
            accept = self._accept_thread
            self._accept_thread = None
        if accept is None:
            return
        accept.join()
        with self._lock:
            connections = list(self._connections.items())
        for conn, _ in connections:
            _shutdown(conn)
        for _, thread in connections:
            thread.join(timeout=10)
        self.jobs.shutdown()

    def drain(self, timeout: float = 30.0, checkpoint: bool = True) -> bool:
        """Graceful shutdown (what the entry point wires SIGTERM/SIGINT
        to): stop accepting connections, let in-flight requests on the
        open ones and detached jobs finish, checkpoint a durable
        database, then close the idle keep-alive connections and stop.
        Returns False when the timeout expired with work still in flight
        (the server still stops — a durable database recovers the
        stragglers from its WAL)."""
        self._close_listener()
        deadline = time.monotonic() + timeout
        drained = False
        while time.monotonic() < deadline:
            with self._lock:
                inflight = self._inflight
            if inflight == 0 and self.jobs.active_count() == 0:
                drained = True
                break
            time.sleep(0.01)
        if checkpoint and self.db.durability is not None:
            self.db.checkpoint()
        self.stop()
        return drained

    def _close_listener(self) -> None:
        with self._lock:
            listener = self._listener
            self._listener = None
        if listener is not None:
            _shutdown(listener)
            listener.close()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def url(self) -> str:
        if self.address is None:
            raise RuntimeError("server is not started")
        return f"http://{self.address[0]}:{self.address[1]}"

    # -- http --------------------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                with self._lock:
                    if self._listener is not listener:
                        return  # closed by drain() or stop()
                time.sleep(0.01)  # e.g. out of file descriptors: back off
                continue
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-server-conn", daemon=True,
            )
            with self._lock:
                self.connections_total += 1
                self._connections[conn] = thread
            try:
                thread.start()
            except RuntimeError:
                with self._lock:
                    del self._connections[conn]
                self._refuse(conn)

    def _refuse(self, conn: socket.socket) -> None:
        """Answer a connection no thread can serve with 429 and close it."""
        response = self._render(*self._shed("no thread to serve a connection"), False)
        try:
            conn.settimeout(1.0)
            conn.sendall(response)
            # read to the client's close, so its unread request does not
            # turn our close into a reset that loses the response
            conn.shutdown(socket.SHUT_WR)
            while conn.recv(_RECV_BYTES):
                pass
        except OSError:
            pass
        finally:
            conn.close()

    def _serve_connection(self, conn: socket.socket) -> None:
        buffer = bytearray()
        try:
            while True:
                try:
                    request = self._read_request(conn, buffer)
                except _HttpError as exc:
                    # parse-level failures (oversized head, bad
                    # Content-Length) still get an HTTP response; the
                    # stream is unsynchronized afterwards, so close
                    conn.sendall(self._render(
                        exc.status, _error(exc.code, str(exc)), {}, False
                    ))
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, payload, extra = self._dispatch(method, path, body)
                try:
                    response = self._render(status, payload, extra, keep_alive)
                except Exception as exc:
                    # a payload JSON cannot hold is the server's fault:
                    # answer it, and keep serving the connection
                    response = self._render(
                        500, _error("internal", f"{type(exc).__name__}: {exc}"),
                        {}, keep_alive,
                    )
                conn.sendall(response)
                if not keep_alive:
                    break
        except OSError:
            # a reset peer, a malformed request line, or stop() shutting
            # the socket down under a blocked read
            pass
        finally:
            with self._lock:
                self._connections.pop(conn, None)
            conn.close()

    def _read_request(self, conn: socket.socket, buffer: bytearray):
        """Parse one HTTP/1.1 request off ``conn`` (``buffer`` holds
        bytes read past the previous one); None on clean EOF."""
        end = buffer.find(b"\r\n\r\n")
        while end < 0 and len(buffer) <= _HEAD_LIMIT:
            chunk = conn.recv(_RECV_BYTES)
            if not chunk:
                if buffer:
                    raise ConnectionError("connection closed mid-request")
                return None
            buffer += chunk
            end = buffer.find(b"\r\n\r\n")
        if not 0 <= end <= _HEAD_LIMIT:
            raise _HttpError(413, "headers_too_large", "request head too large")
        lines = buffer[:end].decode("latin-1").split("\r\n")
        del buffer[: end + 4]
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise ConnectionError("malformed request line")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
            if length < 0:
                raise ValueError
        except ValueError:
            raise _HttpError(
                400, "bad_content_length",
                f"malformed Content-Length {raw_length!r}",
            )
        if length > self.config.max_body_bytes:
            raise _HttpError(413, "body_too_large", "request body too large")
        while len(buffer) < length:
            chunk = conn.recv(_RECV_BYTES)
            if not chunk:
                raise ConnectionError("connection closed mid-request")
            buffer += chunk
        body = bytes(buffer[:length])
        del buffer[:length]
        return method.upper(), target, headers, body

    def _render(
        self,
        status: int,
        payload: Dict[str, object],
        extra_headers: Dict[str, str],
        keep_alive: bool,
    ) -> bytes:
        body = canonical_json(payload).encode("utf-8")
        with self._lock:
            self.responses_by_status[status] = (
                self.responses_by_status.get(status, 0) + 1
            )
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines += [f"{name}: {value}" for name, value in extra_headers.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    # -- routing -----------------------------------------------------------

    def _shed(self, message: str):
        """A 429 ``service_overloaded`` response with ``Retry-After``."""
        with self._lock:
            self.shed_total += 1
        exc = ServiceOverloadedError(
            message, retry_after_s=self.config.shed_retry_after_s
        )
        return 429, error_body(exc), {"Retry-After": retry_after_header(exc)}

    def _dispatch(self, method: str, path: str, body: bytes):
        """Route one request. Returns (status, payload, extra_headers)."""
        with self._lock:
            self.requests_total += 1
            if self._inflight >= self.config.max_inflight:
                return self._shed(
                    f"server at max_inflight={self.config.max_inflight} "
                    f"concurrent requests"
                )
            self._inflight += 1
        try:
            return self._route(method, path, body)
        except _HttpError as exc:
            return exc.status, _error(exc.code, str(exc)), {}
        except ReproError as exc:
            headers: Dict[str, str] = {}
            status = status_for_error(exc)
            retry_after = retry_after_header(exc)
            if status == 429 and retry_after is not None:
                headers["Retry-After"] = retry_after
            if exc.code == "rate_limited":
                with self._lock:
                    self.rate_limited_total += 1
            return status, error_body(exc), headers
        except ValueError as exc:
            # client-triggerable decode failures (bare JSON arrays,
            # unknown $type tags, bad sizes) are the client's fault
            return 400, _error("bad_request", str(exc)), {}
        except Exception as exc:
            # every request gets *a* response; an unexpected handler
            # failure must not silently drop the connection
            return 500, _error("internal", f"{type(exc).__name__}: {exc}"), {}
        finally:
            with self._lock:
                self._inflight -= 1

    def _route(self, method: str, path: str, body: bytes):
        if path == "/health" and method == "GET":
            return 200, self._health(), {}
        if path == "/stats" and method == "GET":
            return 200, self._gated(self.stats), {}
        if path == "/sessions" and method == "POST":
            return 200, self._gated(self._open_session, self._json(body)), {}
        if path.startswith("/sessions/") and method == "DELETE":
            name = path[len("/sessions/"):]
            return 200, self._gated(self._close_session, name), {}
        if path == "/query" and method == "POST":
            return 200, self._gated(self._query, self._json(body)), {}
        if path == "/fetch" and method == "POST":
            return 200, self._gated(self._fetch, self._json(body)), {}
        if path == "/jobs" and method == "POST":
            return 200, self._gated(self._submit_job, self._json(body)), {}
        if path.startswith("/jobs/") and method == "GET":
            return 200, self._gated(self._poll_job, path[len("/jobs/"):]), {}
        if path.startswith("/jobs/") and method == "DELETE":
            return 200, self._gated(self._delete_job, path[len("/jobs/"):]), {}
        known = {"/health", "/stats", "/sessions", "/query", "/fetch", "/jobs"}
        root = "/" + path.lstrip("/").split("/", 1)[0]
        if root in known or path in known:
            raise _HttpError(405, "method_not_allowed", f"{method} {path}")
        raise _HttpError(404, "not_found", f"no route for {method} {path}")

    def _gated(self, fn, *args):
        """Run a handler holding one of the ``worker_threads`` permits."""
        with self.gate:
            return fn(*args)

    @staticmethod
    def _json(body: bytes) -> Dict[str, object]:
        if not body:
            return {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, "bad_json", f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise _HttpError(400, "bad_json", "request body must be an object")
        return payload

    @staticmethod
    def _positive_int(payload: Dict[str, object], key: str) -> Optional[int]:
        """An optional positive-integer field, validated before it can
        reach a cursor (where bad values raise non-ReproError)."""
        value = payload.get(key)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise _HttpError(
                400, "bad_request",
                f"{key!r} must be a positive integer, got {value!r}",
            )
        return value

    # -- handlers (connection threads, holding a permit) -------------------

    def _health(self) -> Dict[str, object]:
        with self._lock:
            inflight = self._inflight
        return {
            "status": "ok",
            "protocol_version": PROTOCOL_VERSION,
            "inflight": inflight,
        }

    def stats(self) -> Dict[str, object]:
        """Service stats plus the network layer's own counters."""
        snapshot = self.service.stats()
        with self._lock:
            snapshot["server"] = {
                "requests_total": self.requests_total,
                "shed_total": self.shed_total,
                "rate_limited_total": self.rate_limited_total,
                "inflight": self._inflight,
                "max_inflight": self.config.max_inflight,
                "worker_threads": self.db.config.worker_threads,
                "connections_open": len(self._connections),
                "connections_total": self.connections_total,
                "responses_by_status": {
                    str(status): count
                    for status, count in sorted(self.responses_by_status.items())
                },
            }
        snapshot["rate_limiter"] = self.limiter.stats()
        snapshot["jobs"] = self.jobs.stats()
        return snapshot

    def _open_session(self, payload: Dict[str, object]) -> Dict[str, object]:
        name = payload.get("name")
        tenant = payload.get("tenant")
        session = self.service.session(name, tenant=tenant)
        return {"session": session.name, "tenant": session.tenant}

    def _close_session(self, name: str) -> Dict[str, object]:
        session = self.service.sessions().get(name)
        if session is None:
            raise SessionClosedError(f"no active session named {name!r}")
        session.close()
        return {"session": name, "closed": True}

    def _resolve_session(self, payload: Dict[str, object]):
        """The named session, or a fresh ``ephemeral`` one that lives
        only as long as this request's result."""
        name = payload.get("session")
        if name is not None:
            session = self.service.sessions().get(name)
            if session is None:
                raise SessionClosedError(f"no active session named {name!r}")
            self.service.touch(session)
            return session
        tenant = payload.get("tenant")
        session = self.service.session(tenant=tenant)
        session.ephemeral = True
        return session

    def _query(self, payload: Dict[str, object]) -> Dict[str, object]:
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise _HttpError(400, "bad_request", "missing 'sql' string")
        params = decode_params(payload.get("params"))
        page_size = self._positive_int(payload, "page_size")
        session = self._resolve_session(payload)
        try:
            # rate limiting inside the try: a shed ephemeral session
            # must be closed, not left to accumulate in the service
            self.limiter.acquire(session.tenant)
            result = session.execute(sql, params)
        except ReproError:
            if session.ephemeral:
                session.close()
            raise
        cursor = session.open_cursor(result, page_size)
        rows = cursor.fetchmany()
        response = {
            "session": session.name,
            "columns": list(result.columns),
            "rows": encode_rows(rows),
            "row_count": len(result.rows),
            "done": cursor.exhausted,
        }
        if cursor.exhausted:
            cursor.close()
        else:
            response["cursor"] = encode_cursor_token(session.name, cursor.id)
        return response

    def _fetch(self, payload: Dict[str, object]) -> Dict[str, object]:
        token = payload.get("cursor")
        if not isinstance(token, str):
            raise _HttpError(400, "bad_request", "missing 'cursor' token")
        session_name, cursor_id = decode_cursor_token(token)
        session = self.service.sessions().get(session_name)
        if session is None:
            raise CursorClosedError(
                f"cursor {token!r}: owning session {session_name!r} is closed"
            )
        cursor = session.cursor(cursor_id)
        if cursor is None:
            raise CursorClosedError(f"cursor {token!r} is closed")
        size = self._positive_int(payload, "size")
        rows = cursor.fetchmany(size)
        response = {
            "session": session.name,
            "columns": cursor.columns,
            "rows": encode_rows(rows),
            "position": cursor.position,
            "done": cursor.exhausted,
        }
        if cursor.exhausted:
            cursor.close()
        else:
            response["cursor"] = token
        return response

    def _submit_job(self, payload: Dict[str, object]) -> Dict[str, object]:
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise _HttpError(400, "bad_request", "missing 'sql' string")
        tenant = payload.get("tenant")
        page_size = self._positive_int(payload, "page_size")
        self.limiter.acquire(tenant or "anonymous")
        job = self.jobs.submit(
            sql,
            decode_params(payload.get("params")),
            tenant=tenant,
            page_size=page_size,
        )
        return {"job_id": job.id, "state": "queued"}

    def _poll_job(self, job_id: str) -> Dict[str, object]:
        job = self.jobs.get(job_id)
        if job is None:
            raise _HttpError(404, "job_not_found", f"no job {job_id!r}")
        payload = job.describe()
        with job._lock:
            if job.state == "done" and job.cursor is not None:
                if not job.cursor.closed:
                    payload["cursor"] = encode_cursor_token(
                        job.session.name, job.cursor.id
                    )
                else:
                    payload["fetched"] = True
        return payload

    def _delete_job(self, job_id: str) -> Dict[str, object]:
        if not self.jobs.delete(job_id):
            raise _HttpError(404, "job_not_found", f"no job {job_id!r}")
        return {"job_id": job_id, "deleted": True}
