"""A minimal blocking HTTP/1.1 client for the serving layer.

Stdlib sockets only — one persistent keep-alive connection per client,
which is exactly what the open-loop benchmark needs (hundreds of
concurrent clients would exhaust ephemeral ports without reuse).

:class:`ServerClient` speaks the wire protocol of
:mod:`repro.server.app`: raw access via :meth:`request`, plus typed
helpers (:meth:`query`, :meth:`fetch`, :meth:`query_all`, job helpers).
Server-side errors come back as :class:`ServerError` carrying the
structured payload (``code``, ``message``, ``retry_after_s``, ...) and
the HTTP status, so callers branch on ``exc.code`` exactly like local
callers branch on exception type.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, List, Optional, Tuple

from .protocol import decode_value


class ServerError(Exception):
    """A non-2xx response: HTTP status + the structured error payload."""

    def __init__(self, status: int, payload: Dict[str, object], headers=None):
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        super().__init__(error.get("message", f"HTTP {status}"))
        self.status = status
        self.code = error.get("code", "unknown")
        self.payload = error
        self.headers = dict(headers or {})

    @property
    def retry_after_s(self) -> Optional[float]:
        header = self.headers.get("retry-after")
        if header is not None:
            return float(header)
        value = self.payload.get("retry_after_s")
        return float(value) if value is not None else None


class ServerClient:
    """One persistent connection to a :class:`repro.server.Server`."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    # -- connection --------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._buffer = b""
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._buffer = b""

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- raw http ----------------------------------------------------------

    def _read_until(self, sock: socket.socket, marker: bytes) -> bytes:
        while marker not in self._buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        head, self._buffer = self._buffer.split(marker, 1)
        return head

    def _read_exact(self, sock: socket.socket, count: int) -> bytes:
        while len(self._buffer) < count:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        body, self._buffer = self._buffer[:count], self._buffer[count:]
        return body

    def request(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Tuple[int, Dict[str, str], Dict[str, object]]:
        """One round trip; returns (status, headers, decoded body)."""
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        reused = self._sock is not None
        try:
            sock = self._connect()
            try:
                sock.sendall(head + body)
                raw_head = self._read_until(sock, b"\r\n\r\n")
            except ConnectionError:
                # the server may have dropped an idle keep-alive
                # connection between requests: a reused connection that
                # fails before any response byte is sent once more on a
                # fresh one. A timeout never re-sends — the statement
                # may be running, and an INSERT would run twice.
                if not reused or self._buffer:
                    raise
                self.close()
                sock = self._connect()
                sock.sendall(head + body)
                raw_head = self._read_until(sock, b"\r\n\r\n")
            lines = raw_head.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            headers: Dict[str, str] = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            raw_body = self._read_exact(sock, length)
        except Exception:
            # a reply cut short leaves the connection out of step with
            # its requests: never reuse it
            self.close()
            raise
        if headers.get("connection") == "close":
            self.close()
        decoded = json.loads(raw_body.decode("utf-8")) if raw_body else {}
        return status, headers, decoded

    def _call(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        status, headers, body = self.request(method, path, payload)
        if status >= 400:
            raise ServerError(status, body, headers)
        return body

    # -- protocol helpers --------------------------------------------------

    def health(self) -> Dict[str, object]:
        return self._call("GET", "/health")

    def stats(self) -> Dict[str, object]:
        return self._call("GET", "/stats")

    def open_session(
        self, name: Optional[str] = None, tenant: Optional[str] = None
    ) -> str:
        payload: Dict[str, object] = {}
        if name is not None:
            payload["name"] = name
        if tenant is not None:
            payload["tenant"] = tenant
        return self._call("POST", "/sessions", payload)["session"]

    def close_session(self, name: str) -> None:
        self._call("DELETE", f"/sessions/{name}")

    def query(
        self,
        sql: str,
        params: Optional[Dict[str, object]] = None,
        session: Optional[str] = None,
        tenant: Optional[str] = None,
        page_size: Optional[int] = None,
    ) -> Dict[str, object]:
        """Execute; returns the raw response (first page + cursor)."""
        payload: Dict[str, object] = {"sql": sql}
        if params:
            payload["params"] = params
        if session is not None:
            payload["session"] = session
        if tenant is not None:
            payload["tenant"] = tenant
        if page_size is not None:
            payload["page_size"] = page_size
        return self._call("POST", "/query", payload)

    def fetch(self, cursor: str, size: Optional[int] = None) -> Dict[str, object]:
        payload: Dict[str, object] = {"cursor": cursor}
        if size is not None:
            payload["size"] = size
        return self._call("POST", "/fetch", payload)

    def query_all(
        self,
        sql: str,
        params: Optional[Dict[str, object]] = None,
        session: Optional[str] = None,
        tenant: Optional[str] = None,
        page_size: Optional[int] = None,
    ) -> Tuple[List[str], List[List[object]]]:
        """Execute and drain every page; returns (columns, rows) with
        tagged values decoded back to Vector/Matrix/LabeledScalar."""
        response = self.query(
            sql, params, session=session, tenant=tenant, page_size=page_size
        )
        columns = response["columns"]
        rows = list(response["rows"])
        while not response["done"]:
            response = self.fetch(response["cursor"])
            rows.extend(response["rows"])
        return columns, [[decode_value(cell) for cell in row] for row in rows]

    def submit_job(
        self,
        sql: str,
        params: Optional[Dict[str, object]] = None,
        tenant: Optional[str] = None,
        page_size: Optional[int] = None,
    ) -> str:
        payload: Dict[str, object] = {"sql": sql}
        if params:
            payload["params"] = params
        if tenant is not None:
            payload["tenant"] = tenant
        if page_size is not None:
            payload["page_size"] = page_size
        return self._call("POST", "/jobs", payload)["job_id"]

    def poll_job(self, job_id: str) -> Dict[str, object]:
        return self._call("GET", f"/jobs/{job_id}")

    def delete_job(self, job_id: str) -> None:
        self._call("DELETE", f"/jobs/{job_id}")
