"""The network serving layer: HTTP/JSON access to a query service.

Everything below :mod:`repro.service` runs in-process and in simulated
time; this package is the real-time boundary — an HTTP/1.1 server
(:class:`Server`) over real sockets serving each connection on its own
thread, a bound on the statements running at once across them, the
thread-safe :class:`~repro.service.QueryService` behind it, opaque
streaming cursors, detached jobs, per-tenant token-bucket rate limits,
and structured error payloads with ``Retry-After`` on overload.

Quickstart::

    from repro import Database
    from repro.server import Server, ServerClient

    db = Database()
    ...  # create tables, load data
    with Server(db) as server:
        client = ServerClient(*server.address)
        columns, rows = client.query_all("SELECT * FROM t WHERE i < :k",
                                         {"k": 10})

See ``docs/SERVICE.md`` for the wire-protocol reference and
``examples/http_serving.py`` for a narrated tour.
"""

from .app import Server, ServerConfig, decode_cursor_token, encode_cursor_token
from .client import ServerClient, ServerError
from .jobs import Job, JobManager
from .protocol import (
    PROTOCOL_VERSION,
    canonical_json,
    canonical_result,
    decode_params,
    decode_value,
    encode_result,
    encode_value,
    error_body,
    retry_after_header,
    status_for_error,
)
from .ratelimit import TenantRateLimiter, TokenBucket

__all__ = [
    "Job",
    "JobManager",
    "PROTOCOL_VERSION",
    "Server",
    "ServerClient",
    "ServerConfig",
    "ServerError",
    "TenantRateLimiter",
    "TokenBucket",
    "canonical_json",
    "canonical_result",
    "decode_cursor_token",
    "decode_params",
    "decode_value",
    "encode_cursor_token",
    "encode_result",
    "encode_value",
    "error_body",
    "retry_after_header",
    "status_for_error",
]
