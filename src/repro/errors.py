"""Exception hierarchy for the repro database system.

Every error raised by the public API derives from :class:`ReproError`, so
callers can catch a single base class. The split between compile-time and
run-time errors mirrors the paper: size mismatches between *declared*
MATRIX/VECTOR dimensions are compile errors (section 4.2), while mismatches
that involve dimensions left unspecified in the schema only surface at run
time (section 3.1).
"""

from __future__ import annotations

from typing import Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro system.

    Every error carries a machine-readable ``code`` and renders to a
    structured payload via :meth:`to_payload` — the same shape the
    network serving layer puts on the wire, so Python-API callers and
    HTTP clients see identical error structure.
    """

    #: machine-readable error code (stable across releases; the wire
    #: protocol and client retry logic key on it, not on the message)
    code = "internal_error"

    def to_payload(self) -> Dict[str, object]:
        """The structured ``{"code", "message", ...}`` rendering of this
        error; subclasses add their machine-readable fields."""
        return {"code": self.code, "message": str(self)}


class SqlSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed."""

    code = "sql_syntax"

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)

    def to_payload(self) -> Dict[str, object]:
        payload = super().to_payload()
        payload["line"] = self.line
        payload["column"] = self.column
        return payload


class CompileError(ReproError):
    """Semantic analysis failed: unknown name, bad types, arity, etc."""

    code = "compile_error"


class TypeCheckError(CompileError):
    """A type or declared vector/matrix dimension mismatch found at
    compile time."""

    code = "type_check"


class NameResolutionError(CompileError):
    """A table, column, or function name could not be resolved."""

    code = "name_resolution"


class CatalogError(ReproError):
    """Catalog-level problem: duplicate table, missing table, etc."""

    code = "catalog_error"


class DependentViewError(CatalogError):
    """DROP TABLE was refused because materialized views still depend on
    the table. There is no silent cascade: the caller must drop the
    dependents first. ``views`` lists their names (machine-readable, in
    catalog registration order)."""

    code = "dependent_views"

    def __init__(self, message: str, table: str = "", views: Optional[list] = None):
        self.table = table
        self.views = list(views or [])
        super().__init__(message)

    def to_payload(self) -> Dict[str, object]:
        payload = super().to_payload()
        payload["table"] = self.table
        payload["views"] = self.views
        return payload


class DurabilityError(ReproError):
    """A write-ahead-log or checkpoint write failed (disk full, I/O
    error). The in-memory state of the statement that triggered it may
    have been applied, but the statement was **not acknowledged** and
    will not survive a crash; the original ``OSError`` is chained via
    ``__cause__``."""

    code = "durability_error"


class SnapshotCorruptError(ReproError):
    """A saved database snapshot (or WAL header) failed validation:
    truncated, checksum mismatch, or undecodable.

    ``path`` names the offending file and ``offset`` the byte position
    where validation failed (for a checksum mismatch, the start of the
    checksummed payload — the exact flipped byte is unknowable).
    """

    code = "snapshot_corrupt"

    def __init__(self, message: str, path: str = "", offset: int = 0):
        self.path = path
        self.offset = offset
        super().__init__(f"{message} (file {path!r}, byte offset {offset})")

    def to_payload(self) -> Dict[str, object]:
        payload = super().to_payload()
        payload["path"] = self.path
        payload["offset"] = self.offset
        return payload


class SimulatedCrashError(BaseException):
    """An injected process crash at a durability barrier (see
    ``FaultPlan.crash_at_barrier``). Deliberately **not** a
    :class:`ReproError` — and not even an :class:`Exception` — so no
    recovery or serving layer can swallow it: it stands in for the
    process dying, and the only legitimate handler is the test harness
    that injected it."""


class ExecutionError(ReproError):
    """A query failed while executing.

    When the failure surfaces from inside a physical plan, the executor
    annotates the exception with the operator it failed in: ``operator``
    holds the operator's ``describe()`` string and ``plan_position`` its
    pre-order position in the physical plan. The original, unannotated
    exception is chained via ``__cause__`` (never flattened into the
    message), so fault-path failures stay diagnosable end to end.
    """

    code = "execution_error"

    #: ``describe()`` of the physical operator the error surfaced in
    operator: Optional[str] = None
    #: pre-order position of that operator in the physical plan
    plan_position: Optional[int] = None

    def __str__(self) -> str:
        base = super().__str__()
        if self.operator is None:
            return base
        return f"{base} [in {self.operator}, plan position {self.plan_position}]"

    def to_payload(self) -> Dict[str, object]:
        payload = super().to_payload()
        if self.operator is not None:
            payload["operator"] = self.operator
            payload["plan_position"] = self.plan_position
        return payload


class RuntimeTypeError(ExecutionError):
    """A dimension mismatch involving dimensions that were unspecified in
    the schema, discovered only when the offending tuples flowed through
    the plan (section 3.1 of the paper)."""

    code = "runtime_type"


class ResourceExhaustedError(ExecutionError):
    """The simulated cluster ran out of a resource (e.g. per-worker RAM),
    corresponding to the 'Fail' entries in the paper's Figure 3."""

    code = "resource_exhausted"


class TransientClusterError(ExecutionError):
    """An injected transient fault (network error, crashed slot) that the
    recovery machinery normally retries away; it only escapes to the
    caller — chained under a plain :class:`ExecutionError` — when the
    bounded retry budget is exhausted."""

    code = "transient_cluster"


class FaultRecoveryExhaustedError(ExecutionError):
    """Recovery gave up: a partition kept failing past the
    ``FaultPlan.max_partition_retries`` budget."""

    code = "fault_recovery_exhausted"


class ServiceError(ReproError):
    """Base class for errors raised by the multi-session query service."""

    code = "service_error"


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a query — the bounded admission queue
    is full, or the circuit breaker is shedding load.

    ``retry_after_s`` is a machine-readable backoff hint in simulated
    seconds: the service's estimate of when capacity frees up, computed
    from the current queue backlog (or the breaker's remaining cooldown).
    Clients should wait at least that long before resubmitting.
    """

    code = "service_overloaded"

    def __init__(
        self,
        message: str,
        queue_depth: int = 0,
        queue_limit: int = 0,
        retry_after_s: float = 0.0,
    ):
        self.queue_depth = queue_depth
        self.queue_limit = queue_limit
        self.retry_after_s = retry_after_s
        super().__init__(message)

    def to_payload(self) -> Dict[str, object]:
        payload = super().to_payload()
        payload["retry_after_s"] = self.retry_after_s
        payload["queue_depth"] = self.queue_depth
        payload["queue_limit"] = self.queue_limit
        return payload


class QueryTimeoutError(ServiceError):
    """The query exceeded the service's per-query timeout, either
    waiting in the admission queue or executing."""

    code = "query_timeout"

    def __init__(self, message: str, timeout_s: float = 0.0, elapsed_s: float = 0.0):
        self.timeout_s = timeout_s
        self.elapsed_s = elapsed_s
        super().__init__(message)

    def to_payload(self) -> Dict[str, object]:
        payload = super().to_payload()
        payload["timeout_s"] = self.timeout_s
        payload["elapsed_s"] = self.elapsed_s
        return payload


class SessionClosedError(ServiceError):
    """A statement was submitted on a session that has been closed."""

    code = "session_closed"


class CursorError(ServiceError):
    """Base class for streaming-cursor failures."""

    code = "cursor_error"


class CursorClosedError(CursorError):
    """A fetch on a cursor that was closed — explicitly, or because its
    owning session was closed or garbage-collected."""

    code = "cursor_closed"


class CursorInvalidatedError(CursorError):
    """A fetch on a cursor opened before a DDL/DML statement changed a
    relation the cursor's statement read; the snapshot the cursor
    paginates can no longer be assumed consistent with the catalog, so
    the cursor is invalidated."""

    code = "cursor_invalidated"


class RateLimitedError(ServiceError):
    """A per-tenant token-bucket rate limit rejected the request.

    ``retry_after_s`` is the *real* (wall-clock) time until the bucket
    has refilled enough to admit one request.
    """

    code = "rate_limited"

    def __init__(self, message: str, tenant: str = "", retry_after_s: float = 0.0):
        self.tenant = tenant
        self.retry_after_s = retry_after_s
        super().__init__(message)

    def to_payload(self) -> Dict[str, object]:
        payload = super().to_payload()
        payload["tenant"] = self.tenant
        payload["retry_after_s"] = self.retry_after_s
        return payload
