"""The concurrent query service layer.

A multi-session serving substrate in front of :class:`repro.Database`:
sessions with isolated temp views and parameters, the database's LRU
plan cache (valid while what a plan read is unchanged; re-exported here,
it lives in ``repro.plan_cache``), prepared statements, admission
control with a bounded queue, and a multi-tenant fair-share slot
scheduler that makes concurrently admitted queries contend for the
simulated cluster's slot-seconds.

Quickstart::

    from repro import Database

    db = Database()
    ...  # create tables, load data
    service = db.service(max_concurrency=4)
    with service.session() as session:
        session.execute("CREATE TEMP VIEW recent AS SELECT * FROM t")
        stmt = session.prepare("SELECT SUM(x * :w) FROM recent")
        for w in (0.5, 1.0, 2.0):
            print(stmt.execute(w=w).scalar())   # plans once, runs thrice
    print(service.report())
"""

from ..errors import (
    CursorClosedError,
    CursorError,
    CursorInvalidatedError,
    QueryTimeoutError,
    RateLimitedError,
    ServiceError,
    ServiceOverloadedError,
    SessionClosedError,
)
from .cursors import Cursor
from .locking import LockDisciplineAuditor, LockViolation, owned
from .metrics import ServiceMetrics, SessionStats, percentile
from ..plan_cache import (
    CachedPlan,
    PlanCache,
    PlanCacheKey,
    normalize_sql,
    param_signature,
)
from .scheduler import SlotScheduler, Ticket
from .service import CircuitBreaker, PendingQuery, QueryService, ServiceConfig
from .session import PreparedStatement, Session, SessionCatalog

__all__ = [
    "CachedPlan",
    "CircuitBreaker",
    "Cursor",
    "CursorClosedError",
    "CursorError",
    "CursorInvalidatedError",
    "LockDisciplineAuditor",
    "LockViolation",
    "PendingQuery",
    "PlanCache",
    "PlanCacheKey",
    "PreparedStatement",
    "QueryService",
    "QueryTimeoutError",
    "RateLimitedError",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "ServiceOverloadedError",
    "Session",
    "SessionCatalog",
    "SessionClosedError",
    "SessionStats",
    "SlotScheduler",
    "Ticket",
    "normalize_sql",
    "owned",
    "param_signature",
    "percentile",
]
