"""Sessions: per-client state in front of a shared :class:`Database`.

A session owns

* **temp views** — ``CREATE TEMP VIEW`` (or :meth:`Session.create_temp_view`)
  registers a view visible only to this session, shadowing shared
  relations of the same name; two sessions can hold same-named temp
  views without observing each other;
* **session parameters** — default values for the SQL front end's named
  ``:param`` placeholders, merged under per-call parameters;
* **prepared statements** — parse once, then execute repeatedly with
  fresh parameter values; planning is delegated to the database's plan
  cache, so repeated executions skip parse/bind/optimize entirely.

Temp views are implemented as a catalog *overlay*: binding resolves
views against the overlay first, then the shared catalog. Only SELECT
statements (and prepared SELECTs) see temp views; DDL/DML statements
operate on the shared catalog.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Optional, Union

from ..catalog.catalog import ViewEntry
from ..errors import (
    CatalogError,
    CompileError,
    ServiceOverloadedError,
    SessionClosedError,
)
from ..plan import Binder
from ..sql import ast, parse_keyed


def _jitter_fraction(session_name: str, attempt: int) -> float:
    """A deterministic uniform in [0, 1) seeded from (session, attempt),
    so backoff jitter de-synchronizes retrying clients without making
    the simulation non-reproducible."""
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(session_name.encode("utf-8"))
    hasher.update(struct.pack("<q", attempt))
    return int.from_bytes(hasher.digest(), "little") / float(2**64)


class SessionCatalog:
    """Read overlay: session temp views shadow the shared catalog."""

    def __init__(self, shared):
        self._shared = shared
        self._temp_views: Dict[str, ViewEntry] = {}

    # Binder resolves FROM items through these two methods.
    def view(self, name: str) -> Optional[ViewEntry]:
        entry = self._temp_views.get(name.lower())
        if entry is not None:
            return entry
        return self._shared.view(name)

    def table(self, name: str):
        return self._shared.table(name)

    def shared_view(self, name: str) -> Optional[ViewEntry]:
        """Resolution skipping the temp-view overlay; the binder uses
        this inside a view body that references its own name."""
        return self._shared.view(name)

    def has_relation(self, name: str) -> bool:
        return name.lower() in self._temp_views or self._shared.has_relation(name)

    def materialized_view(self, name: str):
        # a session temp view shadows a shared materialized view of the
        # same name, exactly as it shadows plain views and tables
        if name.lower() in self._temp_views:
            return None
        return self._shared.materialized_view(name)

    def materialized_views(self):
        return self._shared.materialized_views()

    # stamps are the shared catalog's: a temp view has none (the plan
    # cache scopes plans over the overlay instead)
    def stamp(self, name: str) -> int:
        return self._shared.stamp(name)

    def statistics_stamp(self, name: str) -> int:
        return self._shared.statistics_stamp(name)

    def temp_view_names(self) -> List[str]:
        return sorted(self._temp_views)

    def add_temp_view(self, entry: ViewEntry) -> None:
        self._temp_views[entry.name.lower()] = entry

    def drop_temp_view(self, name: str) -> bool:
        return self._temp_views.pop(name.lower(), None) is not None

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return True


class PreparedStatement:
    """A parsed SELECT bound to a session; execution goes through the
    database's plan cache, so repeated runs with same-typed parameters
    never re-plan — the runtime parameter cells are simply rebound."""

    def __init__(
        self, session: "Session", sql: str, statement: ast.SelectStatement, key: str
    ):
        self.session = session
        self.sql = sql
        self.statement = statement
        #: the statement's normalised text (its plan-cache key)
        self.key = key

    def execute(self, params: Optional[Dict[str, object]] = None, **kw):
        merged = dict(params or {})
        merged.update(kw)
        return self.session._execute_select(
            self.sql, self.statement, self.key, merged
        )

    def __repr__(self):
        return f"PreparedStatement({self.sql!r})"


class Session:
    """One client's handle on the query service."""

    def __init__(self, service, name: str, tenant: Optional[str] = None):
        self._service = service
        self.name = name
        #: accounting group for per-tenant rate limits in the network
        #: layer; many sessions may share a tenant
        self.tenant = tenant or name
        self.catalog = SessionCatalog(service.db.catalog)
        self.params: Dict[str, object] = {}
        self._view_version = 0
        self._closed = False
        #: simulated time of this session's latest completion; sequential
        #: execute() calls chain their arrivals from it (a session is a
        #: closed-loop client: it issues the next query after seeing the
        #: previous result)
        self.clock = 0.0
        #: real (wall-clock) time of the last statement; the service's
        #: TTL garbage collector reaps sessions idle past session_ttl_s
        self.last_used = service._time()
        #: open streaming cursors by id (see repro.service.cursors)
        self._cursors: Dict[int, "Cursor"] = {}
        self._cursor_seq = 0
        #: ephemeral sessions (created per-request by the network layer)
        #: auto-close once their last cursor is released
        self.ephemeral = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the session, releasing everything it holds: open
        cursors, temp views, and session parameters. Idempotent."""
        with self._service._lock:
            if not self._closed:
                self._closed = True
                for cursor in list(self._cursors.values()):
                    cursor.close()
                self._cursors.clear()
                self.catalog._temp_views.clear()
                self.params.clear()
                self._service._release(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError(f"session {self.name!r} is closed")

    # -- cursors -----------------------------------------------------------

    def open_cursor(self, result, page_size: Optional[int] = None) -> "Cursor":
        """Wrap a completed result in a paginated :class:`Cursor`.

        ``page_size`` defaults to ``ServiceConfig.default_page_size`` and
        is clamped to ``ServiceConfig.max_page_size``; it bounds every
        page the cursor will ever serve."""
        from .cursors import Cursor

        with self._service._lock:
            self._check_open()
            config = self._service.config
            if page_size is None:
                page_size = config.default_page_size
            page_size = min(page_size, config.max_page_size)
            self._cursor_seq += 1
            cursor = Cursor(self, result, page_size, self._cursor_seq)
            self._cursors[cursor.id] = cursor
            return cursor

    def cursor(self, cursor_id: int) -> Optional["Cursor"]:
        """Look up an open cursor by id (None if closed or unknown)."""
        return self._cursors.get(cursor_id)

    def open_cursors(self) -> List["Cursor"]:
        return list(self._cursors.values())

    def _cursor_closed(self, cursor: "Cursor") -> None:
        with self._service._lock:
            self._cursors.pop(cursor.id, None)
            # per-request sessions created by the network layer live only
            # as long as their streaming results do
            if self.ephemeral and not self._cursors and not self._closed:
                self.close()

    # -- session state -----------------------------------------------------

    def set_param(self, name: str, value) -> None:
        """Set a session-default value for ``:name``; per-call parameters
        override it."""
        self._check_open()
        self.params[name] = value

    def unset_param(self, name: str) -> None:
        self._check_open()
        self.params.pop(name, None)

    def create_temp_view(
        self,
        name: str,
        query: Union[str, ast.SelectStatement],
        column_names: Optional[List[str]] = None,
    ) -> None:
        """Register a session-local view; shadows any shared relation of
        the same name for this session's SELECTs."""
        self._check_open()
        if isinstance(query, str):
            statement, _ = parse_keyed(query)
            if not isinstance(statement, ast.SelectStatement):
                raise CompileError("a temp view needs a SELECT query")
        else:
            statement = query
        if name.lower() in self.catalog._temp_views:
            raise CatalogError(
                f"temp view {name!r} already exists in session {self.name!r}"
            )
        # validate eagerly against the overlay so errors surface now
        binder = Binder(self.catalog, dict(self.params), defer_params=True)
        plan = binder.bind_select(statement)
        if column_names is not None and len(column_names) != len(plan.columns):
            raise CompileError(
                f"temp view {name!r}: {len(column_names)} column name(s) "
                f"for {len(plan.columns)} column(s)"
            )
        self.catalog.add_temp_view(ViewEntry(name, statement, column_names))
        self._view_version += 1

    def drop_temp_view(self, name: str, if_exists: bool = False) -> None:
        self._check_open()
        if self.catalog.drop_temp_view(name):
            self._view_version += 1
        elif not if_exists:
            raise CatalogError(
                f"no temp view named {name!r} in session {self.name!r}"
            )

    def temp_views(self) -> List[str]:
        return self.catalog.temp_view_names()

    @property
    def plan_scope(self) -> str:
        """The session's contribution to the plan-cache key: empty (so
        plans are shared across sessions) unless temp views could change
        name resolution."""
        if not self.catalog._temp_views:
            return ""
        return f"{self.name}#{self._view_version}"

    # -- statements --------------------------------------------------------

    def execute(self, sql: str, params: Optional[Dict[str, object]] = None):
        """Execute one statement through the service: SELECTs go through
        the plan cache and the admission scheduler; ``CREATE TEMP VIEW``
        is session-local; other statements run on the shared database
        (and, being DDL/DML, invalidate the cached plans that read what
        they change)."""
        self._check_open()
        statement, key = parse_keyed(sql)
        if isinstance(statement, ast.SelectStatement):
            return self._execute_select(sql, statement, key, params or {})
        if isinstance(statement, ast.CreateView) and statement.temporary:
            self.create_temp_view(
                statement.name, statement.query, statement.column_names
            )
            from ..db import Result

            return Result([], [])
        return self._service._execute_passthrough(
            self, statement, key, self._merge(params)
        )

    def submit(self, sql: str, params: Optional[Dict[str, object]] = None):
        """Asynchronous flavour of :meth:`execute` for SELECTs: admits
        the query and returns a :class:`~repro.service.PendingQuery`
        without waiting for its simulated completion; drain it with
        :meth:`QueryService.next_completion`."""
        self._check_open()
        statement, key = parse_keyed(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise CompileError("submit() supports SELECT statements only")
        return self._service.submit_select(
            self, sql, statement, key, self._merge(params)
        )

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse a SELECT once for repeated parameterized execution."""
        self._check_open()
        statement, key = parse_keyed(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise CompileError("prepare() supports SELECT statements only")
        return PreparedStatement(self, sql, statement, key)

    def explain(self, sql: str, params: Optional[Dict[str, object]] = None) -> str:
        """EXPLAIN against this session's name resolution (temp views)."""
        self._check_open()
        return self._service.db.explain(
            sql, self._merge(params), catalog=self.catalog
        )

    # -- helpers -----------------------------------------------------------

    def _merge(self, params: Optional[Dict[str, object]]) -> Dict[str, object]:
        merged = dict(self.params)
        merged.update(params or {})
        return merged

    def _execute_select(
        self,
        sql: str,
        statement: ast.SelectStatement,
        key: str,
        params: Optional[Dict[str, object]],
    ):
        """Submit-and-wait with client-side retry: admission rejections
        (queue full, breaker open) are retried up to
        ``ServiceConfig.retry_max_attempts`` times with exponential
        backoff plus deterministic jitter. The backoff is a *simulated*
        sleep — it advances this session's clock, so by the retry's
        arrival time the scheduler has drained whatever the rejection's
        ``retry_after_s`` hint predicted."""
        self._check_open()
        config = self._service.config
        attempts = max(1, config.retry_max_attempts)
        delay = config.retry_backoff_s
        merged = self._merge(params)
        for attempt in range(1, attempts + 1):
            try:
                pending = self._service.submit_select(
                    self, sql, statement, key, merged
                )
            except ServiceOverloadedError as exc:
                if attempt == attempts:
                    raise
                jitter = delay * config.retry_jitter * _jitter_fraction(
                    self.name, attempt
                )
                # honor the service's hint when it is longer than our
                # own backoff — retrying earlier would just be shed again
                self.clock += max(delay + jitter, exc.retry_after_s)
                delay *= config.retry_backoff_multiplier
                self._service.metrics.observe_retry(self.name)
                continue
            return self._service.wait(pending)

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return f"Session({self.name!r}, {state}, temp_views={self.temp_views()})"
