"""The :class:`QueryService` facade.

Sits in front of one :class:`~repro.db.Database` and provides the
serving substrate: sessions, the plan cache, admission control, the
fair-share slot scheduler, and service metrics. SELECT statements flow::

    session.execute(sql, params)
        -> the database's plan cache (normalized SQL, parameter type
           signature, session scope; valid while what the plan read —
           its relations' shapes, the statistics its estimates used —
           keeps its catalog stamps)
           miss: bind/optimize once, parameters as runtime cells,
                 charge simulated compile_seconds
           hit:  rebind the cells, compile_seconds = 0
        -> execute on the simulated cluster (real rows, dedicated-run
           metrics)
        -> admission + fair-share scheduling in simulated time
           (queue_seconds / stretch_seconds land in the metrics)

The scheduler runs in simulated time, so "concurrency" means logically
concurrent clients of the simulation — a driver keeps many sessions in
flight via :meth:`Session.submit` / :meth:`QueryService.next_completion`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Deque, Dict, List, Optional

from ..db import Database, Result
from ..engine.metrics import QueryMetrics
from ..errors import QueryTimeoutError, ServiceOverloadedError
from ..plan_cache import PlanCache, count_nodes
from ..sql import ast
from .metrics import ServiceMetrics
from .scheduler import SlotScheduler, Ticket
from .session import Session


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the query service layer."""

    #: execution gangs: how many admitted queries run concurrently
    max_concurrency: int = 4
    #: bounded admission queue; a full queue rejects with
    #: ServiceOverloadedError
    admission_queue_limit: int = 8
    #: LRU bound of the database's plan cache (the service sizes it)
    plan_cache_capacity: int = 128
    #: simulated seconds of fixed planning overhead per compilation
    #: (SimSQL-era systems compile statements to Java — it is not cheap)
    compile_cost_s: float = 2.0
    #: additional simulated compile seconds per physical operator
    compile_cost_per_node_s: float = 0.25
    #: optional admission budget on a query's estimated per-slot working
    #: set (bytes); queries estimated above it are rejected with
    #: ServiceOverloadedError before execution. None disables the check.
    memory_budget_bytes: Optional[float] = None
    #: per-query budget on client-observed simulated latency (compile +
    #: queueing + stretched execution); None disables timeouts
    query_timeout_s: Optional[float] = None
    #: total submission attempts per execute() when admission rejects
    #: with ServiceOverloadedError; 1 means fail on the first rejection
    retry_max_attempts: int = 1
    #: base delay of the exponential backoff between retries (simulated
    #: seconds of client-side sleep)
    retry_backoff_s: float = 0.5
    #: backoff growth factor per retry
    retry_backoff_multiplier: float = 2.0
    #: deterministic jitter: each delay is stretched by up to this
    #: fraction, seeded from (session name, attempt)
    retry_jitter: float = 0.1
    #: consecutive admission rejections that trip the circuit breaker;
    #: 0 disables the breaker
    breaker_threshold: int = 0
    #: simulated seconds the breaker stays open, shedding submissions
    #: without touching the scheduler
    breaker_cooldown_s: float = 30.0
    #: idle sessions older than this many *real* seconds are garbage-
    #: collected on the next sweep (temp views and cursors released)
    #: instead of accumulating for the process lifetime; None disables
    #: TTL collection (explicit close() still releases immediately)
    session_ttl_s: Optional[float] = None
    #: default rows per cursor page when the client does not ask for a
    #: specific page size
    default_page_size: int = 256
    #: hard upper bound on any cursor page (a fetch asking for more is
    #: clamped, keeping single responses bounded)
    max_page_size: int = 10_000

    def with_updates(self, **kwargs) -> "ServiceConfig":
        return replace(self, **kwargs)


class CircuitBreaker:
    """Sheds load after repeated admission rejections.

    ``threshold`` consecutive rejections open the breaker for
    ``cooldown_s`` simulated seconds; while open, submissions fail fast
    with :class:`ServiceOverloadedError` (``retry_after_s`` = remaining
    cooldown) without planning, executing, or touching the scheduler.
    After the cooldown the breaker half-opens: the next submission goes
    through as a probe, and its outcome closes or re-opens the breaker.
    """

    def __init__(self, threshold: int, cooldown_s: float):
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.consecutive_rejections = 0
        self.open_until: Optional[float] = None
        #: times the breaker tripped open
        self.opened = 0
        #: submissions fast-failed while open
        self.shed = 0
        # assigned last: post-construction writes require the lock (see
        # repro.service.locking)
        self._lock = threading.RLock()

    @property
    def enabled(self) -> bool:
        return self.threshold > 0

    def check(self, now: float) -> None:
        """Raise if the breaker is open at simulated time ``now``."""
        with self._lock:
            if not self.enabled or self.open_until is None:
                return
            if now >= self.open_until:
                # cooldown elapsed: half-open, let one probe through
                self.open_until = None
                return
            self.shed += 1
            raise ServiceOverloadedError(
                f"circuit breaker open for another "
                f"{self.open_until - now:.3f}s (tripped by "
                f"{self.threshold} consecutive rejections)",
                retry_after_s=self.open_until - now,
            )

    def record_rejection(self, now: float) -> None:
        with self._lock:
            if not self.enabled:
                return
            self.consecutive_rejections += 1
            if self.consecutive_rejections >= self.threshold:
                self.open_until = now + self.cooldown_s
                self.opened += 1
                self.consecutive_rejections = 0

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_rejections = 0
            self.open_until = None

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "open": self.open_until is not None,
                "opened": self.opened,
                "shed": self.shed,
                "consecutive_rejections": self.consecutive_rejections,
            }


class PendingQuery:
    """A submitted SELECT: rows are computed, simulated completion may
    still lie in the future until the scheduler resolves it."""

    def __init__(
        self,
        session: Session,
        sql: str,
        result: Result,
        ticket: Ticket,
    ):
        self.session = session
        self.sql = sql
        self.result = result
        self.ticket = ticket
        self.finalized = False
        #: set at finalization when the client-observed latency blew the
        #: service's per-query timeout; wait() then raises
        self.timed_out = False

    @property
    def metrics(self) -> QueryMetrics:
        return self.result.metrics

    @property
    def cache_hit(self) -> bool:
        return self.result.metrics.plan_cached

    @property
    def trace(self):
        """The per-operator estimate-vs-actual
        :class:`~repro.engine.OperatorTrace` of this query's execution."""
        return self.result.metrics.trace

    @property
    def done(self) -> bool:
        return self.finalized

    def __repr__(self):
        state = "done" if self.finalized else "in-flight"
        return f"PendingQuery({self.sql!r}, {state})"


class QueryService:
    """Multi-session serving facade over one database.

    Thread-safe: the network serving layer (``repro.server``) drives
    one service instance from a pool of real worker threads. The
    service's reentrant lock guards planning and scheduler/session/
    breaker state, but it is *released* around cluster execution in
    :meth:`submit_select` — admitted read statements from different
    worker threads genuinely overlap, serialized only by the database's
    reader–writer admission gate (shared for SELECTs, exclusive for
    DDL/DML). The database's plan cache, the scheduler, breaker, and
    metrics additionally own their component locks so they stay safe when used
    standalone. The lock-discipline lint
    (``tests/test_lock_discipline.py``) audits that every
    post-construction attribute write holds the owning lock.
    """

    def __init__(
        self,
        db: Database,
        config: Optional[ServiceConfig] = None,
        time_source: Optional[Callable[[], float]] = None,
    ):
        self.db = db
        self.config = config or ServiceConfig()
        #: real (wall-clock) time source for session idle tracking;
        #: injectable so TTL garbage collection is testable
        self._time = time_source or time.monotonic
        db.plan_cache.resize(self.config.plan_cache_capacity)
        self.scheduler = SlotScheduler(
            self.config.max_concurrency, self.config.admission_queue_limit
        )
        self.breaker = CircuitBreaker(
            self.config.breaker_threshold, self.config.breaker_cooldown_s
        )
        self.metrics = ServiceMetrics()
        self._sessions: Dict[str, Session] = {}
        self._session_counter = 0
        self._inflight: Dict[int, PendingQuery] = {}
        self._ready: Deque[PendingQuery] = deque()
        self.sessions_opened = 0
        self.sessions_closed = 0
        #: sessions reaped by TTL garbage collection (subset of closed)
        self.sessions_collected = 0
        # assigned last: post-construction writes require the lock (see
        # repro.service.locking)
        self._lock = threading.RLock()

    @property
    def plan_cache(self) -> PlanCache:
        """The database's plan cache: embedded statements and every
        session share it (and its counters)."""
        return self.db.plan_cache

    # -- sessions ----------------------------------------------------------

    def session(
        self, name: Optional[str] = None, tenant: Optional[str] = None
    ) -> Session:
        """Acquire a new session (auto-named ``s1``, ``s2``, ... unless
        a name is given). ``tenant`` groups sessions for per-tenant
        accounting (rate limits in the network layer); it defaults to
        the session name."""
        with self._lock:
            self.gc_sessions()
            if name is None:
                self._session_counter += 1
                name = f"s{self._session_counter}"
            if name in self._sessions:
                raise ValueError(f"session {name!r} already active")
            session = Session(self, name, tenant=tenant)
            self._sessions[name] = session
            self.sessions_opened += 1
            return session

    def sessions(self) -> Dict[str, Session]:
        with self._lock:
            return dict(self._sessions)

    def touch(self, session: Session) -> None:
        """Refresh a session's idle clock (called on every statement)."""
        with self._lock:
            session.last_used = self._time()

    def gc_sessions(self, now: Optional[float] = None) -> List[str]:
        """Close sessions idle past ``ServiceConfig.session_ttl_s``,
        releasing their temp views and cursors. Returns the names of the
        collected sessions. A no-op when TTL collection is disabled."""
        ttl = self.config.session_ttl_s
        if ttl is None:
            return []
        with self._lock:
            if now is None:
                now = self._time()
            expired = [
                session
                for session in self._sessions.values()
                if now - session.last_used > ttl
            ]
            for session in expired:
                self.sessions_collected += 1
                session.close()
            return [session.name for session in expired]

    def _release(self, session: Session) -> None:
        with self._lock:
            if self._sessions.pop(session.name, None) is not None:
                self.sessions_closed += 1
                if session.ephemeral:
                    self.metrics.fold_ephemeral(session.name)
                    self.scheduler.retire(session.name)

    # -- execution ---------------------------------------------------------

    def submit_select(
        self,
        session: Session,
        sql: str,
        statement: ast.SelectStatement,
        key: str,
        params: Dict[str, object],
        arrival: Optional[float] = None,
    ) -> PendingQuery:
        """Plan (via the database's cache, under the statement's
        normalised text ``key``), execute on the cluster, and admit the
        query to the slot scheduler at simulated time ``arrival``.
        Raises :class:`ServiceOverloadedError` when the admission queue
        is full or the circuit breaker is open, and
        :class:`QueryTimeoutError` when the query's own service demand
        already exceeds the per-query timeout.

        The service lock is held for planning and for scheduler/breaker
        bookkeeping but *released* around cluster execution, so read
        statements from different worker threads genuinely overlap: the
        database's admission gate (shared for SELECTs) and the engine's
        per-statement executors make that safe, and parameter bindings
        are thread-local cells bound on the thread that executes."""
        with self._lock:
            session.last_used = self._time()
            if arrival is None:
                arrival = session.clock
            self.breaker.check(max(arrival, self.scheduler.clock))
            plan, cache_hit = self.db._plan(
                statement,
                params,
                key,
                catalog=session.catalog,
                scope=session.plan_scope,
            )
            compile_seconds = 0.0
            if not cache_hit:
                compile_seconds = (
                    self.config.compile_cost_s
                    + self.config.compile_cost_per_node_s
                    * count_nodes(plan.physical)
                )
            budget = self.config.memory_budget_bytes
            if budget is not None:
                demand = self._estimate_peak_bytes(plan)
                if demand > budget:
                    self.metrics.observe_rejection(session.name)
                    self.breaker.record_rejection(self.scheduler.clock)
                    raise ServiceOverloadedError(
                        f"estimated per-slot working set "
                        f"{demand / 1e6:.2f} MB exceeds the admission memory "
                        f"budget {budget / 1e6:.2f} MB"
                    )
        # execute WITHOUT the service lock: concurrent submitters overlap
        # here (the expensive part); everything below re-acquires it
        result = self.db._execute_plan(plan, cache_hit)
        with self._lock:
            metrics = result.metrics
            metrics.compile_seconds = compile_seconds
            # gang model: operator work stretches on slots/M cores, per-job
            # startup does not (see service.scheduler)
            stretch = metrics.operator_seconds * (
                self.scheduler.max_concurrency - 1
            )
            service_seconds = compile_seconds + metrics.total_seconds + stretch
            timeout = self.config.query_timeout_s
            if timeout is not None and service_seconds > timeout:
                # can never finish in budget even with zero queueing:
                # fail fast instead of occupying a gang
                self.metrics.observe_timeout(session.name)
                raise QueryTimeoutError(
                    f"query needs {service_seconds:.3f}s of service, over the "
                    f"{timeout:.3f}s per-query timeout",
                    timeout_s=timeout,
                    elapsed_s=service_seconds,
                )
            try:
                ticket = self.scheduler.submit(
                    session.name, service_seconds, arrival
                )
            except ServiceOverloadedError:
                self.metrics.observe_rejection(session.name)
                self.breaker.record_rejection(self.scheduler.clock)
                raise
            self.breaker.record_success()
            metrics.stretch_seconds = stretch
            pending = PendingQuery(session, sql, result, ticket)
            self._inflight[ticket.seq] = pending
            if ticket.finish is not None:
                # started immediately; timing fully known. It stays in
                # _inflight so next_completion() still delivers it exactly
                # once (unless a wait() claims it first).
                self._finalize(pending)
            return pending

    def wait(self, pending: PendingQuery) -> Result:
        """Advance the simulation until ``pending`` completes and claim
        its completion; other queries completing on the way are parked
        for :meth:`next_completion`. Raises :class:`QueryTimeoutError`
        when the completed query blew the per-query timeout."""
        with self._lock:
            return self._wait_locked(pending)

    def _wait_locked(self, pending: PendingQuery) -> Result:
        while not pending.finalized:
            ticket = self.scheduler.next_completion()
            if ticket is None:  # pragma: no cover - defensive
                raise RuntimeError("pending query never completed")
            other = self._inflight.pop(ticket.seq, None)
            if other is None:
                continue
            self._finalize(other)
            if other is not pending:
                self._ready.append(other)
        # claim our own completion: another waiter may have finalized us
        # and parked us in _ready — remove so next_completion() cannot
        # deliver this query a second time
        try:
            self._ready.remove(pending)
        except ValueError:
            pass
        self._inflight.pop(pending.ticket.seq, None)
        if pending.timed_out:
            timeout = self.config.query_timeout_s or 0.0
            raise QueryTimeoutError(
                f"query took {pending.metrics.elapsed_seconds:.3f}s "
                f"(compile + queueing + execution), over the "
                f"{timeout:.3f}s per-query timeout",
                timeout_s=timeout,
                elapsed_s=pending.metrics.elapsed_seconds,
            )
        return pending.result

    def next_completion(self) -> Optional[PendingQuery]:
        """The next submitted query to complete in simulated time, or
        ``None`` when nothing is in flight."""
        with self._lock:
            while True:
                if self._ready:
                    return self._ready.popleft()
                ticket = self.scheduler.next_completion()
                if ticket is None:
                    return None
                pending = self._inflight.pop(ticket.seq, None)
                if pending is None:
                    continue
                self._finalize(pending)
                return pending

    def _finalize(self, pending: PendingQuery) -> None:
        if pending.finalized:
            return
        metrics = pending.metrics
        metrics.queue_seconds = pending.ticket.queue_seconds
        pending.session.clock = max(pending.session.clock, pending.ticket.finish)
        self.metrics.observe(pending.session.name, metrics, pending.cache_hit)
        timeout = self.config.query_timeout_s
        if timeout is not None and metrics.elapsed_seconds > timeout:
            pending.timed_out = True
            self.metrics.observe_timeout(pending.session.name)
        pending.finalized = True

    def _estimate_peak_bytes(self, plan) -> float:
        """A compiled plan's estimated per-slot working-set peak: the
        largest single operator output divided across slots (broadcast
        outputs are a full copy on every slot), read off the estimates
        the plan was compiled with. Used by admission when
        ``ServiceConfig.memory_budget_bytes`` is set."""
        slots = self.db.config.slots

        def walk(node) -> float:
            per_slot = node.est_rows * node.est_width_bytes
            if node.partitioning.kind != "broadcast":
                per_slot /= slots
            return max([per_slot] + [walk(child) for child in node.children()])

        return walk(plan.physical)

    def _execute_passthrough(
        self,
        session: Session,
        statement: ast.Statement,
        key: str,
        params: Dict[str, object],
    ) -> Result:
        """Non-SELECT statements: run directly on the shared database.
        DDL/DML stamps what it changed, invalidating the cached plans
        that read it."""
        with self._lock:
            session.last_used = self._time()
            result = self.db._execute_statement(statement, params, key)
            self.metrics.session(session.name).queries += 1
            return result

    # -- introspection -----------------------------------------------------

    @property
    def clock(self) -> float:
        """The scheduler's simulated clock (seconds)."""
        return self.scheduler.clock

    def stats(self) -> Dict[str, object]:
        """One merged snapshot: service, cache, and scheduler metrics."""
        with self._lock:
            snapshot = self.metrics.snapshot()
            snapshot["plan_cache"] = self.plan_cache.stats()
            snapshot["scheduler"] = self.scheduler.stats()
            snapshot["breaker"] = self.breaker.stats()
            snapshot["storage"] = self.db.storage.stats()
            snapshot["views"] = self.db.views.stats()
            if self.db.durability is not None:
                snapshot["durability"] = self.db.durability.stats()
            snapshot["active_sessions"] = sorted(self._sessions)
            snapshot["session_gc"] = {
                "opened": self.sessions_opened,
                "closed": self.sessions_closed,
                "collected": self.sessions_collected,
                "active": len(self._sessions),
                "ttl_s": self.config.session_ttl_s,
            }
            return snapshot

    def report(self) -> str:
        """Human-readable service dashboard."""
        stats = self.stats()
        cache = stats["plan_cache"]
        sched = stats["scheduler"]
        lines = [
            f"queries {stats['queries']}  rejected {stats['rejected']}  "
            f"timeouts {stats['timeouts']}  retries {stats['retries']}  "
            f"sessions {len(stats['sessions'])}",
            f"latency p50 {stats['latency_p50']:.3f}s  "
            f"p95 {stats['latency_p95']:.3f}s  "
            f"mean compile {stats['mean_compile_seconds']:.3f}s  "
            f"mean queued {stats['mean_queue_seconds']:.3f}s",
            f"plan cache: {cache['hits']} hit(s) / {cache['misses']} miss(es) "
            f"({cache['hit_rate']:.1%}), {cache['entries']}/{cache['capacity']} "
            f"entries, {cache['evictions']} evicted, "
            f"{cache['invalidated']} invalidated",
            f"scheduler: {sched['max_concurrency']} gang(s), "
            f"queue peak {sched['queue_peak']}/{sched['queue_limit']}, "
            f"utilisation {sched['utilisation']:.1%} over {sched['clock']:.1f}s",
        ]
        errors = stats["estimate_errors"]
        if errors["operators"]:
            lines.append(
                f"estimates: {errors['operators']} operator(s), "
                f"mean q-error {errors['mean_q_error']:.2f}, "
                f"p95 {errors['q_error_p95']:.2f}, "
                f"worst {errors['worst_q_error']:.2f} "
                f"({errors['worst_operator']})"
            )
        return "\n".join(lines)
