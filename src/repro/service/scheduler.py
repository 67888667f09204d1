"""Admission control and the multi-tenant fair-share slot scheduler.

Admitted statements genuinely overlap in *process* time (the database's
reader–writer gate admits any number of concurrent reads, each on its
own executor), while the service layer multiplexes many logical clients
onto the simulated cluster in *simulated* time. The scheduler models
the simulated side as gang scheduling: the cluster's slots are
carved into ``max_concurrency`` equal gangs, one admitted query per
gang. A query's service demand on a gang is::

    startup_seconds  +  operator_seconds * max_concurrency

— per-job startup is coordinator-side and does not shrink with the gang,
while data-parallel operator work stretches linearly when it runs on
``slots / max_concurrency`` cores instead of all of them. Concurrency
therefore buys throughput exactly where a Hadoop-era system gains it:
overlapping the (large, fixed) per-job startup of one query with the
compute of others; total slot-seconds of operator work are conserved.

Admission control is a bounded FIFO room: when every gang is busy a
query waits in the admission queue (the wait shows up as
``queue_seconds`` in its metrics), and when the queue itself is full the
query is rejected immediately with :class:`ServiceOverloadedError` —
fail fast instead of building an unbounded backlog.

When a gang frees up, the next query is chosen **fairly across
tenants**: the waiting query whose session has consumed the fewest
slot-seconds so far goes first (ties broken FIFO). A tenant hammering
the service with heavy queries cannot starve a light one.

The scheduler is a discrete-event simulation over
:class:`~repro.engine.cluster.SlotTimeline`. Submissions must carry
non-decreasing arrival times (interactive use just submits at the
current clock).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Set

from ..engine.cluster import SlotTimeline
from ..errors import ServiceOverloadedError


class Ticket:
    """One query's passage through admission and the slot timeline."""

    __slots__ = ("tenant", "arrival", "service_seconds", "seq", "start", "finish", "gang")

    def __init__(self, tenant: str, arrival: float, service_seconds: float, seq: int):
        self.tenant = tenant
        self.arrival = arrival
        self.service_seconds = service_seconds
        self.seq = seq
        self.start: Optional[float] = None
        self.finish: Optional[float] = None
        self.gang: Optional[int] = None

    @property
    def queue_seconds(self) -> float:
        if self.start is None:
            return 0.0
        return self.start - self.arrival

    def __repr__(self):
        return (
            f"Ticket(#{self.seq} {self.tenant!r} arrive={self.arrival:.3f} "
            f"start={self.start} finish={self.finish})"
        )


class SlotScheduler:
    """Fair-share gang scheduler with bounded admission."""

    def __init__(self, max_concurrency: int, queue_limit: int):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.max_concurrency = max_concurrency
        self.queue_limit = queue_limit
        self.timeline = SlotTimeline(max_concurrency)
        self.clock = 0.0
        self._seq = 0
        self._waiting: List[Ticket] = []
        self._running: Dict[int, Ticket] = {}
        self._backlog: Deque[Ticket] = deque()  # completed, not yet collected
        #: cumulative slot-seconds consumed per tenant (fair-share state)
        self.usage: Dict[str, float] = {}
        #: tenants that will submit no more work but still have a ticket
        #: waiting or running; their ``usage`` entry goes when it leaves
        self._retired: Set[str] = set()
        # counters
        self.admitted = 0
        self.rejected = 0
        self.queued = 0
        self.queue_peak = 0
        self.total_queue_seconds = 0.0
        # assigned last: from here on, every attribute write must hold
        # the lock (enforced by the lock-discipline lint, see
        # repro.service.locking)
        self._lock = threading.RLock()

    # -- public API --------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._waiting)

    def submit(
        self, tenant: str, service_seconds: float, arrival: Optional[float] = None
    ) -> Ticket:
        """Admit (or queue, or reject) one query arriving at simulated
        time ``arrival`` (default: the current clock). Returns its
        ticket; ``start``/``finish`` are filled in once scheduled —
        immediately if a gang is idle."""
        with self._lock:
            if arrival is None:
                arrival = self.clock
            arrival = max(arrival, self.clock)
            self._advance(arrival)
            self.clock = arrival
            self._seq += 1
            ticket = Ticket(tenant, arrival, service_seconds, self._seq)
            gang = self.timeline.idle_gang(arrival) if not self._waiting else None
            if gang is not None:
                self._start(ticket, arrival, gang)
            elif len(self._waiting) >= self.queue_limit:
                self.rejected += 1
                raise ServiceOverloadedError(
                    f"admission queue full ({len(self._waiting)}/{self.queue_limit} "
                    f"waiting, {len(self._running)} running)",
                    queue_depth=len(self._waiting),
                    queue_limit=self.queue_limit,
                    retry_after_s=self.retry_after_estimate(arrival),
                )
            else:
                self._waiting.append(ticket)
                self.queued += 1
                self.queue_peak = max(self.queue_peak, len(self._waiting))
            self.admitted += 1
            return ticket

    def retire(self, tenant: str) -> None:
        """``tenant`` will submit no more work (a per-request session was
        released): forget its fair-share usage once none of its tickets
        is waiting or running, so ``usage`` tracks live tenants instead
        of growing by one entry per request."""
        with self._lock:
            self._retired.add(tenant)
            self._forget_retired()

    def retry_after_estimate(self, now: Optional[float] = None) -> float:
        """A backoff hint for rejected clients: time until the next gang
        frees up, plus the waiting room's aggregate service demand
        spread over all gangs. A resubmission after this long sees a
        drained (or at least shorter) queue."""
        with self._lock:
            if now is None:
                now = self.clock
            next_free = max(0.0, self.timeline.earliest_free() - now)
            backlog = sum(t.service_seconds for t in self._waiting)
            return next_free + backlog / self.max_concurrency

    def next_completion(self) -> Optional[Ticket]:
        """The next query (by simulated finish time) to complete; frees
        its gang and fairly starts a waiting query. ``None`` when
        nothing is in flight."""
        with self._lock:
            if self._backlog:
                return self._backlog.popleft()
            ticket = self._pop_earliest_running()
            if ticket is None:
                return None
            self._dispatch_waiting()
            return ticket

    def drain(self) -> List[Ticket]:
        """Run the simulation until idle; completed tickets in order."""
        completed = []
        while True:
            ticket = self.next_completion()
            if ticket is None:
                return completed
            completed.append(ticket)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "max_concurrency": self.max_concurrency,
                "queue_limit": self.queue_limit,
                "admitted": self.admitted,
                "queued": self.queued,
                "rejected": self.rejected,
                "queue_depth": self.queue_depth,
                "queue_peak": self.queue_peak,
                "total_queue_seconds": self.total_queue_seconds,
                "clock": self.clock,
                "utilisation": self.timeline.utilisation(self.clock),
            }

    # -- internals ---------------------------------------------------------

    def _start(self, ticket: Ticket, when: float, gang: int) -> None:
        ticket.start = when
        ticket.gang = gang
        ticket.finish = self.timeline.occupy(gang, when, ticket.service_seconds)
        self.usage[ticket.tenant] = (
            self.usage.get(ticket.tenant, 0.0) + ticket.service_seconds
        )
        self.total_queue_seconds += ticket.queue_seconds
        self._running[ticket.seq] = ticket

    def _pop_earliest_running(self) -> Optional[Ticket]:
        if not self._running:
            return None
        ticket = min(self._running.values(), key=lambda t: (t.finish, t.seq))
        del self._running[ticket.seq]
        self.clock = max(self.clock, ticket.finish)
        self._forget_retired()
        return ticket

    def _forget_retired(self) -> None:
        if not self._retired:
            return
        live = {ticket.tenant for ticket in self._running.values()}
        live.update(ticket.tenant for ticket in self._waiting)
        for tenant in self._retired - live:
            self.usage.pop(tenant, None)
        self._retired.intersection_update(live)

    def _dispatch_waiting(self) -> None:
        """Fill any idle gangs from the waiting room in fair-share order."""
        while self._waiting:
            gang = self.timeline.idle_gang(self.clock)
            if gang is None:
                return
            self._start(self._fair_pop(), self.clock, gang)

    def _fair_pop(self) -> Ticket:
        """The waiting query of the least-served tenant (FIFO within)."""
        best = min(
            self._waiting,
            key=lambda t: (self.usage.get(t.tenant, 0.0), t.seq),
        )
        self._waiting.remove(best)
        return best

    def _advance(self, until: float) -> None:
        """Process completions with finish <= ``until`` so queue state is
        current before a new arrival is judged."""
        while self._running:
            earliest = min(self._running.values(), key=lambda t: (t.finish, t.seq))
            if earliest.finish > until:
                return
            del self._running[earliest.seq]
            self.clock = max(self.clock, earliest.finish)
            self._forget_retired()
            self._backlog.append(earliest)
            self._dispatch_waiting()
