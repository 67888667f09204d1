"""Service-level metrics: per-session counters and latency percentiles.

Latencies here are the *client-observed* simulated latencies
(``QueryMetrics.elapsed_seconds``: compile + admission queueing +
possibly stretched execution), which is what a serving benchmark cares
about — not the dedicated-cluster times of the paper's figures.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Deque, Dict, Sequence

from ..engine.metrics import QueryMetrics

#: how many recent samples the latency and q-error percentiles are taken
#: over. Counts, sums and so the means stay exact over the service's
#: whole life; only the percentiles look at a window, which bounds what a
#: long-lived service retains and what ``stats()`` sorts under its lock.
PERCENTILE_WINDOW = 4096


def _window() -> Deque[float]:
    return deque(maxlen=PERCENTILE_WINDOW)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of ``values``;
    0.0 for an empty sequence."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} out of range")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


@dataclass
class SessionStats:
    """Per-session counters kept by the service facade."""

    queries: int = 0
    cache_hits: int = 0
    rejected: int = 0
    timeouts: int = 0
    retries: int = 0
    elapsed_seconds: float = 0.0
    queue_seconds: float = 0.0


@dataclass
class ServiceMetrics:
    """Aggregated serving metrics across all sessions."""

    queries: int = 0
    #: the last PERCENTILE_WINDOW client-observed latencies
    latencies: Deque[float] = field(default_factory=_window)
    compile_seconds: float = 0.0
    queue_seconds: float = 0.0
    per_session: Dict[str, SessionStats] = field(default_factory=dict)
    rejected: int = 0
    timeouts: int = 0
    retries: int = 0
    #: per-operator cardinality q-errors collected from query traces:
    #: how many, their sum, and the last PERCENTILE_WINDOW of them
    q_error_operators: int = 0
    q_error_sum: float = 0.0
    q_errors: Deque[float] = field(default_factory=_window)
    worst_q_error: float = 0.0
    worst_q_error_operator: str = ""
    #: every trace operator seen, whether or not it carried a q-error —
    #: the denominator of the annotated-coverage ratio. Operators with
    #: no q-error were either never annotated with an estimate or were
    #: skipped by the executor (LIMIT 0 short-circuit), and a mean over
    #: only the annotated ones silently overstates coverage.
    trace_operators: int = 0
    #: declared last so every earlier field is assigned during (exempt)
    #: construction; post-construction writes require the lock (see
    #: repro.service.locking)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def session(self, name: str) -> SessionStats:
        with self._lock:
            stats = self.per_session.get(name)
            if stats is None:
                stats = self.per_session[name] = SessionStats()
            return stats

    def fold_ephemeral(self, name: str) -> None:
        """Fold a released per-request session's counters into the one
        aggregate ``"ephemeral"`` row: the network layer opens a session
        per anonymous request, and a row each would grow for the life of
        the process."""
        with self._lock:
            stats = self.per_session.pop(name, None)
            if stats is None:
                return
            total = self.session("ephemeral")
            for counter in fields(SessionStats):
                setattr(
                    total,
                    counter.name,
                    getattr(total, counter.name) + getattr(stats, counter.name),
                )

    def observe(self, session_name: str, metrics: QueryMetrics, cache_hit: bool) -> None:
        with self._lock:
            self.queries += 1
            self.latencies.append(metrics.elapsed_seconds)
            self.compile_seconds += metrics.compile_seconds
            self.queue_seconds += metrics.queue_seconds
            stats = self.session(session_name)
            stats.queries += 1
            stats.cache_hits += int(cache_hit)
            stats.elapsed_seconds += metrics.elapsed_seconds
            stats.queue_seconds += metrics.queue_seconds
            for name, q_error in metrics.operator_q_errors():
                self.trace_operators += 1
                if q_error is None:
                    continue
                self.q_error_operators += 1
                self.q_error_sum += q_error
                self.q_errors.append(q_error)
                if q_error > self.worst_q_error:
                    self.worst_q_error = q_error
                    self.worst_q_error_operator = name

    def observe_rejection(self, session_name: str) -> None:
        with self._lock:
            self.rejected += 1
            self.session(session_name).rejected += 1

    def observe_timeout(self, session_name: str) -> None:
        with self._lock:
            self.timeouts += 1
            self.session(session_name).timeouts += 1

    def observe_retry(self, session_name: str) -> None:
        with self._lock:
            self.retries += 1
            self.session(session_name).retries += 1

    @property
    def latency_p50(self) -> float:
        return percentile(self.latencies, 50.0)

    @property
    def latency_p95(self) -> float:
        return percentile(self.latencies, 95.0)

    @property
    def mean_compile_seconds(self) -> float:
        return self.compile_seconds / self.queries if self.queries else 0.0

    @property
    def mean_queue_seconds(self) -> float:
        return self.queue_seconds / self.queries if self.queries else 0.0

    @property
    def mean_q_error(self) -> float:
        # q-errors are >= 1.0 by construction, so the empty aggregate
        # is the identity (perfect estimates), not an impossible 0.0
        if not self.q_error_operators:
            return 1.0
        return self.q_error_sum / self.q_error_operators

    @property
    def q_error_p95(self) -> float:
        if not self.q_errors:
            return 1.0
        return percentile(self.q_errors, 95.0)

    @property
    def estimate_coverage(self) -> float:
        """Fraction of trace operators that carried a cardinality
        q-error; 1.0 with no operators seen (vacuously full coverage,
        so an idle service doesn't read as uninstrumented)."""
        if self.trace_operators == 0:
            return 1.0
        return self.q_error_operators / self.trace_operators

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> Dict[str, object]:
        return {
            "queries": self.queries,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "mean_compile_seconds": self.mean_compile_seconds,
            "mean_queue_seconds": self.mean_queue_seconds,
            "estimate_errors": {
                "operators": self.q_error_operators,
                "trace_operators": self.trace_operators,
                "coverage": self.estimate_coverage,
                "mean_q_error": self.mean_q_error,
                "q_error_p95": self.q_error_p95,
                "worst_q_error": self.worst_q_error,
                "worst_operator": self.worst_q_error_operator,
            },
            "sessions": {
                name: {
                    "queries": stats.queries,
                    "cache_hits": stats.cache_hits,
                    "rejected": stats.rejected,
                    "timeouts": stats.timeouts,
                    "retries": stats.retries,
                    "elapsed_seconds": stats.elapsed_seconds,
                    "queue_seconds": stats.queue_seconds,
                }
                for name, stats in sorted(self.per_session.items())
            },
        }
