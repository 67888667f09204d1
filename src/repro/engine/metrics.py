"""Execution metrics.

Every physical operator records the rows it consumed/produced and the
simulated time it cost, broken down per operator — which is exactly the
instrumentation behind the paper's Figure 4 (join time vs. aggregation
time for the tuple-based vs. vector-based Gram matrix computation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class OperatorMetrics:
    """Metrics for one physical operator in one query execution."""

    name: str
    rows_in: int = 0
    rows_out: int = 0
    bytes_out: float = 0.0
    #: simulated seconds this operator took (max over workers + network)
    wall_seconds: float = 0.0
    #: busiest-worker CPU seconds (reveals skew when >> mean)
    max_worker_seconds: float = 0.0
    #: mean worker CPU seconds
    mean_worker_seconds: float = 0.0
    network_bytes: float = 0.0
    #: per-slot busy seconds of this operator execution; the fault
    #: recovery machinery rewrites these (and the derived wall/max/mean)
    #: when slots crash or straggle
    slot_seconds: Tuple[float, ...] = ()
    #: operator state bytes written to spill files when the working set
    #: exceeded the budget (identical in both storage modes)
    spill_bytes: float = 0.0
    spill_events: int = 0
    #: zone-map pruning outcome of a scan (pruned + scanned = total)
    segments_pruned: int = 0
    segments_scanned: int = 0
    #: buffer-pool outcomes of a disk-mode scan; structurally zero in
    #: memory mode, so excluded from the cross-storage-mode equality
    #: contract (spill/pruning fields above are part of it)
    pool_hits: int = 0
    pool_misses: int = 0
    #: largest tracked per-slot working set (state + output bytes)
    peak_memory_bytes: float = 0.0

    @property
    def network_seconds(self) -> float:
        """The network share of ``wall_seconds`` (wall = busiest worker
        + network)."""
        return self.wall_seconds - self.max_worker_seconds

    def rewrite_slot_seconds(self, slot_seconds: List[float]) -> None:
        """Replace the per-slot busy times (fault recovery extends
        crashed/straggling slots) and recompute the derived wall, max
        and mean; the network share is preserved."""
        network = self.network_seconds
        self.slot_seconds = tuple(slot_seconds)
        self.max_worker_seconds = max(slot_seconds) if slot_seconds else 0.0
        self.mean_worker_seconds = (
            sum(slot_seconds) / len(slot_seconds) if slot_seconds else 0.0
        )
        self.wall_seconds = self.max_worker_seconds + network

    @property
    def skew_ratio(self) -> float:
        """Busiest worker / mean worker; 1.0 means perfectly balanced."""
        if self.mean_worker_seconds <= 0:
            return 1.0
        return self.max_worker_seconds / self.mean_worker_seconds


@dataclass
class OperatorTrace:
    """EXPLAIN ANALYZE record for one physical operator: the *measured*
    execution (rows, materialized bytes, simulated seconds, skew,
    fault/retry counts) plus the cost model's *estimates* for the same
    node, copied from the plan node its compile priced, so every operator
    can report its q-error (max(est/actual, actual/est) on output rows).

    Traces form a tree mirroring the physical plan; the root's
    ``rows_out`` is the statement's delivered row count. Both
    interpreter back ends produce bit-identical traces (the row/batch
    equivalence contract of docs/ENGINE.md extends to tracing).
    """

    name: str
    #: pre-order position of this operator in the physical plan
    op_index: int = 0
    rows_in: int = 0
    rows_out: int = 0
    #: materialized output bytes (sum over slots of the partition sizes)
    bytes_out: float = 0.0
    wall_seconds: float = 0.0
    network_bytes: float = 0.0
    #: busiest worker / mean worker; 1.0 means perfectly balanced
    skew_ratio: float = 1.0
    #: failed exchange-job attempts re-executed from lineage
    retries: int = 0
    #: injected fault events observed while computing this operator,
    #: including while producing its not-yet-materialized inputs
    #: (subtree-inclusive)
    fault_count: int = 0
    #: spill/reload and storage counters (docs/STORAGE.md)
    spill_bytes: float = 0.0
    spill_events: int = 0
    segments_pruned: int = 0
    segments_scanned: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    peak_memory_bytes: float = 0.0
    #: False when the executor skipped this operator entirely (e.g. the
    #: zero-row short-circuit under ``LIMIT 0``): its zero actual rows
    #: are an artifact of not running, not a measurement, so q_error is
    #: None instead of comparing the estimate against a phantom actual
    #: — and cardinality feedback must not learn from it
    executed: bool = True
    children: List["OperatorTrace"] = field(default_factory=list)
    #: the operator's estimates, copied from its plan node (written when
    #: the plan compiled, ``CostModel.price_physical``)
    est_rows: Optional[float] = None
    est_width_bytes: Optional[float] = None
    est_bytes: Optional[float] = None
    est_seconds: Optional[float] = None

    @property
    def q_error(self) -> Optional[float]:
        """Cardinality q-error of this operator (>= 1.0; 1.0 is a
        perfect estimate); None on a plan never priced — and None
        for operators that never executed, whose ``rows_out == 0`` says
        nothing about the estimate's quality."""
        if self.est_rows is None or not self.executed:
            return None
        estimated = max(self.est_rows, 1.0)
        actual = max(float(self.rows_out), 1.0)
        return max(estimated / actual, actual / estimated)

    @property
    def seconds_q_error(self) -> Optional[float]:
        """The same ratio between the estimated seconds and the charged
        ``wall_seconds``, both floored at a nanosecond (far below one
        tuple's charge); None when :attr:`q_error` is."""
        if self.est_seconds is None or not self.executed:
            return None
        estimated = max(self.est_seconds, 1e-9)
        charged = max(self.wall_seconds, 1e-9)
        return max(estimated / charged, charged / estimated)

    def walk(self) -> Iterator["OperatorTrace"]:
        """This node and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def render(self) -> str:
        """The estimate-vs-actual table for this subtree."""
        lines = [
            f"{'operator':<44}{'est rows':>12}{'act rows':>12}{'q-err':>8}"
            f"{'est MB':>9}{'act MB':>9}{'est s':>9}{'act s':>9}{'skew':>7}"
        ]
        for node, depth in self._walk_depth(0):
            label = "  " * depth + node.name
            if len(label) > 43:
                label = label[:40] + "..."
            est_rows = f"{node.est_rows:,.0f}" if node.est_rows is not None else "-"
            q_error = f"{node.q_error:.2f}" if node.q_error is not None else "-"
            est_mb = (
                f"{node.est_bytes / 1e6:.2f}" if node.est_bytes is not None else "-"
            )
            est_s = (
                f"{node.est_seconds:.3f}" if node.est_seconds is not None else "-"
            )
            suffix = ""
            if not node.executed:
                suffix = "  [not executed]"
            if node.retries or node.fault_count:
                suffix = f"  [retries {node.retries}, faults {node.fault_count}]"
            if node.spill_bytes:
                suffix += (
                    f"  [spilled {node.spill_bytes / 1e6:.2f} MB in "
                    f"{node.spill_events} spill(s)]"
                )
            if node.segments_pruned:
                total = node.segments_pruned + node.segments_scanned
                suffix += f"  [pruned {node.segments_pruned}/{total} segment(s)]"
            if node.pool_hits or node.pool_misses:
                suffix += (
                    f"  [pool {node.pool_hits} hit(s), "
                    f"{node.pool_misses} miss(es)]"
                )
            lines.append(
                f"{label:<44}{est_rows:>12}{node.rows_out:>12,}{q_error:>8}"
                f"{est_mb:>9}{node.bytes_out / 1e6:>9.2f}{est_s:>9}"
                f"{node.wall_seconds:>9.3f}{node.skew_ratio:>7.2f}{suffix}"
            )
        return "\n".join(lines)

    def _walk_depth(self, depth: int):
        yield self, depth
        for child in self.children:
            yield from child._walk_depth(depth + 1)

    def max_q_error(self) -> Optional[float]:
        """Largest q-error in this subtree; None before annotation."""
        errors = [n.q_error for n in self.walk() if n.q_error is not None]
        return max(errors) if errors else None


@dataclass
class QueryMetrics:
    """Metrics for one full query execution.

    ``compile_seconds``, ``queue_seconds`` and ``stretch_seconds`` are
    filled in by the query service layer when the statement runs through
    a :class:`repro.service.QueryService`: simulated planning overhead
    (zero on a plan-cache hit), time spent waiting in the admission
    queue, and the slowdown from sharing the cluster's slots with other
    concurrently admitted queries. They are zero for direct
    ``Database.execute`` calls, which keeps ``total_seconds`` — the
    dedicated-cluster execution time the paper's figures use — unchanged.

    ``recovery_seconds`` / ``wasted_seconds`` / ``speculative_seconds``
    are filled in by the fault-injection machinery (docs/FAULTS.md).
    They *attribute* time that is already included in the (extended)
    operator wall clocks — they are a breakdown, not an addition to
    ``total_seconds``:

    * ``wasted_seconds`` — compute lost to failures: partial work of
      crashed slots plus full runs of exchange-job attempts aborted by
      transient errors;
    * ``recovery_seconds`` — the fault-handling overhead and redo work:
      crash detection, checkpoint re-reads, lineage recomputation of
      lost partitions, and re-executed exchange jobs;
    * ``speculative_seconds`` — duplicated work performed by speculative
      backup copies of straggler slots.

    ``fault_events`` counts injected faults by kind (``slot_crash``,
    ``lost_partition``, ``transient_error``, ``straggler``,
    ``speculation_win``).
    """

    operators: List[OperatorMetrics] = field(default_factory=list)
    jobs: int = 0
    startup_seconds: float = 0.0
    #: simulated planning (parse/bind/optimize) overhead; 0 on cache hit
    compile_seconds: float = 0.0
    #: whether the statement's plan came out of the database's plan
    #: cache (False: it was compiled for this execution)
    plan_cached: bool = False
    #: simulated time spent waiting for admission to the cluster
    queue_seconds: float = 0.0
    #: extra execution time from running on a share of the slots
    stretch_seconds: float = 0.0
    #: fault recovery overhead + redo work (attribution; see class doc)
    recovery_seconds: float = 0.0
    #: compute lost to injected failures (attribution; see class doc)
    wasted_seconds: float = 0.0
    #: duplicated speculative-backup work (attribution; see class doc)
    speculative_seconds: float = 0.0
    #: injected fault counts by kind
    fault_events: Dict[str, int] = field(default_factory=dict)
    #: materialized-view accounting (docs/VIEWS.md): aggregate subtrees
    #: answered from stored view state / considered but not answered in
    #: this statement's plan, and — for DML — the maintenance work the
    #: statement triggered (view delta-folds, rows folded, full
    #: refreshes)
    view_hits: int = 0
    view_misses: int = 0
    view_maintenance: int = 0
    view_delta_rows: int = 0
    view_refreshes: int = 0
    #: per-operator estimate-vs-actual trace tree (EXPLAIN ANALYZE);
    #: built by the executor for every statement, estimate columns from
    #: the plan nodes the compile priced
    trace: Optional[OperatorTrace] = None

    @property
    def plan_line(self) -> str:
        return "plan: cached" if self.plan_cached else "plan: compiled"

    @property
    def operator_seconds(self) -> float:
        return sum(op.wall_seconds for op in self.operators)

    @property
    def total_seconds(self) -> float:
        return self.operator_seconds + self.startup_seconds

    @property
    def elapsed_seconds(self) -> float:
        """End-to-end simulated latency as a service client sees it:
        compile + admission queueing + (possibly stretched) execution."""
        return (
            self.compile_seconds
            + self.queue_seconds
            + self.total_seconds
            + self.stretch_seconds
        )

    # -- storage accounting (aggregated over operators, so merged
    # multi-statement records derive them for free) ------------------------

    @property
    def spill_bytes(self) -> float:
        """Total operator state bytes written to spill files."""
        return sum(op.spill_bytes for op in self.operators)

    @property
    def spill_events(self) -> int:
        return sum(op.spill_events for op in self.operators)

    @property
    def segments_pruned(self) -> int:
        """Segments skipped by zone-map pruning across all scans."""
        return sum(op.segments_pruned for op in self.operators)

    @property
    def segments_scanned(self) -> int:
        return sum(op.segments_scanned for op in self.operators)

    @property
    def pool_hits(self) -> int:
        """Buffer-pool hits (disk storage mode only)."""
        return sum(op.pool_hits for op in self.operators)

    @property
    def pool_misses(self) -> int:
        return sum(op.pool_misses for op in self.operators)

    @property
    def peak_memory_bytes(self) -> float:
        """Largest tracked per-slot working set of any operator — the
        query's enforced memory footprint (docs/STORAGE.md)."""
        return max((op.peak_memory_bytes for op in self.operators), default=0.0)

    def seconds_by_operator(self) -> Dict[str, float]:
        """Aggregate wall seconds per operator name (Figure 4's bars)."""
        out: Dict[str, float] = {}
        for op in self.operators:
            out[op.name] = out.get(op.name, 0.0) + op.wall_seconds
        return out

    def find(self, name: str) -> List[OperatorMetrics]:
        return [op for op in self.operators if op.name == name]

    def merge(self, other: "QueryMetrics") -> "QueryMetrics":
        """Combine metrics of several statements (e.g. a multi-query
        computation); job startups add up."""
        fault_events = dict(self.fault_events)
        for kind, count in other.fault_events.items():
            fault_events[kind] = fault_events.get(kind, 0) + count
        merged = QueryMetrics(
            operators=self.operators + other.operators,
            jobs=self.jobs + other.jobs,
            startup_seconds=self.startup_seconds + other.startup_seconds,
            compile_seconds=self.compile_seconds + other.compile_seconds,
            plan_cached=self.plan_cached and other.plan_cached,
            queue_seconds=self.queue_seconds + other.queue_seconds,
            stretch_seconds=self.stretch_seconds + other.stretch_seconds,
            recovery_seconds=self.recovery_seconds + other.recovery_seconds,
            wasted_seconds=self.wasted_seconds + other.wasted_seconds,
            speculative_seconds=self.speculative_seconds
            + other.speculative_seconds,
            fault_events=fault_events,
            view_hits=self.view_hits + other.view_hits,
            view_misses=self.view_misses + other.view_misses,
            view_maintenance=self.view_maintenance + other.view_maintenance,
            view_delta_rows=self.view_delta_rows + other.view_delta_rows,
            view_refreshes=self.view_refreshes + other.view_refreshes,
            # a merged record spans several statements; keep the first
            # statement's trace (callers wanting all traces hold the
            # per-statement Results)
            trace=self.trace if self.trace is not None else other.trace,
        )
        return merged

    def report(self) -> str:
        """A human-readable execution profile: per-operator simulated
        time, rows, network traffic and skew — EXPLAIN ANALYZE, in
        effect, for the simulated cluster."""
        lines = [
            f"{'operator':<24}{'rows in':>10}{'rows out':>10}"
            f"{'wall s':>10}{'net MB':>9}{'skew':>7}"
        ]
        for op in self.operators:
            lines.append(
                f"{op.name:<24}{op.rows_in:>10}{op.rows_out:>10}"
                f"{op.wall_seconds:>10.3f}{op.network_bytes / 1e6:>9.2f}"
                f"{op.skew_ratio:>7.2f}"
            )
        lines.append(
            f"{'TOTAL':<24}{'':>10}{'':>10}{self.total_seconds:>10.3f}"
            f"{sum(op.network_bytes for op in self.operators) / 1e6:>9.2f}"
            f"{'':>7}  ({self.jobs} job(s), "
            f"{self.startup_seconds:.1f}s startup"
            + (f", {self.plan_line})" if self.operators else ")")
        )
        if self.recovery_seconds or self.wasted_seconds or self.speculative_seconds:
            events = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.fault_events.items())
            )
            lines.append(
                f"{'FAULTS':<24}recovered {self.recovery_seconds:.3f}s  "
                f"wasted {self.wasted_seconds:.3f}s  "
                f"speculative {self.speculative_seconds:.3f}s"
                + (f"  ({events})" if events else "")
            )
        if self.compile_seconds or self.queue_seconds or self.stretch_seconds:
            lines.append(
                f"{'SERVICE':<24}compile {self.compile_seconds:.3f}s  "
                f"queued {self.queue_seconds:.3f}s  "
                f"stretch {self.stretch_seconds:.3f}s  "
                f"elapsed {self.elapsed_seconds:.3f}s"
            )
        if (
            self.view_hits
            or self.view_misses
            or self.view_maintenance
            or self.view_refreshes
        ):
            lines.append(
                f"{'VIEWS':<24}answered {self.view_hits} subtree(s)  "
                f"missed {self.view_misses}  "
                f"maintained {self.view_maintenance} view(s) "
                f"({self.view_delta_rows} delta row(s))  "
                f"refreshed {self.view_refreshes}"
            )
        if (
            self.spill_bytes
            or self.segments_pruned
            or self.pool_hits
            or self.pool_misses
        ):
            lines.append(
                f"{'STORAGE':<24}spilled {self.spill_bytes / 1e6:.2f} MB "
                f"({self.spill_events} event(s))  "
                f"pruned {self.segments_pruned}/"
                f"{self.segments_pruned + self.segments_scanned} segment(s)  "
                f"pool {self.pool_hits} hit(s)/{self.pool_misses} miss(es)  "
                f"peak {self.peak_memory_bytes / 1e6:.2f} MB"
            )
        return "\n".join(lines)
