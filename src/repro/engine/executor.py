"""Physical plan execution on the simulated cluster.

Operators materialize one output partition per slot (the MapReduce
model SimSQL inherits from Hadoop) — most of them over a whole *stage* of
real tuples at once — and results are exact, while charging per slot:

* per-tuple iterator overhead on the slot that owns the partition;
* actual FLOPs / streamed bytes measured while evaluating expressions
  over the real values (``EvalCost``);
* network seconds for every exchange;
* one job-startup charge per hash/gather exchange (job boundaries).

Per-operator wall clocks land in :class:`QueryMetrics`, giving the
Figure 4 breakdown for free; per-slot busy times expose skew.

Each physical operator has **one** handler, written against the chunk
protocol of :mod:`repro.engine.storage`: the handler owns child
execution, the per-slot charges, every ``charge_*``/``note_peak``/
spill call and the fault and checkpoint hooks; the chunks own the value
computation. ``ClusterConfig.execution_mode`` selects only which chunk
class scans and ``from_rows`` produce:

* ``"row"`` — :class:`~repro.engine.storage.RowChunk`, tuple lists
  evaluated row by row with ``TypedExpr.evaluate`` (the differential
  oracle of ``tests/test_exec_modes.py``);
* ``"batch"`` — columnar :class:`~repro.engine.storage.Batch` chunks
  with vectorized expression evaluation (``TypedExpr.evaluate_batch``).

Both modes run the same charge sequence, so they cannot charge different
simulated costs for the same values; that the two kernels compute the
same values is enforced by ``tests/test_exec_modes.py``. The batch
kernels only improve *real* wall-clock time (see ``docs/ENGINE.md``).

A statement runs on the thread that admitted it: every operator charges
its slots in order to one :class:`OperatorRun` (the concurrency
model is in ``docs/ENGINE.md``). Statements overlap each
other on server worker threads, so fault injection is
schedule-independent by construction: every draw is a pure hash of
``(plan seed, kind, operator pre-order index, partition, attempt)`` —
per-statement coordinates, never thread identity or real time.
"""

from __future__ import annotations

import threading
from operator import add
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import (
    ExecutionError,
    FaultRecoveryExhaustedError,
    TransientClusterError,
)
from ..faults import FaultInjector
from ..plan.expressions import EvalCost, slot_sums
from ..plan.physical import (
    PDistinct,
    PExchange,
    PFilter,
    PFinalAggregate,
    PHashJoin,
    PNestedLoopJoin,
    PPartialAggregate,
    PProject,
    PScan,
    PhysicalNode,
    PSortLimit,
    PTopK,
    PViewScan,
    resolve_prune_predicates,
)
from ..storage.segment import segment_pruned
from .aggregation import finished
from .cluster import (
    Cluster,
    refetch_seconds,
    sort_comparisons,
    stable_hash,
    top_k_comparisons,
)
from .keys import stable_argsort, stable_order, top_order
from .metrics import OperatorMetrics, OperatorTrace, QueryMetrics
from .storage import (
    BROADCAST,
    ROUND_ROBIN,
    SINGLE,
    Batch,
    DistributedRelation,
    IndexPairs,
    PairStage,
    RowChunk,
    slot_counts,
    slot_offsets,
)

if False:  # pragma: no cover - typing only, avoids an import cycle at runtime
    from ..storage.engine import StorageEngine

#: execution mode -> the chunk class its scans and ``from_rows`` produce
CHUNK_CLASSES = {"row": RowChunk, "batch": Batch}
EXECUTION_MODES = tuple(CHUNK_CLASSES)


def placement(keys, slots: int, balanced: bool) -> np.ndarray:
    """The slot a hash exchange (:meth:`Executor._exchange`) sends each of
    ``keys`` (distinct key tuples, in first-seen order) to:
    ``stable_hash`` modulo the slots, or with ``balanced`` placement the
    n-th key to slot n mod slots."""
    if balanced:
        return np.arange(len(keys)) % slots
    return np.array([stable_hash(key) % slots for key in keys], np.int64)


def busiest_share(stats, config: ClusterConfig) -> float:
    """The share of a column's known values (``stats.values``) that the
    busiest slot receives when a hash exchange places them by
    :func:`placement`: the estimate of a skew the executor's placement
    makes (100 blocks hashed onto 80 slots put four or five on one).
    Computed once per value set and cluster shape, and kept on ``stats``
    (a value set only grows, so its size names its content)."""
    key = (len(stats.values), config.slots, config.balanced_placement)
    if stats.placed is None or stats.placed[0] != key:
        keys = [(value,) for value in stats.values]
        targets = placement(keys, config.slots, config.balanced_placement)
        loads = np.bincount(targets, minlength=config.slots)
        stats.placed = (key, float(loads.max()) / max(len(keys), 1))
    return stats.placed[1]


def count_job_boundaries(node: PhysicalNode) -> int:
    count = 0
    if isinstance(node, PExchange) and node.is_job_boundary:
        count += 1
    for child in node.children():
        count += count_job_boundaries(child)
    return count


class PlanFacts:
    """What a run reads of a physical plan that its compile fixed: its
    job count, and each operator's pre-order position, name and
    estimates. The plan cache derives them once per entry it builds or
    renews (``CachedPlan``) and keeps them on the plan's root as
    ``facts`` (a copied root does not take its original's), so a warm
    run formats no ``describe()`` and walks no tree for them; a plan
    lowered outside the cache derives them per run. They name nodes by
    ``id`` and hold none, so a root and its facts make no reference
    cycle: a plan the cache replaces is freed at once."""

    def __init__(self, root: PhysicalNode):
        #: pre-order ``(node id, name, estimates, child positions)``
        self.nodes: List[tuple] = []

        def visit(node) -> int:
            at = len(self.nodes)
            self.nodes.append(None)
            estimates = (node.est_rows, node.est_width_bytes, node.est_bytes, node.est_seconds)
            children = tuple(visit(child) for child in node.children())
            self.nodes[at] = (id(node), node.describe(), estimates, children)
            return at

        visit(root)
        self.jobs = max(1, count_job_boundaries(root))
        self.position = {node: at for at, (node, *_) in enumerate(self.nodes)}

    @classmethod
    def of(cls, plan: PhysicalNode) -> "PlanFacts":
        """The facts kept on ``plan``, or derived now when it keeps none."""
        facts = getattr(plan, "facts", None)
        return cls(plan) if facts is None else facts


class CheckpointStore:
    """Simulated checkpoints of exchange (shuffle) outputs.

    Job-boundary exchanges materialize their partitions to distributed
    storage — Hadoop's model, which is what makes lineage-based recovery
    possible: a consumer that finds a partition lost recomputes it from
    the checkpointed producer instead of restarting the query. Entries
    live for the duration of one ``Executor.run`` and are evicted when
    the query completes (success or failure).

    Entries are keyed by plan-node identity and hold one statement's
    exchange outputs, so every statement gets its own store (fresh
    executors never share entries) — but the cumulative eviction counter
    is database-wide observability, shared across the fresh executors of
    one database."""

    def __init__(self, evictions: Optional["_EvictionCounter"] = None):
        self._entries: Dict[int, Tuple[DistributedRelation, OperatorMetrics]] = {}
        self._evictions = _EvictionCounter() if evictions is None else evictions

    @property
    def evicted(self) -> int:
        """Total entries evicted across every store sharing the counter."""
        return self._evictions.count

    def put(
        self,
        node_id: int,
        relation: DistributedRelation,
        op: OperatorMetrics,
    ) -> None:
        self._entries[node_id] = (relation, op)

    def get(
        self, node_id: int
    ) -> Optional[Tuple[DistributedRelation, OperatorMetrics]]:
        return self._entries.get(node_id)

    def clear(self) -> int:
        """Evict everything; returns how many entries were dropped."""
        dropped = len(self._entries)
        self._evictions.add(dropped)
        self._entries.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._entries)


class _EvictionCounter:
    """Cumulative checkpoint-eviction count, shared by the per-statement
    stores of one database (statements clear their stores concurrently)."""

    __slots__ = ("count", "_lock")

    def __init__(self) -> None:
        self.count = 0
        self._lock = threading.Lock()

    def add(self, n: int) -> None:
        if n:
            with self._lock:
                self.count += n


class Executor:
    def __init__(
        self,
        cluster: Cluster,
        execution_mode: Optional[str] = None,
        storage: Optional["StorageEngine"] = None,
        injector: Optional[FaultInjector] = None,
    ):
        self.cluster = cluster
        self.slots = cluster.config.slots
        #: the database's storage engine (segment files, buffer pool,
        #: physical spill); None behaves exactly like memory mode
        self.storage = storage
        mode = execution_mode or cluster.config.execution_mode
        if mode not in EXECUTION_MODES:
            raise ExecutionError(
                f"unknown execution_mode {mode!r}; pick one of {EXECUTION_MODES}"
            )
        self.execution_mode = mode
        #: the partition kernel: everything the two modes do differently
        self._chunks = CHUNK_CLASSES[mode]
        self._handlers = {
            PScan: self._scan,
            PFilter: self._filter,
            PProject: self._project,
            PExchange: self._exchange,
            PHashJoin: self._hash_join,
            PNestedLoopJoin: self._nested_loop_join,
            PPartialAggregate: self._partial_aggregate,
            PFinalAggregate: self._final_aggregate,
            PDistinct: self._distinct,
            PSortLimit: self._sort_limit,
            PTopK: self._top_k,
            PViewScan: self._view_scan,
        }
        fault_plan = cluster.config.fault_plan
        if injector is not None:
            self.injector: Optional[FaultInjector] = injector
        else:
            self.injector = (
                FaultInjector(fault_plan)
                if fault_plan is not None
                and (fault_plan.enabled or fault_plan.storage_enabled)
                else None
            )
        #: relations memoized by plan-node identity — the lineage store.
        #: A child executed once is never re-executed when a faulted
        #: parent retries; retries replay against these memoized inputs,
        #: which is what keeps recovery deterministic.
        self._materialized: Dict[int, DistributedRelation] = {}
        #: simulated checkpoints of job-boundary exchange outputs,
        #: evicted when the query completes
        self.checkpoints = CheckpointStore()
        #: the running plan's facts, and by pre-order position what each
        #: operator that ran left for the trace: (record, retries, faults)
        self._facts: Optional[PlanFacts] = None
        self._ran: Dict[int, tuple] = {}

    def fresh(self) -> "Executor":
        """A new executor sharing this one's cluster, mode, storage and
        fault injector, with clean per-statement state. The database
        runs every statement on a fresh executor so concurrently
        admitted statements never share lineage memos, checkpoints or
        trace bookkeeping; the shared injector keeps cumulative fault
        counts cluster-wide."""
        twin = Executor(
            self.cluster,
            execution_mode=self.execution_mode,
            storage=self.storage,
            injector=self.injector,
        )
        # per-statement entries, database-wide eviction count
        twin.checkpoints = CheckpointStore(self.checkpoints._evictions)
        return twin

    def run(self, plan: PhysicalNode) -> Tuple[List[tuple], QueryMetrics]:
        """Execute a plan; returns (all result rows, metrics for this
        statement, carrying the per-operator estimate-vs-actual trace).
        The cluster's running metrics are reset first."""
        self.cluster.reset_metrics()
        self._materialized.clear()
        self._ran.clear()
        self._facts = facts = PlanFacts.of(plan)
        try:
            for _ in range(facts.jobs):
                self.cluster.record_job()
            relation = self.execute(plan)
            # its records hold every fault rewrite of their timings by now
            trace = self._build_trace(facts)
            metrics = self.cluster.reset_metrics()
            metrics.trace = trace
            return relation.all_rows(), metrics
        finally:
            # the query is over (either way): drop lineage memos and
            # evict this query's checkpointed exchange outputs
            self._materialized.clear()
            self.checkpoints.clear()

    def _build_trace(self, facts: PlanFacts) -> OperatorTrace:
        """The OperatorTrace tree mirroring the plan's shape, built
        bottom up: each node's name, position and estimates from the
        plan's facts, its measured actuals from its operator's record. A
        node with no record was skipped entirely (the LIMIT 0
        short-circuit never executes its child subtree): its zeros are
        not measurements, so q_error stays undefined and cardinality
        feedback ignores it."""
        traces: List[Optional[OperatorTrace]] = [None] * len(facts.nodes)
        for at in reversed(range(len(facts.nodes))):
            node, name, estimates, children = facts.nodes[at]
            relation = self._materialized.get(node)
            own, retries, faults = self._ran.get(at, (None, 0, 0))
            ran = relation is not None
            # positional, in field order: name, op_index, bytes_out,
            # retries, fault_count, executed, children, estimates, op
            traces[at] = OperatorTrace(
                name, at if ran else 0, sum(relation.partition_totals()) if ran else 0.0,
                retries, faults, own is not None, [traces[child] for child in children],
                *estimates, own,
            )
        return traces[0]

    # -- dispatch ------------------------------------------------------------

    def execute(self, node: PhysicalNode) -> DistributedRelation:
        cached = self._materialized.get(id(node))
        if cached is not None:
            return cached
        handler = self._handlers.get(type(node))
        if handler is None:
            raise ExecutionError(f"no executor for {type(node).__name__}")
        op_index = self._facts.position[id(node)]
        try:
            relation, own, retries, faults = self._run_operator(
                node, handler, op_index
            )
            held = self._held(node) if node.pipelined else relation.partition_totals()
            self.cluster.check_memory(self._facts.nodes[op_index][1], held)
        except ExecutionError as exc:
            # annotate with the operator the failure surfaced in; inner
            # frames win (the first annotation sticks), and the original
            # cause chain stays intact — no string concatenation
            if exc.operator is None:
                exc.operator = self._facts.nodes[op_index][1]
                exc.plan_position = op_index
            raise
        self._materialized[id(node)] = relation
        self._ran[op_index] = (own, retries, faults)
        if own is not None:
            # the materialized output is part of the operator's working
            # set; state extras — build sides, hash tables, staging —
            # were already noted by the handler via OperatorRun.note_peak
            peak = max(relation.partition_totals(), default=0.0)
            if peak > own.peak_memory_bytes:
                own.peak_memory_bytes = peak
        return relation

    def _held(self, node: PhysicalNode) -> list:
        """Each slot's bytes held in memory while ``node`` runs: its output
        partition — except for a pipelined operator (Filter, Project and
        the joins), whose rows stream to their consumer: a slot then holds
        what its inputs hold, a join's probe rows beside its build side.
        So a join's pairs are never counted (nor built, for a pair stage);
        the state they are folded into is (``CostModel.price_physical``
        estimates the same, ``est_held_bytes``)."""
        if not node.pipelined:
            return self._materialized[id(node)].partition_totals()
        inputs = [self._held(child) for child in node.children()]
        if len(inputs) == 1:
            return inputs[0]
        return [probe + build for probe, build in zip(*inputs)]

    def _run_operator(
        self, node, handler, op_index: int
    ) -> Tuple[DistributedRelation, Optional[OperatorMetrics], int, int]:
        """Run one operator's handler, injecting faults and charging
        recovery when a FaultPlan is active.

        Transient exchange errors trigger *genuine* re-execution: the
        handler runs again against its memoized (checkpointed) inputs —
        lineage-based recompute — and produces bit-identical output.
        Slot crashes and stragglers are applied to the successful
        attempt's per-slot timings; lost input partitions extend the
        checkpointed producer's timeline with the recompute."""
        injector = self.injector
        if injector is None:
            metrics = self.cluster.metrics
            before = len(metrics.operators)
            relation = handler(node)
            # children record their operators first; the handler's own
            # record is the last one appended
            own = metrics.operators[-1] if len(metrics.operators) > before else None
            return relation, own, 0, 0
        metrics = self.cluster.metrics
        plan = injector.plan
        failures = 0
        faults_before = sum(metrics.fault_events.values())
        while True:
            before = len(metrics.operators)
            relation = handler(node)
            own = metrics.operators[-1] if len(metrics.operators) > before else None
            if not (
                isinstance(node, PExchange)
                and injector.transient_error(op_index, failures)
            ):
                break
            # this exchange job attempt died to a transient network
            # error: its full wall clock is wasted, and a replacement
            # job is launched against the memoized child relations
            self._count("transient_error")
            failures += 1
            if own is not None:
                metrics.wasted_seconds += own.wall_seconds
                own.name += " [failed attempt]"
            if failures > plan.max_partition_retries:
                raise FaultRecoveryExhaustedError(
                    f"exchange job failed {failures} attempt(s); retry "
                    f"budget ({plan.max_partition_retries}) exhausted"
                ) from TransientClusterError(
                    "injected transient network error during exchange"
                )
            self.cluster.record_job()
            metrics.recovery_seconds += self.cluster.config.job_startup_s
        if own is not None:
            self._apply_slot_faults(node, relation, own, op_index)
            self._apply_lost_inputs(node, op_index)
            if isinstance(node, PExchange) and node.is_job_boundary:
                self.checkpoints.put(id(node), relation, own)
        faults = sum(metrics.fault_events.values()) - faults_before
        return relation, own, failures, faults

    def _count(self, kind: str) -> None:
        """Record one injected fault, both per-statement (QueryMetrics)
        and cumulatively (the injector's counters)."""
        self.injector.count(kind)
        events = self.cluster.metrics.fault_events
        events[kind] = events.get(kind, 0) + 1

    def _apply_slot_faults(
        self,
        node: PhysicalNode,
        relation: DistributedRelation,
        op: OperatorMetrics,
        op_index: int,
    ) -> None:
        """Inject stragglers (with speculative backups) and slot crashes
        (with bounded re-execution) into one operator's per-slot busy
        times, then rewrite the operator's wall clock."""
        injector = self.injector
        plan = injector.plan
        metrics = self.cluster.metrics
        base = list(op.slot_seconds)
        busy = sorted(s for s in base if s > 0.0)
        if not busy:
            return
        # the scheduler's notion of this operator's "typical" task time,
        # used to decide when a backup copy launches
        typical = busy[len(busy) // 2]
        adjusted = list(base)
        changed = False
        for slot, s0 in enumerate(base):
            if s0 <= 0.0:
                continue
            run_time = s0
            factor = injector.straggler_factor(op_index, slot)
            if factor > 1.0:
                self._count("straggler")
                slowed = s0 * factor
                if plan.speculation:
                    launch = typical * plan.speculation_threshold
                    backup_finish = launch + s0
                    if backup_finish < slowed:
                        # the backup copy wins; the straggling original
                        # is killed when the backup commits, and
                        # everything it consumed was duplicated work
                        run_time = backup_finish
                        metrics.speculative_seconds += run_time
                        self._count("speculation_win")
                    else:
                        # the original limps across first; the backup
                        # ran from launch until then for nothing
                        run_time = slowed
                        metrics.speculative_seconds += max(0.0, slowed - launch)
                else:
                    run_time = slowed
            crashes = 0
            total = 0.0
            while True:
                frac = injector.crash_fraction(op_index, slot, crashes)
                if frac is None:
                    total += run_time
                    break
                self._count("slot_crash")
                crashes += 1
                lost = run_time * frac
                refetch = self._refetch_seconds(node, relation, slot)
                total += lost + plan.crash_detection_s + refetch
                metrics.wasted_seconds += lost
                metrics.recovery_seconds += plan.crash_detection_s + refetch
                if crashes > plan.max_partition_retries:
                    raise FaultRecoveryExhaustedError(
                        f"slot {slot} crashed {crashes} time(s) in a row; "
                        f"retry budget ({plan.max_partition_retries}) "
                        f"exhausted"
                    ) from TransientClusterError(
                        f"injected slot crash on slot {slot}"
                    )
            if total != s0:
                adjusted[slot] = total
                changed = True
        if changed:
            op.rewrite_slot_seconds(adjusted)

    def _refetch_seconds(self, node: PhysicalNode, relation, slot: int) -> float:
        """Simulated cost of re-reading a restarted task's inputs from
        the lineage store (local checkpoint/scan re-read); a leaf (scan)
        re-reads its own partition of the base table."""
        inputs = [self._materialized.get(id(child)) for child in node.children()]
        seconds = 0.0
        for rel in [rel for rel in inputs if rel is not None] or [relation]:
            totals = rel.partition_totals()
            if slot < len(totals):
                seconds += refetch_seconds(self.cluster.config, totals[slot], False)
        return seconds

    def _apply_lost_inputs(self, node: PhysicalNode, op_index: int) -> None:
        """When a consumer finds one of its checkpointed input
        partitions lost, the producing exchange recomputes it from
        lineage and the partition is refetched; the producer's timeline
        is extended accordingly."""
        injector = self.injector
        config = self.cluster.config
        metrics = self.cluster.metrics
        for child in node.children():
            entry = self.checkpoints.get(id(child))
            if entry is None:
                continue
            relation, op = entry
            base = list(op.slot_seconds)
            adjusted = list(base)
            changed = False
            totals = relation.partition_totals()
            for slot, length in enumerate(relation.partition_lengths()):
                if length == 0 or not injector.partition_lost(op_index, slot):
                    continue
                self._count("lost_partition")
                redo = base[slot] if slot < len(base) else 0.0
                charge = redo + refetch_seconds(config, totals[slot], True)
                if slot < len(adjusted):
                    adjusted[slot] += charge
                metrics.recovery_seconds += charge
                changed = True
            if changed:
                op.rewrite_slot_seconds(adjusted)

    # -- helpers ------------------------------------------------------------

    def _spill_state(self, run, slot: int, nbytes: float) -> bool:
        """Check one slot's operator state against the working-memory
        budget; over-budget state is charged as a spill (write plus
        reload at disk rate). The decision and the charge are pure byte
        accounting, identical across storage and execution modes.
        Returns True when the state spilled."""
        spilled = run.charge_state(slot, nbytes)
        if spilled and self.storage is not None:
            self.storage.note_spill(nbytes)
        return spilled

    def _spill_roundtrip(self, chunk):
        """Physically round-trip a spilled chunk through a spill file in
        disk mode (the segment codec is exact, so values are unchanged);
        in memory mode the spill is simulated and the chunk stays put."""
        if self.storage is None or self.storage.mode != "disk":
            return chunk
        return chunk.from_rows(
            chunk.column_ids, self.storage.spill_roundtrip(chunk.rows())
        )

    def _spill_slots(self, chunk, offsets, spilled):
        """The stage ``chunk`` (cut at ``offsets``) with the rows of every
        slot in ``spilled`` round-tripped through a spill file — in disk
        mode; in memory mode, ``chunk`` itself."""
        if not spilled or self.storage is None or self.storage.mode != "disk":
            return chunk
        bounds = offsets.tolist()
        pieces = [chunk.slice(a, b) for a, b in zip(bounds, bounds[1:])]
        for slot in spilled:
            pieces[slot] = self._spill_roundtrip(pieces[slot])
        return type(chunk).concat(chunk.column_ids, pieces)

    def _staged(self, column_ids, chunk, offsets, partitioning):
        """``chunk`` cut at ``offsets`` — of a broadcast relation, the one
        copy every slot shares (chunks are immutable), as one slot."""
        if partitioning.kind == "broadcast":
            offsets = slot_offsets([len(chunk)])
        stage = (chunk, offsets)
        return DistributedRelation(column_ids, partitioning, stage, slots=self.slots)

    @staticmethod
    def _charge_slots(run, tuples, cost) -> None:
        """Charge each slot, in order, its ``tuples`` and its ``cost``."""
        for slot, (count, slot_cost) in enumerate(zip(tuples, cost.split())):
            run.charge_eval(slot, count, slot_cost)

    # =======================================================================
    # operators
    #
    # One handler per physical operator, written against the chunk
    # protocol of ``engine.storage``: a handler owns child execution and
    # every charge; the chunks own the value computation. Every handler
    # reads its child's stage (or zero-copy slices of it) and writes one
    # stage, and charges each slot — from a per-slot ledger (``EvalCost``
    # over the stage's offsets) where it evaluates expressions — with the
    # arguments, in the order, a loop over the slots' own partitions
    # would. Sort and Top-K order each slot's slice on its own (a NaN or
    # object key makes the comparison chain depend on the rows it sees)
    # and apply every slot's order with one ``take``. Both execution
    # modes run these same handlers, so the charge sequence cannot differ
    # between them.
    # =======================================================================

    def _scan(self, node: PScan) -> DistributedRelation:
        """The stage is every slot's unpruned segments, slot by slot, as
        one chunk. Segment boundaries come from the one table class, so
        pruning decisions — and the scan charges they remove — match
        across storage modes; only disk-backed segments touch the buffer
        pool (that is where the hit/miss counters come from)."""
        storage = node.table.storage
        if storage is None:
            raise ExecutionError(f"table {node.table.name!r} has no data loaded")
        run = self.cluster.operator(f"Scan({node.table.name})")
        column_ids = [column.column_id for column in node.columns]
        predicates = resolve_prune_predicates(node.prune_predicates)
        pool = self.storage.buffer_pool if self.storage is not None else None
        slot_segments = []
        for slot in range(self.slots):
            segments = storage.segments(slot)
            kept = [seg for seg in segments if not segment_pruned(seg, predicates)]
            slot_segments.append(kept)
            run.segments_pruned += len(segments) - len(kept)
        run.segments_scanned = sum(map(len, slot_segments))
        chunk, counts, outcomes = storage.scan_stage(
            self._chunks, column_ids, slot_segments, pool
        )
        run.pool_hits, run.pool_misses = outcomes.count("hit"), outcomes.count("miss")
        offsets = slot_offsets(counts)
        relation = self._staged(column_ids, chunk, offsets, node.partitioning)
        for slot, scanned in enumerate(relation.partition_totals()):
            run.charge_disk(slot, scanned)
            run.charge_cpu(slot, tuples=counts[slot])
            run.bytes_out += scanned
        run.rows_in = run.rows_out = sum(counts)
        self.cluster.record(run)
        return relation

    def _view_scan(self, node: PViewScan) -> DistributedRelation:
        """Answer from a materialized view's stored state: slot 0 emits
        the view's rows (for an incremental view, the merged + finished
        accumulator states — deferred maintenance catches up here, under
        the view's lock), every other slot is empty, matching the SINGLE
        layout of the final aggregate or gathered result it replaces."""
        run = self.cluster.operator(f"ViewScan({node.view.name})")
        column_ids = [column.column_id for column in node.columns]
        rows = node.view.answer_rows(node.spec_indices, self._chunks)
        chunk = self._chunks.from_rows(column_ids, rows)
        run.charge_cpu(0, tuples=len(chunk))
        run.rows_in = run.rows_out = len(chunk)
        run.bytes_out += chunk.total_bytes()
        self.cluster.record(run)
        on_slot_0 = slot_offsets([len(chunk)] + [0] * (self.slots - 1))
        return self._staged(column_ids, chunk, on_slot_0, node.partitioning)

    def _filter(self, node: PFilter) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator("Filter")
        chunk, offsets = child.stage
        cost = EvalCost(offsets)
        keep = chunk.keep(node.predicate, cost)
        kept = slot_offsets(slot_sums(offsets, keep))
        self._charge_slots(run, slot_counts(offsets), cost)
        run.rows_in, run.rows_out = int(offsets[-1]), int(kept[-1])
        self.cluster.record(run)
        return self._staged(
            child.column_ids, chunk.filter(keep), kept, child.partitioning
        )

    def _project(self, node: PProject) -> DistributedRelation:
        """Over a pair stage, a pair stage of column references and tiled
        calls (``PairStage.project``) when every expression is one; over
        anything else, one ``project`` of the stage."""
        child = self.execute(node.child)
        run = self.cluster.operator("Project")
        column_ids = [column.column_id for column in node.columns]
        pairs = child.pairs if isinstance(child.pairs, PairStage) else None
        if pairs is not None:
            cost = EvalCost(pairs.offsets)
            pairs = pairs.project(column_ids, node.exprs, cost)
        if pairs is not None:
            offsets = pairs.offsets
            relation = DistributedRelation(column_ids, node.partitioning, pairs=pairs)
        else:
            chunk, offsets = child.stage
            cost = EvalCost(offsets)
            out = chunk.project(column_ids, node.exprs, cost)
            relation = self._staged(column_ids, out, offsets, node.partitioning)
        counts, totals = slot_counts(offsets), relation.partition_totals()
        for slot, (count, slot_cost) in enumerate(zip(counts, cost.split())):
            run.charge_eval(slot, count, slot_cost)
            run.bytes_out += totals[slot]
        run.rows_in = run.rows_out = int(offsets[-1])
        self.cluster.record(run)
        return relation

    def _exchange(self, node: PExchange) -> DistributedRelation:
        """One pass over the child's stage (a broadcast child: its one
        copy, as slot 0); each source slot is charged its own rows, bytes
        and key-evaluation cost."""
        child = self.execute(node.child)
        run = self.cluster.operator(f"Exchange({node.kind})")
        column_ids = child.column_ids
        config = self.cluster.config
        chunk, offsets = child.stage
        counts, totals = slot_counts(offsets), child.partition_totals()

        if node.kind == "broadcast":
            total = chunk.total_bytes()
            run.charge_network(total * config.machines)
            for machine in range(config.machines):
                run.charge_cpu(machine * config.cores_per_machine, tuples=len(chunk))
            run.rows_in = run.rows_out = len(chunk)
            run.bytes_out = total * config.machines
            self.cluster.record(run)
            return self._staged(column_ids, chunk, None, BROADCAST)

        if node.kind == "gather":
            gathered = 0.0
            for slot, count in enumerate(counts):
                moved = totals[slot]
                run.charge_cpu(slot, tuples=count)
                run.charge_disk(slot, moved)  # map output spill
                run.charge_network(moved)
                gathered += moved
                run.rows_in += count
            # gather staging on the reducer is exchange state: when the
            # collected partition exceeds the budget it spills before
            # the reduce-side read
            if self._spill_state(run, 0, gathered):
                chunk = self._spill_roundtrip(chunk)
            # the single reducer owns the whole machine's disk bandwidth
            run.charge_disk(0, gathered / config.cores_per_machine)
            run.charge_cpu(0, tuples=len(chunk))
            run.rows_out = len(chunk)
            self.cluster.record(run)
            # every row moves to slot 0: only the offsets change
            gathered_at = slot_offsets([len(chunk)] + [0] * (self.slots - 1))
            return self._staged(column_ids, chunk, gathered_at, SINGLE)

        # hash repartition. The map side buckets the keys of every source
        # slot at once by the key alone — placement depends on nothing
        # else — numbered in first-seen order over the slot-ordered stage,
        # the order that fixes the balanced assignment (the n-th distinct
        # key goes to slot n mod slots); each distinct key is hashed once.
        # One stable sort by target then lays the rows out target by
        # target, source slot by source slot and ascending within one: the
        # order a reduce side concatenating its pieces from every source
        # receives them in.
        cost = EvalCost(offsets)
        grouping = chunk.keys(node.keys, cost).grouping(by_slot=False)
        for slot, (count, slot_cost) in enumerate(zip(counts, cost.split())):
            run.charge_eval(slot, count, slot_cost)
            run.charge_disk(slot, totals[slot])  # map output spill
            run.charge_network(totals[slot])
        targets = placement(grouping.keys, self.slots, config.balanced_placement)
        row_targets = targets[grouping.codes]
        order = stable_argsort(row_targets)
        received = np.bincount(row_targets, minlength=self.slots)
        received_at = slot_offsets(received)
        relation = self._staged(
            column_ids, chunk.take(order), received_at, node.partitioning
        )
        spilled = []
        for slot, nbytes in enumerate(relation.partition_totals()):
            # reduce-side staging above the budget spills before the read
            if self._spill_state(run, slot, nbytes):
                spilled.append(slot)
            run.charge_disk(slot, nbytes)  # reduce-side read
            run.charge_cpu(slot, tuples=int(received[slot]))
            run.bytes_out += nbytes
        run.rows_in = run.rows_out = int(offsets[-1])
        self.cluster.record(run)
        # a slot whose rows crossed a spill file takes its own copy back
        staged = self._spill_slots(relation.stage[0], received_at, spilled)
        if staged is relation.stage[0]:
            return relation
        return self._staged(column_ids, staged, received_at, node.partitioning)

    def _joined(self, run, node, pairs, tuples, cost):
        """The relation of a join's ``pairs`` (:class:`PairStage` or
        :class:`IndexPairs`) with the residual applied, charging each slot
        ``tuples`` plus its rows out and its entry of ``cost``, a ledger
        over the pairs' offsets. The residual reads the pairs spread over
        its own columns only; the joined rows are built when a consumer
        needs them, once."""
        if node.residual is not None and pairs.count:
            keep = pairs.spread(node.residual.column_ids).keep(node.residual, cost)
            pairs = pairs.kept_by(keep)
        self._charge_slots(run, map(add, tuples, slot_counts(pairs.offsets)), cost)
        run.rows_out = pairs.count
        self.cluster.record(run)
        return DistributedRelation(pairs.column_ids, node.partitioning, pairs=pairs)

    def _hash_join(self, node: PHashJoin) -> DistributedRelation:
        """The build keys evaluated once over the build stage and the
        probe keys once over the probe stage, matched by one ``pairs``: a
        broadcast build side is one chunk every slot matches, a
        partitioned one matches on keys that carry the slot. Pairs come
        probe-row major with build rows ascending — every slot's pairs,
        end to end."""
        probe_rel = self.execute(node.probe)
        build_rel = self.execute(node.build)
        run = self.cluster.operator("HashJoin")
        if probe_rel.partitioning.kind == "broadcast":
            raise ExecutionError("hash join probe side cannot be broadcast")
        build, build_offsets = build_rel.stage
        totals = build_rel.partition_totals()
        # the build side is this join's in-memory state: a slot's build
        # rows above the working-memory budget round-trip a spill file. A
        # broadcast build side is one shared chunk (its stage's one slot),
        # but a full copy on every slot: each slot charges the key
        # evaluation and its spill
        slots = range(len(build_offsets) - 1)
        spilled = [slot for slot in slots if run.spills(totals[slot])]
        build = self._spill_slots(build, build_offsets, spilled)
        build_cost = EvalCost(build_offsets)
        # the keys index themselves on first probe: the "hash table"
        build_keys = build.keys(node.build_keys, build_cost)
        build_costs = build_cost.split()
        if build_rel.partitioning.kind == "broadcast":
            build_costs *= self.slots
        build_counts = build_rel.partition_lengths()
        for slot, (count, cost) in enumerate(zip(build_counts, build_costs)):
            self._spill_state(run, slot, totals[slot])
            run.charge_eval(slot, count, cost)
            run.rows_in += count
        probe, offsets = probe_rel.stage
        cost = EvalCost(offsets)
        # NULL (and NaN) keys match nothing
        found = probe.keys(node.probe_keys, cost).pairs(build_keys)
        found = [np.asarray(side, np.int64) for side in found]
        pair_offsets = np.searchsorted(found[0], offsets)
        run.rows_in += int(offsets[-1])
        column_ids = [column.column_id for column in node.columns]
        pairs = IndexPairs(
            column_ids, probe, build, found, pair_offsets, node.probe_is_left
        )
        return self._joined(
            run, node, pairs, slot_counts(offsets),
            EvalCost(pair_offsets).hold(cost.split()),
        )

    def _nested_loop_join(self, node: PNestedLoopJoin) -> DistributedRelation:
        """Every slot's probe-major cross product with the broadcast build
        side, in one pass over the probe stage (slot-ordered as it is).
        Over batches it is a :class:`PairStage`: the residual's keep mask
        over the (probe × build) pairs, rows built only when a consumer
        needs them; the row oracle pairs every row by index."""
        probe_rel = self.execute(node.probe)
        build_rel = self.execute(node.build)
        if build_rel.partitioning.kind != "broadcast":
            raise ExecutionError("nested-loop build side must be broadcast")
        run = self.cluster.operator("NestedLoopJoin")
        if probe_rel.partitioning.kind == "broadcast":
            raise ExecutionError("nested-loop probe side cannot be broadcast")
        (build, _), (probe, offsets) = build_rel.stage, probe_rel.stage
        column_ids = [column.column_id for column in node.columns]
        if isinstance(probe, Batch):
            pairs = PairStage(column_ids, probe, build, offsets)
        else:
            pairs = IndexPairs(
                column_ids, probe, build,
                [
                    np.repeat(np.arange(len(probe), dtype=np.int64), len(build)),
                    np.tile(np.arange(len(build), dtype=np.int64), len(probe)),
                ],
                offsets * len(build), node.probe_is_left,
            )
        tuples = [count * max(len(build), 1) for count in slot_counts(offsets)]
        run.rows_in = len(probe)
        return self._joined(run, node, pairs, tuples, EvalCost(offsets * len(build)))

    def _partial_aggregate(self, node: PPartialAggregate) -> DistributedRelation:
        child = self.execute(node.child)
        run = self.cluster.operator("PartialAggregate")
        if child.partitioning.kind == "broadcast":
            raise ExecutionError("aggregating a broadcast relation")
        column_ids = [column.column_id for column in node.columns]
        # over a pair stage: MIN/MAX of a tile grouped by probe columns,
        # reduced without the joined rows (``PairStage.partial_aggregate``)
        pairs = child.pairs if isinstance(child.pairs, PairStage) else None
        folded = None
        if pairs is not None:
            offsets = pairs.offsets
            cost = EvalCost(offsets)
            folded = pairs.partial_aggregate(node.group_exprs, node.aggregates, cost)
        if folded is not None:
            keys, spec_states, groups = folded
        else:
            chunk, offsets = child.stage
            cost = EvalCost(offsets)
            # bucket the rows by (slot, group key) — no keys: one group of
            # each slot's rows — then aggregate column by column (the
            # chunk evaluates each aggregate's input in its native column
            # form): groups come out slot by slot, each slot's in
            # first-seen order, every state sees its group's values in row
            # order, and the (integral) cost totals are order-independent.
            # A fused SUM's open step is finished here, so what crosses the
            # exchange is a plain cell
            grouping = chunk.keys(node.group_exprs, cost).grouping()
            keys = grouping.keys
            spec_states = [
                list(map(finished, chunk.partial_aggregate(spec, grouping, cost)))
                for spec in node.aggregates
            ]
            groups = slot_sums(offsets, grouping.first).tolist()
        out = self._chunks.from_columns(
            column_ids, [*zip(*keys), *spec_states], len(keys)
        )
        relation = self._staged(column_ids, out, slot_offsets(groups), ROUND_ROBIN)
        counts, totals = slot_counts(offsets), relation.partition_totals()
        for slot, (count, slot_cost) in enumerate(zip(counts, cost.split())):
            # the group hash table is this operator's in-memory state;
            # above the budget the partition spills. The reload is
            # simulated in every mode — DISTINCT states are Python sets
            # whose iteration order would not survive a physical round
            # trip, and the final fold must stay bit-identical.
            self._spill_state(run, slot, totals[slot])
            # hash aggregation costs ~2x a plain per-tuple pass: hash the
            # key, probe the table, update the state (this is why the
            # paper's Figure 4 shows aggregation dominating the join)
            run.charge_eval(slot, 2 * count + groups[slot], slot_cost)
        run.rows_in, run.rows_out = int(offsets[-1]), len(out)
        self.cluster.record(run)
        return relation

    def _final_aggregate(self, node: PFinalAggregate) -> DistributedRelation:
        """One merge over the slots that hold rows, grouped by ``(slot,
        key)`` (``chunk.final_aggregate``): each slot's groups, slot by
        slot, each slot charged its own states. An empty slot merges
        nothing (a charge of nothing adds +0.0), except that SQL's one row
        over empty input is slot 0's."""
        child = self.execute(node.child)
        run = self.cluster.operator("FinalAggregate")
        column_ids = [column.column_id for column in node.columns]
        chunk, offsets = child.stage
        lengths = slot_counts(offsets)
        held = [slot for slot, length in enumerate(lengths) if length] or [0]
        merged = slot_offsets([lengths[slot] for slot in held])
        cost = EvalCost(merged)
        out, first = chunk.final_aggregate(
            column_ids, node.aggregates, len(node.group_columns), cost,
            scalar_on_empty=not node.group_columns,
        )
        groups = slot_sums(merged, first) if len(held) > 1 else [len(out)]
        counts = [0] * len(lengths)
        for slot, slot_cost, count in zip(held, cost.split(), groups):
            run.charge_eval(slot, lengths[slot], slot_cost)
            counts[slot] = int(count)
        run.rows_in, run.rows_out = len(chunk), len(out)
        self.cluster.record(run)
        return self._staged(column_ids, out, slot_offsets(counts), node.partitioning)

    def _distinct(self, node: PDistinct) -> DistributedRelation:
        """One ``(slot, row)`` grouping over the stage: each slot's
        distinct rows where they were first seen, slot by slot."""
        child = self.execute(node.child)
        run = self.cluster.operator(
            f"Distinct({'local' if node.local else 'final'})"
        )
        chunk, offsets = child.stage
        totals = child.partition_totals()
        for slot, count in enumerate(slot_counts(offsets)):
            run.charge_cpu(slot, tuples=count, stream_bytes=totals[slot])
        first = chunk.row_keys(offsets).grouping().first
        run.rows_in, run.rows_out = len(chunk), len(first)
        self.cluster.record(run)
        return self._staged(
            child.column_ids, chunk.take(first),
            slot_offsets(slot_sums(offsets, first)), child.partitioning,
        )

    def _ordered(self, node, name, order_slot) -> tuple:
        """``(run, relation)`` of Sort or Top-K, the run not yet recorded:
        ``order_slot(run, chunk, slot)`` orders one slot's slice of the
        stage (positions in it), charging ``slot``; every slot's order,
        offset by the slot's start, is applied with one ``take``. Each
        slot sorts on its own: a NaN or object key makes the comparison
        chain depend on the rows it sees."""
        child = self.execute(node.child)
        run = self.cluster.operator(name)
        chunk, offsets = child.stage
        orders = [
            np.asarray(order_slot(run, child.partition(slot), slot), np.int64)
            + offsets[slot]
            for slot in range(len(offsets) - 1)
        ]
        order = np.concatenate(orders)
        run.rows_in, run.rows_out = len(chunk), len(order)
        relation = self._staged(
            child.column_ids, chunk.take(order), slot_offsets(list(map(len, orders))),
            child.partitioning,
        )
        return run, relation

    def _sort_limit(self, node: PSortLimit) -> DistributedRelation:
        def sort_slot(run, chunk, slot):
            count = len(chunk)
            keys = _charged_sort_keys(chunk, reversed(node.keys), slot, run)
            if node.limit is None:
                order = stable_order(count, keys)
            else:
                order = top_order(count, keys, node.limit)
            run.charge_cpu(slot, tuples=sort_comparisons(count))
            # the full sort materializes an ordered copy of the whole
            # partition before any LIMIT truncation — O(n) state (the
            # simulated PTopK holds O(k); see _top_k)
            run.note_peak(chunk.total_bytes())
            return order

        name = f"Sort({'final' if node.final else 'local'})"
        run, relation = self._ordered(node, name, sort_slot)
        self.cluster.record(run)
        return relation

    def _top_k(self, node: PTopK) -> DistributedRelation:
        """The simulated cluster models a k-bounded heap — n·log2(k)
        comparisons charged, the k survivors noted as peak state. The
        interpreter selects those rows with the full sort's own stable
        chain, run over the candidates ``top_order``'s selection leaves,
        and keeps the first k, so Top-K ≡ full sort by construction,
        ties at rank k (broken by input position) included."""
        name = f"TopK({'final' if node.final else 'local'})"
        if node.limit <= 0:
            # ``LIMIT 0``: emit nothing — and never execute the child
            # subtree (the zero-row short-circuit; skipped operators are
            # marked not-executed in the trace)
            self.cluster.record(self.cluster.operator(name))
            column_ids = [column.column_id for column in node.columns]
            empty = self._chunks.from_rows(column_ids, [])
            nowhere = slot_offsets([0] * self.slots)
            return self._staged(column_ids, empty, nowhere, node.partitioning)

        def topk_slot(run, chunk, slot):
            # keys are evaluated (and charged) in ORDER BY sequence
            sort_keys = _charged_sort_keys(chunk, node.keys, slot, run)
            order = top_order(len(chunk), reversed(sort_keys), node.limit)
            run.charge_cpu(slot, tuples=top_k_comparisons(len(chunk), node.limit))
            return order

        run, relation = self._ordered(node, name, topk_slot)
        # each slot's k survivors are its peak state
        for nbytes in relation.partition_totals():
            run.note_peak(nbytes)
        self.cluster.record(run)
        return relation


def _charged_sort_keys(chunk, keys, slot, op) -> list:
    """One ``(chunk keys, ascending)`` per ORDER BY key, evaluated — and
    its evaluation charged to ``slot`` — in the sequence given."""
    out = []
    for expr, ascending in keys:
        cost = EvalCost()
        out.append((chunk.keys([expr], cost), ascending))
        op.charge_eval(slot, 0, cost)
    return out
