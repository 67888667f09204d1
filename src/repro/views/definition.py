"""One materialized view: definition, classification, stored state.

A view is **incremental** when its bound plan has the shape

    Project[ColumnVars] -> Aggregate[no keys, no DISTINCT] -> [Filter] -> Scan

i.e. a scalar aggregate (SUM/COUNT/AVG/MIN/MAX and the tensor
aggregates — ``SUM(outer_product(x, x))`` is the Gram matrix) over a
single base table with an optional parameter-free predicate. For that
class the view stores *per-slot accumulator states* plus a per-slot
consumed-row cursor; an append folds only the new suffix of each
partition (both storage back ends append in insert order), which is the
O(delta) maintenance path. The fold *is* the engine's: the suffix — a
slice of the partition's columnar tail, converted when it was appended —
becomes a chunk of the database's current ``execution_mode`` the way a
scanned segment does, the predicate is the chunk's ``select``, and each
stored state is the carried state of the chunk's ``partial_aggregate``
(``engine/aggregation.py``); the answer is FinalAggregate's merge over
the per-slot states in ascending slot order — the PartialAggregate →
gather → FinalAggregate pipeline with the scan replaced by stored
states. It is ``aggregation.final_aggregate`` itself over the handful of
states as Python values: the same fold under each aggregate's merger a
rescan's FinalAggregate makes over its state column in either mode, the
``add`` chain here and the kernels a batch column takes, which match it
bit for bit — so answering from the view is bit-identical to
rescanning. What stays here is view-specific: classification, cursors,
counters, locking.

Everything else (GROUP BY, DISTINCT, joins, subqueries, ORDER BY, ...)
is a **full** view: the stored result rows are recomputed by a tracked
refresh — eagerly on every base-table change, or deferred until
``REFRESH MATERIALIZED VIEW`` (the view goes stale and the optimizer
stops matching it) per the ``view_refresh_mode`` config knob.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from ..engine.aggregation import final_aggregate, finished
from ..engine.keys import Grouping
from ..errors import CompileError
from ..plan.logical import (
    AggregateNode,
    AggSpec,
    FilterNode,
    LogicalNode,
    OutputColumn,
    ProjectNode,
    ScanNode,
    ViewScanNode,
)
from ..plan.expressions import ColumnVar, EvalCost, ParamExpr, TypedExpr


def _contains_param(expr: Optional[TypedExpr]) -> bool:
    if expr is None:
        return False
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ParamExpr):
            return True
        stack.extend(node.children())
    return False


def _base_tables(plan: LogicalNode) -> Set[str]:
    """Lowercase names of every base table the plan reads (through
    nested view scans as well — a view over a view depends on the inner
    view's bases)."""
    names: Set[str] = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, ScanNode):
            names.add(node.table.name.lower())
        elif isinstance(node, ViewScanNode):
            names |= set(node.view.base_tables)
        stack.extend(node.children())
    return names


class MaterializedView:
    """A catalog-registered materialized view and its stored state."""

    def __init__(
        self,
        name: str,
        query,  # sql.ast.SelectStatement
        column_names: Optional[List[str]],
        plan: LogicalNode,
        slots: int,
        text: str,
    ):
        self.name = name
        self.query = query
        #: the normalised text of the defining statement: what a
        #: snapshot stores, the name, columns and mode follow from it
        self.text = text
        self.column_names = list(column_names) if column_names is not None else None
        if column_names is not None and len(column_names) != len(plan.columns):
            raise CompileError(
                f"materialized view {name!r}: {len(column_names)} column "
                f"name(s) for {len(plan.columns)} column(s)"
            )
        names = column_names or [column.name for column in plan.columns]
        #: output schema: (name, DataType) pairs
        self.columns: List[Tuple[str, object]] = [
            (out_name, column.data_type)
            for out_name, column in zip(names, plan.columns)
        ]
        self.base_tables: Set[str] = _base_tables(plan)
        self.slots = slots

        # -- classification -------------------------------------------------
        incremental = self._classify(plan)
        self.mode = "incremental" if incremental else "full"

        # -- incremental artifacts ------------------------------------------
        if incremental:
            project, aggregate, predicate, scan = incremental
            self._entry = scan.table  # catalog TableEntry (storage lives here)
            self.predicate: Optional[TypedExpr] = predicate
            self.specs: List[AggSpec] = list(aggregate.aggregates)
            self.scan_columns: List[OutputColumn] = list(scan.columns)
            self._column_ids = [column.column_id for column in scan.columns]
            spec_ids = {
                spec.output.column_id: i for i, spec in enumerate(self.specs)
            }
            #: for each output column, which aggregate spec produces it
            self.output_spec_indices: List[int] = [
                spec_ids[expr.column_id] for expr in project.exprs
            ]
        else:
            self._entry = None
            self.predicate = None
            self.specs = []
            self.scan_columns = []
            self._column_ids = []
            self.output_spec_indices = []

        # -- stored state ---------------------------------------------------
        #: per-slot accumulator lists (one state per spec); None marks a
        #: slot that has contributed no post-filter row yet — like
        #: PartialAggregate, which emits no states-row for such slots
        self._slot_states: List[Optional[List[object]]] = [None] * slots
        #: per-slot count of *pre-filter* rows already folded
        self._consumed: List[int] = [0] * slots
        #: full-mode stored result rows (in gathered result order)
        self.rows: List[tuple] = []
        #: set by :meth:`invalidate`. Serving a stale full view would not
        #: be bit-identical, so the matcher skips it until a recompute;
        #: a stale incremental view rebuilds at its next catch-up
        self.stale = False

        # -- counters (cumulative; surfaced via registry.stats()) -----------
        self.maintain_count = 0
        self.delta_rows = 0
        self.refresh_count = 0
        self.hits = 0

        self._lock = threading.RLock()

    # -- classification ------------------------------------------------------

    @staticmethod
    def _classify(plan: LogicalNode):
        """The (project, aggregate, predicate, scan) tuple when ``plan``
        is in the incrementally maintainable class, else None."""
        if not isinstance(plan, ProjectNode):
            return None
        if not all(isinstance(expr, ColumnVar) for expr in plan.exprs):
            return None
        aggregate = plan.child
        if not isinstance(aggregate, AggregateNode):
            return None
        if aggregate.group_exprs or aggregate.group_columns:
            return None
        if any(spec.distinct for spec in aggregate.aggregates):
            return None
        child = aggregate.child
        predicate = None
        if isinstance(child, FilterNode):
            predicate = child.predicate
            child = child.child
        if not isinstance(child, ScanNode):
            return None
        if _contains_param(predicate) or any(
            _contains_param(spec.arg) for spec in aggregate.aggregates
        ):
            return None
        spec_ids = {spec.output.column_id for spec in aggregate.aggregates}
        if not all(expr.column_id in spec_ids for expr in plan.exprs):
            return None
        return plan, aggregate, predicate, child

    @property
    def incremental(self) -> bool:
        return self.mode == "incremental"

    # -- incremental maintenance ---------------------------------------------

    def invalidate(self) -> None:
        """The stored state no longer follows from the base tables (a
        delete or truncate, maintenance that raised part-way, a deferred
        full view's base changed)."""
        with self._lock:
            self.stale = True

    def catch_up(self, chunks) -> int:
        """Bring an incremental view current: fold each partition's
        unconsumed suffix into its slot's states — the O(delta) path —
        and return the number of pre-filter rows folded. A stale view
        (or one whose partition shrank under its cursor) forgets its
        states first, which makes the same loop the rebuild from
        scratch: tracked as a refresh, returning 0. ``chunks`` is the
        chunk class of the database's current ``execution_mode``:
        maintenance runs the kernel queries run."""
        assert self.incremental
        storage = self._entry.storage
        with self._lock:
            rebuild = self.stale
            if rebuild:
                self._slot_states = [None] * self.slots
                self._consumed = [0] * self.slots
            folded = 0
            for slot in range(self.slots):
                count = storage.partition_row_count(slot)
                start = self._consumed[slot]
                if start > count:
                    # the partition shrank under us: cursors are invalid
                    self.stale = True
                    return self.catch_up(chunks)
                if start == count:
                    continue
                folded += count - start
                self._fold_slot(slot, storage.partition_chunk(slot, start), chunks)
                self._consumed[slot] = count
            if rebuild:
                self.stale = False
                self.refresh_count += 1
                return 0
            if folded:
                self.maintain_count += 1
                self.delta_rows += folded
            return folded

    def _fold_slot(self, slot: int, segment, chunks) -> None:
        """Advance one slot's states over ``segment`` (a run of the
        partition's rows, in partition order, as the table holds them —
        column-wise): the engine's Filter → PartialAggregate on that
        slot, each state carried on from where the previous fold left
        it — a fused SUM's with its open step, so the next fold cuts the
        steps a rescan cuts. Maintenance charges no simulated time, so
        the cost is discarded."""
        cost = EvalCost()
        chunk, _ = chunks.from_segment(self._column_ids, segment)
        if self.predicate is not None:
            chunk = chunk.filter(chunk.keep(self.predicate, cost))
        if not len(chunk):
            return
        states = self._slot_states[slot]
        every_row = chunk.keys((), cost).grouping()  # no keys: one group
        self._slot_states[slot] = [
            chunk.partial_aggregate(
                spec, every_row, cost, None if states is None else [states[i]]
            )[0]
            for i, spec in enumerate(self.specs)
        ]

    # -- answering -----------------------------------------------------------

    def answer_rows(self, spec_indices: Optional[List[int]], chunks) -> List[tuple]:
        """The rows a ViewScan of this view emits (single partition).
        None emits a full view's stored rows verbatim; ``spec_indices``
        selects/permutes the finished values of an incremental view's
        aggregates: the engine's FinalAggregate over the contributing
        slots' states in ascending slot order — the order a gather
        delivers them in."""
        with self._lock:
            self.hits += 1
            if spec_indices is None:
                return list(self.rows)
            # cheap no-op when current; folds pending deltas when
            # running deferred (and rebuilds when stale)
            self.catch_up(chunks)
            # a fused SUM's stored state keeps its open step: the answer
            # finishes it as PartialAggregate would, leaving it open
            held = [states for states in self._slot_states if states is not None]
            columns = [list(map(finished, column)) for column in zip(*held)]
            answer, _ = final_aggregate(
                self.specs, Grouping.one(len(held)), columns,
                EvalCost(), scalar_on_empty=True,
            )
            return [tuple(answer[i][0] for i in spec_indices)]

    # -- full-view state ------------------------------------------------------

    def set_rows(self, rows: List[tuple]) -> None:
        """Install a full refresh's recomputed result rows."""
        with self._lock:
            self.rows = list(rows)
            self.stale = False
            self.refresh_count += 1

    @property
    def fresh(self) -> bool:
        """Whether the optimizer may answer from this view. Incremental
        views self-catch-up at read time and are always servable; a full
        view is servable until it is invalidated."""
        return self.incremental or not self.stale

    def estimated_rows(self) -> float:
        return 1.0 if self.incremental else float(len(self.rows))

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "mode": self.mode,
                "base_tables": sorted(self.base_tables),
                "fresh": self.fresh,
                "hits": self.hits,
                "maintenance_runs": self.maintain_count,
                "delta_rows": self.delta_rows,
                "refreshes": self.refresh_count,
            }

    def __repr__(self) -> str:
        return f"MaterializedView({self.name!r}, {self.mode})"
