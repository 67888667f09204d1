"""One materialized view: definition, classification, stored state.

A view is **incremental** when its bound plan has the shape

    Project[ColumnVars] -> Aggregate[no keys, no DISTINCT] -> [Filter] -> Scan

i.e. a scalar aggregate (SUM/COUNT/AVG/MIN/MAX and the tensor
aggregates — ``SUM(outer_product(x, x))`` is the Gram matrix) over a
single base table with an optional parameter-free predicate. For that
class the view stores *per-slot accumulator states* plus a per-slot
consumed-row cursor; an append folds only the new suffix of each
partition (both storage back ends append in insert order), which is the
O(delta) maintenance path. The per-slot states are folded and merged in
exactly the order the engine's PartialAggregate → gather →
FinalAggregate pipeline would fold them, so answering from the view is
bit-identical to rescanning.

Everything else (GROUP BY, DISTINCT, joins, subqueries, ORDER BY, ...)
is a **full** view: the stored result rows are recomputed by a tracked
refresh — eagerly on every base-table change, or deferred until
``REFRESH MATERIALIZED VIEW`` (the view goes stale and the optimizer
stops matching it) per the ``view_refresh_mode`` config knob.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from ..engine.storage import RowView
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
from ..plan.expressions import ColumnVar, ParamExpr, TypedExpr


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


def _copy_state(state):
    """A safe-to-merge copy of one accumulator state. ``merge`` mutates
    dict-based states (VECTORIZE/ROWMATRIX/COLMATRIX) in place, and the
    stored per-slot states must survive being answered from."""
    if isinstance(state, dict):
        return dict(state)
    return state  # numbers, tensors, and (sum, count) tuples are immutable


class MaterializedView:
    """A catalog-registered materialized view and its stored state."""

    def __init__(
        self,
        name: str,
        query,  # sql.ast.SelectStatement
        column_names: Optional[List[str]],
        plan: LogicalNode,
        slots: int,
    ):
        self.name = name
        self.query = query
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
            self._scan_index: Dict[int, int] = {
                column.column_id: position
                for position, column in enumerate(scan.columns)
            }
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
            self._scan_index = {}
            self.output_spec_indices = []

        # -- stored state ---------------------------------------------------
        #: per-slot accumulator lists (one state per spec); None marks a
        #: slot that has contributed no post-filter row yet — mirroring
        #: PartialAggregate, which emits no states-row for such slots
        self._slot_states: List[Optional[List[object]]] = [None] * slots
        #: per-slot count of *pre-filter* rows already folded
        self._consumed: List[int] = [0] * slots
        #: full-mode stored result rows (in gathered result order)
        self.rows: List[tuple] = []
        #: a deferred view whose base changed non-incrementally; serving
        #: it would not be bit-identical, so the matcher skips it
        self.stale = False
        #: deferred incremental views re-fold lazily when this is set
        #: (a delete or truncate invalidated the append-only cursors)
        self._dirty = False

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

    @property
    def base_table_name(self) -> Optional[str]:
        """The single base table of an incremental view."""
        return self._entry.name if self._entry is not None else None

    # -- incremental maintenance ---------------------------------------------

    def fold_new_rows(self) -> int:
        """Fold each partition's unconsumed suffix into the per-slot
        states — the O(delta) path. Returns the number of pre-filter
        rows folded. Must not be called on a full view."""
        assert self.incremental
        storage = self._entry.storage
        folded = 0
        with self._lock:
            for slot in range(self.slots):
                count = storage.partition_row_count(slot)
                start = self._consumed[slot]
                if start > count:
                    # the partition shrank under us: cursors are invalid
                    self._refold_locked()
                    return 0
                if start == count:
                    continue
                folded += count - start
                self._fold_slot(slot, storage.partition_suffix(slot, start))
                self._consumed[slot] = count
            if folded:
                self.maintain_count += 1
                self.delta_rows += folded
        return folded

    def _fold_slot(self, slot: int, rows) -> None:
        """Fold rows (in partition order) into one slot's states —
        byte-for-byte the loop PartialAggregate runs on that slot."""
        states = self._slot_states[slot]
        for row in rows:
            view = RowView(row, self._scan_index)
            if self.predicate is not None and not self.predicate.evaluate(view):
                continue
            if states is None:
                states = [spec.aggregate.create() for spec in self.specs]
                self._slot_states[slot] = states
            for i, spec in enumerate(self.specs):
                value = spec.arg.evaluate(view) if spec.arg is not None else 1
                states[i] = spec.aggregate.add(states[i], value)

    def refold(self) -> None:
        """Rebuild the incremental state from scratch (REFRESH, deletes,
        restore onto a different cluster shape). Tracked as a refresh."""
        assert self.incremental
        with self._lock:
            self._refold_locked()

    def _refold_locked(self) -> None:
        self._slot_states = [None] * self.slots
        self._consumed = [0] * self.slots
        storage = self._entry.storage
        for slot in range(self.slots):
            rows = storage.partition_rows(slot)
            self._fold_slot(slot, rows)
            self._consumed[slot] = len(rows)
        self._dirty = False
        self.refresh_count += 1

    def mark_dirty(self) -> None:
        """Deferred mode: a non-append change invalidated the cursors;
        the next read re-folds."""
        with self._lock:
            self._dirty = True

    def catch_up(self) -> int:
        """Bring an incremental view current (deferred mode folds here,
        at read time, instead of at write time). Returns rows folded."""
        with self._lock:
            if self._dirty:
                self._refold_locked()
                return 0
            return self.fold_new_rows()

    # -- answering -----------------------------------------------------------

    def finished_values(self) -> List[object]:
        """One finished value per aggregate spec, computed exactly like
        FinalAggregate: merge the contributing slots' states in ascending
        slot order, then ``finish`` (or ``finish(create())`` when no slot
        contributed — SQL's one-row-on-empty-input rule)."""
        assert self.incremental
        with self._lock:
            # cheap no-op when current; folds pending deltas when
            # running deferred (and re-folds when dirty)
            self.catch_up()
            merged: Optional[List[object]] = None
            for states in self._slot_states:
                if states is None:
                    continue
                if merged is None:
                    merged = [_copy_state(state) for state in states]
                else:
                    for i, spec in enumerate(self.specs):
                        merged[i] = spec.aggregate.merge(merged[i], states[i])
            if merged is None:
                return [
                    spec.aggregate.finish(spec.aggregate.create())
                    for spec in self.specs
                ]
            return [
                spec.aggregate.finish(state)
                for spec, state in zip(self.specs, merged)
            ]

    def answer_rows(self, spec_indices: Optional[List[int]]) -> List[tuple]:
        """The rows a ViewScan of this view emits (single partition).
        ``spec_indices`` selects/permutes the incremental view's
        aggregates; None emits a full view's stored rows verbatim."""
        with self._lock:
            self.hits += 1
            if spec_indices is None:
                return list(self.rows)
            finished = self.finished_values()
            return [tuple(finished[i] for i in spec_indices)]

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
        view is servable until a deferred base change marks it stale."""
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
