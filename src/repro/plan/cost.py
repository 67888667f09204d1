"""Size-aware cost estimation (paper section 4).

An :class:`Estimate` is one plan node's output: row count, per-column
distinct counts, and the row width in bytes. Widths come from the *types*
— and since templated signatures give the optimizer the exact dimensions
of every vector/matrix intermediate, an 80 MB ``MATRIX[100000][100]``
attribute is costed as 80 MB, which is precisely what lets the optimizer
find the ``(pi(S x R)) |x| T`` plan in the paper's section 4.1 example.

How an operator's estimate follows from its inputs' estimates is written
**once**, as the ``*_rule`` methods of :class:`CostModel` (scan, view
scan, filter, project, join, group, distinct, limit). Two thin
dispatchers apply them: :class:`PlanEstimates` walks *logical* plans
(optimizer, physical planner, ``EXPLAIN``), one planning pass at a time;
:meth:`CostModel.physical_estimate` walks *physical* plans (``EXPLAIN
ANALYZE``, admission) and adds only what a logical plan cannot express —
a per-slot phase before each shuffle, exchanges, movement charged to the
exchange instead of the join.

Costs are expressed in estimated *seconds* on the configured cluster so
that data movement (bytes / bandwidth) and compute (FLOPs / rate) share a
currency.

A **size-blind** mode is provided for the ablation benchmark: it prices
every attribute at a constant width, which is how an optimizer without LA
type information would behave.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..catalog.statistics import (
    FeedbackStatistics,
    join_fingerprint,
    predicate_fingerprint,
)
from ..config import ClusterConfig
from ..types import DataType
from .expressions import (
    BinaryExpr,
    BoolExpr,
    ColumnVar,
    IsNullExpr,
    LiteralExpr,
    NotExpr,
    TypedExpr,
)
from .logical import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LogicalNode,
    ProjectNode,
    ScanNode,
    SortNode,
    ViewScanNode,
)

#: Selectivity guesses when statistics are missing.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_NEQ_SELECTIVITY = 0.9


@dataclass(frozen=True)
class Estimate:
    """Estimated properties of one plan node's output. Immutable: a
    parent's rule reads its inputs' estimates, and pass-through operators
    hand the same object on."""

    rows: float
    width_bytes: float
    distinct: Dict[int, float] = field(default_factory=dict)

    @property
    def total_bytes(self) -> float:
        return self.rows * self.width_bytes


def _clamped(distinct: Dict[int, float], rows: float) -> Dict[int, float]:
    """A column cannot have more distinct values than its operator emits
    rows."""
    return {key: min(value, rows) for key, value in distinct.items()}


#: The operators physical planning leaves as they are, as this layer's
#: ``(scan, view scan, filter, project)`` classes (physical.py has the
#: other layer's; see :meth:`CostModel._unsplit_rule`).
LOGICAL_UNSPLIT = (ScanNode, ViewScanNode, FilterNode, ProjectNode)


class CostModel:
    """Estimates cardinalities and execution cost in seconds.

    When ``feedback`` is attached (and the cluster's ``feedback_mode``
    is on), observed cardinalities learned from completed queries
    override the static guesses: scan row counts, filter selectivities
    and join selectivities keyed by normalized fingerprints (see
    ``catalog/statistics.py``). Everything else — widths, cost rates,
    the per-operator formulas — is unchanged, so feedback sharpens
    *estimates* without touching the charging model."""

    def __init__(
        self,
        config: ClusterConfig,
        size_blind: bool = False,
        feedback: Optional[FeedbackStatistics] = None,
    ):
        self.config = config
        self.size_blind = size_blind
        self.feedback = (
            feedback if getattr(config, "feedback_mode", "on") == "on" else None
        )

    # -- cardinality feedback --------------------------------------------------

    def _feedback_scan_rows(self, table_name: str) -> Optional[float]:
        if self.feedback is None:
            return None
        return self.feedback.scan_rows(table_name)

    def _feedback_selectivity(self, predicate, scope: str) -> Optional[float]:
        """Observed selectivity of a whole filter predicate, if one was
        learned; ``scope`` is the scanned table's name when the filter
        sits directly above a scan, else empty."""
        if self.feedback is None:
            return None
        return self.feedback.selectivity(predicate_fingerprint(predicate, scope))

    def _feedback_join_selectivity(self, equi_pairs, residual) -> Optional[float]:
        if self.feedback is None:
            return None
        return self.feedback.join_selectivity(
            join_fingerprint(equi_pairs, residual)
        )

    # -- widths ---------------------------------------------------------------

    def type_width(self, data_type: DataType) -> float:
        if self.size_blind:
            return 8.0
        return data_type.size_bytes()

    def row_width(self, node) -> float:
        """Bytes per output row of a logical or physical node."""
        overhead = 16.0
        return overhead + sum(
            self.type_width(column.data_type) for column in node.columns
        )

    # -- the rule set ------------------------------------------------------------
    #
    # How one operator's output estimate follows from its inputs'
    # estimates and its own parameters. Each rule is written once and
    # applied by both walkers: PlanEstimates over logical nodes,
    # physical_estimate over physical ones.

    def scan_rule(self, table, columns, width: float) -> Estimate:
        rows = self._feedback_scan_rows(table.name)
        if rows is None:
            rows = float(table.stats.row_count)
        distinct = {}
        for column in columns:
            stat = table.stats.distinct(column.name)
            if stat is not None:
                distinct[column.column_id] = float(stat)
        return Estimate(max(rows, 1.0), width, distinct)

    def view_scan_rule(self, view, width: float) -> Estimate:
        return Estimate(max(view.estimated_rows(), 1.0), width)

    def filter_rule(
        self, child: Estimate, predicate: TypedExpr, scope: str, width: float
    ) -> Estimate:
        selectivity = self._feedback_selectivity(predicate, scope)
        if selectivity is None:
            selectivity = self.selectivity(predicate, child)
        rows = max(child.rows * selectivity, 1.0)
        return Estimate(rows, width, _clamped(child.distinct, rows))

    def project_rule(self, child: Estimate, exprs, columns, width: float) -> Estimate:
        """Row-for-row; an output that is a bare column reference keeps
        that column's distinct count, under the *output* column's id —
        the only id anything above the projection can name."""
        distinct = {
            column.column_id: child.distinct[expr.column_id]
            for expr, column in zip(exprs, columns)
            if isinstance(expr, ColumnVar) and expr.column_id in child.distinct
        }
        return Estimate(child.rows, width, distinct)

    def join_rule(
        self,
        left: Estimate,
        right: Estimate,
        equi: Sequence[Tuple[TypedExpr, TypedExpr]],
        residual: Optional[TypedExpr],
        width: float,
    ) -> Estimate:
        """``equi`` pairs are ``(key over left, key over right)``."""
        distinct = {**left.distinct, **right.distinct}
        observed = self._feedback_join_selectivity(equi, residual)
        if observed is not None:
            # the learned selectivity covers equi keys *and* residual
            rows = max(left.rows * right.rows * observed, 1.0)
        else:
            rows = left.rows * right.rows
            for left_key, right_key in equi:
                rows /= max(
                    self._expr_distinct(left_key, left),
                    self._expr_distinct(right_key, right),
                    1.0,
                )
            rows = max(rows, 1.0)
            if residual is not None:
                joined = Estimate(rows, width, distinct)
                rows = max(rows * self.selectivity(residual, joined), 1.0)
        return Estimate(rows, width, _clamped(distinct, rows))

    def _group_count(
        self, child: Estimate, key_distinct: Sequence[float], per_slot: bool
    ) -> float:
        """Rows out of a grouping on keys with the given distinct counts:
        one per combination of key values, never more than the input.
        ``per_slot`` is the pre-shuffle phase the physical planner adds
        (partial aggregate, local distinct), where every slot emits a row
        for each group it saw."""
        groups = 1.0
        for count in key_distinct:
            groups *= count
        if per_slot:
            groups *= self.config.slots
        return max(min(child.rows, groups), 1.0)

    def group_rule(
        self,
        child: Estimate,
        key_distinct: Sequence[float],
        group_columns,
        width: float,
        per_slot: bool = False,
    ) -> Estimate:
        """GROUP BY: ``key_distinct[i]`` is the distinct count of the
        i-th key in the input (no keys: a scalar aggregate, one row)."""
        rows = self._group_count(child, key_distinct, per_slot)
        distinct = {
            column.column_id: min(count, rows)
            for column, count in zip(group_columns, key_distinct)
        }
        return Estimate(rows, width, distinct)

    def distinct_rule(
        self, child: Estimate, columns, width: float, per_slot: bool = False
    ) -> Estimate:
        """DISTINCT is a grouping on every column: bounded by the product
        of the per-column distinct counts (and by the input rows)."""
        key_distinct = [
            self._column_distinct(column.column_id, child) for column in columns
        ]
        rows = self._group_count(child, key_distinct, per_slot)
        return Estimate(rows, width, _clamped(child.distinct, rows))

    def limit_rule(
        self, child: Estimate, cap: Optional[float], floor: float
    ) -> Estimate:
        """ORDER BY / LIMIT: at most ``cap`` rows, which caps the distinct
        counts along with them. The two walkers floor differently, on
        purpose: a logical ``LIMIT 0`` is exactly 0 rows (``floor=0`` —
        the planner knows the subtree is short-circuited, and EXPLAIN
        prints ``~0 rows``), while a physical estimate is never below one
        row (``floor=1``, as for every physical operator, so the q-error
        EXPLAIN ANALYZE prints beside it is a defined ratio)."""
        rows = child.rows if cap is None else min(child.rows, cap)
        rows = max(rows, floor)
        return Estimate(rows, child.width_bytes, _clamped(child.distinct, rows))

    def _expr_distinct(self, expr: TypedExpr, estimate: Estimate) -> float:
        column_id = expr.column_id if isinstance(expr, ColumnVar) else None
        return self._column_distinct(column_id, estimate)

    def _column_distinct(self, column_id: Optional[int], estimate: Estimate) -> float:
        known = estimate.distinct.get(column_id)
        if known is not None:
            return known
        return max(estimate.rows / 10.0, 1.0)

    # -- selectivity ------------------------------------------------------------

    def selectivity(self, predicate: TypedExpr, input_est: Estimate) -> float:
        if isinstance(predicate, BoolExpr):
            left = self.selectivity(predicate.left, input_est)
            right = self.selectivity(predicate.right, input_est)
            if predicate.op == "AND":
                return left * right
            # OR via inclusion-exclusion (assumes independence); the old
            # min(l + r, 1) overestimated overlapping predicates
            return left + right - left * right
        if isinstance(predicate, NotExpr):
            return 1.0 - self.selectivity(predicate.operand, input_est)
        if isinstance(predicate, IsNullExpr):
            return 0.95 if predicate.negated else 0.05
        if isinstance(predicate, BinaryExpr):
            if predicate.op == "=":
                for side, other in (
                    (predicate.left, predicate.right),
                    (predicate.right, predicate.left),
                ):
                    if isinstance(side, ColumnVar) and isinstance(other, LiteralExpr):
                        distinct = input_est.distinct.get(side.column_id)
                        if distinct:
                            return 1.0 / distinct
                        return DEFAULT_EQ_SELECTIVITY
                left_d = self._expr_distinct(predicate.left, input_est)
                right_d = self._expr_distinct(predicate.right, input_est)
                return 1.0 / max(left_d, right_d, 1.0)
            if predicate.op in ("<>", "!="):
                return DEFAULT_NEQ_SELECTIVITY
            if predicate.op in ("<", ">", "<=", ">="):
                return DEFAULT_RANGE_SELECTIVITY
        if isinstance(predicate, LiteralExpr):
            return 1.0 if predicate.value else 0.0
        return 0.5

    # -- costs (seconds) ----------------------------------------------------------

    def _cpu_seconds(self, rows: float, expr_flops: float, expr_bytes: float) -> float:
        config = self.config
        per_row = (
            config.tuple_cpu_s
            + expr_flops / config.flop_rate
            + expr_bytes / config.stream_rate
        )
        return rows * per_row / config.slots

    def _shuffle_seconds(self, total_bytes: float, rows: float) -> float:
        """A hash/gather exchange in the MapReduce execution model: map
        output spilled to disk, moved over the network, read back by the
        reduce side."""
        config = self.config
        transfer = total_bytes / config.network_rate / config.machines
        materialize = 2.0 * total_bytes / config.disk_rate / config.machines
        serialization = rows * config.tuple_cpu_s / config.slots
        return transfer + materialize + serialization

    def _spill_seconds(self, per_slot_bytes: float) -> float:
        """Anticipated spill cost when one slot's operator state exceeds
        the working-memory budget: the state is written and re-read at
        disk rate, mirroring ``OperatorRun.charge_spill``. Zero when the
        state fits."""
        if per_slot_bytes <= self.config.effective_buffer_pool_bytes:
            return 0.0
        return 2.0 * per_slot_bytes / self.config.disk_rate_per_slot

    def _broadcast_seconds(self, side_bytes: float, rows: float) -> float:
        """Replicating one side to every machine (a map-side join): pure
        network plus deserialization, no reduce materialization."""
        config = self.config
        transfer = side_bytes / config.network_rate  # machines copies / machines
        deserialize = rows * config.tuple_cpu_s / config.cores_per_machine
        return transfer + deserialize

    def scan_cost(self, estimate: Estimate) -> float:
        config = self.config
        return (
            estimate.total_bytes / config.disk_rate / config.machines
            + estimate.rows * config.tuple_cpu_s / config.slots
        )

    def view_scan_cost(self, estimate: Estimate) -> float:
        # stored state, no scan, no shuffle: just emitting the rows
        return estimate.rows * self.config.tuple_cpu_s

    def filter_cost(self, input_est: Estimate, predicate: TypedExpr) -> float:
        return self._cpu_seconds(
            input_est.rows, predicate.total_flops(), predicate.total_bytes_touched()
        )

    def project_cost(self, input_rows: float, exprs) -> float:
        flops = sum(expr.total_flops() for expr in exprs)
        stream = sum(expr.total_bytes_touched() for expr in exprs)
        return self._cpu_seconds(input_rows, flops, stream)

    def join_cost(
        self, left: Estimate, right: Estimate, output: Estimate, is_cross: bool
    ) -> float:
        """Cost of a distributed join: the cheaper of broadcasting the
        smaller input (map-side, output pipelined) or repartitioning both
        (reduce-side, output materialized to disk), plus probe/emit CPU."""
        smaller_bytes = min(left.total_bytes, right.total_bytes)
        smaller_rows = min(left.rows, right.rows)
        # the build side is held in memory; a broadcast build is a full
        # copy per slot, a partitioned build holds 1/slots of it
        broadcast = self._broadcast_seconds(
            smaller_bytes, smaller_rows
        ) + self._spill_seconds(smaller_bytes)
        if is_cross:
            movement = broadcast
        else:
            repartition = (
                self._shuffle_seconds(
                    left.total_bytes + right.total_bytes, left.rows + right.rows
                )
                + 2.0 * output.total_bytes / self.config.disk_rate / self.config.machines
                + self._spill_seconds(smaller_bytes / self.config.slots)
            )
            movement = min(broadcast, repartition)
        build_probe = self._cpu_seconds(left.rows + right.rows, 0.0, 8.0)
        emit = self._cpu_seconds(output.rows, 0.0, 8.0)
        return movement + build_probe + emit

    @staticmethod
    def _argument_work(aggregates) -> Tuple[float, float]:
        """FLOPs and bytes touched per input row to evaluate the
        aggregates' argument expressions."""
        args = [spec.arg for spec in aggregates if spec.arg is not None]
        return (
            sum(arg.total_flops() for arg in args),
            sum(arg.total_bytes_touched() for arg in args),
        )

    def aggregate_cost(self, input_est: Estimate, node: AggregateNode, output: Estimate) -> float:
        arg_flops, arg_bytes = self._argument_work(node.aggregates)
        accumulate_bytes = sum(
            spec.aggregate.add_flops(spec.arg.data_type) * 8.0
            for spec in node.aggregates
            if spec.arg is not None
        )
        consume = self._cpu_seconds(
            input_est.rows, arg_flops, arg_bytes + accumulate_bytes
        )
        shuffle = self._shuffle_seconds(output.total_bytes, output.rows)
        # aggregation state that outgrows the budget spills per slot
        spill = self._spill_seconds(output.total_bytes / self.config.slots)
        return consume + shuffle + spill

    def sort_seconds(
        self, input_est: Estimate, limit: Optional[int]
    ) -> Tuple[float, float]:
        """ORDER BY's two charges, ``(gather, ordering)``."""
        # the pre-gather local sort/Top-K truncates to the limit, so
        # the gather ships at most ``limit`` rows per slot
        shipped_rows = input_est.rows
        if limit is not None:
            shipped_rows = min(shipped_rows, float(limit) * self.config.slots)
        shipped_bytes = shipped_rows * input_est.width_bytes
        return (
            self._shuffle_seconds(shipped_bytes, shipped_rows),
            self._cpu_seconds(self.sort_comparisons(input_est.rows, limit), 0.0, 8.0),
        )

    # -- logical plans ---------------------------------------------------------------

    def planning_pass(self) -> "PlanEstimates":
        """A fresh :class:`PlanEstimates` over this model: take one at the
        top of anything that estimates more than one node of a plan."""
        return PlanEstimates(self)

    def estimate(self, node: LogicalNode) -> Estimate:
        """Output estimate of one logical node (a one-call pass)."""
        return self.planning_pass().estimate(node)

    def plan_cost(self, node: LogicalNode) -> float:
        """Total estimated cost of a plan, in seconds (a one-call pass)."""
        return self.planning_pass().plan_cost(node)

    def _unsplit_rule(
        self, node, inputs: List[Estimate], kinds
    ) -> Optional[Tuple[Estimate, float]]:
        """Output estimate and own seconds of the four operators that
        mean the same in a logical and a physical plan; ``kinds`` is the
        walker's ``(scan, view scan, filter, project)`` classes. None for
        any other node."""
        scan, view_scan, filter_, project = kinds
        if isinstance(node, scan):
            est = self.scan_rule(node.table, node.columns, self.row_width(node))
            return est, self.scan_cost(est)
        if isinstance(node, view_scan):
            est = self.view_scan_rule(node.view, self.row_width(node))
            return est, self.view_scan_cost(est)
        if isinstance(node, filter_):
            (child,) = inputs
            # a filter directly above a scan learns per table
            above_scan = isinstance(node.child, scan)
            scope = str(node.child.table.name).lower() if above_scan else ""
            est = self.filter_rule(child, node.predicate, scope, self.row_width(node))
            return est, self.filter_cost(child, node.predicate)
        if isinstance(node, project):
            (child,) = inputs
            est = self.project_rule(
                child, node.exprs, node.columns, self.row_width(node)
            )
            return est, self.project_cost(child.rows, node.exprs)
        return None

    def _logical_rule(
        self, node: LogicalNode, inputs: List[Estimate], below: float
    ) -> Tuple[Estimate, float]:
        """One logical operator's output estimate from its inputs'
        estimates, and the cost of the plan rooted at it: ``below`` (its
        input subtrees' cost) plus its own seconds."""
        unsplit = self._unsplit_rule(node, inputs, LOGICAL_UNSPLIT)
        if unsplit is not None:
            return unsplit[0], below + unsplit[1]
        if isinstance(node, JoinNode):
            left, right = inputs
            est = self.join_rule(
                left, right, node.equi, node.residual, self.row_width(node)
            )
            return est, below + self.join_cost(left, right, est, node.is_cross)
        (child,) = inputs
        if isinstance(node, AggregateNode):
            key_distinct = [
                self._expr_distinct(expr, child) for expr in node.group_exprs
            ]
            est = self.group_rule(
                child, key_distinct, node.group_columns, self.row_width(node)
            )
            return est, below + self.aggregate_cost(child, node, est)
        if isinstance(node, DistinctNode):
            est = self.distinct_rule(child, node.columns, self.row_width(node))
            return est, below + self._shuffle_seconds(child.total_bytes, child.rows)
        if isinstance(node, SortNode):
            cap = float(node.limit) if node.limit is not None else None
            est = self.limit_rule(child, cap, floor=0.0)
            gather, ordering = self.sort_seconds(child, node.limit)
            return est, below + gather + ordering
        raise TypeError(f"cannot estimate {type(node).__name__}")

    # -- ORDER BY ... LIMIT strategy ----------------------------------------------

    def sort_comparisons(self, input_rows: float, limit: Optional[int]) -> float:
        """Estimated comparison count of ordering ``input_rows``: a full
        sort is n·log2(n); with a LIMIT the bounded-heap Top-K pass does
        n·log2(k) (see :meth:`use_top_k`)."""
        n = max(input_rows, 1.0)
        if limit is not None and self.use_top_k(limit, n):
            return self._top_k_comparisons(n, limit)
        return n * math.log2(max(n, 2.0))

    @staticmethod
    def _top_k_comparisons(n: float, limit: int) -> float:
        """n rows streamed against a heap of at most ``limit`` entries."""
        bound = max(min(float(limit), n), 1.0)
        return n * math.log2(bound + 1.0)

    def use_top_k(self, limit: Optional[int], input_rows: float) -> bool:
        """Whether the bounded-heap Top-K beats the full sort for
        ``ORDER BY ... LIMIT limit`` over an estimated ``input_rows``:
        whenever k is smaller than the input, n·log2(k) comparisons with
        O(k) state win over n·log2(n) with O(n) state (``k == 0`` always
        wins — it short-circuits the whole subtree)."""
        if limit is None:
            return False
        return limit == 0 or float(limit) < input_rows

    # -- physical plans (EXPLAIN ANALYZE, admission) -----------------------------------

    def physical_estimate(
        self, node, memo: Optional[Dict[int, Tuple[Estimate, float]]] = None
    ) -> Tuple[Estimate, float]:
        """Per-operator output estimate and estimated seconds for one
        *physical* node — the numbers ``explain_analyze`` prints next to
        the measured actuals. ``memo`` is the caller's, keyed by
        ``id(node)`` of the plan it holds, so each node is estimated once
        per call tree and nothing outlives it. A compiled plan is
        estimated once, by :meth:`plan_estimates`, and a plan-cache hit
        reuses those numbers: what they read — statistics, a view's row
        count, feedback — moves a relation stamp or the feedback version,
        and either makes the cached plan miss."""
        if memo is None:
            memo = {}
        cached = memo.get(id(node))
        if cached is None:
            inputs = [
                self.physical_estimate(child, memo)[0] for child in node.children()
            ]
            cached = memo[id(node)] = self._physical_rule(node, inputs)
        return cached

    def _physical_rule(self, node, inputs: List[Estimate]) -> Tuple[Estimate, float]:
        """One physical operator's output estimate and own seconds: the
        same rules as :meth:`_logical_rule`. What differs is what only a
        physical plan has, for one of three reasons noted at each — a
        per-slot phase runs before the shuffle, an exchange only moves
        rows, or movement is paid by the exchange below instead of by
        the operator."""
        # imported lazily: physical.py imports this module at top level
        from . import physical as p

        unsplit = self._unsplit_rule(node, inputs, p.PHYSICAL_UNSPLIT)
        if unsplit is not None:
            return unsplit
        if isinstance(node, (p.PHashJoin, p.PNestedLoopJoin)):
            probe, build = inputs
            keys = (
                list(zip(node.probe_keys, node.build_keys))
                if isinstance(node, p.PHashJoin)
                else []
            )
            if node.probe_is_left:
                left, right, equi = probe, build, keys
            else:
                left, right, equi = build, probe, [(b, a) for a, b in keys]
            est = self.join_rule(
                left, right, equi, node.residual, self.row_width(node)
            )
            # movement is the exchanges'; see _join_cpu_seconds
            return est, self._join_cpu_seconds(node, probe, build, est)
        (child,) = inputs
        if isinstance(node, p.PExchange):
            # moves rows, changes none: the input's estimate passes through
            if node.kind == "broadcast":
                return child, self._broadcast_seconds(child.total_bytes, child.rows)
            # reduce-side staging: a gather stages everything on one
            # slot, a hash exchange 1/slots of it per slot
            staged = (
                child.total_bytes
                if node.kind == "gather"
                else child.total_bytes / self.config.slots
            )
            return child, self._shuffle_seconds(
                child.total_bytes, child.rows
            ) + self._spill_seconds(staged)
        if isinstance(node, p.PPartialAggregate):
            # the per-slot phase: it consumes the input; the shuffle is
            # the exchange's and the merge the final phase's
            key_distinct = [
                self._expr_distinct(expr, child) for expr in node.group_exprs
            ]
            est = self.group_rule(
                child,
                key_distinct,
                node.group_columns,
                self.row_width(node),
                per_slot=True,
            )
            arg_flops, arg_bytes = self._argument_work(node.aggregates)
            return est, self._cpu_seconds(
                child.rows, arg_flops, arg_bytes + 8.0
            ) + self._spill_seconds(est.total_bytes / self.config.slots)
        if isinstance(node, p.PFinalAggregate):
            # merges partial rows: its keys are columns by now
            key_distinct = [
                self._column_distinct(column.column_id, child)
                for column in node.group_columns
            ]
            est = self.group_rule(
                child, key_distinct, node.group_columns, self.row_width(node)
            )
            return est, self._cpu_seconds(child.rows, 0.0, 8.0)
        if isinstance(node, p.PDistinct):
            # local (per-slot) then final; the shuffle is the exchange's
            est = self.distinct_rule(
                child, node.columns, self.row_width(node), per_slot=node.local
            )
            return est, self._cpu_seconds(child.rows, 0.0, 8.0)
        if isinstance(node, (p.PSortLimit, p.PTopK)):
            cap = float(node.limit) if node.limit is not None else None
            if cap is not None and not node.final:
                cap *= self.config.slots  # per-slot phase: each keeps its own k
            est = self.limit_rule(child, cap, floor=1.0)
            # the strategy was fixed at planning; the gather is the exchange's
            if isinstance(node, p.PTopK):
                comparisons = self._top_k_comparisons(child.rows, node.limit)
            else:
                comparisons = self.sort_comparisons(child.rows, None)
            return est, self._cpu_seconds(comparisons, 0.0, 8.0)
        raise TypeError(f"cannot estimate {type(node).__name__}")

    def _join_cpu_seconds(self, node, probe, build, combined) -> float:
        # movement was charged to the exchanges below; this node pays
        # build + probe + emit CPU plus any anticipated build-side spill
        # (a broadcast build is a full copy on every slot)
        if node.build.partitioning.kind == "broadcast":
            build_per_slot = build.total_bytes
        else:
            build_per_slot = build.total_bytes / self.config.slots
        return (
            self._cpu_seconds(probe.rows + build.rows, 0.0, 8.0)
            + self._cpu_seconds(combined.rows, 0.0, 8.0)
            + self._spill_seconds(build_per_slot)
        )

    def plan_estimates(self, node) -> Tuple[Tuple[float, float, float, float], ...]:
        """``(est_rows, est_width_bytes, est_bytes, est_seconds)`` of
        every node of the physical plan ``node``, in pre-order: the
        estimate columns of the :class:`OperatorTrace` tree an execution
        of it builds (the two have identical shapes by construction)."""
        from .physical import PExchange

        memo: Dict[int, Tuple[Estimate, float]] = {}

        def walk(plan_node):
            est, seconds = self.physical_estimate(plan_node, memo)
            copies = 1.0
            if isinstance(plan_node, PExchange) and plan_node.kind == "broadcast":
                # the trace's measured bytes count every slot's replica
                copies = float(self.config.slots)
            yield est.rows, est.width_bytes, est.total_bytes * copies, seconds
            for child in plan_node.children():
                yield from walk(child)

        return tuple(walk(node))


class PlanEstimates:
    """One planning pass over logical plans: every node's
    ``(Estimate, cumulative plan cost)`` is computed once, by
    :meth:`CostModel._logical_rule`, and remembered *weakly* — an entry
    lives and dies with its node, so the thousands of candidate joins the
    DP discards take their estimates with them, and the whole table goes
    with the pass. Nothing here is shared between passes, threads or
    statements: the statistics and feedback the rules read change from
    one statement to the next."""

    def __init__(self, model: CostModel):
        self.model = model
        #: node -> (Estimate, cost of the plan rooted at it)
        self._memo = weakref.WeakKeyDictionary()

    def planning_pass(self) -> "PlanEstimates":
        """Itself — so code handed either a ``CostModel`` or a pass in
        progress takes its pass the same way."""
        return self

    def estimate(self, node: LogicalNode) -> Estimate:
        return self._evaluate(node)[0]

    def plan_cost(self, node: LogicalNode) -> float:
        """Total estimated cost of the plan rooted at ``node``, seconds."""
        return self._evaluate(node)[1]

    def _evaluate(self, node: LogicalNode) -> Tuple[Estimate, float]:
        cached = self._memo.get(node)
        if cached is None:
            inputs = [self._evaluate(child) for child in node.children()]
            cached = self._memo[node] = self.model._logical_rule(
                node,
                [estimate for estimate, _ in inputs],
                sum(cost for _, cost in inputs),
            )
        return cached
