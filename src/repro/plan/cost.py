"""Size-aware cost estimation (paper section 4).

An :class:`Estimate` is one plan node's output: row count, per-column
distinct counts, and the row width in bytes. Widths come from the *types*
— and since templated signatures give the optimizer the exact dimensions
of every vector/matrix intermediate, an 80 MB ``MATRIX[100000][100]``
attribute is costed as 80 MB, which is precisely what lets the optimizer
find the ``(pi(S x R)) |x| T`` plan in the paper's section 4.1 example.

How an operator's estimate follows from its inputs' estimates is written
**once**, as the ``*_rule`` methods of :class:`CostModel` (scan, view
scan, filter, project, join, group, distinct, limit), and a compile
applies them in one pass per layer. :class:`PlanEstimates` walks the
*logical* plan once for the optimizer, the physical planner and verbose
``EXPLAIN`` alike; :meth:`CostModel.price_physical` walks the lowered
*physical* plan once and writes each operator's estimate onto its node
(``est_rows`` … ``est_seconds``, read by EXPLAIN ANALYZE's trace and by
admission), adding only what a logical plan cannot express — a per-slot
phase before each shuffle, exchanges, movement charged to the exchange
instead of the join. Which input a join builds, and how it moves, is one
rule too (:meth:`CostModel.join_layout`): the planner lowers by it and
the logical walker prices what it picks.

Costs are expressed in estimated *seconds* on the configured cluster so
that data movement (bytes / bandwidth) and compute (FLOPs / rate) share a
currency. This module prices no work itself: an operator's seconds are
what :class:`~repro.engine.cluster.OperatorRun` charges for the busiest
slot's estimated work, through the same charge calls the operator's
handler in ``engine/executor.py`` makes — so EXPLAIN ANALYZE's
estimated seconds mean what the simulation charges, and a rate is read
in one place.

A **size-blind** mode is provided for the ablation benchmark: it prices
every attribute at a constant width, which is how an optimizer without LA
type information would behave.
"""

from __future__ import annotations

import math
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..catalog.statistics import (
    ColumnStats,
    FeedbackStatistics,
    join_fingerprint,
    predicate_fingerprint,
)
from ..config import ClusterConfig
from ..engine.cluster import (
    OperatorRun,
    sort_comparisons,
    state_fits,
    top_k_comparisons,
)
from ..engine.storage import ROUND_ROBIN
from ..types import INTEGER, DataType, VectorType
from .expressions import (
    BinaryExpr,
    BoolExpr,
    ColumnVar,
    EvalCost,
    IsNullExpr,
    LiteralExpr,
    NotExpr,
    TypedExpr,
    refined_type,
    row_cost,
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
    #: column id -> the statistics of the table column it carries, for
    #: the columns whose value set is known: a hash exchange on one
    #: places its rows as the executor would (:func:`busiest_share`)
    values: Dict[int, ColumnStats] = field(default_factory=dict)
    #: the busiest slot's share of the rows, once a hash exchange placed
    #: them by known values; 0.0: spread evenly. Operators that keep their
    #: input's slots keep it
    busiest: float = 0.0
    #: column id -> the column's type with the dims a label aggregate's
    #: groups span filled in (:meth:`CostModel.group_rule`), for the
    #: columns whose bound type leaves them unknown
    types: Dict[int, DataType] = field(default_factory=dict)

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

#: the partitioning kind of rows spread over every slot
SPREAD = ROUND_ROBIN.kind

#: per thread, the :class:`Reads` of the open
#: :meth:`CostModel.recording_reads` block
_READS = threading.local()


@dataclass
class Reads:
    """What the estimates of one compile read of table statistics: what
    a compiled plan depends on beyond its relations' shapes."""

    #: lower-case name -> the table whose statistics an estimate read
    tables: Dict[str, object] = field(default_factory=dict)
    #: the names among them whose statistics fed a *choice* — join order,
    #: join layout, limit pushdown, sort or Top-K — rather than only the
    #: estimates written onto the plan: when they change, the plan may
    #: change, so it must be compiled again; when only the others do, the
    #: same plan is priced again
    choices: Set[str] = field(default_factory=set)


#: the aggregates that place each input at the position its label names
LABEL_AGGREGATES = ("ROWMATRIX", "COLMATRIX", "VECTORIZE")


def _dims(data_type) -> Tuple:
    """A VECTOR's ``(length,)`` or a MATRIX's ``(rows, cols)``."""
    if isinstance(data_type, VectorType):
        return (data_type.length,)
    return (data_type.rows, data_type.cols)


def _column_id(expr) -> Optional[int]:
    """The column a bare column reference reads; None for any other
    expression."""
    return expr.column_id if isinstance(expr, ColumnVar) else None


def _kind(node) -> str:
    """The partitioning kind of a node's rows: a physical node's own, a
    logical node's (it has none) spread over every slot."""
    return getattr(node, "partitioning", ROUND_ROBIN).kind


class CostModel:
    """Estimates cardinalities and execution cost in seconds.

    When ``feedback`` is attached (and the cluster's ``feedback_mode``
    is on), observed cardinalities learned from completed queries
    override the static guesses: scan row counts, filter selectivities
    and join selectivities keyed by normalized fingerprints (see
    ``catalog/statistics.py``). Everything else — widths and the
    charges — is unchanged, so feedback sharpens *estimates* without
    touching the charging model."""

    def __init__(
        self,
        config: ClusterConfig,
        size_blind: bool = False,
        feedback: Optional[FeedbackStatistics] = None,
    ):
        self.config = config
        self.size_blind = size_blind
        self.feedback = feedback if config.feedback_mode == "on" else None

    @staticmethod
    @contextmanager
    def recording_reads() -> Iterator[Reads]:
        """Yield the :class:`Reads` the rules and the choices made on
        this thread record until the block ends. An inner block's reads
        count for the outer one too."""
        outer = getattr(_READS, "reads", None)
        reads = _READS.reads = Reads()
        try:
            yield reads
        finally:
            _READS.reads = outer
            if outer is not None:
                outer.tables.update(reads.tables)
                outer.choices |= reads.choices

    @staticmethod
    def choosing(*nodes: LogicalNode) -> None:
        """A choice is about to branch on the estimates of the logical
        plans ``nodes``: the statistics of every table scanned under them
        feed it (recorded for :meth:`recording_reads`)."""
        reads = getattr(_READS, "reads", None)
        if reads is None:
            return
        stack = list(nodes)
        while stack:
            node = stack.pop()
            if isinstance(node, ScanNode):
                reads.choices.add(node.table.name.lower())
            stack.extend(node.children())

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

    def _typed_width(self, node, types) -> float:
        """:meth:`row_width` with each column ``types`` names (an input
        estimate's refined types) at that type."""
        width = self.row_width(node)
        if not types:
            return width
        for column in node.columns:
            refined = types.get(column.column_id)
            if refined is not None:
                width += self.type_width(refined)
                width -= self.type_width(column.data_type)
        return width

    # -- the rule set ------------------------------------------------------------
    #
    # How one operator's output estimate follows from its inputs'
    # estimates and its own parameters. Each rule is written once and
    # applied by both walkers: PlanEstimates over logical nodes,
    # price_physical over physical ones.

    def scan_rule(self, table, columns, width: float) -> Estimate:
        """The one place an estimate reads a table's statistics: the read
        is recorded for :meth:`recording_reads`."""
        reads = getattr(_READS, "reads", None)
        if reads is not None:
            reads.tables[table.name.lower()] = table
        rows = self._feedback_scan_rows(table.name)
        if rows is None:
            rows = float(table.stats.row_count)
        distinct, values = {}, {}
        for column in columns:
            stats = table.stats.columns.get(column.name.lower())
            if stats is not None and stats.distinct is not None:
                distinct[column.column_id] = float(stats.distinct)
                if stats.values is not None:
                    values[column.column_id] = stats
        return Estimate(max(rows, 1.0), width, distinct, values)

    def view_scan_rule(self, view, width: float) -> Estimate:
        return Estimate(max(view.estimated_rows(), 1.0), width)

    def filter_rule(
        self, child: Estimate, predicate: TypedExpr, scope: str, width: float
    ) -> Estimate:
        selectivity = self._feedback_selectivity(predicate, scope)
        if selectivity is None:
            selectivity = self.selectivity(predicate, child)
        rows = max(child.rows * selectivity, 1.0)
        distinct = _clamped(child.distinct, rows)
        return Estimate(rows, width, distinct, child.values, child.busiest, child.types)

    def project_rule(self, child: Estimate, exprs, columns, width: float) -> Estimate:
        """Row-for-row; an output that is a bare column reference keeps
        that column's distinct count and value set, under the *output*
        column's id — the only id anything above the projection can name;
        an output over refined types is typed again (:func:`refined_type`)."""
        distinct, values, types = {}, {}, {}
        for expr, column in zip(exprs, columns):
            if isinstance(expr, ColumnVar):
                if expr.column_id in child.distinct:
                    distinct[column.column_id] = child.distinct[expr.column_id]
                if expr.column_id in child.values:
                    values[column.column_id] = child.values[expr.column_id]
            if child.types:
                refined = refined_type(expr, child.types)
                if refined != column.data_type:
                    types[column.column_id] = refined
                    width += self.type_width(refined)
                    width -= self.type_width(column.data_type)
        return Estimate(child.rows, width, distinct, values, child.busiest, types)

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
        values = {**left.values, **right.values}
        types = {**left.types, **right.types}
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
        return Estimate(rows, width, _clamped(distinct, rows), values, 0.0, types)

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
        self, child: Estimate, keys, node, per_slot: bool = False
    ) -> Estimate:
        """GROUP BY ``node``'s group columns (none: a scalar aggregate, one
        row): ``keys`` pairs each key's distinct count in the input with
        its column when it is a bare one, whose value set the group column
        then carries (:meth:`_keys`). A label aggregate (ROWMATRIX,
        COLMATRIX, VECTORIZE) whose type leaves the dimension its labels
        span unknown spans its group's entries: the input rows — each a
        labelled entry, or a partial state spanning its own — over the
        groups."""
        key_distinct = [count for count, _ in keys]
        rows = self._group_count(child, key_distinct, per_slot)
        distinct = {
            column.column_id: min(count, rows)
            for column, count in zip(node.group_columns, key_distinct)
        }
        values = {
            column.column_id: child.values[key]
            for (_, key), column in zip(keys, node.group_columns)
            if key in child.values
        }
        width, types = self.row_width(node), {}
        for spec in node.aggregates:
            declared = spec.output.data_type
            labelled = spec.aggregate.name in LABEL_AGGREGATES
            if not labelled or None not in _dims(declared):
                continue
            # the dimension the type leaves unknown is the one labels span
            span = _dims(declared).index(None)
            state = child.types.get(spec.output.column_id)
            entries = child.rows * (1.0 if state is None else _dims(state)[span])
            dims = list(_dims(declared))
            dims[span] = entries / rows
            refined = type(declared)(*dims)
            types[spec.output.column_id] = refined
            width += self.type_width(refined) - self.type_width(declared)
        return Estimate(rows, width, distinct, values, child.busiest, types)

    def _keys(self, exprs, child: Estimate) -> List[Tuple[float, Optional[int]]]:
        """Each grouping key's distinct count in ``child`` and its column
        when it is a bare one."""
        return [(self._expr_distinct(expr, child), _column_id(expr)) for expr in exprs]

    def distinct_rule(
        self, child: Estimate, columns, width: float, per_slot: bool = False
    ) -> Estimate:
        """DISTINCT is a grouping on every column: bounded by the product
        of the per-column distinct counts (and by the input rows)."""
        key_distinct = [
            self._column_distinct(column.column_id, child) for column in columns
        ]
        rows = self._group_count(child, key_distinct, per_slot)
        distinct = _clamped(child.distinct, rows)
        return Estimate(rows, width, distinct, child.values, child.busiest, child.types)

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
        distinct = _clamped(child.distinct, rows)
        return Estimate(
            rows, child.width_bytes, distinct, child.values, child.busiest, child.types
        )

    def _expr_distinct(self, expr: TypedExpr, estimate: Estimate) -> float:
        """A bare column's distinct count; ``c / k`` over an INTEGER column
        with a known count and a positive integer literal ``k`` (integer
        division: the paper's blocking key ``x.id / 1000``) has
        ⌈distinct(c) / k⌉; any other expression the default."""
        if (
            isinstance(expr, BinaryExpr)
            and expr.op == "/"
            and isinstance(expr.left, ColumnVar)
            and expr.left.data_type == INTEGER
            and isinstance(expr.right, LiteralExpr)
            and expr.right.data_type == INTEGER
            and expr.right.value > 0
            and expr.left.column_id in estimate.distinct
        ):
            known = estimate.distinct[expr.left.column_id]
            return float(math.ceil(known / expr.right.value))
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

    # -- seconds: OperatorRun's charges on the busiest slot ------------------------
    #
    # Each ``_charge_*`` method makes the charge calls one handler in
    # engine/executor.py makes, arguments read off estimates, for the
    # busiest slot of a phase whose rows are partitioned as ``kind``.

    def _share(self, est: Estimate, kind: str) -> Tuple[float, float]:
        """Rows and bytes of ``est`` on the busiest slot: all of them in a
        SINGLE, gathered or broadcast phase, else its share of the rows
        when a hash exchange placed them by known values, or rows / slots
        (at least one)."""
        if kind in ("single", "broadcast"):
            return est.rows, est.total_bytes
        held = est.rows * est.busiest if est.busiest else est.rows / self.config.slots
        rows = min(est.rows, max(held, 1.0))
        return rows, rows * est.width_bytes

    def _placed(self, child: Estimate, keys) -> Estimate:
        """``child``'s rows after a hash exchange on ``keys``: one bare key
        column whose value set is known is placed as the executor places
        it (:func:`~repro.engine.executor.busiest_share`, honouring
        ``balanced_placement``), each value holding as many rows; any
        other key spreads them evenly."""
        # imported lazily: the executor imports the planner, and so this
        from ..engine.executor import busiest_share

        busiest = 0.0
        if len(keys) == 1 and isinstance(keys[0], ColumnVar):
            stats = child.values.get(keys[0].column_id)
            if stats is not None:
                busiest = busiest_share(stats, self.config)
        return replace(child, busiest=busiest)

    def _seconds(self, charge, *args) -> float:
        """The simulated seconds of a run ``charge(run, *args)`` charges."""
        run = OperatorRun("estimate", self.config)
        charge(run, *args)
        return run.finish().wall_seconds

    def _charge_scan(self, run, est: Estimate, kind: str) -> None:
        rows, nbytes = self._share(est, kind)
        run.charge_disk(0, nbytes)
        run.charge_cpu(0, tuples=rows)

    def _charge_eval(self, run, child: Estimate, kind: str, exprs) -> None:
        """Filter, Project and ViewScan: every row plus its expressions."""
        rows, _ = self._share(child, kind)
        run.charge_eval(0, rows, row_cost(exprs, rows, types=child.types))

    def _charge_broadcast(self, run, child: Estimate) -> None:
        config = self.config
        run.charge_network(child.total_bytes * config.machines)
        for machine in range(config.machines):
            run.charge_cpu(machine * config.cores_per_machine, tuples=child.rows)

    def _charge_gather(self, run, child: Estimate, kind: str) -> None:
        rows, nbytes = self._share(child, kind)
        run.charge_cpu(0, tuples=rows)
        run.charge_disk(0, nbytes)  # map output spill
        run.charge_network(child.total_bytes)
        run.charge_state(0, child.total_bytes)
        run.charge_disk(0, child.total_bytes / self.config.cores_per_machine)
        run.charge_cpu(0, tuples=child.rows)

    def _charge_hash(self, run, child: Estimate, kind: str, keys=(), out=None) -> None:
        """``out``: the rows as placed (default: spread evenly)."""
        rows, nbytes = self._share(child, kind)
        run.charge_eval(0, rows, row_cost(keys, rows))
        run.charge_disk(0, nbytes)  # map output spill
        run.charge_network(child.total_bytes)
        rows, nbytes = self._share(out or replace(child, busiest=0.0), SPREAD)
        run.charge_state(0, nbytes)
        run.charge_disk(0, nbytes)  # reduce-side read
        run.charge_cpu(0, tuples=rows)

    def _charge_hash_join(self, run, probe, build, out, kinds, keys, residual) -> None:
        """``kinds`` and ``keys``: the probe side's, then the build
        side's; the residual is priced on the output rows."""
        rows, nbytes = self._share(build, kinds[1])
        run.charge_state(0, nbytes)
        run.charge_eval(0, rows, row_cost(keys[1], rows))
        rows = self._share(probe, kinds[0])[0]
        pairs = self._share(out, kinds[0])[0]
        cost = row_cost([residual], pairs, row_cost(keys[0], rows), out.types)
        run.charge_eval(0, rows + pairs, cost)

    def _charge_nested_loop(self, run, probe, build, out, kind, residual) -> None:
        pairs = self._share(probe, kind)[0] * max(build.rows, 1.0)
        out_rows = self._share(out, kind)[0]
        cost = row_cost([residual], pairs, types=out.types)
        run.charge_eval(0, pairs + out_rows, cost)

    def _charge_partial(self, run, child, kind, est, node) -> None:
        """``node``'s keys and aggregates, per slot: a hash aggregation
        costs about two passes a row plus one a group."""
        rows = self._share(child, kind)[0]
        groups, nbytes = self._share(est, kind)
        run.charge_state(0, nbytes)
        exprs = [*node.group_exprs, *(spec.arg for spec in node.aggregates)]
        types = child.types
        cost = row_cost(exprs, rows, types=types)
        streamed = sum(  # each aggregate streams its input into its state
            8.0 if spec.arg is None
            else self.type_width(
                refined_type(spec.arg, types) if types else spec.arg.data_type
            )
            for spec in node.aggregates
        )
        cost.add("stream_bytes", streamed * rows)
        run.charge_eval(0, 2 * rows + groups, cost)

    def _charge_final(self, run, child: Estimate, kind: str, node) -> None:
        """Merging: every partial state of ``node`` streams in."""
        rows = self._share(child, kind)[0]
        cost = EvalCost()
        states = sum(self.type_width(spec.output.data_type) for spec in node.aggregates)
        cost.add("stream_bytes", states * rows)
        run.charge_eval(0, rows, cost)

    def _charge_distinct(self, run, child: Estimate, kind: str) -> None:
        rows, nbytes = self._share(child, kind)
        run.charge_cpu(0, tuples=rows, stream_bytes=nbytes)

    def _charge_ordering(self, run, child, kind, keys, limit) -> None:
        """A full sort (``limit`` None) or a Top-K; ``keys`` in the order
        the handler evaluates them. ``LIMIT 0`` runs nothing."""
        if limit == 0:
            return
        rows = self._share(child, kind)[0]
        for expr, _ in keys:
            run.charge_eval(0, 0, row_cost([expr], rows))
        if limit is None:
            run.charge_cpu(0, tuples=sort_comparisons(rows))
        else:
            run.charge_cpu(0, tuples=top_k_comparisons(rows, limit))

    def join_layout(
        self,
        left: Estimate,
        right: Estimate,
        output: Estimate,
        cross: bool,
        left_ready: bool = False,
        right_ready: bool = False,
    ) -> Tuple[bool, bool]:
        """How a join runs, as ``(build_left, broadcast)``: which input is
        the build side, and whether it is broadcast (a map-side join, its
        output pipelined) or both inputs are hashed on the keys, each
        unless already partitioned on them (``*_ready``; a reduce-side
        join). A cross product broadcasts its smaller input, the right
        one on an exact byte tie. A hash join builds on its smaller input,
        the left one on a tie, and broadcasts it when the copy is state a
        slot keeps in memory (:func:`~repro.engine.cluster.state_fits`)
        and copying it to every machine moves fewer bytes than shuffling
        the unready inputs and materializing the output. The physical
        planner lowers by this and the logical walker prices what it
        picks."""
        if cross:
            return left.total_bytes < right.total_bytes, True
        repartition = (
            (0.0 if left_ready else left.total_bytes)
            + (0.0 if right_ready else right.total_bytes)
            + output.total_bytes
        )
        smaller = min(left.total_bytes, right.total_bytes)
        broadcast = (
            state_fits(self.config, smaller)
            and smaller * self.config.machines < repartition
        )
        return left.total_bytes <= right.total_bytes, broadcast

    def _join_seconds(self, node: JoinNode, left, right, out) -> float:
        """A logical join priced as the physical planner lowers it, its
        inputs spread over every slot: the build side broadcast and
        joined against its copy, or both inputs hashed on the keys and
        joined slot by slot."""
        keys = [[pair[0] for pair in node.equi], [pair[1] for pair in node.equi]]
        build_left, broadcast = self.join_layout(left, right, out, node.is_cross)
        probe, build, seconds = left, right, self._seconds
        if build_left:
            keys.reverse()
            probe, build = right, left
        if broadcast:
            moved, kinds = seconds(self._charge_broadcast, build), (SPREAD, "broadcast")
        else:
            moved = seconds(self._charge_hash, probe, SPREAD, keys[0])
            moved += seconds(self._charge_hash, build, SPREAD, keys[1])
            kinds = (SPREAD, SPREAD)
        if node.is_cross:
            charge = self._charge_nested_loop
            return moved + seconds(charge, probe, build, out, SPREAD, node.residual)
        return moved + seconds(
            self._charge_hash_join, probe, build, out, kinds, keys, node.residual
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
            return est, self._seconds(self._charge_scan, est, _kind(node))
        if isinstance(node, view_scan):
            # stored state on one slot: no scan, no shuffle, just the rows
            est = self.view_scan_rule(node.view, self.row_width(node))
            return est, self._seconds(self._charge_eval, est, "single", ())
        if isinstance(node, filter_):
            (child,) = inputs
            # a filter directly above a scan learns per table
            above_scan = isinstance(node.child, scan)
            scope = str(node.child.table.name).lower() if above_scan else ""
            width = self._typed_width(node, child.types)
            est = self.filter_rule(child, node.predicate, scope, width)
            exprs = [node.predicate]
        elif isinstance(node, project):
            (child,) = inputs
            est = self.project_rule(
                child, node.exprs, node.columns, self.row_width(node)
            )
            exprs = node.exprs
        else:
            return None
        kind = _kind(node.child)
        return est, self._seconds(self._charge_eval, child, kind, exprs)

    def _logical_rule(
        self, node: LogicalNode, inputs: List[Estimate], below: float
    ) -> Tuple[Estimate, float]:
        """One logical operator's output estimate from its inputs'
        estimates, and the cost of the plan rooted at it: ``below`` (its
        input subtrees' cost) plus its own seconds — those of the
        operators the physical planner lowers it to, with their input
        rows spread over every slot."""
        unsplit = self._unsplit_rule(node, inputs, LOGICAL_UNSPLIT)
        if unsplit is not None:
            return unsplit[0], below + unsplit[1]
        seconds = self._seconds
        if isinstance(node, JoinNode):
            left, right = inputs
            width = self._typed_width(node, {**left.types, **right.types})
            est = self.join_rule(left, right, node.equi, node.residual, width)
            return est, below + self._join_seconds(node, left, right, est)
        (child,) = inputs
        width = self._typed_width(node, child.types)
        if isinstance(node, AggregateNode):
            keys = self._keys(node.group_exprs, child)
            est = self.group_rule(child, keys, node)
            partial = self.group_rule(child, keys, node, per_slot=True)
            own = seconds(self._charge_partial, child, SPREAD, partial, node)
            if node.group_columns:
                own += seconds(self._charge_hash, partial, SPREAD)
                own += seconds(self._charge_final, partial, SPREAD, node)
            else:
                own += seconds(self._charge_gather, partial, SPREAD)
                own += seconds(self._charge_final, partial, "single", node)
            return est, below + own
        if isinstance(node, DistinctNode):
            est = self.distinct_rule(child, node.columns, width)
            local = self.distinct_rule(child, node.columns, width, per_slot=True)
            own = seconds(self._charge_distinct, child, SPREAD)
            own += seconds(self._charge_hash, local, SPREAD)
            return est, below + own + seconds(self._charge_distinct, local, SPREAD)
        if isinstance(node, SortNode):
            cap = float(node.limit) if node.limit is not None else None
            est = self.limit_rule(child, cap, floor=0.0)
            # each slot's own pass keeps its own k before the gather
            local = self.limit_rule(child, cap and cap * self.config.slots, floor=1.0)
            limit = node.limit if self.use_top_k(node.limit, child.rows) else None
            order = self._charge_ordering
            own = seconds(order, child, SPREAD, node.keys, limit)
            own += seconds(self._charge_gather, local, SPREAD)
            return est, below + own + seconds(order, local, "single", node.keys, limit)
        raise TypeError(f"cannot estimate {type(node).__name__}")

    # -- ORDER BY ... LIMIT strategy ----------------------------------------------

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

    def price_physical(self, node) -> Estimate:
        """Estimate the physical plan rooted at ``node`` once, bottom up,
        writing each operator's ``(est_rows, est_width_bytes, est_bytes,
        est_seconds)`` onto its node — the numbers EXPLAIN ANALYZE's trace
        prints beside the measured actuals and admission sizes a plan by.
        Returns the root's estimate. A compile prices its plan once and a
        plan-cache hit reuses the numbers. What they read — a table's
        statistics (recorded by :meth:`scan_rule`), a view's row count,
        feedback — moves a statistics or shape stamp the plan holds, or
        the feedback version: a cached plan whose moved statistics fed
        only estimates is priced again, on a copy (``repro.plan_cache``)."""
        inputs = [self.price_physical(child) for child in node.children()]
        est, node.est_seconds = self._physical_rule(node, inputs)
        node.est_rows, node.est_width_bytes = est.rows, est.width_bytes
        node.est_bytes = est.total_bytes
        if getattr(node, "kind", None) == "broadcast":
            # the trace's measured bytes count every slot's replica
            node.est_bytes *= float(self.config.slots)
        if node.pipelined:
            # its rows stream to its consumer: a slot holds what its
            # inputs hold (``Executor._held``)
            node.est_held_bytes = sum(c.est_held_bytes for c in node.children())
        else:
            node.est_held_bytes = self._share(est, _kind(node))[1]
        return est

    def _physical_rule(self, node, inputs: List[Estimate]) -> Tuple[Estimate, float]:
        """One physical operator's output estimate and own seconds: the
        same rules as :meth:`_logical_rule`. What differs is what only a
        physical plan has: a per-slot phase before each shuffle, exchanges
        that move rows and change none, and where each input's rows are."""
        # imported lazily: physical.py imports this module at top level
        from . import physical as p

        unsplit = self._unsplit_rule(node, inputs, p.PHYSICAL_UNSPLIT)
        if unsplit is not None:
            return unsplit
        seconds = self._seconds
        if isinstance(node, (p.PHashJoin, p.PNestedLoopJoin)):
            probe, build = inputs
            width = self._typed_width(node, {**probe.types, **build.types})
            hashed = isinstance(node, p.PHashJoin)
            keys = list(zip(node.probe_keys, node.build_keys)) if hashed else []
            if node.probe_is_left:
                est = self.join_rule(probe, build, keys, node.residual, width)
            else:
                equi = [(b, a) for a, b in keys]
                est = self.join_rule(build, probe, equi, node.residual, width)
            if probe.busiest:  # the pairs stay on the probe rows' slots
                est = replace(est, busiest=probe.busiest)
            kind = _kind(node.probe)
            if not hashed:
                charge = self._charge_nested_loop
                return est, seconds(charge, probe, build, est, kind, node.residual)
            kinds = (kind, _kind(node.build))
            keys = (node.probe_keys, node.build_keys)
            charge = self._charge_hash_join
            return est, seconds(charge, probe, build, est, kinds, keys, node.residual)
        (child,) = inputs
        kind = _kind(node.child)
        if isinstance(node, p.PExchange):
            # moves rows, changes none: the input's estimate passes through,
            # placed anew by a hash exchange
            if node.kind == "broadcast":
                return child, seconds(self._charge_broadcast, child)
            if node.kind == "gather":
                return child, seconds(self._charge_gather, child, kind)
            out = self._placed(child, node.keys)
            return out, seconds(self._charge_hash, child, kind, node.keys, out)
        if isinstance(node, p.PPartialAggregate):
            # the per-slot phase: the shuffle is the exchange's and the
            # merge the final phase's
            keys = self._keys(node.group_exprs, child)
            est = self.group_rule(child, keys, node, per_slot=True)
            return est, seconds(self._charge_partial, child, kind, est, node)
        if isinstance(node, p.PFinalAggregate):
            # merges partial rows: its keys are columns by now
            keys = [
                (self._column_distinct(column.column_id, child), column.column_id)
                for column in node.group_columns
            ]
            est = self.group_rule(child, keys, node)
            return est, seconds(self._charge_final, child, kind, node)
        width = self._typed_width(node, child.types)
        if isinstance(node, p.PDistinct):
            est = self.distinct_rule(child, node.columns, width, per_slot=node.local)
            return est, seconds(self._charge_distinct, child, kind)
        if isinstance(node, (p.PSortLimit, p.PTopK)):
            cap = float(node.limit) if node.limit is not None else None
            if cap is not None and not node.final:
                cap *= self.config.slots  # per-slot phase: each keeps its own k
            est = self.limit_rule(child, cap, floor=1.0)
            # the strategy was fixed at planning; the gather is the exchange's
            if isinstance(node, p.PTopK):
                keys, limit = node.keys, node.limit
            else:  # the full sort evaluates its keys last to first
                keys, limit = node.keys[::-1], None
            return est, seconds(self._charge_ordering, child, kind, keys, limit)
        raise TypeError(f"cannot estimate {type(node).__name__}")


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
