"""Physical plans and the physical planner.

The physical planner lowers an optimized logical plan onto the simulated
cluster:

* joins pick their build side and **broadcast** vs. **repartition**
  strategies by comparing estimated data movement (sizes again come from
  the LA-aware type widths) — ``CostModel.join_layout``, the one rule the
  cost model also prices a logical join by;
* exchanges are elided when a side is already co-partitioned on the join
  keys (base tables can be hash-partitioned at load time);
* aggregation is split into a partial (pre-shuffle) and final phase,
  which is what makes ``SUM(outer_product(...))`` scale: each slot
  accumulates one local Gram matrix and only those partials cross the
  network;
* DISTINCT and ORDER BY/LIMIT get local pre-passes before their shuffle.

Every ``hash``/``gather`` exchange is a MapReduce-style job boundary and
is charged the per-job startup overhead during execution.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..catalog import TableEntry
from ..engine.storage import BROADCAST, ROUND_ROBIN, SINGLE, Partitioning
from .cost import CostModel, PlanEstimates
from .expressions import (
    BinaryExpr,
    BoolExpr,
    ColumnVar,
    LiteralExpr,
    ParamExpr,
    TypedExpr,
)
from .logical import (
    AggregateNode,
    AggSpec,
    DistinctNode,
    FilterNode,
    JoinNode,
    LogicalNode,
    OutputColumn,
    ProjectNode,
    ScanNode,
    SortNode,
    ViewScanNode,
)


class PhysicalNode:
    columns: List[OutputColumn]
    partitioning: Partitioning
    #: this operator's estimate, written once when its plan compiles
    #: (``CostModel.price_physical``); None on a plan never priced.
    #: ``est_held_bytes``: what its busiest slot holds of its output, the
    #: bytes the memory rule reads (``Cluster.check_memory``)
    est_rows = est_width_bytes = est_bytes = est_seconds = None
    est_held_bytes = None
    #: whether its rows stream to its consumer (Filter, Project, the
    #: joins): a slot then holds what its inputs hold, never its output
    #: (``Executor._held``, ``est_held_bytes``)
    pipelined = False

    def children(self) -> Sequence["PhysicalNode"]:
        return ()

    def describe(self) -> str:
        return type(self).__name__

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


class PScan(PhysicalNode):
    def __init__(self, table: TableEntry, columns: List[OutputColumn]):
        self.table = table
        self.columns = list(columns)
        storage = table.storage
        if storage is not None and storage.partition_by:
            positions = {
                column.name.lower(): column for column in columns
            }
            keys = tuple(
                ("col", positions[name.lower()].column_id)
                for name in storage.partition_by
            )
            self.partitioning = Partitioning("hash", keys)
        else:
            self.partitioning = ROUND_ROBIN
        #: zone-map prune triples ``(column position, op, literal expr)``
        #: attached by the planner when a filter sits directly above;
        #: the literal side stays an expression (resolved per execution,
        #: so rebound parameter cells prune on their current value) and
        #: segments whose min/max exclude a conjunct are skipped whole
        self.prune_predicates: List[Tuple[int, str, TypedExpr]] = []

    def describe(self) -> str:
        return f"Scan {self.table.name}"


class PViewScan(PhysicalNode):
    """Emit a materialized view's stored state: one partition (slot 0),
    like the scalar FinalAggregate or gathered result it replaces. The
    state is read at *execution* time, so a cached plan holding this
    node always serves the view's current contents."""

    def __init__(self, node: ViewScanNode):
        self.view = node.view
        self.spec_indices = node.spec_indices
        self.columns = list(node.columns)
        self.partitioning = SINGLE

    def describe(self) -> str:
        mode = "incremental" if self.spec_indices is not None else "full"
        return f"ViewScan {self.view.name} ({mode})"


class PFilter(PhysicalNode):
    pipelined = True

    def __init__(self, child: PhysicalNode, predicate: TypedExpr):
        self.child = child
        self.predicate = predicate
        self.columns = list(child.columns)
        self.partitioning = child.partitioning

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return f"Filter {self.predicate!r}"


class PProject(PhysicalNode):
    pipelined = True

    def __init__(
        self, child: PhysicalNode, exprs: List[TypedExpr], columns: List[OutputColumn]
    ):
        self.child = child
        self.exprs = list(exprs)
        self.columns = list(columns)
        # rows stay where they are: partitioned on key columns it passes
        # on — under their output names, a view's or subquery's renames
        # included — they are partitioned on those outputs
        renames: Dict[int, int] = {}
        for expr, column in zip(exprs, columns):
            source = expr.column_id if isinstance(expr, ColumnVar) else None
            # a column also passed on as itself keeps its own name
            if source is not None and renames.get(source) != source:
                renames[source] = column.column_id
        self.partitioning = partitioning = child.partitioning
        if partitioning.kind == "hash":
            keys = tuple(
                ("col", renames[key[1]])
                for key in partitioning.keys
                if key[0] == "col" and key[1] in renames
            )
            whole = len(keys) == len(partitioning.keys)
            self.partitioning = Partitioning("hash", keys) if whole else ROUND_ROBIN

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        names = ", ".join(column.name for column in self.columns)
        return f"Project [{names}]"


class PExchange(PhysicalNode):
    """A shuffle: ``hash`` repartitions on key expressions, ``gather``
    collects everything on one slot, ``broadcast`` replicates."""

    def __init__(self, child: PhysicalNode, kind: str, keys: List[TypedExpr] = ()):
        assert kind in ("hash", "gather", "broadcast")
        self.child = child
        self.kind = kind
        self.keys = list(keys)
        self.columns = list(child.columns)
        if kind == "hash":
            self.partitioning = Partitioning(
                "hash", tuple(key.key() for key in self.keys)
            )
        elif kind == "gather":
            self.partitioning = SINGLE
        else:
            self.partitioning = BROADCAST

    def children(self):
        return (self.child,)

    @property
    def is_job_boundary(self) -> bool:
        return self.kind in ("hash", "gather")

    def describe(self) -> str:
        if self.kind == "hash":
            keys = ", ".join(repr(key) for key in self.keys)
            return f"Exchange hash [{keys}]"
        return f"Exchange {self.kind}"


class PHashJoin(PhysicalNode):
    """Hash join; the build side is either broadcast or co-partitioned
    with the probe side."""

    pipelined = True

    def __init__(
        self,
        probe: PhysicalNode,
        build: PhysicalNode,
        probe_keys: List[TypedExpr],
        build_keys: List[TypedExpr],
        residual: Optional[TypedExpr],
        probe_is_left: bool,
    ):
        self.probe = probe
        self.build = build
        self.probe_keys = list(probe_keys)
        self.build_keys = list(build_keys)
        self.residual = residual
        self.probe_is_left = probe_is_left
        left, right = (probe, build) if probe_is_left else (build, probe)
        self.columns = list(left.columns) + list(right.columns)
        self.partitioning = probe.partitioning

    def children(self):
        return (self.probe, self.build)

    def describe(self) -> str:
        keys = ", ".join(
            f"{p!r}={b!r}" for p, b in zip(self.probe_keys, self.build_keys)
        )
        mode = "broadcast" if self.build.partitioning.kind == "broadcast" else "partitioned"
        suffix = f" residual {self.residual!r}" if self.residual is not None else ""
        return f"HashJoin({mode}) [{keys}]{suffix}"


class PNestedLoopJoin(PhysicalNode):
    """Cross product (with optional residual predicate); the build side
    is broadcast."""

    pipelined = True

    def __init__(
        self,
        probe: PhysicalNode,
        build: PhysicalNode,
        residual: Optional[TypedExpr],
        probe_is_left: bool,
    ):
        self.probe = probe
        self.build = build
        self.residual = residual
        self.probe_is_left = probe_is_left
        left, right = (probe, build) if probe_is_left else (build, probe)
        self.columns = list(left.columns) + list(right.columns)
        self.partitioning = probe.partitioning

    def children(self):
        return (self.probe, self.build)

    def describe(self) -> str:
        suffix = f" residual {self.residual!r}" if self.residual is not None else ""
        return f"NestedLoopJoin(broadcast){suffix}"


class PPartialAggregate(PhysicalNode):
    """Slot-local accumulation; emits (group values..., states...)."""

    def __init__(
        self,
        child: PhysicalNode,
        group_exprs: List[TypedExpr],
        group_columns: List[OutputColumn],
        aggregates: List[AggSpec],
    ):
        self.child = child
        self.group_exprs = list(group_exprs)
        self.group_columns = list(group_columns)
        self.aggregates = list(aggregates)
        self.columns = list(group_columns) + [spec.output for spec in aggregates]
        self.partitioning = ROUND_ROBIN

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return f"PartialAggregate keys={len(self.group_exprs)} aggs={len(self.aggregates)}"


class PFinalAggregate(PhysicalNode):
    """Merges partial states after the shuffle."""

    def __init__(
        self,
        child: PhysicalNode,
        group_columns: List[OutputColumn],
        aggregates: List[AggSpec],
    ):
        self.child = child
        self.group_columns = list(group_columns)
        self.aggregates = list(aggregates)
        self.columns = list(group_columns) + [spec.output for spec in aggregates]
        if group_columns:
            self.partitioning = Partitioning(
                "hash", tuple(("col", column.column_id) for column in group_columns)
            )
        else:
            self.partitioning = SINGLE

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return f"FinalAggregate keys={len(self.group_columns)} aggs={len(self.aggregates)}"


class PDistinct(PhysicalNode):
    def __init__(self, child: PhysicalNode, local: bool):
        self.child = child
        self.local = local
        self.columns = list(child.columns)
        self.partitioning = child.partitioning

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return f"Distinct({'local' if self.local else 'final'})"


class PSortLimit(PhysicalNode):
    def __init__(
        self,
        child: PhysicalNode,
        keys: List[Tuple[TypedExpr, bool]],
        limit: Optional[int],
        final: bool,
    ):
        self.child = child
        self.keys = list(keys)
        self.limit = limit
        self.final = final
        self.columns = list(child.columns)
        self.partitioning = child.partitioning

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        suffix = f" LIMIT {self.limit}" if self.limit is not None else ""
        return f"Sort({'final' if self.final else 'local'}){suffix}"


class PTopK(PhysicalNode):
    """Bounded-heap ``ORDER BY ... LIMIT k`` on the simulated cluster:
    each slot keeps at most k rows in a heap instead of materializing and
    sorting its whole partition, so it is charged O(n log k) comparisons
    and notes O(k) peak memory. Emits exactly the rows (and order) the
    full sort would — the interpreter selects them with the full sort's
    own stable chain (see ``Executor._top_k``). ``limit == 0``
    short-circuits: the child subtree is never executed."""

    def __init__(
        self,
        child: PhysicalNode,
        keys: List[Tuple[TypedExpr, bool]],
        limit: int,
        final: bool,
    ):
        self.child = child
        self.keys = list(keys)
        self.limit = int(limit)
        self.final = final
        self.columns = list(child.columns)
        self.partitioning = child.partitioning

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return f"TopK({'final' if self.final else 'local'}) LIMIT {self.limit}"


#: the physical layer's ``(scan, view scan, filter, project)`` — the
#: operators lowered one-to-one, estimated by ``CostModel._unsplit_rule``
PHYSICAL_UNSPLIT = (PScan, PViewScan, PFilter, PProject)

#: literal types whose comparisons zone maps can reason about
PRUNABLE_LITERALS = (bool, int, float, str)
_FLIPPED_OP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "="}


def extract_prune_predicates(
    scan: PScan, predicate: TypedExpr
) -> List[Tuple[int, str, TypedExpr]]:
    """The zone-map-prunable conjuncts of a filter sitting directly
    above a scan: ``column <op> literal`` comparisons (either
    orientation) over the scan's output columns. Conjuncts that don't
    fit the shape are simply not prunable — the filter still evaluates
    the full predicate over every surviving row, so pruning is purely
    an optimization, never a semantic change.

    The literal side is kept as the *expression* (a :class:`LiteralExpr`
    or a prepared-statement :class:`ParamExpr`) and resolved to a value
    at scan time — plan-cached plans rebind parameter cells between
    executions, so capturing the value here would prune on stale (or
    unbound) parameters."""
    position_of = {column.column_id: i for i, column in enumerate(scan.columns)}
    out: List[Tuple[int, str, TypedExpr]] = []

    def walk(expr: TypedExpr) -> None:
        if isinstance(expr, BoolExpr) and expr.op == "AND":
            walk(expr.left)
            walk(expr.right)
            return
        if not isinstance(expr, BinaryExpr) or expr.op not in _FLIPPED_OP:
            return
        for column, literal, op in (
            (expr.left, expr.right, expr.op),
            (expr.right, expr.left, _FLIPPED_OP[expr.op]),
        ):
            if (
                isinstance(column, ColumnVar)
                and isinstance(literal, (LiteralExpr, ParamExpr))
                and column.column_id in position_of
            ):
                out.append((position_of[column.column_id], op, literal))
                return

    walk(predicate)
    return out


def resolve_prune_predicates(
    predicates,
) -> List[Tuple[int, str, object]]:
    """Current ``(position, op, value)`` triples of a scan's prune
    predicates, evaluated against the literals'/parameters' present
    values; conjuncts whose value is NULL or not totally ordered
    against zone maps are dropped (they never prune)."""
    out: List[Tuple[int, str, object]] = []
    for position, op, literal in predicates:
        if isinstance(literal, ParamExpr) and not literal.cell.bound:
            continue
        value = literal.evaluate(())
        if value is not None and isinstance(value, PRUNABLE_LITERALS):
            out.append((position, op, value))
    return out


class PhysicalPlanner:
    def __init__(self, cost_model: CostModel, enable_top_k: bool = True):
        self.cost = cost_model
        #: tests compare the bounded-heap Top-K against the full sort by
        #: planning the same statement with this off
        self.enable_top_k = enable_top_k

    def plan(
        self, node: LogicalNode, estimates: Optional[PlanEstimates] = None
    ) -> PhysicalNode:
        """Lower an optimized logical plan. ``estimates`` is the planning
        pass the plan was optimized with (a fresh one when None): every
        sizing decision below reads a logical node's estimate from it."""
        return self._lower(node, estimates or self.cost.planning_pass())

    def _lower(self, node: LogicalNode, estimates: PlanEstimates) -> PhysicalNode:
        if isinstance(node, ScanNode):
            return PScan(node.table, node.columns)
        if isinstance(node, ViewScanNode):
            return PViewScan(node)
        if isinstance(node, FilterNode):
            child = self._lower(node.child, estimates)
            if isinstance(child, PScan):
                child.prune_predicates = extract_prune_predicates(
                    child, node.predicate
                )
            return PFilter(child, node.predicate)
        if isinstance(node, ProjectNode):
            child = self._lower(node.child, estimates)
            return PProject(child, node.exprs, node.columns)
        if isinstance(node, JoinNode):
            return self._plan_join(node, estimates)
        if isinstance(node, AggregateNode):
            return self._plan_aggregate(node, estimates)
        if isinstance(node, DistinctNode):
            child = self._lower(node.child, estimates)
            local = PDistinct(child, local=True)
            keys = [column.var() for column in node.columns]
            shuffled = PExchange(local, "hash", keys)
            return PDistinct(shuffled, local=False)
        if isinstance(node, SortNode):
            child = self._lower(node.child, estimates)
            top_k = self.enable_top_k and node.limit is not None
            if top_k:
                self.cost.choosing(node.child)
                rows = estimates.estimate(node.child).rows
                top_k = self.cost.use_top_k(node.limit, rows)
            # both strategies run a per-slot pass, a gather, a final pass
            operator = PTopK if top_k else PSortLimit
            if child.partitioning.kind != "single":
                local = operator(child, node.keys, node.limit, final=False)
                child = PExchange(local, "gather")
            return operator(child, node.keys, node.limit, final=True)
        raise TypeError(f"cannot lower {type(node).__name__}")

    # -- joins -----------------------------------------------------------------

    def _plan_join(self, node: JoinNode, estimates: PlanEstimates) -> PhysicalNode:
        left = self._lower(node.left, estimates)
        right = self._lower(node.right, estimates)
        left_est = estimates.estimate(node.left)
        right_est = estimates.estimate(node.right)
        left_keys = [pair[0] for pair in node.equi]
        right_keys = [pair[1] for pair in node.equi]
        left_sig = tuple(key.key() for key in left_keys)
        right_sig = tuple(key.key() for key in right_keys)
        # balanced placement deals each exchange's keys out in the order it
        # first sees them, so two sides placed apart are not co-located
        hashed = not self.cost.config.balanced_placement
        left_ready = hashed and left.partitioning.co_partitioned_with(left_sig)
        right_ready = hashed and right.partitioning.co_partitioned_with(right_sig)
        # a cross product's layout reads no output estimate
        output = None if node.is_cross else estimates.estimate(node)
        self.cost.choosing(node)
        build_left, broadcast = self.cost.join_layout(
            left_est, right_est, output, node.is_cross, left_ready, right_ready
        )
        if not broadcast:
            if not left_ready:
                left = PExchange(left, "hash", left_keys)
            if not right_ready:
                right = PExchange(right, "hash", right_keys)
        probe, build = (right, left) if build_left else (left, right)
        if broadcast:
            build = PExchange(build, "broadcast")
        if node.is_cross:
            return PNestedLoopJoin(probe, build, node.residual, not build_left)
        probe_keys, build_keys = (
            (right_keys, left_keys) if build_left else (left_keys, right_keys)
        )
        return PHashJoin(
            probe, build, probe_keys, build_keys, node.residual, not build_left
        )

    # -- aggregation ----------------------------------------------------------------

    def _plan_aggregate(
        self, node: AggregateNode, estimates: PlanEstimates
    ) -> PhysicalNode:
        child = self._lower(node.child, estimates)
        partial = PPartialAggregate(
            child, node.group_exprs, node.group_columns, node.aggregates
        )
        if node.group_columns:
            group_sig = tuple(expr.key() for expr in node.group_exprs)
            if child.partitioning.kind == "single" or (
                child.partitioning.co_partitioned_with(group_sig)
            ):
                # rows are already co-located by group: no shuffle needed
                shuffled: PhysicalNode = partial
            else:
                keys = [column.var() for column in node.group_columns]
                shuffled = PExchange(partial, "hash", keys)
        else:
            shuffled = PExchange(partial, "gather")
        return PFinalAggregate(shuffled, node.group_columns, node.aggregates)
