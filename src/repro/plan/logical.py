"""Logical query plans.

Operators carry their output columns as ``(column_id, name, type)``
triples. Column ids are plan-wide unique integers handed out by the
binder, so reordering joins never renumbers anything: an expression that
referenced column 17 still references column 17 whatever shape the join
tree takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from ..catalog import TableEntry
from ..la.aggregates import Aggregate, Distinct
from ..types import DataType
from .expressions import ColumnVar, TypedExpr


def _format_bytes(value: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:,.0f} {unit}" if unit == "B" else f"{value:,.1f} {unit}"
        value /= 1024.0
    return f"{value:,.1f} GB"


@dataclass(frozen=True)
class OutputColumn:
    column_id: int
    name: str
    data_type: DataType

    def var(self) -> ColumnVar:
        return ColumnVar(self.column_id, self.data_type, self.name)

    def __repr__(self):
        return f"#{self.column_id}:{self.name}:{self.data_type!r}"


class LogicalNode:
    """Base class for logical operators."""

    columns: List[OutputColumn]

    def children(self) -> Sequence["LogicalNode"]:
        return ()

    @property
    def column_ids(self) -> frozenset:
        return frozenset(column.column_id for column in self.columns)

    def describe(self) -> str:
        """One-line description for EXPLAIN output."""
        return type(self).__name__

    def pretty(self, indent: int = 0, cost_model=None) -> str:
        """Indented plan tree; with a cost model (or a planning pass in
        progress), each line is annotated with estimated rows and row
        width (the size-awareness of section 4 made visible)."""
        line = "  " * indent + self.describe()
        if cost_model is not None:
            # one pass for the whole tree: each node is estimated once
            cost_model = cost_model.planning_pass()
            estimate = cost_model.estimate(self)
            line += (
                f"  [~{estimate.rows:,.0f} rows x "
                f"{_format_bytes(estimate.width_bytes)}]"
            )
        lines = [line]
        for child in self.children():
            lines.append(child.pretty(indent + 1, cost_model))
        return "\n".join(lines)


class ScanNode(LogicalNode):
    """Scan of a base table."""

    def __init__(self, table: TableEntry, binding_name: str, columns: List[OutputColumn]):
        self.table = table
        self.binding_name = binding_name
        self.columns = columns

    def describe(self) -> str:
        rows = self.table.stats.row_count
        return f"Scan {self.table.name} AS {self.binding_name} ({rows} rows)"


class ViewScanNode(LogicalNode):
    """Read a materialized view's stored state instead of recomputing.

    ``view`` is a :class:`repro.views.MaterializedView`. For an
    incremental view, ``spec_indices`` maps each output column to the
    view's aggregate-spec index that produces it (the matcher may select
    a subset or permutation of the view's aggregates); for a full view
    (``spec_indices is None``) the stored result rows are emitted
    verbatim. Output is a single partition — exactly the layout of the
    scalar final-aggregate (or gathered result) this node replaces, so
    downstream operators see bit-identical row order.
    """

    def __init__(
        self,
        view,
        columns: List[OutputColumn],
        spec_indices: Optional[List[int]] = None,
    ):
        self.view = view
        self.columns = list(columns)
        self.spec_indices = list(spec_indices) if spec_indices is not None else None

    def describe(self) -> str:
        mode = "incremental" if self.spec_indices is not None else "full"
        return f"ViewScan {self.view.name} ({mode})"


class FilterNode(LogicalNode):
    def __init__(self, child: LogicalNode, predicate: TypedExpr):
        self.child = child
        self.predicate = predicate
        self.columns = list(child.columns)

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        return f"Filter {self.predicate!r}"


class ProjectNode(LogicalNode):
    """Computes one expression per output column."""

    def __init__(self, child: LogicalNode, exprs: List[TypedExpr], columns: List[OutputColumn]):
        assert len(exprs) == len(columns)
        self.child = child
        self.exprs = list(exprs)
        self.columns = list(columns)

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        names = ", ".join(column.name for column in self.columns)
        return f"Project [{names}]"


class JoinNode(LogicalNode):
    """Inner join; with no equi-pairs this is a cross product.

    ``equi`` holds ``(left_expr, right_expr)`` pairs where each side is an
    expression over the corresponding input (this covers the paper's
    blocking predicate ``x.id/1000 = ind.mi``). ``residual`` is an extra
    predicate evaluated on joined rows (e.g. ``a.dataID <> mxx.id``).
    """

    def __init__(
        self,
        left: LogicalNode,
        right: LogicalNode,
        equi: List[Tuple[TypedExpr, TypedExpr]],
        residual: Optional[TypedExpr] = None,
    ):
        self.left = left
        self.right = right
        self.equi = list(equi)
        self.residual = residual
        self.columns = list(left.columns) + list(right.columns)

    def children(self):
        return (self.left, self.right)

    @property
    def is_cross(self) -> bool:
        return not self.equi

    def describe(self) -> str:
        if self.is_cross:
            label = "CrossJoin"
        else:
            keys = ", ".join(f"{l!r}={r!r}" for l, r in self.equi)
            label = f"HashJoin [{keys}]"
        if self.residual is not None:
            label += f" residual {self.residual!r}"
        return label


@dataclass
class AggSpec:
    """One aggregate computed by an AggregateNode."""

    aggregate: Aggregate
    arg: Optional[TypedExpr]  # None for COUNT(*)
    output: OutputColumn
    distinct: bool = False

    @cached_property
    def folding(self) -> Aggregate:
        """The aggregate that folds this spec's input: its own, or for
        ``AGG(DISTINCT x)`` a :class:`~repro.la.aggregates.Distinct` of it."""
        return Distinct(self.aggregate) if self.distinct else self.aggregate

    def describe(self) -> str:
        inner = "*" if self.arg is None else repr(self.arg)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.aggregate.name}({prefix}{inner}) AS {self.output.name}"


class AggregateNode(LogicalNode):
    """Group-by aggregation; with no keys this is a scalar aggregate
    producing exactly one row."""

    def __init__(
        self,
        child: LogicalNode,
        group_exprs: List[TypedExpr],
        group_columns: List[OutputColumn],
        aggregates: List[AggSpec],
    ):
        assert len(group_exprs) == len(group_columns)
        self.child = child
        self.group_exprs = list(group_exprs)
        self.group_columns = list(group_columns)
        self.aggregates = list(aggregates)
        self.columns = list(group_columns) + [spec.output for spec in aggregates]

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        keys = ", ".join(repr(expr) for expr in self.group_exprs)
        aggs = ", ".join(spec.describe() for spec in self.aggregates)
        return f"Aggregate keys=[{keys}] aggs=[{aggs}]"


class DistinctNode(LogicalNode):
    def __init__(self, child: LogicalNode):
        self.child = child
        self.columns = list(child.columns)

    def children(self):
        return (self.child,)


class SortNode(LogicalNode):
    """ORDER BY and/or LIMIT (keys may be empty for a bare LIMIT)."""

    def __init__(
        self,
        child: LogicalNode,
        keys: List[Tuple[TypedExpr, bool]],
        limit: Optional[int] = None,
    ):
        self.child = child
        self.keys = list(keys)
        self.limit = limit
        self.columns = list(child.columns)

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        keys = ", ".join(
            f"{expr!r} {'ASC' if ascending else 'DESC'}" for expr, ascending in self.keys
        )
        suffix = f" LIMIT {self.limit}" if self.limit is not None else ""
        return f"Sort [{keys}]{suffix}"
