"""Semantic analysis: AST -> typed logical plan.

The binder resolves names against the catalog, expands views (each
reference gets a fresh copy with fresh column ids, so self-joining a view
is safe), type-checks every expression — including binding the templated
LA signatures, which is where the paper's compile-time dimension errors
surface — and produces a canonical logical plan:

    Scan/viewplans -> left-deep cross JoinNodes -> Filter(WHERE)
        -> [Aggregate -> Filter(HAVING)] -> Project -> [Distinct] -> [Sort]

Join-order optimization and equi-join extraction happen later, in
:mod:`repro.plan.optimizer`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..catalog import Catalog, TableEntry
from ..errors import CompileError, NameResolutionError, SqlSyntaxError, TypeCheckError
from ..la import lookup, lookup_aggregate
from ..sql import ast
from ..sql.parser import MAX_NESTING
from ..types import (
    BOOLEAN,
    DOUBLE,
    INTEGER,
    LABELED_SCALAR,
    STRING,
    DataType,
    LabeledScalar,
    Matrix,
    MatrixType,
    Vector,
    VectorType,
)
from .expressions import (
    BinaryExpr,
    BoolExpr,
    CaseExpr,
    ColumnVar,
    FuncExpr,
    IsNullExpr,
    LiteralExpr,
    NegExpr,
    NotExpr,
    ParamCell,
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


class _Binding:
    """One FROM-clause item in scope."""

    def __init__(self, name: str, node: LogicalNode):
        self.name = name
        self.node = node

    def find(self, column: str) -> Optional[OutputColumn]:
        for output in self.node.columns:
            if output.name.lower() == column.lower():
                return output
        return None


class _Scope:
    def __init__(self, bindings: List[_Binding]):
        self.bindings = bindings

    def resolve(self, column: str, table: Optional[str]) -> OutputColumn:
        if table is not None:
            for binding in self.bindings:
                if binding.name.lower() == table.lower():
                    found = binding.find(column)
                    if found is None:
                        raise NameResolutionError(
                            f"relation {table!r} has no column {column!r}"
                        )
                    return found
            raise NameResolutionError(f"unknown relation {table!r}")
        matches = [
            found for binding in self.bindings if (found := binding.find(column))
        ]
        if not matches:
            raise NameResolutionError(f"unknown column {column!r}")
        if len(matches) > 1:
            raise NameResolutionError(f"ambiguous column {column!r}")
        return matches[0]


def _literal_type(value) -> DataType:
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return DOUBLE
    if isinstance(value, str):
        return STRING
    if isinstance(value, LabeledScalar):
        return LABELED_SCALAR
    if isinstance(value, Vector):
        return VectorType(value.length)
    if isinstance(value, Matrix):
        return MatrixType(value.rows, value.cols)
    if value is None:
        return DOUBLE
    raise CompileError(f"unsupported literal/parameter value {value!r}")


class Binder:
    """Binds statements against a catalog; one instance per statement so
    column ids are unique within the produced plan."""

    def __init__(
        self,
        catalog: Catalog,
        params: Optional[Dict[str, object]] = None,
        defer_params: bool = False,
        param_cells: Optional[Dict[str, ParamCell]] = None,
    ):
        self._catalog = catalog
        self._params = params or {}
        #: when True (used to validate CREATE VIEW), parameters without a
        #: value bind as numeric placeholders; real values arrive when the
        #: view is referenced by a query that supplies them
        self._defer_params = defer_params
        #: when given (prepared statements / plan cache), parameters bind
        #: as runtime ParamExpr slots instead of inlined literals; the
        #: current values still type the expressions, and this dict is
        #: filled with one cell per distinct parameter name
        self._param_cells = param_cells
        self._ids = itertools.count(1)
        #: names of views being expanded, "" for a FROM subquery (a stack no
        #: deeper than ``MAX_NESTING``; a name may recur at depths). Inside the
        #: body of view N, a reference to N skips any session temp-view
        #: overlay and resolves against the shared catalog — so a temp
        #: view may shadow the relation it is defined over without
        #: recursing into itself
        self._view_stack: List[str] = []
        #: lowercase name of every relation a FROM item resolved to
        #: (tables, inlined views, materialized views and — their stored
        #: state tracks them — those views' base tables): what a cached
        #: plan's validity depends on. A view the optimizer answers from
        #: instead of scanning adds nothing: its bases are the scanned
        #: tables, and they are stamped whenever it comes, goes or
        #: changes state
        self.relations: Set[str] = set()

    # -- public entry points ------------------------------------------------

    def bind_select(self, stmt: ast.SelectStatement) -> LogicalNode:
        bindings = [self._bind_from_item(item) for item in stmt.from_items]
        scope = _Scope(bindings)

        plan: LogicalNode = bindings[0].node
        for binding in bindings[1:]:
            plan = JoinNode(plan, binding.node, equi=[])

        if stmt.where is not None:
            predicate = self._bind_row(stmt.where, scope)
            if predicate.data_type != BOOLEAN:
                raise TypeCheckError(
                    f"WHERE clause must be boolean, got {predicate.data_type!r}"
                )
            plan = FilterNode(plan, predicate)

        is_grouped = bool(stmt.group_by) or any(
            ast.contains_aggregate(item.expr)
            for item in stmt.items
            if isinstance(item.expr, ast.Expression)
        )
        if stmt.having is not None and not is_grouped:
            raise CompileError("HAVING requires GROUP BY or aggregates")

        if is_grouped:
            plan, select_exprs, names = self._bind_grouped_select(stmt, scope, plan)
        else:
            select_exprs, names = self._bind_plain_select(stmt, scope)

        plan = ProjectNode(plan, select_exprs, self._make_outputs(select_exprs, names))

        if stmt.distinct:
            plan = DistinctNode(plan)

        if stmt.order_by or stmt.limit is not None:
            output_scope = _Scope([_Binding("", plan)])
            keys = [
                (self._bind_row(item.expr, output_scope), item.ascending)
                for item in stmt.order_by
            ]
            plan = SortNode(plan, keys, stmt.limit)
        return plan

    def bind_insert_rows(
        self, schema_types: Sequence[DataType], rows: List[List[ast.Expression]]
    ) -> List[tuple]:
        """Evaluate INSERT ... VALUES rows to constants (the database
        checks and converts them by their columns' types)."""
        empty_scope = _Scope([])
        for row in rows:
            if len(row) != len(schema_types):
                raise CompileError(
                    f"INSERT row has {len(row)} values, table has "
                    f"{len(schema_types)} columns"
                )
        return [
            tuple(self._bind_row(expr, empty_scope).evaluate({}) for expr in row)
            for row in rows
        ]

    def bind_table_predicate(self, entry: TableEntry, name: str, where: ast.Expression):
        """Bind a predicate over one base table (used by DELETE). Returns
        the typed predicate and the scan's output columns."""
        scan = self._scan(entry, name)
        scope = _Scope([_Binding(name, scan)])
        predicate = self._bind_row(where, scope)
        if predicate.data_type != BOOLEAN:
            raise TypeCheckError(
                f"predicate must be boolean, got {predicate.data_type!r}"
            )
        return predicate, scan.columns

    # -- FROM items -----------------------------------------------------------

    def _bind_from_item(self, item: ast.TableExpression) -> _Binding:
        if isinstance(item, ast.SubqueryRef):
            return _Binding(item.alias, self._nested("", item.query))
        assert isinstance(item, ast.TableName)
        name_key = item.name.lower()
        self.relations.add(name_key)
        if name_key in self._view_stack:
            shared_view = getattr(self._catalog, "shared_view", self._catalog.view)
            view = shared_view(item.name)
        else:
            view = self._catalog.view(item.name)
        if view is not None:
            plan = self._nested(name_key, view.query)
            if view.column_names is not None:
                plan = self._rename(plan, view.column_names)
            return _Binding(item.binding_name, plan)
        matview = getattr(self._catalog, "materialized_view", lambda _: None)(
            item.name
        )
        if matview is not None:
            # FROM <matview> reads the stored state directly — no
            # recomputation (an incremental view self-catches-up at
            # execution; a stale full view serves its last refresh)
            self.relations.update(matview.base_tables)
            columns = [
                OutputColumn(next(self._ids), name, data_type)
                for name, data_type in matview.columns
            ]
            indices = (
                list(matview.output_spec_indices) if matview.incremental else None
            )
            return _Binding(
                item.binding_name, ViewScanNode(matview, columns, indices)
            )
        table = self._catalog.table(item.name)
        return _Binding(item.binding_name, self._scan(table, item.binding_name))

    def _nested(self, name: str, query: ast.SelectStatement) -> LogicalNode:
        """Bind a FROM subquery (``name`` "") or view ``name`` one level deeper."""
        if len(self._view_stack) == MAX_NESTING:
            raise SqlSyntaxError(f"statement nests deeper than {MAX_NESTING} levels with its views inlined")
        self._view_stack.append(name)
        try:
            return self.bind_select(query)
        finally:
            self._view_stack.pop()

    def _scan(self, table: TableEntry, binding_name: str) -> ScanNode:
        columns = [
            OutputColumn(next(self._ids), column.name, table.refined_type(column))
            for column in table.schema
        ]
        return ScanNode(table, binding_name, columns)

    def _rename(self, plan: LogicalNode, names: List[str]) -> LogicalNode:
        if len(names) != len(plan.columns):
            raise CompileError(
                f"view column list has {len(names)} name(s) but the query "
                f"produces {len(plan.columns)}"
            )
        exprs = [column.var() for column in plan.columns]
        outputs = [
            OutputColumn(next(self._ids), name, column.data_type)
            for name, column in zip(names, plan.columns)
        ]
        return ProjectNode(plan, exprs, outputs)

    # -- row-scope expression binding ------------------------------------------

    def _bind_row(self, expr: ast.Expression, scope: _Scope) -> TypedExpr:
        if isinstance(expr, ast.Literal):
            return LiteralExpr(expr.value, _literal_type(expr.value))
        if isinstance(expr, ast.Parameter):
            if expr.name not in self._params:
                if self._defer_params:
                    # numeric placeholder; the view's user supplies a value
                    return LiteralExpr(None, DOUBLE)
                raise CompileError(f"no value supplied for parameter :{expr.name}")
            value = self._params[expr.name]
            if self._param_cells is not None:
                cell = self._param_cells.get(expr.name)
                if cell is None:
                    cell = self._param_cells[expr.name] = ParamCell(expr.name)
                cell.set(value)
                return ParamExpr(expr.name, _literal_type(value), cell)
            return LiteralExpr(value, _literal_type(value))
        if isinstance(expr, ast.ColumnRef):
            output = scope.resolve(expr.column, expr.table)
            return output.var()
        if isinstance(expr, ast.BinaryOp):
            left = self._bind_row(expr.left, scope)
            right = self._bind_row(expr.right, scope)
            if expr.op in ("AND", "OR"):
                return BoolExpr(expr.op, left, right)
            return BinaryExpr(expr.op, left, right)
        if isinstance(expr, ast.UnaryOp):
            operand = self._bind_row(expr.operand, scope)
            if expr.op == "NOT":
                return NotExpr(operand)
            return NegExpr(operand)
        if isinstance(expr, ast.IsNull):
            return IsNullExpr(self._bind_row(expr.operand, scope), expr.negated)
        if isinstance(expr, ast.FunctionCall):
            builtin = lookup(expr.name)
            if builtin is None:
                raise NameResolutionError(f"unknown function {expr.name!r}")
            args = [self._bind_row(arg, scope) for arg in expr.args]
            return FuncExpr(builtin, args)
        if isinstance(expr, ast.Case):
            whens = [
                (self._bind_row(cond, scope), self._bind_row(value, scope))
                for cond, value in expr.whens
            ]
            otherwise = (
                self._bind_row(expr.otherwise, scope)
                if expr.otherwise is not None
                else None
            )
            return CaseExpr(whens, otherwise)
        if isinstance(expr, ast.InList):
            return self._bind_in_list(expr, lambda e: self._bind_row(e, scope))
        if isinstance(expr, ast.AggregateCall):
            raise CompileError(
                f"aggregate {expr.name} is not allowed here (only in SELECT "
                f"items and HAVING of a grouped query)"
            )
        if isinstance(expr, ast.Star):
            raise CompileError("'*' is only allowed as a top-level select item")
        raise CompileError(f"cannot bind expression {expr!r}")

    @staticmethod
    def _bind_in_list(expr: ast.InList, bind) -> TypedExpr:
        """Desugar ``x [NOT] IN (a, b, ...)`` to a chain of equalities."""
        operand = bind(expr.operand)
        disjunction: Optional[TypedExpr] = None
        for item in expr.items:
            equal = BinaryExpr("=", operand, bind(item))
            disjunction = (
                equal if disjunction is None else BoolExpr("OR", disjunction, equal)
            )
        return NotExpr(disjunction) if expr.negated else disjunction

    # -- plain (non-grouped) SELECT ---------------------------------------------

    def _bind_plain_select(
        self, stmt: ast.SelectStatement, scope: _Scope
    ) -> Tuple[List[TypedExpr], List[str]]:
        exprs: List[TypedExpr] = []
        names: List[str] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                for binding in scope.bindings:
                    if item.expr.table and (
                        binding.name.lower() != item.expr.table.lower()
                    ):
                        continue
                    for column in binding.node.columns:
                        exprs.append(column.var())
                        names.append(column.name)
                continue
            bound = self._bind_row(item.expr, scope)
            exprs.append(bound)
            names.append(item.alias or _default_name(item.expr, len(names)))
        return exprs, names

    # -- grouped SELECT -----------------------------------------------------------

    def _bind_grouped_select(
        self, stmt: ast.SelectStatement, scope: _Scope, plan: LogicalNode
    ) -> Tuple[LogicalNode, List[TypedExpr], List[str]]:
        group_exprs = [self._bind_row(expr, scope) for expr in stmt.group_by]
        group_columns = [
            OutputColumn(
                next(self._ids), _default_name(ast_expr, index), bound.data_type
            )
            for index, (ast_expr, bound) in enumerate(zip(stmt.group_by, group_exprs))
        ]
        group_map: Dict[tuple, ColumnVar] = {
            bound.key(): column.var()
            for bound, column in zip(group_exprs, group_columns)
        }
        agg_specs: List[AggSpec] = []
        agg_cache: Dict[tuple, ColumnVar] = {}

        def bind_aggregate(call: ast.AggregateCall) -> ColumnVar:
            aggregate = lookup_aggregate(call.name)
            if aggregate is None:
                raise NameResolutionError(f"unknown aggregate {call.name!r}")
            if isinstance(call.arg, ast.Star):
                if call.name != "COUNT":
                    raise CompileError(f"{call.name}(*) is not valid")
                arg: Optional[TypedExpr] = None
                result_type = INTEGER
                cache_key = ("count_star", call.distinct)
            else:
                if ast.contains_aggregate(call.arg):
                    raise CompileError("aggregates cannot be nested")
                arg = self._bind_row(call.arg, scope)
                result_type = aggregate.result_type(arg.data_type)
                cache_key = (call.name, call.distinct, arg.key())
            cached = agg_cache.get(cache_key)
            if cached is not None:
                return cached
            output = OutputColumn(
                next(self._ids), call.name.lower(), result_type
            )
            agg_specs.append(AggSpec(aggregate, arg, output, call.distinct))
            var = output.var()
            agg_cache[cache_key] = var
            return var

        def bind_grouped(expr: ast.Expression) -> TypedExpr:
            if isinstance(expr, ast.AggregateCall):
                return bind_aggregate(expr)
            if not ast.contains_aggregate(expr) and not isinstance(expr, ast.Star):
                bound = self._bind_row(expr, scope)
                matched = group_map.get(bound.key())
                if matched is not None:
                    return matched
                if not bound.column_ids:
                    return bound  # constant expression
                if isinstance(expr, ast.ColumnRef):
                    raise CompileError(
                        f"column {expr.column!r} must appear in GROUP BY or "
                        f"inside an aggregate"
                    )
            if isinstance(expr, ast.BinaryOp):
                left = bind_grouped(expr.left)
                right = bind_grouped(expr.right)
                if expr.op in ("AND", "OR"):
                    return BoolExpr(expr.op, left, right)
                return BinaryExpr(expr.op, left, right)
            if isinstance(expr, ast.UnaryOp):
                operand = bind_grouped(expr.operand)
                return NotExpr(operand) if expr.op == "NOT" else NegExpr(operand)
            if isinstance(expr, ast.IsNull):
                return IsNullExpr(bind_grouped(expr.operand), expr.negated)
            if isinstance(expr, ast.FunctionCall):
                builtin = lookup(expr.name)
                if builtin is None:
                    raise NameResolutionError(f"unknown function {expr.name!r}")
                return FuncExpr(builtin, [bind_grouped(arg) for arg in expr.args])
            if isinstance(expr, ast.Case):
                whens = [
                    (bind_grouped(cond), bind_grouped(value))
                    for cond, value in expr.whens
                ]
                otherwise = (
                    bind_grouped(expr.otherwise)
                    if expr.otherwise is not None
                    else None
                )
                return CaseExpr(whens, otherwise)
            if isinstance(expr, ast.InList):
                return self._bind_in_list(expr, bind_grouped)
            raise CompileError(
                f"expression {expr!r} is neither an aggregate nor in GROUP BY"
            )

        select_exprs: List[TypedExpr] = []
        names: List[str] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                raise CompileError("'*' is not allowed with GROUP BY/aggregates")
            select_exprs.append(bind_grouped(item.expr))
            names.append(item.alias or _default_name(item.expr, len(names)))

        having_expr = None
        if stmt.having is not None:
            having_expr = bind_grouped(stmt.having)
            if having_expr.data_type != BOOLEAN:
                raise TypeCheckError(
                    f"HAVING must be boolean, got {having_expr.data_type!r}"
                )

        plan = AggregateNode(plan, group_exprs, group_columns, agg_specs)
        if having_expr is not None:
            plan = FilterNode(plan, having_expr)
        return plan, select_exprs, names

    # -- helpers ----------------------------------------------------------------

    def _make_outputs(
        self, exprs: List[TypedExpr], names: List[str]
    ) -> List[OutputColumn]:
        used: Dict[str, int] = {}
        outputs = []
        for expr, name in zip(exprs, names):
            base = name
            count = used.get(base.lower(), 0)
            used[base.lower()] = count + 1
            if count:
                name = f"{base}_{count + 1}"
            outputs.append(OutputColumn(next(self._ids), name, expr.data_type))
        return outputs


def _default_name(expr: ast.Expression, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.column
    if isinstance(expr, ast.FunctionCall):
        return expr.name
    if isinstance(expr, ast.AggregateCall):
        return expr.name.lower()
    return f"col{index}"
