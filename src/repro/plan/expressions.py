"""Typed, executable expression trees.

The binder converts AST expressions into these nodes. Every node knows:

* its result :class:`~repro.types.DataType` (with vector/matrix dimensions
  inferred through templated signatures, section 4.2);
* how to evaluate itself against a row (a dict from column id to value);
* the work one evaluation is charged, read off its types as a per-row
  :class:`EvalCost` (:func:`row_cost`) — the same fields, priced the same
  way, that evaluating it over real values charges.

Columns are referenced by **column id** — a plan-wide unique integer
assigned at bind time — so that join reordering never has to renumber
expression slots.
"""

from __future__ import annotations

import threading
from functools import cached_property, reduce
from operator import add
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..columnar import (
    _INT_ADD_BOUND,
    _INT_MUL_BOUND,
    ColumnData,
    apply_rows,
    full_mask,
    truth,
)
from ..errors import ExecutionError, RuntimeTypeError, TypeCheckError
from ..la import (
    arithmetic_flops,
    arithmetic_result_type,
    comparison_result_type,
    python_operator,
)
from ..la.functions import BuiltinFunction
from ..types import BOOLEAN, DOUBLE, DataType, LabeledScalar, Matrix, Vector
from ..types.signature import runtime_shape_check
from ..types.scalar import DoubleType, IntegerType

Row = Dict[int, object]

#: largest int64 magnitude float64 can represent exactly; mixed
#: int/float comparisons above this must go through Python's exact path
_EXACT_FLOAT_INT = 2**53


def _int64_within(data: np.ndarray, valid: np.ndarray, bound: int) -> bool:
    """True when every selected value lies strictly inside ±bound (so a
    single vectorized add/sub cannot overflow int64)."""
    selected = data[valid]
    if not len(selected):
        return True
    return int(selected.min()) > -bound and int(selected.max()) < bound


def _int64_max_abs(data: np.ndarray, valid: np.ndarray) -> int:
    selected = data[valid]
    if not len(selected):
        return 0
    return max(abs(int(selected.min())), abs(int(selected.max())))


def _row_elements(column: ColumnData) -> Optional[float]:
    """Scalar elements per row of a column whose rows all have the same
    count — a typed scalar column or a tensor block — else None."""
    return None if column.is_object else float(column.cell_elements)


def slot_sums(offsets: np.ndarray, rows, amount=1) -> np.ndarray:
    """Per slot of a stage cut at ``offsets`` (slot ``s`` holds rows
    ``offsets[s]:offsets[s + 1]``), ``amount`` over the rows ``rows``
    selects — a boolean mask, row positions in any order, or a ``range``
    of every row: a count times a scalar ``amount``, or the running sum,
    row by row, of a list of one amount per selected row
    (``np.bincount``'s weights loop: the sum a per-partition loop keeps;
    not ``np.add.reduceat``, which gives an empty slot the next row's
    value, nor a pairwise ``np.sum``)."""
    if isinstance(rows, range):
        if not isinstance(amount, list):
            return (offsets[1:] - offsets[:-1]) * amount
        rows = np.ones(len(rows), np.bool_)
    rows = np.asarray(rows)
    masked = rows.dtype == np.bool_
    if not isinstance(amount, list) and masked:
        if rows.all():
            return (offsets[1:] - offsets[:-1]) * amount
        bounds = offsets.tolist()
        kept = [np.count_nonzero(rows[a:b]) for a, b in zip(bounds, bounds[1:])]
        return np.array(kept, dtype=np.int64) * amount
    codes = np.searchsorted(offsets, np.flatnonzero(rows) if masked else rows, "right")
    if not isinstance(amount, list):
        return np.bincount(codes - 1, minlength=len(offsets) - 1) * amount
    weights = np.asarray(amount, dtype=np.float64)  # (no rows come back as ints)
    return np.bincount(codes - 1, weights, len(offsets) - 1).astype(np.float64)


#: what an :class:`EvalCost` measures
COST_FIELDS = ("flops", "blas1_flops", "stream_bytes", "calls")


class EvalCost:
    """Accumulator for the *actual* work done while evaluating
    expressions over real values; the simulated cluster charges time from
    these numbers, so mispriced static estimates (unknown dimensions) never
    distort the simulation.

    Work is split into BLAS-3 flops (big cache-friendly kernels), BLAS-1/2
    flops (memory-bound dots/outers), streamed bytes (element-wise
    arithmetic and aggregation), and built-in function invocations (each
    costs one tuple-overhead, like a UDF call).

    Over a *stage* of several slots (one slot-ordered chunk, slot ``s``
    its rows ``offsets[s]:offsets[s + 1]``) it is a per-slot ledger: a
    field, once charged, holds one entry per slot, each the float a
    partition of its own accumulates — every charge goes through
    :meth:`add`."""

    __slots__ = COST_FIELDS + ("offsets",)

    def __init__(self, offsets: Optional[np.ndarray] = None):
        self.offsets = offsets if offsets is not None and len(offsets) > 2 else None
        self.flops = self.blas1_flops = self.stream_bytes = 0.0
        self.calls = 0

    def add(self, field: str, amount, rows=None) -> None:
        """Charge ``amount`` of ``field`` per row ``rows`` selects (see
        :func:`slot_sums`); ``rows`` None: once, for a row evaluated on
        its own."""
        if rows is not None and self.offsets is not None:
            amount = slot_sums(self.offsets, rows, amount)
        elif isinstance(amount, list):  # one slot: the running sum
            amount = reduce(add, amount, 0.0)
        elif rows is not None:  # one slot: a count times the amount
            masked = not isinstance(rows, range) and np.asarray(rows).dtype == np.bool_
            amount *= int(np.count_nonzero(rows)) if masked else len(rows)
        setattr(self, field, getattr(self, field) + amount)

    def split(self) -> List["EvalCost"]:
        """One plain EvalCost per slot, holding that slot's totals (a
        plain cost is its own one slot)."""
        if self.offsets is None:
            return [self]
        count = len(self.offsets) - 1
        fields = map(self.__getattribute__, COST_FIELDS)
        columns = [
            v.tolist() if isinstance(v, np.ndarray) else [v] * count for v in fields
        ]
        out = [EvalCost() for _ in range(count)]
        for cost, values in zip(out, zip(*columns)):
            cost.flops, cost.blas1_flops, cost.stream_bytes, cost.calls = values
        return out

    def hold(self, costs: List["EvalCost"]) -> "EvalCost":
        """This ledger holding ``costs``, one plain cost per slot (a
        plain cost: ``costs[0]``) — the inverse of :meth:`split`."""
        if self.offsets is None:
            return costs[0]
        for field in COST_FIELDS:
            setattr(self, field, np.array([getattr(cost, field) for cost in costs]))
        return self


def row_cost(
    exprs, rows: float = 1.0, cost: Optional[EvalCost] = None, types=None
) -> EvalCost:
    """The work evaluating ``exprs`` (None entries skipped) on ``rows``
    rows is charged, read off their types (a tensor of unknown dimensions
    at the default, or at its estimate's dims in ``types``, column id ->
    type; see :func:`refined_type`) and added to ``cost`` (None: a fresh
    one): the cost model's price of it. Each node prices what its
    evaluation over values charges, except that every branch of a CASE
    and both sides of AND/OR count."""
    cost = EvalCost() if cost is None else cost
    stack = [expr for expr in exprs if expr is not None]
    while stack:
        expr = stack.pop()
        work = expr.refined_work(types) if types else expr.own_work()
        for field, amount in work:
            cost.add(field, amount * rows)
        stack.extend(expr.children())
    return cost


def refined_type(expr: "TypedExpr", types) -> DataType:
    """``expr``'s type with the columns ``types`` names (column id ->
    type) at those types: a label aggregate's estimate fills in the dims
    its groups span (``CostModel.group_rule``), and the calls over it are
    typed again by their signatures. Estimates only — the bound type is
    untouched."""
    if isinstance(expr, ColumnVar):
        return types.get(expr.column_id, expr.data_type)
    if isinstance(expr, FuncExpr):
        args = [refined_type(arg, types) for arg in expr.args]
        try:
            return expr.builtin.bind(args)
        except TypeCheckError:
            return expr.data_type
    return expr.data_type


def _value_elements(value) -> float:
    """Number of scalar elements in a runtime value."""
    if isinstance(value, Vector):
        return float(value.length)
    if isinstance(value, Matrix):
        return float(value.rows * value.cols)
    return 1.0


class TypedExpr:
    """Base class for bound expressions."""

    data_type: DataType

    def evaluate(self, row: Row, cost: Optional[EvalCost] = None):
        raise NotImplementedError

    def evaluate_batch(
        self,
        batch,
        cost: Optional[EvalCost] = None,
        mask: Optional[np.ndarray] = None,
    ) -> ColumnData:
        """Evaluate over a :class:`~repro.engine.storage.Batch`.

        Returns one :class:`ColumnData` with an entry per batch row.
        ``mask`` marks the active rows; entries outside it are
        unspecified (null) and must never be read. Costs are charged
        only for active rows, matching what the per-row path would have
        charged row by row — see the equivalence contract in
        ``docs/ENGINE.md``.
        """
        raise NotImplementedError

    def children(self) -> Sequence["TypedExpr"]:
        return ()

    @property
    def column_ids(self) -> FrozenSet[int]:
        """All column ids this expression reads."""
        ids: set = set()
        stack: List[TypedExpr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, ColumnVar):
                ids.add(node.column_id)
            stack.extend(node.children())
        return frozenset(ids)

    def own_work(self) -> Tuple[Tuple[str, float], ...]:
        """``(EvalCost field, amount)`` this node alone (not its
        children) is charged per evaluation, read off its types."""
        return ()

    def refined_work(self, types) -> Tuple[Tuple[str, float], ...]:
        """:meth:`own_work` with its operands at their
        :func:`refined_type`."""
        return self.own_work()

    def key(self) -> Tuple:
        """A structural identity used to match GROUP BY expressions with
        select-list expressions."""
        raise NotImplementedError


class LiteralExpr(TypedExpr):
    def __init__(self, value, data_type: DataType):
        self.value = value
        self.data_type = data_type

    def evaluate(self, row: Row, cost: Optional[EvalCost] = None):
        return self.value

    def evaluate_batch(self, batch, cost=None, mask=None) -> ColumnData:
        return ColumnData.constant(self.value, batch.length)

    def key(self):
        return ("lit", repr(self.value))

    def __repr__(self):
        return f"Literal({self.value!r})"


class ParamCell:
    """Mutable holder for one named parameter's current value.

    Prepared statements and the plan cache bind parameters to cells
    instead of inlining them as literals, so a plan compiled once can be
    re-executed with fresh values. The binding is **thread-local**:
    statements admitted through the database's reader–writer gate
    genuinely execute concurrently, and two threads re-binding one
    cached plan's cells must not observe each other's values. A
    statement executes on the thread that bound its cells."""

    __slots__ = ("name", "_local")

    def __init__(self, name: str):
        self.name = name
        self._local = threading.local()

    @property
    def value(self):
        return getattr(self._local, "value", None)

    @property
    def bound(self) -> bool:
        return getattr(self._local, "bound", False)

    def set(self, value) -> None:
        self._local.value = value
        self._local.bound = True

    def __repr__(self):
        return f"ParamCell(:{self.name}={self.value!r})"


class ParamExpr(TypedExpr):
    """A named parameter resolved at execution time from a
    :class:`ParamCell` (prepared-statement placeholder). Its type is
    fixed at plan time from the first bound value; the plan cache keys on
    that type signature, so a value of a different shape compiles a new
    plan instead of mis-executing this one."""

    def __init__(self, name: str, data_type: DataType, cell: ParamCell):
        self.name = name
        self.data_type = data_type
        self.cell = cell

    def evaluate(self, row: Row, cost: Optional[EvalCost] = None):
        if not self.cell.bound:
            raise ExecutionError(
                f"parameter :{self.name} executed with no value bound"
            )
        return self.cell.value

    def evaluate_batch(self, batch, cost=None, mask=None) -> ColumnData:
        if not self.cell.bound:
            # the row path raises per evaluated row, so an unbound
            # parameter is an error only when active rows exist
            if batch.length and (mask is None or mask.any()):
                raise ExecutionError(
                    f"parameter :{self.name} executed with no value bound"
                )
            return ColumnData.constant(None, batch.length)
        return ColumnData.constant(self.cell.value, batch.length)

    def key(self):
        return ("param", self.name)

    def __repr__(self):
        return f"Param(:{self.name})"


class ColumnVar(TypedExpr):
    def __init__(self, column_id: int, data_type: DataType, name: str = ""):
        self.column_id = column_id
        self.data_type = data_type
        self.name = name

    def evaluate(self, row: Row, cost: Optional[EvalCost] = None):
        return row[self.column_id]

    def evaluate_batch(self, batch, cost=None, mask=None) -> ColumnData:
        return batch.col(self.column_id)

    def key(self):
        return ("col", self.column_id)

    def __repr__(self):
        return f"Col#{self.column_id}({self.name})"


class BinaryExpr(TypedExpr):
    """Arithmetic or comparison over two operands."""

    def __init__(self, op: str, left: TypedExpr, right: TypedExpr):
        self.op = op
        self.left = left
        self.right = right
        if op in ("+", "-", "*", "/"):
            self.data_type = arithmetic_result_type(op, left.data_type, right.data_type)
            self._bytes = 8.0 * arithmetic_flops(op, left.data_type, right.data_type)
        else:
            self.data_type = comparison_result_type(op, left.data_type, right.data_type)
            self._bytes = 8.0
        self._fn = python_operator(op)
        self._comparison = op not in ("+", "-", "*", "/")

    def evaluate(self, row: Row, cost: Optional[EvalCost] = None):
        left = self.left.evaluate(row, cost)
        right = self.right.evaluate(row, cost)
        if left is None or right is None:
            return None
        if cost is not None:
            elements = max(_value_elements(left), _value_elements(right))
            cost.add("stream_bytes", 8.0 * elements)
        if self.op in ("=", "<>", "!=", "<", ">", "<=", ">="):
            left = _plain(left)
            right = _plain(right)
        return self._fn(left, right)

    def evaluate_batch(self, batch, cost=None, mask=None) -> ColumnData:
        n = batch.length
        left = self.left.evaluate_batch(batch, cost, mask)
        right = self.right.evaluate_batch(batch, cost, mask)
        valid = full_mask(mask, n)
        if left.nulls is not None:
            valid = valid & ~left.nulls
        if right.nulls is not None:
            valid = valid & ~right.nulls
        if cost is not None:
            left_elements, right_elements = _row_elements(left), _row_elements(right)
            if left_elements is None or right_elements is None:
                left_values, right_values = left.pylist(), right.pylist()
                per_row = [
                    8.0
                    * max(
                        _value_elements(left_values[i]),
                        _value_elements(right_values[i]),
                    )
                    for i in np.flatnonzero(valid)
                ]
            else:
                # typed scalars and tensor blocks: every row has the same
                # element count (integral, so the product is exact)
                per_row = 8.0 * max(left_elements, right_elements)
            cost.add("stream_bytes", per_row, valid)
        if left.is_numeric and right.is_numeric:
            result = self._numeric_batch(left.data, right.data, valid)
            if result is not None:
                return ColumnData(result, ~valid)
        elif not self._comparison and (left.is_block or right.is_block):
            operands = _tensor_operands(left, right)
            if operands is not None:
                nulls = ~valid
                return ColumnData(apply_rows(self._fn, operands, nulls), nulls)
        out = np.empty(n, dtype=object)
        fn = self._fn
        left_values, right_values = left.pylist(), right.pylist()
        if self._comparison:
            for i in np.flatnonzero(valid):
                out[i] = fn(_plain(left_values[i]), _plain(right_values[i]))
        else:
            for i in np.flatnonzero(valid):
                out[i] = fn(left_values[i], right_values[i])
        return ColumnData(out, ~valid)

    def _numeric_batch(
        self, left: np.ndarray, right: np.ndarray, valid: np.ndarray
    ) -> Optional[np.ndarray]:
        """Vectorized kernel over float64/int64 operand arrays, or None
        when the per-row path must run instead (possible int64 overflow,
        division by zero, or a mixed comparison float64 cannot express
        exactly) — the guards keep results bit-identical to Python."""
        if self._comparison:
            if left.dtype != right.dtype:
                int_side = left if left.dtype == np.int64 else right
                if not _int64_within(int_side, valid, _EXACT_FLOAT_INT):
                    return None
            return self._fn(left, right)
        both_int = left.dtype == np.int64 and right.dtype == np.int64
        left = np.where(valid, left, 0)
        right = np.where(valid, right, 1 if self.op == "/" else 0)
        if self.op == "/":
            if np.any(right[valid] == 0):
                return None  # the per-row ``_div`` raises ExecutionError
            if not both_int:
                return left / right
            if not (
                _int64_within(left, valid, _INT_ADD_BOUND)
                and _int64_within(right, valid, _INT_ADD_BOUND)
            ):
                return None
            quotient = np.abs(left) // np.abs(right)
            return np.where((left >= 0) == (right >= 0), quotient, -quotient)
        if both_int:
            if self.op == "*":
                if (
                    _int64_max_abs(left, valid) * _int64_max_abs(right, valid)
                    >= _INT_MUL_BOUND
                ):
                    return None
            elif not (
                _int64_within(left, valid, _INT_ADD_BOUND)
                and _int64_within(right, valid, _INT_ADD_BOUND)
            ):
                return None
        if self.op == "+":
            return left + right
        if self.op == "-":
            return left - right
        return left * right

    def children(self):
        return (self.left, self.right)

    def own_work(self):
        return (("stream_bytes", self._bytes),)

    def key(self):
        return ("bin", self.op, self.left.key(), self.right.key())

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


def _tensor_operands(left: ColumnData, right: ColumnData) -> Optional[list]:
    """The operand arrays of element-wise arithmetic between two tensor
    blocks of one shape, or a block and a float64/int64 scalar column
    (each scalar meeting every entry of its row's cell — the same numpy
    ufunc ``Vector``/``Matrix`` arithmetic applies per row, so the
    result cells are bit-identical). None sends the pair down the
    per-row path, which also raises the row path's errors (VECTOR with
    MATRIX, differing shapes)."""
    if left.is_block and right.is_block:
        if left.data.shape != right.data.shape:
            return None
        return [left.data, right.data]
    block, scalar = (left, right) if left.is_block else (right, left)
    if not scalar.is_numeric:
        return None
    # int -> float64 is the conversion the scalar path's float() does
    spread = scalar.data.astype(np.float64, copy=False).reshape(
        (-1,) + (1,) * (block.data.ndim - 1)
    )
    return [block.data, spread] if left.is_block else [spread, block.data]


def _plain(value):
    """Strip labels before comparing."""
    if isinstance(value, LabeledScalar):
        return value.value
    return value


class BoolExpr(TypedExpr):
    """AND / OR with SQL three-valued logic reduced to two-valued by
    treating NULL as false (sufficient for this dialect)."""

    data_type = BOOLEAN

    def __init__(self, op: str, left: TypedExpr, right: TypedExpr):
        if op not in ("AND", "OR"):
            raise ValueError(op)
        for side in (left, right):
            if side.data_type != BOOLEAN:
                raise TypeCheckError(f"{op} requires boolean operands, got {side!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row: Row, cost: Optional[EvalCost] = None):
        left = bool(self.left.evaluate(row, cost))
        if self.op == "AND":
            return left and bool(self.right.evaluate(row, cost))
        return left or bool(self.right.evaluate(row, cost))

    def evaluate_batch(self, batch, cost=None, mask=None) -> ColumnData:
        n = batch.length
        left = truth(self.left.evaluate_batch(batch, cost, mask))
        active = full_mask(mask, n)
        if self.op == "AND":
            # the row path skips the right side when the left is falsy,
            # so the right is evaluated (and costed) only under the
            # narrowed mask
            narrowed = active & left
            result = np.zeros(n, dtype=np.bool_)
        else:
            narrowed = active & ~left
            result = left.copy()
        if narrowed.any():
            right = truth(self.right.evaluate_batch(batch, cost, narrowed))
            result[narrowed] = right[narrowed]
        return ColumnData(result)

    def children(self):
        return (self.left, self.right)

    def key(self):
        return ("bool", self.op, self.left.key(), self.right.key())

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class NotExpr(TypedExpr):
    data_type = BOOLEAN

    def __init__(self, operand: TypedExpr):
        if operand.data_type != BOOLEAN:
            raise TypeCheckError(f"NOT requires a boolean operand, got {operand!r}")
        self.operand = operand

    def evaluate(self, row: Row, cost: Optional[EvalCost] = None):
        return not bool(self.operand.evaluate(row, cost))

    def evaluate_batch(self, batch, cost=None, mask=None) -> ColumnData:
        return ColumnData(~truth(self.operand.evaluate_batch(batch, cost, mask)))

    def children(self):
        return (self.operand,)

    def key(self):
        return ("not", self.operand.key())

    def __repr__(self):
        return f"NOT {self.operand!r}"


class NegExpr(TypedExpr):
    """Unary minus."""

    def __init__(self, operand: TypedExpr):
        if not operand.data_type.is_numeric():
            raise TypeCheckError(f"unary minus on non-numeric {operand!r}")
        self.operand = operand
        data_type = operand.data_type
        if isinstance(data_type, IntegerType):
            self.data_type = data_type
        elif data_type.is_tensor():
            self.data_type = data_type
        else:
            self.data_type = DOUBLE

    def evaluate(self, row: Row, cost: Optional[EvalCost] = None):
        value = self.operand.evaluate(row, cost)
        if cost is not None and value is not None:
            cost.add("stream_bytes", 8.0 * _value_elements(value))
        return None if value is None else -value

    def evaluate_batch(self, batch, cost=None, mask=None) -> ColumnData:
        n = batch.length
        value = self.operand.evaluate_batch(batch, cost, mask)
        valid = full_mask(mask, n)
        if value.nulls is not None:
            valid = valid & ~value.nulls
        if cost is not None:
            elements = _row_elements(value)
            if elements is None:
                values = value.pylist()
                per_row = [
                    8.0 * _value_elements(values[i]) for i in np.flatnonzero(valid)
                ]
            else:
                per_row = 8.0 * elements
            cost.add("stream_bytes", per_row, valid)
        if value.is_numeric:
            data = np.where(valid, value.data, 0)
            if data.dtype != np.int64 or _int64_within(data, valid, _INT_ADD_BOUND):
                return ColumnData(-data, ~valid)
        elif value.is_block:
            nulls = ~valid
            return ColumnData(apply_rows(np.negative, [value.data], nulls), nulls)
        out = np.empty(n, dtype=object)
        values = value.pylist()
        for i in np.flatnonzero(valid):
            out[i] = -values[i]
        return ColumnData(out, ~valid)

    def children(self):
        return (self.operand,)

    def own_work(self):
        elements = arithmetic_flops("-", self.data_type, self.data_type)
        return (("stream_bytes", 8.0 * elements),)

    def key(self):
        return ("neg", self.operand.key())

    def __repr__(self):
        return f"-{self.operand!r}"


class IsNullExpr(TypedExpr):
    data_type = BOOLEAN

    def __init__(self, operand: TypedExpr, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def evaluate(self, row: Row, cost: Optional[EvalCost] = None):
        is_null = self.operand.evaluate(row, cost) is None
        return not is_null if self.negated else is_null

    def evaluate_batch(self, batch, cost=None, mask=None) -> ColumnData:
        nulls = self.operand.evaluate_batch(batch, cost, mask).null_mask()
        return ColumnData(~nulls if self.negated else nulls)

    def children(self):
        return (self.operand,)

    def key(self):
        return ("isnull", self.negated, self.operand.key())

    def __repr__(self):
        negation = " NOT" if self.negated else ""
        return f"{self.operand!r} IS{negation} NULL"


class CaseExpr(TypedExpr):
    """``CASE WHEN ... THEN ... [ELSE ...] END`` with typed branches.

    All branch values must share a type, except that plain numeric
    scalars promote to DOUBLE; a missing ELSE yields NULL.
    """

    def __init__(
        self,
        whens: List[Tuple[TypedExpr, TypedExpr]],
        otherwise: Optional[TypedExpr] = None,
    ):
        if not whens:
            raise TypeCheckError("CASE requires at least one WHEN branch")
        for condition, _ in whens:
            if condition.data_type != BOOLEAN:
                raise TypeCheckError(
                    f"CASE conditions must be boolean, got {condition!r}"
                )
        self.whens = list(whens)
        self.otherwise = otherwise
        branch_types = [value.data_type for _, value in whens]
        if otherwise is not None:
            branch_types.append(otherwise.data_type)
        self.data_type = _common_branch_type(branch_types)

    def evaluate(self, row: Row, cost: Optional[EvalCost] = None):
        for condition, value in self.whens:
            if condition.evaluate(row, cost):
                return value.evaluate(row, cost)
        if self.otherwise is not None:
            return self.otherwise.evaluate(row, cost)
        return None

    def evaluate_batch(self, batch, cost=None, mask=None) -> ColumnData:
        n = batch.length
        remaining = full_mask(mask, n).copy()
        out = np.empty(n, dtype=object)  # object arrays initialize to None
        nulls = np.ones(n, dtype=np.bool_)
        for condition, value in self.whens:
            if not remaining.any():
                break
            # conditions run in order, each over only the rows no earlier
            # branch claimed — the per-row path's sequential WHEN scan
            condition_truth = truth(
                condition.evaluate_batch(batch, cost, remaining)
            )
            matched = remaining & condition_truth
            if matched.any():
                column = value.evaluate_batch(batch, cost, matched)
                out[matched] = column.object_array()[matched]
                nulls[matched] = column.null_mask()[matched]
            remaining &= ~matched
        if self.otherwise is not None and remaining.any():
            column = self.otherwise.evaluate_batch(batch, cost, remaining)
            out[remaining] = column.object_array()[remaining]
            nulls[remaining] = column.null_mask()[remaining]
        return ColumnData(out, nulls)

    def children(self):
        out: List[TypedExpr] = []
        for condition, value in self.whens:
            out.append(condition)
            out.append(value)
        if self.otherwise is not None:
            out.append(self.otherwise)
        return tuple(out)

    def key(self):
        parts = tuple(
            (condition.key(), value.key()) for condition, value in self.whens
        )
        tail = self.otherwise.key() if self.otherwise is not None else None
        return ("case", parts, tail)

    def __repr__(self):
        inner = " ".join(
            f"WHEN {condition!r} THEN {value!r}" for condition, value in self.whens
        )
        if self.otherwise is not None:
            inner += f" ELSE {self.otherwise!r}"
        return f"CASE {inner} END"


def _common_branch_type(branch_types: List[DataType]) -> DataType:
    from ..types import common_numeric_type

    result = branch_types[0]
    for other in branch_types[1:]:
        if other == result:
            continue
        promoted = common_numeric_type(result, other)
        if promoted is None:
            raise TypeCheckError(
                f"CASE branches have incompatible types {result!r} and {other!r}"
            )
        result = promoted
    return result


def _operand_key(expr: TypedExpr):
    """``expr.key()`` when it names one value per row; a key of its own
    when it may name two (a tensor literal's key is its abbreviated
    repr)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, LiteralExpr) and isinstance(node.value, (Vector, Matrix)):
            return object()
        stack.extend(node.children())
    return expr.key()


class FuncExpr(TypedExpr):
    """A call to a built-in LA function; the result type was inferred by
    binding the templated signature against the argument types."""

    def __init__(self, builtin: BuiltinFunction, args: List[TypedExpr]):
        self.builtin = builtin
        self.args = list(args)
        self.data_type = builtin.bind([arg.data_type for arg in self.args])
        self._flops = builtin.estimate_flops([arg.data_type for arg in self.args])
        #: the EvalCost field its flops are charged to
        self._flop_field = "flops" if builtin.kind == "blas3" else "blas1_flops"
        #: (per-call flops, uniform[, shape check]) per argument form
        self._checks: Dict[tuple, tuple] = {}

    @cached_property
    def operand_of(self) -> Tuple[int, ...]:
        """Per argument, the index of its operand among the distinct
        argument expressions. A fused SUM stacks each distinct one once
        and hands the same array to every argument it feeds, so
        ``SUM(outer_product(v, v))`` is one ``syrk`` per step in every
        chunk form: decided here, from the expression, never from array
        identity."""
        keys = [_operand_key(arg) for arg in self.args]
        distinct = list(dict.fromkeys(keys))
        return tuple(distinct.index(key) for key in keys)

    @property
    def operand_args(self) -> Tuple[int, ...]:
        """Per distinct operand, the first argument that is it."""
        operands = len(set(self.operand_of))
        return tuple(self.operand_of.index(i) for i in range(operands))

    def call_args(self, row: Row, cost: Optional[EvalCost] = None):
        """The argument values of this call on one row, checked and
        charged as :meth:`evaluate` checks and charges them but not yet
        computed; None when an argument is NULL."""
        values = [arg.evaluate(row, cost) for arg in self.args]
        if any(value is None for value in values):
            return None
        if cost is not None:
            self._charge(cost, self.builtin.runtime_flops(values))
        ok, message = runtime_shape_check(self.builtin.signature, values)
        if not ok:
            raise RuntimeTypeError(message)
        return values

    def evaluate(self, row: Row, cost: Optional[EvalCost] = None):
        values = self.call_args(row, cost)
        return None if values is None else self.builtin.impl(*values)

    def step_products(self, *operands) -> np.ndarray:
        """The builtin's ``block_sum`` over step stacks of the distinct
        operands (``operand_of`` spreads them over the arguments): the
        kernel of a fused SUM over this call (``engine/aggregation.py``)."""
        return self.builtin.block_sum(*[operands[i] for i in self.operand_of])

    def _arguments(self, batch, cost, mask) -> tuple:
        """The argument columns, the mask of rows whose call is not NULL
        (None: every row) and their positions, and whether every call was
        checked and charged here already: typed scalar columns and tensor
        blocks give every row the same argument types and shapes by
        construction, so the shape check and the flop price of the first
        active row hold for all of them (integral per-call flops make
        count * per_flops equal the row path's running float sum
        exactly) — and, being functions of those types and shapes, are
        worked out once per form. Object columns (ragged, labelled or
        mixed cells) are left to a per-row check."""
        args = [arg.evaluate_batch(batch, cost, mask) for arg in self.args]
        valid = mask
        for column in args:
            if column.nulls is not None:
                valid = ~column.nulls if valid is None else valid & ~column.nulls
        indices = range(batch.length) if valid is None else np.flatnonzero(valid)
        if not len(indices) or any(column.is_object for column in args):
            return args, valid, indices, False
        rows = indices if valid is None else valid
        uniform = self._check_form(args, [indices[0]] * len(args), cost, rows)
        return args, valid, indices, uniform

    def _check_form(self, args, first, cost, rows) -> bool:
        """Check and charge, as one form, the calls on the rows ``rows``
        selects of the typed or block argument columns ``args`` — whose
        rows ``first`` hold the first call's arguments — and return True;
        or charge nothing and return False when their per-call flops are
        not integral, so each call is checked and charged on its own."""
        form = tuple((column.data.dtype, column.data.shape[1:]) for column in args)
        checked = self._checks.get(form)
        if checked is None:
            cells = [column.cell(row) for column, row in zip(args, first)]
            per_flops = self.builtin.runtime_flops(cells)
            checked = (per_flops, float(per_flops).is_integer())
            if checked[1]:
                checked += runtime_shape_check(self.builtin.signature, cells)
            self._checks[form] = checked
        per_flops, uniform = checked[:2]
        if uniform:
            ok, message = checked[2:]
            if not ok:
                raise RuntimeTypeError(message)
            self._charge(cost, per_flops, rows)
        return uniform

    def evaluate_batch(self, batch, cost=None, mask=None) -> ColumnData:
        """One block kernel call when the builtin has one and every
        argument is a tensor block (NULL rows never reach it), else the
        scalar ``impl`` per row."""
        n = batch.length
        args, valid, indices, checked = self._arguments(batch, cost, mask)
        if not len(indices):
            return ColumnData.constant(None, n)
        builtin = self.builtin
        if checked and builtin.block_impl is not None and all(
            column.is_block for column in args
        ):
            nulls = None if len(indices) == n else ~valid
            blocks = [column.data for column in args]
            return ColumnData(apply_rows(builtin.block_impl, blocks, nulls), nulls)
        results: list = [None] * n
        arg_values = [column.pylist() for column in args]
        if checked:
            impl = builtin.impl
            for i in indices:
                results[i] = impl(*[values[i] for values in arg_values])
        else:
            # each call runs the same shape check + kernel the row path runs
            runtime_flops = builtin.runtime_flops
            flops = []
            for i in indices:
                values = [column[i] for column in arg_values]
                if cost is not None:
                    flops.append(runtime_flops(values))
                results[i] = builtin(*values)
            self._charge(cost, flops, indices)
        return ColumnData.from_values(results)

    def evaluate_tile(self, probe, build, keep, cost) -> Optional[ColumnData]:
        """This call on every (probe row, build row) pair of a nested-loop
        join's pair stage at once, as one column over the pairs, probe
        row major — or None (and nothing charged) unless every argument
        is a column of ``probe`` or of ``build`` held as a tensor block and
        the builtin has a ``block_impl``. The kernel takes the probe
        blocks as ``(p, 1, …)`` and the build blocks as ``(1, b, …)``, so
        numpy runs per pair the routine it runs per row of a joined
        chunk: the same bits, with no pair gathered. The calls on the
        pairs ``keep`` marks (None: all) are checked and charged as
        :meth:`evaluate_batch` over the joined rows checks and charges
        them; ``cost`` is a ledger over those rows."""
        if self.builtin.block_impl is None:
            return None
        sides = []
        for arg in self.args:
            if not isinstance(arg, ColumnVar):
                return None
            axis = 0 if arg.column_id in probe.index else 1
            if arg.column_id not in (probe, build)[axis].index:
                return None  # a tile: its pairs are not one side's rows
            column = (probe, build)[axis].col(arg.column_id)
            if not column.is_block:
                return None
            sides.append((axis, column))
        shape = (len(probe), len(build))
        valid = keep  # the pairs whose call is not NULL (None: every pair)
        for axis, column in sides:
            if column.nulls is not None:
                live = ~(column.nulls[:, None] if axis == 0 else column.nulls[None])
                live = np.broadcast_to(live, shape).reshape(-1)
                valid = live if valid is None else valid & live
        count = shape[0] * shape[1]
        first = 0 if valid is None or not count else int(valid.argmax())
        if not count or (valid is not None and not valid[first]):
            return ColumnData.constant(None, count)
        if valid is None or valid is keep:  # no NULL argument: every kept pair
            rows = range(count if keep is None else int(np.count_nonzero(keep)))
        else:
            rows = valid if keep is None else valid[keep]
        at = divmod(first, shape[1])
        args = [column for _, column in sides]
        if not self._check_form(args, [at[axis] for axis, _ in sides], cost, rows):
            return None
        tile = self.builtin.block_impl(*[
            column.data[:, None] if axis == 0 else column.data[None]
            for axis, column in sides
        ])
        cell = tile.shape[2:]
        if tile.shape[:2] != shape:  # every argument on one side
            tile = np.broadcast_to(tile, shape + cell)
        nulls = None if valid is None else ~valid
        return ColumnData(tile.reshape((count,) + cell), nulls)

    def sum_operands(self, batch, cost=None) -> tuple:
        """What a fused SUM over this call folds (``Batch.partial_aggregate``):
        per distinct operand (``operand_args``) its tensor block, or the
        list of its Python values for an object column, and the mask of
        rows whose call is not NULL (None: every row). Every call is
        checked and charged as :meth:`evaluate_batch` checks and charges
        it; none is computed."""
        args, valid, indices, checked = self._arguments(batch, cost, None)
        if len(indices) and not checked:
            arg_values = [column.pylist() for column in args]
            builtin, flops = self.builtin, []
            for i in indices:
                values = [column[i] for column in arg_values]
                if cost is not None:
                    flops.append(builtin.runtime_flops(values))
                ok, message = runtime_shape_check(builtin.signature, values)
                if not ok:
                    raise RuntimeTypeError(message)
            self._charge(cost, flops, indices)
        operands = [
            args[i].data if args[i].is_block else args[i].pylist()
            for i in self.operand_args
        ]
        return operands, None if len(indices) == batch.length else valid

    def _charge(self, cost: Optional[EvalCost], flops, rows=None) -> None:
        """One invocation per row ``rows`` selects (None: one call on its
        own), costing ``flops`` each — one price, or a list with one per
        call."""
        if cost is None:
            return
        cost.add("calls", 1, rows)
        cost.add(self._flop_field, flops, rows)

    def children(self):
        return tuple(self.args)

    def own_work(self):
        return (("calls", 1), (self._flop_field, self._flops))

    def refined_work(self, types):
        refined = [refined_type(arg, types) for arg in self.args]
        flops = self.builtin.estimate_flops(refined)
        return (("calls", 1), (self._flop_field, flops))

    def key(self):
        return ("fn", self.builtin.name, tuple(arg.key() for arg in self.args))

    def __repr__(self):
        inner = ", ".join(repr(arg) for arg in self.args)
        return f"{self.builtin.name}({inner})"


def conjuncts(expr: Optional[TypedExpr]) -> List[TypedExpr]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BoolExpr) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def and_together(parts: Sequence[TypedExpr]) -> Optional[TypedExpr]:
    """Combine conjuncts back into one predicate (None when empty)."""
    result: Optional[TypedExpr] = None
    for part in parts:
        result = part if result is None else BoolExpr("AND", result, part)
    return result


def remap_columns(expr: TypedExpr, mapping: Dict[int, TypedExpr]) -> TypedExpr:
    """Rewrite an expression, substituting column vars via ``mapping``.

    Used when inlining views and pre-projections. Columns not in the
    mapping are left as-is.
    """
    if isinstance(expr, ColumnVar):
        replacement = mapping.get(expr.column_id)
        return replacement if replacement is not None else expr
    if isinstance(expr, (LiteralExpr, ParamExpr)):
        return expr
    if isinstance(expr, BinaryExpr):
        return BinaryExpr(
            expr.op,
            remap_columns(expr.left, mapping),
            remap_columns(expr.right, mapping),
        )
    if isinstance(expr, BoolExpr):
        return BoolExpr(
            expr.op,
            remap_columns(expr.left, mapping),
            remap_columns(expr.right, mapping),
        )
    if isinstance(expr, NotExpr):
        return NotExpr(remap_columns(expr.operand, mapping))
    if isinstance(expr, NegExpr):
        return NegExpr(remap_columns(expr.operand, mapping))
    if isinstance(expr, IsNullExpr):
        return IsNullExpr(remap_columns(expr.operand, mapping), expr.negated)
    if isinstance(expr, FuncExpr):
        return FuncExpr(
            expr.builtin, [remap_columns(arg, mapping) for arg in expr.args]
        )
    if isinstance(expr, CaseExpr):
        return CaseExpr(
            [
                (remap_columns(condition, mapping), remap_columns(value, mapping))
                for condition, value in expr.whens
            ],
            remap_columns(expr.otherwise, mapping)
            if expr.otherwise is not None
            else None,
        )
    raise ExecutionError(f"cannot remap expression {expr!r}")
