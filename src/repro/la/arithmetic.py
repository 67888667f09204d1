"""Typing and costing rules for overloaded arithmetic (paper section 3.2).

``+ - * /`` are overloaded over MATRIX and VECTOR types: tensor-tensor is
element-wise (``*`` is the Hadamard product), scalar-tensor applies the
operation to every entry. Mixing a VECTOR with a MATRIX is a compile
error. The runtime behaviour itself lives on the value classes in
:mod:`repro.types.tensor`; this module provides the *static* rules used by
the binder and the optimizer.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from ..errors import ExecutionError, TypeCheckError
from ..types import (
    BOOLEAN,
    DOUBLE,
    DataType,
    MatrixType,
    StringType,
    VectorType,
    common_numeric_type,
)
from ..types.scalar import DEFAULT_UNKNOWN_DIM

ARITHMETIC_OPS = {"+", "-", "*", "/"}
COMPARISON_OPS = {"=", "<>", "!=", "<", ">", "<=", ">="}

def _div(left, right):
    """SQL-style division: integer/integer truncates toward zero, exactly
    what the paper's blocking query ``x.id/1000 = ind.mi`` relies on. A
    scalar divided by zero is an ``ExecutionError``; a tensor operand
    keeps IEEE ``inf``/``nan`` (docs/SQL.md)."""
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        if right == 0:
            raise ExecutionError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            quotient = abs(left) // abs(right)
            return quotient if (left >= 0) == (right >= 0) else -quotient
    return left / right


_PY_ARITHMETIC: dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
}

_PY_COMPARISON: dict[str, Callable] = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def python_operator(op: str) -> Callable:
    """The runtime callable implementing a SQL binary operator."""
    fn = _PY_ARITHMETIC.get(op) or _PY_COMPARISON.get(op)
    if fn is None:
        raise KeyError(f"unknown operator {op!r}")
    return fn


def _merge_dim(left: Optional[int], right: Optional[int], what: str) -> Optional[int]:
    if left is not None and right is not None:
        if left != right:
            raise TypeCheckError(
                f"element-wise arithmetic on tensors with different {what}: "
                f"{left} vs {right}"
            )
        return left
    return left if left is not None else right


def arithmetic_result_type(op: str, left: DataType, right: DataType) -> DataType:
    """Result type of ``left op right`` for an arithmetic operator, or a
    :class:`TypeCheckError` when the combination is not defined."""
    if op not in ARITHMETIC_OPS:
        raise KeyError(f"not an arithmetic operator: {op!r}")

    scalar = common_numeric_type(left, right)
    if scalar is not None:
        return scalar

    left_tensor, right_tensor = left.is_tensor(), right.is_tensor()
    if left_tensor and right_tensor:
        if isinstance(left, VectorType) and isinstance(right, VectorType):
            return VectorType(_merge_dim(left.length, right.length, "lengths"))
        if isinstance(left, MatrixType) and isinstance(right, MatrixType):
            rows = _merge_dim(left.rows, right.rows, "row counts")
            cols = _merge_dim(left.cols, right.cols, "column counts")
            return MatrixType(rows, cols)
        raise TypeCheckError(
            f"arithmetic between {left!r} and {right!r} is not defined; "
            f"convert with row_matrix()/col_matrix() first"
        )
    if left_tensor or right_tensor:
        tensor, other = (left, right) if left_tensor else (right, left)
        if other.is_numeric():
            return tensor
        raise TypeCheckError(
            f"arithmetic between {tensor!r} and non-numeric {other!r}"
        )
    raise TypeCheckError(f"arithmetic between {left!r} and {right!r}")


def comparison_result_type(op: str, left: DataType, right: DataType) -> DataType:
    """Comparisons yield BOOLEAN; tensors only support (in)equality."""
    if op not in COMPARISON_OPS:
        raise KeyError(f"not a comparison operator: {op!r}")
    if left.is_tensor() or right.is_tensor():
        if op not in ("=", "<>", "!="):
            raise TypeCheckError(f"ordering comparison {op!r} on {left!r}")
        if type(left) is not type(right):
            raise TypeCheckError(f"cannot compare {left!r} with {right!r}")
        return BOOLEAN
    if isinstance(left, StringType) != isinstance(right, StringType):
        raise TypeCheckError(f"cannot compare {left!r} with {right!r}")
    if left == BOOLEAN or right == BOOLEAN:
        if left != right:
            raise TypeCheckError(f"cannot compare {left!r} with {right!r}")
    return BOOLEAN


def arithmetic_flops(op: str, left: DataType, right: DataType) -> float:
    """FLOPs charged for one evaluation of ``left op right``."""

    def elements(data_type: DataType) -> float:
        if isinstance(data_type, VectorType):
            return float(
                data_type.length if data_type.length is not None else DEFAULT_UNKNOWN_DIM
            )
        if isinstance(data_type, MatrixType):
            rows = data_type.rows if data_type.rows is not None else DEFAULT_UNKNOWN_DIM
            cols = data_type.cols if data_type.cols is not None else DEFAULT_UNKNOWN_DIM
            return float(rows * cols)
        return 1.0

    return max(elements(left), elements(right))
