"""Aggregate functions, including the paper's type-construction aggregates.

The standard SQL aggregates are overloaded over the new types (section
3.2): ``SUM`` over a MATRIX column performs entry-by-entry addition, which
is what makes ``SELECT SUM(outer_product(vec, vec)) FROM v`` a one-line
Gram-matrix computation.

Three special aggregates construct tensors from labeled parts (section
3.3):

* ``VECTORIZE`` over LABELED_SCALAR values builds a VECTOR whose length is
  the largest label seen; holes become zero;
* ``ROWMATRIX`` over labeled VECTORs builds a MATRIX using each vector as
  the row named by its label;
* ``COLMATRIX`` does the same with columns.

Labels are 1-based. Every aggregate is one protocol: ``create`` a
state, ``add`` a value to it, and ``finish`` it; its partial states merge
so the engine can run distributed partial aggregation before the
shuffle. A merge is one more fold: each aggregate names the aggregate
whose ``add`` chain merges its states (``merger``), each state added as
a value — SUM, MIN and MAX by their own, COUNT's counts by SUM's, AVG's
``(sum, count)`` pairs added pairwise, the label dicts united into a
fresh one. ``AGG(DISTINCT x)`` folds through :class:`Distinct`, whose
states are value sets with every NaN one value (:func:`one_value`),
united into a fresh set. This module defines those steps (and ``sum_block``, SUM's
order-preserving form over a tensor block); the order they are applied
in is decided by their only caller, :mod:`repro.engine.aggregation`.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, Optional

import numpy as np

from ..errors import ExecutionError, RuntimeTypeError, TypeCheckError
from ..types import (
    DOUBLE,
    INTEGER,
    DataType,
    DoubleType,
    IntegerType,
    LabeledScalar,
    LabeledScalarType,
    Matrix,
    MatrixType,
    StringType,
    Vector,
    VectorType,
    key_bytes,
)
from .functions import allocate

#: the object every float NaN is looked up as: a ``dict`` or ``set``
#: finds a key by identity before ``==``, and NaN equals nothing
NAN = float("nan")


class NanCells:
    """A tensor holding a NaN cell, as a key or a DISTINCT value: equal
    to another of its kind and shape whose cells are equal, every NaN
    one value (as a float NaN is one key)."""

    __slots__ = ("value", "key")

    def __init__(self, value):
        self.value = value
        self.key = (type(value), value.data.shape, key_bytes(value.data))

    def __eq__(self, other) -> bool:
        return type(other) is NanCells and self.key == other.key

    def __hash__(self):
        return hash(self.key)


def one_value(value):
    """What ``value`` is looked up as in GROUP BY, DISTINCT and a
    DISTINCT value set (docs/SQL.md): every float NaN :data:`NAN`, a
    tensor holding a NaN its :class:`NanCells`, any other value — one
    that equals itself — itself."""
    if value == value:
        return value
    if isinstance(value, float):
        return NAN
    return NanCells(value) if isinstance(value, (Vector, Matrix)) else value


class Aggregate:
    """Base class; one instance per (aggregate, input type) is stateless —
    state lives in the accumulator objects the methods pass around."""

    name = "AGGREGATE"

    def result_type(self, arg_type: DataType) -> DataType:
        """Result type for the given input type; raises TypeCheckError when
        the overload does not exist."""
        raise NotImplementedError

    def create(self):
        """A fresh accumulator (None means 'no input seen yet')."""
        return None

    def add(self, state, value):
        raise NotImplementedError

    @property
    def merger(self) -> "Aggregate":
        """The aggregate whose ``add`` chain, from its own ``create()``,
        merges this one's partial states, each state added as a value;
        this one's ``finish`` then finishes the merged state. SUM, MIN
        and MAX merge by their own."""
        return self

    def finish(self, state):
        return state


def _numeric(value):
    if isinstance(value, LabeledScalar):
        return value.value
    return value


class SumAggregate(Aggregate):
    name = "SUM"

    def result_type(self, arg_type: DataType) -> DataType:
        if isinstance(arg_type, IntegerType):
            return INTEGER
        if isinstance(arg_type, (DoubleType, LabeledScalarType)):
            return DOUBLE
        if arg_type.is_tensor():
            return arg_type
        raise TypeCheckError(f"SUM is not defined over {arg_type!r}")

    def add(self, state, value):
        value = _numeric(value)
        if value is None:
            return state
        return value if state is None else state + value


def check_carried(start: np.ndarray, cell_shape: tuple) -> None:
    """A carried SUM state continues only over cells of its own shape —
    the structured error the ``add`` chain raises on such a pair."""
    if start.shape != cell_shape:
        raise RuntimeTypeError(
            f"SUM: element-wise addition of tensors of different shapes: "
            f"{start.shape} vs {cell_shape}"
        )


def sum_block(block: np.ndarray, start: Optional[np.ndarray] = None) -> np.ndarray:
    """SUM over the first axis of a C-contiguous tensor block, in the
    canonical order: the sequential per-row fold ``((c0 + c1) + c2) + …``
    that the ``SumAggregate.add`` chain performs (docs/ENGINE.md,
    "Tensor columns"). numpy's axis-0 reduce over ``(n, …)`` cells *is*
    that fold — it adds whole rows into the output one after the other —
    given ``-0.0`` as the start value (the default ``0.0`` would turn a
    sum of ``-0.0`` cells into ``+0.0``; ``-0.0 + x`` is ``x`` for every
    ``x``). The exception is a cell with a single element: the reduce
    axis is then contiguous and numpy switches to pairwise summation, so
    that shape goes through ``cumsum``, which is sequential by
    definition. ``start``, the array of a carried state, is folded as
    row 0 of the block: the chain continues ``((start + c0) + c1) + …``."""
    if start is not None:
        check_carried(start, block.shape[1:])
        block = np.concatenate([start[None], block])
    if block[0].size == 1:
        return np.cumsum(block.reshape(-1))[-1].reshape(block.shape[1:])
    return np.add.reduce(block, axis=0, initial=-0.0)


class CountAggregate(Aggregate):
    name = "COUNT"

    def result_type(self, arg_type: DataType) -> DataType:
        return INTEGER

    def create(self):
        return 0

    #: a COUNT state is a count: states merge as SUM adds them
    merger = SumAggregate()

    def add(self, state, value):
        return state + (0 if value is None else 1)


class MinAggregate(Aggregate):
    """MIN over scalars; over VECTOR/MATRIX it is *element-wise* (the same
    overloading convention that makes SUM entry-by-entry, section 3.2),
    which the blocked distance computation relies on."""

    name = "MIN"
    _np_pick = staticmethod(np.minimum)

    def result_type(self, arg_type: DataType) -> DataType:
        if isinstance(arg_type, (IntegerType, DoubleType, StringType)):
            return arg_type
        if isinstance(arg_type, LabeledScalarType):
            return DOUBLE
        if arg_type.is_tensor():
            return arg_type
        raise TypeCheckError(f"{self.name} is not defined over {arg_type!r}")

    def _pick_pair(self, state, value):
        if isinstance(state, Vector) or isinstance(value, Vector):
            if not isinstance(state, Vector) or not isinstance(value, Vector):
                raise RuntimeTypeError(f"{self.name}: mixed vector/scalar inputs")
            if state.length != value.length:
                raise RuntimeTypeError(
                    f"{self.name}: vector lengths differ "
                    f"({state.length} vs {value.length})"
                )
            return Vector(type(self)._np_pick(state.data, value.data))
        if isinstance(state, Matrix) or isinstance(value, Matrix):
            if not isinstance(state, Matrix) or not isinstance(value, Matrix):
                raise RuntimeTypeError(f"{self.name}: mixed matrix/scalar inputs")
            if state.shape != value.shape:
                raise RuntimeTypeError(
                    f"{self.name}: matrix shapes differ "
                    f"({state.shape} vs {value.shape})"
                )
            return Matrix(type(self)._np_pick(state.data, value.data))
        if self.name == "MIN":
            return min(state, value)
        return max(state, value)

    def add(self, state, value):
        value = _numeric(value)
        if value is None:
            return state
        return value if state is None else self._pick_pair(state, value)


class MaxAggregate(MinAggregate):
    name = "MAX"
    _np_pick = staticmethod(np.maximum)


class PairSum(Aggregate):
    """AVG's merger: ``(sum, count)`` pairs added pairwise."""

    name = "PAIR_SUM"

    def add(self, state, value):
        if value is None:
            return state
        return value if state is None else (state[0] + value[0], state[1] + value[1])


class DictUnion(Aggregate):
    """The label aggregates' merger: dicts united into a fresh one (a
    later state's label wins), so no partial state is written."""

    name = "DICT_UNION"

    def create(self):
        return {}

    def add(self, state, value):
        state.update(value)
        return state


class SetUnion(Aggregate):
    """DISTINCT's merger: value sets united into a fresh one, re-read
    through ``one_value`` (a set that crossed a spill file holds NaN
    objects of its own), so no partial state is written."""

    name = "SET_UNION"

    def create(self):
        return set()

    def add(self, state, value):
        state.update(v if v == v else one_value(v) for v in value)
        return state


class Distinct(Aggregate):
    """``AGG(DISTINCT x)``: its state is the group's set of non-NULL
    values, each as :func:`one_value` looks it up; ``finish`` runs
    ``aggregate``'s ``add`` chain over the set, then its ``finish``."""

    name = "DISTINCT"
    merger = SetUnion()

    def __init__(self, aggregate: Aggregate):
        self.aggregate = aggregate

    def create(self):
        return set()

    def add(self, state, value):
        if value is not None:  # a value equal to itself is its own key
            state.add(value if value == value else one_value(value))
        return state

    def finish(self, state):
        inner = self.aggregate
        values = (v.value if type(v) is NanCells else v for v in state)
        return inner.finish(reduce(inner.add, values, inner.create()))


class AvgAggregate(Aggregate):
    """AVG decomposes into (SUM, COUNT) so it can still be partially
    aggregated before the shuffle."""

    name = "AVG"
    merger = PairSum()

    def result_type(self, arg_type: DataType) -> DataType:
        if isinstance(arg_type, (IntegerType, DoubleType, LabeledScalarType)):
            return DOUBLE
        if arg_type.is_tensor():
            return arg_type
        raise TypeCheckError(f"AVG is not defined over {arg_type!r}")

    def add(self, state, value):
        value = _numeric(value)
        if value is None:
            return state
        if state is None:
            return (value, 1)
        total, count = state
        return (total + value, count + 1)

    def finish(self, state):
        if state is None:
            return None
        total, count = state
        return total / count


class VectorizeAggregate(Aggregate):
    """Build a VECTOR from LABELED_SCALAR values (paper section 3.3)."""

    name = "VECTORIZE"
    merger = DictUnion()

    def result_type(self, arg_type: DataType) -> DataType:
        if not isinstance(arg_type, LabeledScalarType):
            raise TypeCheckError(
                f"VECTORIZE requires a LABELED_SCALAR input (build one with "
                f"label_scalar), got {arg_type!r}"
            )
        return VectorType(None)

    def create(self):
        return {}

    def add(self, state: Dict[int, float], value):
        if value is None:
            return state
        if not isinstance(value, LabeledScalar):
            raise RuntimeTypeError(
                f"VECTORIZE expects LABELED_SCALAR values, got {type(value).__name__}"
            )
        if value.label < 1:
            raise ExecutionError(
                f"VECTORIZE: label {value.label} is not a valid 1-based "
                f"position; use label_scalar to set it"
            )
        state[value.label] = value.value
        return state

    def finish(self, state: Optional[Dict[int, float]]):
        if not state:
            return None
        data = allocate(self.name, np.zeros, (max(state),))
        for label, value in state.items():
            data[label - 1] = value
        return Vector(data)


class _MatrixFromVectors(Aggregate):
    """Shared machinery for ROWMATRIX and COLMATRIX."""

    #: 'row' or 'col'
    orientation = "row"
    merger = DictUnion()

    def result_type(self, arg_type: DataType) -> DataType:
        if not isinstance(arg_type, VectorType):
            raise TypeCheckError(
                f"{self.name} requires VECTOR inputs, got {arg_type!r}"
            )
        if self.orientation == "row":
            return MatrixType(None, arg_type.length)
        return MatrixType(arg_type.length, None)

    def create(self):
        return {}

    def add(self, state: Dict[int, Vector], value):
        if value is None:
            return state
        if not isinstance(value, Vector):
            raise RuntimeTypeError(
                f"{self.name} expects VECTOR values, got {type(value).__name__}"
            )
        if value.label < 1:
            raise ExecutionError(
                f"{self.name}: vector label {value.label} is not a valid "
                f"1-based position; set it with label_vector"
            )
        state[value.label] = value
        return state

    def finish(self, state: Optional[Dict[int, Vector]]):
        if not state:
            return None
        lengths = {vector.length for vector in state.values()}
        if len(lengths) != 1:
            raise RuntimeTypeError(
                f"{self.name}: input vectors have differing lengths {sorted(lengths)}"
            )
        data = allocate(self.name, np.zeros, (max(state), lengths.pop()))
        for label, vector in state.items():
            data[label - 1] = vector.data
        return Matrix(data if self.orientation == "row" else data.T.copy())


class RowMatrixAggregate(_MatrixFromVectors):
    name = "ROWMATRIX"
    orientation = "row"


class ColMatrixAggregate(_MatrixFromVectors):
    name = "COLMATRIX"
    orientation = "col"


_AGGREGATES: Dict[str, Aggregate] = {
    agg.name: agg
    for agg in (
        SumAggregate(),
        CountAggregate(),
        MinAggregate(),
        MaxAggregate(),
        AvgAggregate(),
        VectorizeAggregate(),
        RowMatrixAggregate(),
        ColMatrixAggregate(),
    )
}


def lookup_aggregate(name: str) -> Optional[Aggregate]:
    """Find an aggregate by (case-insensitive) name, or None."""
    return _AGGREGATES.get(name.upper())


def is_aggregate_name(name: str) -> bool:
    return name.upper() in _AGGREGATES
