"""Columnar value representation shared by the batch execution path.

A :class:`ColumnData` holds one column of a batch: a numpy array plus an
optional null mask, in one of three physical forms chosen from the
values alone:

* **typed scalar** — a 1-d ``float64``/``int64``/``bool_`` array, when
  every value is exactly the same Python scalar type, so expression
  evaluation runs as numpy kernels;
* **tensor block** — one C-contiguous ``float64`` array of shape
  ``(n, d)`` (VECTOR cells) or ``(n, r, c)`` (MATRIX cells), when every
  non-NULL cell is a default-label ``Vector`` of one length or a
  ``Matrix`` of one shape. Shape uniformity is a construction invariant:
  the LA block kernels, the byte accounting and SUM read the shape off
  ``data.shape`` once instead of re-proving it per row. NULL rows hold
  zeros and are marked in the mask. Blocks are read-only — a table
  segment's cached columns share them across queries, and the ``Vector``/
  ``Matrix`` values :meth:`ColumnData.pylist` hands out are views;
* **object** — everything else (strings, LABELED_SCALAR, NULL-bearing
  or mixed int/float scalars, ragged or labelled tensor cells),
  processed by per-row fallback loops that call exactly the same Python
  code the row-at-a-time interpreter runs.

The invariant that makes the row/batch equivalence contract hold (see
``docs/ENGINE.md``) is that materializing a column back to Python values
(:meth:`ColumnData.pylist`) is lossless: ``float64 -> float``,
``int64 -> int`` and ``bool_ -> bool`` conversions are exact, block rows
wrap back into ``Vector``/``Matrix`` values with the same bits, and
object columns return the original objects untouched. In particular the
runtime distinction between Python ``int`` and ``float`` values — which
decides SQL division semantics and hash placement — is preserved,
because a column is only promoted to a typed array when every value has
exactly the same Python scalar type.

This module deliberately imports nothing from ``repro.engine`` or
``repro.plan`` so both layers can use it without import cycles.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Callable, List, Optional, Sequence

import numpy as np

from .types import DEFAULT_LABEL, Matrix, Vector

#: int64 bound under which vectorized integer add/sub cannot overflow
#: (one binary op over two operands below 2**62 stays inside int64).
_INT_ADD_BOUND = 2**62
#: product bound for vectorized integer multiplication.
_INT_MUL_BOUND = 2**63


def wrap_cell(cell: np.ndarray):
    """One cell of a tensor block as the Python value it stands for (a
    view, not a copy)."""
    return Vector(cell) if cell.ndim == 1 else Matrix(cell)


_cell_label = attrgetter("label")
_cell_data = attrgetter("data")


def _tensor_block(values: Sequence) -> Optional["ColumnData"]:
    """The tensor-block form of ``values``, or None when the cells are
    not all default-label Vectors of one length / Matrices of one shape
    (NULLs aside). Runs once per scanned partition: a scalar column
    leaves at its first value, and every per-cell step over a tensor
    column is a C-level ``map``."""
    first = type(next((value for value in values if value is not None), None))
    if first is not Vector and first is not Matrix:
        return None
    kinds = set(map(type, values))
    has_nulls = type(None) in kinds
    kinds.discard(type(None))
    if kinds != {Vector} and kinds != {Matrix}:
        return None
    cells = [value for value in values if value is not None] if has_nulls else values
    if kinds == {Vector} and set(map(_cell_label, cells)) != {DEFAULT_LABEL}:
        return None
    arrays = list(map(_cell_data, cells))
    try:
        packed = np.array(arrays, dtype=np.float64)
    except ValueError:  # ragged: numpy refuses an inhomogeneous float array
        return None
    if not has_nulls:
        return ColumnData(packed)
    nulls = np.fromiter(
        (value is None for value in values), dtype=np.bool_, count=len(values)
    )
    block = np.zeros((len(values),) + packed.shape[1:])
    block[~nulls] = packed
    return ColumnData(block, nulls)


def apply_rows(
    kernel: Callable, blocks: Sequence[np.ndarray], nulls: Optional[np.ndarray]
) -> np.ndarray:
    """``kernel(*blocks)`` computed over the non-NULL rows only; NULL
    rows of the result hold zeros (the kernel never sees the unspecified
    data behind a null mask)."""
    if nulls is None or not nulls.any():
        return kernel(*blocks)
    rows = np.flatnonzero(~nulls)
    computed = kernel(*[block[rows] for block in blocks])
    out = np.zeros((len(nulls),) + computed.shape[1:], dtype=computed.dtype)
    out[rows] = computed
    return out


class ColumnData:
    """One column of a batch: values plus an optional null mask.

    ``data`` is a numpy array whose first axis has length ``n``: 1-d for
    typed-scalar and object columns, ``(n, d)`` / ``(n, r, c)`` float64
    for tensor blocks. ``nulls`` is either ``None`` (no SQL NULLs) or a
    boolean array marking NULL positions; for typed arrays and blocks
    the data at null positions is unspecified and must never be read
    without consulting ``nulls``. Object arrays store ``None`` directly
    at null positions as well, so per-row loops can consume them without
    a mask.
    """

    __slots__ = ("data", "nulls", "_pylist")

    def __init__(self, data: np.ndarray, nulls: Optional[np.ndarray] = None):
        if data.ndim > 1:
            # blocks are shared (a table segment's cached columns, the views
            # ``pylist`` hands out), so nothing may write into one
            data.flags.writeable = False
        self.data = data
        if nulls is not None and not nulls.any():
            nulls = None
        self.nulls = nulls
        self._pylist: Optional[list] = None

    # -- classification -----------------------------------------------------

    @property
    def is_object(self) -> bool:
        return self.data.dtype == object

    @property
    def is_block(self) -> bool:
        """True for tensor blocks (one contiguous array of cells)."""
        return self.data.ndim > 1

    @property
    def is_numeric(self) -> bool:
        """True for float64/int64 scalar columns (vectorizable arithmetic)."""
        return self.data.ndim == 1 and self.data.dtype in (np.float64, np.int64)

    @property
    def is_bool(self) -> bool:
        return self.data.dtype == np.bool_

    def typed_array(self) -> Optional[np.ndarray]:
        """The values as a 1-d ``int64``/``bool_``/``float64`` array when
        this is a typed scalar column without NULLs — the form the key
        kernels (``engine/keys.py``) sort and factorise — else None."""
        if self.nulls is None and self.data.ndim == 1 and self.data.dtype != object:
            return self.data
        return None

    @property
    def cell_elements(self) -> int:
        """Scalar elements per row: the cell size of a tensor block, 1
        for a scalar column (meaningless for object columns)."""
        return math.prod(self.data.shape[1:])

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def __iter__(self):
        return iter(self.pylist())

    # -- construction -------------------------------------------------------

    @classmethod
    def from_values(cls, values: Sequence) -> "ColumnData":
        """Build a column from Python values: a typed array only when
        every value is exactly the same scalar type, a tensor block when
        every non-NULL cell is a same-shaped tensor, else objects."""
        n = len(values)
        if n:
            first_type = type(values[0])
            if first_type in (float, int, bool) and set(map(type, values)) == {first_type}:
                if first_type is float:
                    return cls(np.asarray(values, dtype=np.float64))
                if first_type is bool:
                    return cls(np.asarray(values, dtype=np.bool_))
                try:
                    return cls(np.asarray(values, dtype=np.int64))
                except OverflowError:
                    pass  # arbitrary-precision ints stay objects
            block = _tensor_block(values)
            if block is not None:
                return block
        data = np.empty(n, dtype=object)
        nulls = np.zeros(n, dtype=np.bool_)
        for i, value in enumerate(values):
            if value is None:
                nulls[i] = True
            else:
                data[i] = value
        return cls(data, nulls)

    @classmethod
    def constant(cls, value, n: int) -> "ColumnData":
        """A column repeating one value (literal / bound parameter)."""
        if value is None:
            return cls(np.empty(n, dtype=object), np.ones(n, dtype=np.bool_))
        value_type = type(value)
        if value_type is float:
            return cls(np.full(n, value, dtype=np.float64))
        if value_type is bool:
            return cls(np.full(n, value, dtype=np.bool_))
        if value_type is int and -_INT_ADD_BOUND < value < _INT_ADD_BOUND:
            return cls(np.full(n, value, dtype=np.int64))
        if n:
            block = _tensor_block([value])
            if block is not None:
                return cls(np.repeat(block.data, n, axis=0))
        data = np.empty(n, dtype=object)
        data[:] = [value] * n
        return cls(data)

    # -- materialization ----------------------------------------------------

    def pylist(self) -> list:
        """The column as a list of Python values (``None`` for NULL).
        Cached; conversion from typed arrays is exact, and block rows are
        wrapped as ``Vector``/``Matrix`` views (no copy)."""
        if self._pylist is None:
            if self.is_block:
                values = [wrap_cell(cell) for cell in self.data]
            else:
                values = self.data.tolist()
            if self.nulls is not None:
                for i in np.flatnonzero(self.nulls):
                    values[i] = None
            self._pylist = values
        return self._pylist

    def cell(self, i: int):
        """The Python value of row ``i`` (which must not be NULL),
        without materializing the rest of the column."""
        return wrap_cell(self.data[i]) if self.is_block else self.pylist()[i]

    def object_array(self) -> np.ndarray:
        """The column as an object array with ``None`` at nulls."""
        if self.is_object:
            return self.data
        out = np.empty(len(self), dtype=object)
        out[:] = self.pylist()
        return out

    def null_mask(self) -> np.ndarray:
        if self.nulls is not None:
            return self.nulls
        return np.zeros(len(self), dtype=np.bool_)

    # -- slicing ------------------------------------------------------------

    def filter(self, mask: np.ndarray) -> "ColumnData":
        return ColumnData(
            self.data[mask], None if self.nulls is None else self.nulls[mask]
        )

    def take(self, indices: np.ndarray) -> "ColumnData":
        return ColumnData(
            self.data[indices], None if self.nulls is None else self.nulls[indices]
        )

    def slice(self, start: int, stop: int) -> "ColumnData":
        """Rows ``[start, stop)`` as a zero-copy view (not re-formed: see
        :func:`canonical`)."""
        return ColumnData(
            self.data[start:stop],
            None if self.nulls is None else self.nulls[start:stop],
        )

    def copy(self) -> "ColumnData":
        """The same rows in arrays of their own (a view keeps its whole
        base array alive)."""
        return ColumnData(
            self.data.copy(), None if self.nulls is None else self.nulls.copy()
        )

    @classmethod
    def concat(cls, columns: List["ColumnData"]) -> "ColumnData":
        if len(columns) == 1:
            return columns[0]
        datas = [column.data for column in columns]
        first = datas[0]
        if any(
            data.dtype != first.dtype or data.shape[1:] != first.shape[1:]
            for data in datas[1:]
        ):
            # partitions that disagree on the physical form (int64 beside
            # float64, a block beside a ragged column) meet as objects:
            # numpy's upcast would change the values' Python types
            datas = [column.object_array() for column in columns]
        data = np.concatenate(datas)
        if any(column.nulls is not None for column in columns):
            nulls = np.concatenate([column.null_mask() for column in columns])
        else:
            nulls = None
        return cls(data, nulls)


def canonical(column: ColumnData) -> ColumnData:
    """``column`` in the form :meth:`ColumnData.from_values` picks for its
    values. A slice, ``take`` or ``concat`` of a typed column or of a
    block that keeps a non-NULL cell is in that form already; only an
    object column (its NULL or odd value may have been left behind), a
    block left with nothing but NULLs, and an empty column are re-derived
    — stored columns are always canonical, so what a table holds never
    depends on how its rows arrived."""
    if column.is_object or not len(column) or (column.is_block and _all_null(column)):
        return ColumnData.from_values(column.pylist())
    return column


def _all_null(column: ColumnData) -> bool:
    return column.nulls is not None and bool(column.nulls.all())


class ColumnBuffer:
    """One column of a partition's unsealed tail: an append-only array
    with spare capacity (amortised doubling) and its null mask.

    :meth:`extend` takes a canonical column and keeps the whole canonical:
    equal forms are copied in behind the rows already there, an all-NULL
    run joins a tensor block as masked rows, and any other mix turns the
    buffer into objects once. Rows already written never change — growth
    and re-forming allocate a new array — so the read-only prefix view
    :meth:`view` hands out stays valid however the buffer grows after it.
    """

    __slots__ = ("_data", "_nulls", "_length")

    def __init__(self):
        self._data = np.empty(0, dtype=object)
        self._nulls: Optional[np.ndarray] = None
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def view(self) -> ColumnData:
        """Every row written so far, without copying."""
        data = self._data[: self._length]
        data.flags.writeable = False
        nulls = None if self._nulls is None else self._nulls[: self._length]
        return ColumnData(data, nulls)

    def extend(self, column: ColumnData) -> None:
        data, nulls = column.data, column.nulls
        held, total = self._length, self._length + len(data)
        if total == held:
            return
        if not held:
            self._data = np.empty((0,) + data.shape[1:], dtype=data.dtype)
            self._nulls = None
        elif (data.dtype, data.shape[1:]) != (self._data.dtype, self._data.shape[1:]):
            mine = self.view()
            if mine.is_block and column.is_object and _all_null(column):
                data = np.zeros((total - held,) + self._data.shape[1:])
            elif column.is_block and _all_null(mine):
                self._data = np.zeros((held,) + data.shape[1:])
            else:
                if not mine.is_object:
                    self._data = mine.object_array()
                data = column.object_array()
        self._data = _with_capacity(self._data, held, total)
        self._data[held:total] = data
        if nulls is not None or self._nulls is not None:
            if self._nulls is None:
                self._nulls = np.zeros(len(self._data), dtype=np.bool_)
            self._nulls = _with_capacity(self._nulls, held, len(self._data))
            self._nulls[held:total] = False if nulls is None else nulls
        self._length = total


def _with_capacity(array: np.ndarray, held: int, needed: int) -> np.ndarray:
    """``array`` if it has room for ``needed`` rows, else a new array of
    at least twice the capacity carrying over the first ``held`` rows."""
    if needed <= len(array):
        return array
    grown = np.empty(
        (max(needed, 2 * len(array)),) + array.shape[1:], dtype=array.dtype
    )
    grown[:held] = array[:held]
    return grown


class ChunkBuffer:
    """The unsealed tail of one table partition: one :class:`ColumnBuffer`
    per column plus one for the per-row serialized sizes. An append
    converts and sizes only its own rows; :meth:`view` relabels what is
    there as read-only prefix views."""

    __slots__ = ("_columns", "_sizes")

    def __init__(self, width: int):
        self._columns = [ColumnBuffer() for _ in range(width)]
        self._sizes = ColumnBuffer()

    def __len__(self) -> int:
        return len(self._sizes)

    def extend(self, columns: Sequence[ColumnData], sizes: np.ndarray) -> None:
        for buffer, column in zip(self._columns, columns):
            buffer.extend(column)
        self._sizes.extend(ColumnData(sizes))

    def view(self) -> "tuple[List[ColumnData], np.ndarray]":
        return [buffer.view() for buffer in self._columns], self._sizes.view().data


def slice_columns(
    columns: Sequence[ColumnData], start: int, stop: int
) -> List[ColumnData]:
    """Rows ``[start, stop)`` of every column, as canonical views."""
    return [canonical(column.slice(start, stop)) for column in columns]


def cast(values: np.ndarray, dtype) -> np.ndarray:
    """``values`` as ``dtype``, as Python converts each: past int64 an ``OverflowError``."""
    wide = values.dtype == np.float64 and dtype == np.int64  # range-check cell by cell
    return (values.astype(object) if wide else values).astype(dtype, copy=False)


def columns_from_rows(rows: Sequence[tuple], width: int) -> List[ColumnData]:
    """Row tuples of ``width`` values turned column-wise."""
    if rows:
        return [ColumnData.from_values(values) for values in zip(*rows)]
    return [ColumnData(np.empty(0, dtype=object)) for _ in range(width)]


def rows_from_columns(columns: Sequence[ColumnData]) -> List[tuple]:
    """The inverse of :func:`columns_from_rows`: exact Python row tuples
    (each column's ``pylist`` is cached on it)."""
    return list(zip(*[column.pylist() for column in columns]))


def truth(column: ColumnData) -> np.ndarray:
    """Row-mode ``bool(value)`` per entry, with SQL NULL treated as
    false — the coercion filters and AND/OR apply to predicate values."""
    if column.is_bool:
        if column.nulls is None:
            return column.data
        return column.data & ~column.nulls
    if column.is_numeric:
        result = column.data != 0
        if column.nulls is not None:
            result &= ~column.nulls
        return result
    n = len(column)
    return np.fromiter(
        (bool(value) for value in column.pylist()), dtype=np.bool_, count=n
    )


def full_mask(mask: Optional[np.ndarray], n: int) -> np.ndarray:
    return np.ones(n, dtype=np.bool_) if mask is None else mask
