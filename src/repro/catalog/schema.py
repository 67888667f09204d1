"""Relational schemas: columns with (possibly tensor-typed) attributes."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..columnar import ColumnData, cast
from ..errors import CatalogError, TypeCheckError
from ..types import (
    BooleanType,
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
    parse_type,
)

#: the Python types of the values INSERT admits into a column of each
#: type (NULL fits any): an INTEGER takes integral doubles and a DOUBLE
#: integers, which it converts
ADMITTED = {
    IntegerType: {int, bool, float},
    DoubleType: {int, bool, float},
    BooleanType: {bool},
    StringType: {str},
    LabeledScalarType: {LabeledScalar},
    VectorType: {Vector},
    MatrixType: {Matrix},
}
#: what INSERT converts an INTEGER's and a DOUBLE's numbers to
_CONVERTED = {IntegerType: (int, np.int64), DoubleType: (float, np.float64)}
#: the Python type of each value of a typed column's dtype
_TYPED = {np.float64: float, np.int64: int, np.bool_: bool}
_cell_shape = attrgetter("data.shape")


@dataclass(frozen=True)
class Column:
    """One attribute of a relation."""

    name: str
    data_type: DataType

    def __repr__(self) -> str:
        return f"{self.name} {self.data_type!r}"


class Schema:
    """An ordered list of named, typed columns.

    Column lookup is case-insensitive, as in SQL. Schemas are immutable;
    operations that change the column list return new schemas.
    """

    def __init__(self, columns: Iterable[Union[Column, Tuple[str, object]]]):
        normalized: List[Column] = []
        for item in columns:
            if isinstance(item, Column):
                normalized.append(item)
            else:
                name, data_type = item
                if isinstance(data_type, str):
                    data_type = parse_type(data_type)
                normalized.append(Column(name, data_type))
        seen = set()
        for column in normalized:
            key = column.name.lower()
            if key in seen:
                raise CatalogError(f"duplicate column name {column.name!r}")
            seen.add(key)
        self._columns = tuple(normalized)
        self._index = {column.name.lower(): i for i, column in enumerate(self._columns)}

    @property
    def columns(self) -> Tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> List[str]:
        return [column.name for column in self._columns]

    @property
    def types(self) -> List[DataType]:
        return [column.data_type for column in self._columns]

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self):
        return iter(self._columns)

    def index_of(self, name: str) -> Optional[int]:
        """Position of a column by case-insensitive name, or None."""
        return self._index.get(name.lower())

    def column(self, name: str) -> Column:
        index = self.index_of(name)
        if index is None:
            raise CatalogError(f"no column named {name!r} in schema {self!r}")
        return self._columns[index]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index

    def rename(self, names: Sequence[str]) -> "Schema":
        """A copy of this schema with new column names (for CREATE VIEW
        column lists and AS aliases)."""
        if len(names) != len(self._columns):
            raise CatalogError(
                f"expected {len(self._columns)} column name(s), got {len(names)}"
            )
        return Schema(
            [Column(name, column.data_type) for name, column in zip(names, self._columns)]
        )

    def misfit(self, columns) -> Optional[str]:
        """What a value of ``columns`` (``ColumnData``, one per column,
        as a load or a restore builds them) is that its column's type
        does not admit (:data:`ADMITTED`, and a tensor's declared
        dimensions), or None. Judged once per column, never per cell: a
        typed column by its dtype, a tensor block by its cell shape, an
        object column by the set of its cells' types and shapes."""
        for column, data in zip(self._columns, columns):
            problem = _misfit(data, column.data_type)
            if problem is not None:
                return f"column {column.name} {column.data_type!r} cannot hold {problem}"
        return None

    def conform(self, columns, name: str) -> list:
        """``columns`` as INSERT, INSERT ... SELECT and a load store them in table
        ``name``: :meth:`misfit`-checked, numbers converted by one ``astype``."""
        misfit = self.misfit(columns)
        if misfit is not None:
            raise TypeCheckError(f"cannot store in {name}: {misfit}")
        return [_conform(data, column.data_type) for column, data in zip(self, columns)]

    def row_width_bytes(self) -> float:
        """Estimated width of one tuple, the quantity that makes a
        MATRIX[100000][100] attribute dominate plan cost (section 4.1)."""
        overhead = 16.0  # per-tuple header, as in a record-oriented store
        return overhead + sum(column.data_type.size_bytes() for column in self._columns)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self._columns == other._columns

    def __repr__(self) -> str:
        inner = ", ".join(repr(column) for column in self._columns)
        return f"Schema({inner})"


def _conform(data: ColumnData, declared: DataType) -> ColumnData:
    """One column of :meth:`Schema.conform` (an object column cell by cell)."""
    kind, dtype = _CONVERTED.get(type(declared), (None, None))
    if kind is None or data.data.dtype == dtype:
        return data
    if not data.is_object:
        try:
            return ColumnData(cast(data.data, dtype), data.nulls)
        except OverflowError:  # a double past int64: INSERT makes a Python int
            pass
    cells = data.pylist()
    if set(map(type, cells)) <= {kind, type(None)}:
        return data
    return ColumnData.from_values([v if v is None else kind(v) for v in cells])


def _misfit(data, declared: DataType) -> Optional[str]:
    """What of one ``ColumnData`` a column of type ``declared`` does not
    admit, or None (see :meth:`Schema.misfit`)."""
    values, typed = data.data, None
    if values.ndim > 1:  # a tensor block: one cell shape, NULL rows aside
        kinds, shapes = {Vector if values.ndim == 2 else Matrix}, {values.shape[1:]}
    else:
        if data.nulls is not None:
            values = values[~data.nulls]
        typed = _TYPED.get(values.dtype.type)
        kinds = {typed} if typed is not None else set(map(type, values))
        tensors = kinds and kinds <= {Vector, Matrix}
        shapes = set(map(_cell_shape, values)) if tensors else set()
    foreign = kinds - ADMITTED[type(declared)]
    if foreign:
        return "values of type " + ", ".join(sorted(kind.__name__ for kind in foreign))
    if isinstance(declared, IntegerType) and float in kinds:
        doubles = values if typed is float else np.array(
            [value for value in values if type(value) is float]
        )
        if not np.all(np.isfinite(doubles) & (doubles == np.trunc(doubles))):
            return "doubles that are not integers"
    if isinstance(declared, VectorType) and declared.length is not None:
        misfits = shapes - {(declared.length,)}
    elif isinstance(declared, MatrixType):
        misfits = {
            shape for shape in shapes
            if declared.rows not in (None, shape[0]) or declared.cols not in (None, shape[1])
        }
    else:
        misfits = set()
    if misfits:
        return "cells of shape " + ", ".join(map(str, sorted(misfits)))
    return None
