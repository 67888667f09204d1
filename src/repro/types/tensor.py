"""VECTOR and MATRIX values.

These are thin, immutable-by-convention wrappers around numpy arrays. They
implement the paper's arithmetic semantics (section 3.2):

* ``+ - * /`` between two tensors of the same kind are element-wise and
  require matching shapes (``*`` on matrices is the Hadamard product);
* arithmetic between a scalar and a tensor applies the operation between
  the scalar and every entry;
* mixing a VECTOR with a MATRIX in arithmetic is an error.

Every VECTOR carries an integer label (default ``-1``) that the
``ROWMATRIX``/``COLMATRIX`` aggregates use to place it within a matrix
(section 3.3). There is no row/column-vector distinction; each operation
chooses its own interpretation (section 3.1).
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from ..errors import RuntimeTypeError
from .labeled import DEFAULT_LABEL, LabeledScalar

Numeric = Union[int, float, LabeledScalar]


def key_bytes(data: np.ndarray) -> bytes:
    """A tensor's cells as a key: ``±0.0`` one value and every NaN one
    value, so tensors that are ``=`` (``np.array_equal``), or that differ
    only where both hold a NaN, give the same bytes."""
    data = data + 0.0  # -0.0 + 0.0 is +0.0
    nan = np.isnan(data)
    if nan.any():
        data[nan] = np.nan
    return data.tobytes()


def _as_scalar(value) -> float:
    if isinstance(value, LabeledScalar):
        return value.value
    return float(value)


class Vector:
    """A dense vector of doubles with an integer label."""

    __slots__ = ("data", "label")

    def __init__(self, data: Iterable[float], label: int = DEFAULT_LABEL):
        array = np.asarray(data, dtype=np.float64)
        if array.ndim != 1:
            raise RuntimeTypeError(
                f"VECTOR requires 1-dimensional data, got shape {array.shape}"
            )
        self.data = array
        self.label = int(label)

    @property
    def length(self) -> int:
        return int(self.data.shape[0])

    def with_label(self, label: int) -> "Vector":
        return Vector(self.data, label=label)

    def copy(self) -> "Vector":
        return Vector(self.data.copy(), label=self.label)

    def _binary(self, other, op, reverse: bool = False):
        if isinstance(other, Matrix):
            raise RuntimeTypeError(
                "arithmetic between VECTOR and MATRIX is not defined; "
                "convert the vector with row_matrix()/col_matrix() first"
            )
        if isinstance(other, Vector):
            if other.length != self.length:
                raise RuntimeTypeError(
                    f"element-wise arithmetic on vectors of different "
                    f"lengths: {self.length} vs {other.length}"
                )
            left, right = self.data, other.data
        else:
            scalar = _as_scalar(other)
            left, right = self.data, scalar
        if reverse:
            left, right = right, left
        return Vector(op(left, right))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __radd__(self, other):
        return self._binary(other, np.add, reverse=True)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return self._binary(other, np.subtract, reverse=True)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, other):
        return self._binary(other, np.multiply, reverse=True)

    def __truediv__(self, other):
        return self._binary(other, np.divide)

    def __rtruediv__(self, other):
        return self._binary(other, np.divide, reverse=True)

    def __neg__(self):
        return Vector(-self.data, label=self.label)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vector)
            and self.length == other.length
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        # ``+ 0.0`` makes -0.0 +0.0, so equal tensors hash alike (a tensor
        # holding a NaN equals nothing, so its NaN bits may stay)
        return hash((self.length, (self.data + 0.0).tobytes()))

    def allclose(self, other: "Vector", rtol: float = 1e-9) -> bool:
        return self.length == other.length and bool(
            np.allclose(self.data, other.data, rtol=rtol)
        )

    def size_bytes(self) -> int:
        return 8 * self.length + 8

    def __repr__(self) -> str:
        label = f", label={self.label}" if self.label != DEFAULT_LABEL else ""
        return f"Vector({np.array2string(self.data, threshold=8)}{label})"


class Matrix:
    """A dense matrix of doubles."""

    __slots__ = ("data",)

    def __init__(self, data):
        array = np.asarray(data, dtype=np.float64)
        if array.ndim != 2:
            raise RuntimeTypeError(
                f"MATRIX requires 2-dimensional data, got shape {array.shape}"
            )
        self.data = array

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def cols(self) -> int:
        return int(self.data.shape[1])

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def copy(self) -> "Matrix":
        return Matrix(self.data.copy())

    def _binary(self, other, op, reverse: bool = False):
        if isinstance(other, Vector):
            raise RuntimeTypeError(
                "arithmetic between MATRIX and VECTOR is not defined; "
                "convert the vector with row_matrix()/col_matrix() first"
            )
        if isinstance(other, Matrix):
            if other.shape != self.shape:
                raise RuntimeTypeError(
                    f"element-wise arithmetic on matrices of different "
                    f"shapes: {self.shape} vs {other.shape}"
                )
            left, right = self.data, other.data
        else:
            left, right = self.data, _as_scalar(other)
        if reverse:
            left, right = right, left
        return Matrix(op(left, right))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __radd__(self, other):
        return self._binary(other, np.add, reverse=True)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return self._binary(other, np.subtract, reverse=True)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, other):
        return self._binary(other, np.multiply, reverse=True)

    def __truediv__(self, other):
        return self._binary(other, np.divide)

    def __rtruediv__(self, other):
        return self._binary(other, np.divide, reverse=True)

    def __neg__(self):
        return Matrix(-self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.shape, (self.data + 0.0).tobytes()))  # as Vector's

    def allclose(self, other: "Matrix", rtol: float = 1e-9) -> bool:
        return self.shape == other.shape and bool(
            np.allclose(self.data, other.data, rtol=rtol)
        )

    def size_bytes(self) -> int:
        return 8 * self.rows * self.cols + 8

    def __repr__(self) -> str:
        return f"Matrix({np.array2string(self.data, threshold=8)})"


def zeros_vector(length: int) -> Vector:
    return Vector(np.zeros(length))


def zeros_matrix(rows: int, cols: int) -> Matrix:
    return Matrix(np.zeros((rows, cols)))
