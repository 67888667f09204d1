"""The built-in linear algebra function library (paper sections 3.1-3.3).

Each built-in is registered with three pieces of information:

* a **templated type signature** (section 4.2), used by the binder for
  compile-time size checking and by the optimizer to infer the exact size
  of every intermediate result;
* an **implementation** over runtime values (floats, ints,
  :class:`~repro.types.Vector`, :class:`~repro.types.Matrix`,
  :class:`~repro.types.LabeledScalar`);
* a **FLOP cost formula**, used both by the cost-based optimizer and by
  the simulated cluster to charge compute time.

Labels and positions are **1-based** throughout, matching the paper's
convention that a vector built by ``VECTORIZE`` has as many entries as its
largest label.

The paper reports 22 built-ins; this library implements a superset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import ExecutionError, RuntimeTypeError
from ..types import (
    DataType,
    LabeledScalar,
    Matrix,
    MatrixType,
    Signature,
    Vector,
    VectorType,
    runtime_shape_check,
)
from ..types.scalar import DEFAULT_UNKNOWN_DIM

#: Type of a FLOP-cost formula: receives the concrete dimensions bound for
#: each templated variable and returns an estimated FLOP count.
CostFormula = Callable[[Dict[str, float]], float]


def _dim(value: Optional[int]) -> float:
    """A dimension for cost purposes: fall back to a default when the
    schema leaves it unspecified."""
    return float(value) if value is not None else float(DEFAULT_UNKNOWN_DIM)


def _type_dims(arg_types: Sequence[DataType], signature: Signature) -> Dict[str, float]:
    """Best-effort binding of the signature's dimension variables from the
    *declared* argument types, for cost estimation only (never raises)."""
    from ..types.signature import SigMatrix, SigVector

    dims: Dict[str, float] = {}

    def note(name, value):
        if isinstance(name, str) and name not in dims:
            dims[name] = value

    for param, arg in zip(signature.params, arg_types):
        if isinstance(param, SigVector) and isinstance(arg, VectorType):
            note(param.dim, _dim(arg.length))
        elif isinstance(param, SigMatrix) and isinstance(arg, MatrixType):
            note(param.rows, _dim(arg.rows))
            note(param.cols, _dim(arg.cols))
    return dims


def _value_dims(args: Sequence[object], signature: Signature) -> Dict[str, float]:
    """Binding of the signature's dimension variables from runtime values."""
    from ..types.signature import SigMatrix, SigVector

    dims: Dict[str, float] = {}
    for param, arg in zip(signature.params, args):
        if isinstance(param, SigVector) and isinstance(arg, Vector):
            if isinstance(param.dim, str):
                dims.setdefault(param.dim, float(arg.length))
        elif isinstance(param, SigMatrix) and isinstance(arg, Matrix):
            if isinstance(param.rows, str):
                dims.setdefault(param.rows, float(arg.rows))
            if isinstance(param.cols, str):
                dims.setdefault(param.cols, float(arg.cols))
    return dims


@dataclass
class BuiltinFunction:
    """One entry in the built-in function registry.

    ``kind`` classifies the FLOP cost for the cluster simulator:
    ``blas3`` kernels (matrix-matrix multiply, inverse, solve) run at the
    cache-friendly dense rate; everything else (``blas1``) is
    memory-bound.
    """

    name: str
    signature: Signature
    impl: Callable
    cost: CostFormula
    doc: str = ""
    kind: str = "blas1"
    #: optional kernel over tensor blocks for the batch interpreter:
    #: ``block_impl(*blocks)`` takes one C-contiguous ``(n, …)`` float64
    #: array per argument (shapes already checked once for the whole
    #: block) and returns the ``(n, …)`` array of results. The leading
    #: axes broadcast as numpy's do: a nested-loop join's pair stage
    #: passes ``(p, 1, …)`` probe and ``(1, b, …)`` build blocks and gets
    #: the ``(p, b, …)`` tile of every pair's result. Registered only
    #: where the row≡batch and pair-stage differential tests show every
    #: result bit-identical to ``impl`` on that row (docs/ENGINE.md,
    #: "Tensor columns").
    block_impl: Optional[Callable] = None
    #: optional fused SUM: ``block_sum(*steps)`` takes, per argument, an
    #: ``(m, s, …)`` float64 C-contiguous stack of ``m`` steps of ``s``
    #: argument rows (the same array for arguments that are one
    #: expression) and returns the ``(m, …)`` sums of the results over
    #: each step in one BLAS call, never materializing a result cell per
    #: row. Registering one makes SUM over the builtin a *fused SUM*:
    #: its canonical order is the blocked one of
    #: ``engine/aggregation.py::advance`` (docs/ENGINE.md, "The float
    #: contract"), not the sequential chain, and its result cells hold
    #: one element per pair of argument elements (an outer product's),
    #: which is what SUM charges streamed bytes for.
    block_sum: Optional[Callable] = None
    #: unused — the per-row-list kernels this named were replaced by
    #: ``block_impl``; ``perfbench/layers.py`` still reads the attribute
    #: (and, finding None, times the scalar ``impl``)
    batch_impl: Optional[Callable] = None

    def bind(self, arg_types: Sequence[DataType]) -> DataType:
        """Compile-time type check; returns the concrete result type."""
        return self.signature.bind(arg_types)

    def estimate_flops(self, arg_types: Sequence[DataType]) -> float:
        """Estimated FLOPs per call given declared argument types."""
        return self.cost(_type_dims(arg_types, self.signature))

    def runtime_flops(self, args: Sequence[object]) -> float:
        """Exact FLOPs for one call over concrete runtime values."""
        return self.cost(_value_dims(args, self.signature))

    def __call__(self, *args):
        ok, message = runtime_shape_check(self.signature, args)
        if not ok:
            raise RuntimeTypeError(message)
        return self.impl(*args)


_REGISTRY: Dict[str, BuiltinFunction] = {}


def register(sig_text: str, cost: CostFormula, doc: str = "", kind: str = "blas1"):
    """Decorator registering a built-in under the signature's name."""

    def wrap(impl: Callable) -> BuiltinFunction:
        signature = Signature.parse(sig_text)
        function = BuiltinFunction(signature.name, signature, impl, cost, doc, kind)
        if signature.name in _REGISTRY:
            raise ValueError(f"duplicate builtin {signature.name}")
        _REGISTRY[signature.name] = function
        return function

    return wrap


def lookup(name: str) -> Optional[BuiltinFunction]:
    """Find a built-in by (case-insensitive) name, or None."""
    return _REGISTRY.get(name.lower())


def all_builtins() -> List[BuiltinFunction]:
    return sorted(_REGISTRY.values(), key=lambda fn: fn.name)


def _num(value) -> float:
    if isinstance(value, LabeledScalar):
        return value.value
    return float(value)


def allocate(name: str, fill, shape: tuple) -> np.ndarray:
    """``fill(shape)`` — a new tensor of ``np.zeros``/``np.ones`` — or,
    where numpy cannot allocate that much (its ``ValueError`` past the
    address space, a ``MemoryError`` short of it), the ``ExecutionError``
    naming the function ``name`` and the size it asked for."""
    try:
        return fill(shape)
    except (ValueError, MemoryError):
        size = " x ".join(map(str, shape))
        raise ExecutionError(f"{name}: cannot allocate a {size} tensor") from None


def _index(value, what: str, upper: int) -> int:
    """Validate a 1-based index and convert it to 0-based."""
    index = int(value)
    if not 1 <= index <= upper:
        raise ExecutionError(f"{what} {index} out of range 1..{upper}")
    return index - 1


# ---------------------------------------------------------------------------
# multiplication family
# ---------------------------------------------------------------------------


@register(
    "matrix_multiply(MATRIX[a][b], MATRIX[b][c]) -> MATRIX[a][c]",
    lambda d: 2 * d.get("a", 1) * d.get("b", 1) * d.get("c", 1),
    "Matrix-matrix product.",
    kind="blas3",
)
def matrix_multiply(left: Matrix, right: Matrix) -> Matrix:
    if left.cols != right.rows:
        raise RuntimeTypeError(
            f"matrix_multiply: inner dimensions differ ({left.cols} vs {right.rows})"
        )
    return Matrix(left.data @ right.data)


@register(
    "matrix_vector_multiply(MATRIX[a][b], VECTOR[b]) -> VECTOR[a]",
    lambda d: 2 * d.get("a", 1) * d.get("b", 1),
    "Matrix times column vector.",
)
def matrix_vector_multiply(matrix: Matrix, vector: Vector) -> Vector:
    if matrix.cols != vector.length:
        raise RuntimeTypeError(
            f"matrix_vector_multiply: matrix has {matrix.cols} columns but "
            f"vector has {vector.length} entries"
        )
    return Vector(matrix.data @ vector.data)


@register(
    "vector_matrix_multiply(VECTOR[a], MATRIX[a][b]) -> VECTOR[b]",
    lambda d: 2 * d.get("a", 1) * d.get("b", 1),
    "Row vector times matrix.",
)
def vector_matrix_multiply(vector: Vector, matrix: Matrix) -> Vector:
    if vector.length != matrix.rows:
        raise RuntimeTypeError(
            f"vector_matrix_multiply: vector has {vector.length} entries but "
            f"matrix has {matrix.rows} rows"
        )
    return Vector(vector.data @ matrix.data)


@register(
    "outer_product(VECTOR[a], VECTOR[b]) -> MATRIX[a][b]",
    lambda d: d.get("a", 1) * d.get("b", 1),
    "Outer product of two vectors.",
)
def outer_product(left: Vector, right: Vector) -> Matrix:
    return Matrix(np.outer(left.data, right.data))


def _outer_product_block(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # one broadcast multiply over the whole block performs exactly the
    # per-row elementwise multiplies np.outer performs, so each cell is
    # bit-identical to the row path's result (einsum is NOT: it loses
    # the sign of -0.0 products)
    return left[..., :, None] * right[..., None, :]


def _outer_product_block_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """One ``Aₛᵀ Bₛ`` per step: the sum of a step's outer products as a
    matrix product. numpy runs ``syrk`` (and copies its triangle, so the
    result is exactly symmetric) when ``left`` and ``right`` are one
    array, ``gemm`` otherwise."""
    return np.matmul(left.transpose(0, 2, 1), right)


outer_product.block_impl = _outer_product_block
outer_product.block_sum = _outer_product_block_sum


@register(
    "inner_product(VECTOR[a], VECTOR[a]) -> DOUBLE",
    lambda d: 2 * d.get("a", 1),
    "Dot product of two vectors.",
)
def inner_product(left: Vector, right: Vector) -> float:
    if left.length != right.length:
        raise RuntimeTypeError(
            f"inner_product: vector lengths differ ({left.length} vs {right.length})"
        )
    return float(left.data @ right.data)


# stacked matmul runs the same BLAS routine per row that ``@`` runs on one
# row's operands (dot for vector·vector, gemv for matrix·vector), so each
# result is bit-identical to the scalar impl's — over broadcast leading
# axes too, where numpy loops the same routine over the pairs (never the
# GEMM ``P @ Bᵀ``, whose blocked sums differ in bits from d = 17 on)


def _inner_product_block(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return np.matmul(left[..., None, :], right[..., :, None])[..., 0, 0]


def _matrix_vector_block(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    return np.matmul(matrix, vector[..., None])[..., 0]


inner_product.block_impl = _inner_product_block
matrix_vector_multiply.block_impl = _matrix_vector_block


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


@register(
    "trans_matrix(MATRIX[a][b]) -> MATRIX[b][a]",
    lambda d: d.get("a", 1) * d.get("b", 1),
    "Matrix transpose.",
)
def trans_matrix(matrix: Matrix) -> Matrix:
    return Matrix(matrix.data.T.copy())


@register(
    "diag(MATRIX[a][a]) -> VECTOR[a]",
    lambda d: d.get("a", 1),
    "Extract the diagonal of a square matrix.",
)
def diag(matrix: Matrix) -> Vector:
    if matrix.rows != matrix.cols:
        raise RuntimeTypeError(f"diag: matrix is not square ({matrix.shape})")
    return Vector(np.diagonal(matrix.data).copy())


@register(
    "diag_matrix(VECTOR[a]) -> MATRIX[a][a]",
    lambda d: d.get("a", 1) ** 2,
    "Build a diagonal matrix from a vector.",
)
def diag_matrix(vector: Vector) -> Matrix:
    return Matrix(np.diag(vector.data))


@register(
    "row_matrix(VECTOR[a]) -> MATRIX[1][a]",
    lambda d: d.get("a", 1),
    "Reinterpret a vector as a one-row matrix.",
)
def row_matrix(vector: Vector) -> Matrix:
    return Matrix(vector.data.reshape(1, -1).copy())


@register(
    "col_matrix(VECTOR[a]) -> MATRIX[a][1]",
    lambda d: d.get("a", 1),
    "Reinterpret a vector as a one-column matrix.",
)
def col_matrix(vector: Vector) -> Matrix:
    return Matrix(vector.data.reshape(-1, 1).copy())


@register(
    "get_row(MATRIX[a][b], INTEGER) -> VECTOR[b]",
    lambda d: d.get("b", 1),
    "Extract one row (1-based index) as a vector.",
)
def get_row(matrix: Matrix, row: int) -> Vector:
    return Vector(matrix.data[_index(row, "row index", matrix.rows)].copy())


@register(
    "get_col(MATRIX[a][b], INTEGER) -> VECTOR[a]",
    lambda d: d.get("a", 1),
    "Extract one column (1-based index) as a vector.",
)
def get_col(matrix: Matrix, col: int) -> Vector:
    return Vector(matrix.data[:, _index(col, "column index", matrix.cols)].copy())


@register(
    "get_scalar(VECTOR[a], INTEGER) -> DOUBLE",
    lambda d: 1.0,
    "Extract one entry (1-based index) from a vector; used to normalize a "
    "vector back into tuples (paper section 3.3).",
)
def get_scalar(vector: Vector, index: int) -> float:
    return float(vector.data[_index(index, "vector index", vector.length)])


@register(
    "get_element(MATRIX[a][b], INTEGER, INTEGER) -> DOUBLE",
    lambda d: 1.0,
    "Extract one entry (1-based indexes) from a matrix.",
)
def get_element(matrix: Matrix, row: int, col: int) -> float:
    row0 = _index(row, "row index", matrix.rows)
    col0 = _index(col, "column index", matrix.cols)
    return float(matrix.data[row0, col0])


# ---------------------------------------------------------------------------
# labels (the glue for VECTORIZE / ROWMATRIX / COLMATRIX, section 3.3)
# ---------------------------------------------------------------------------


@register(
    "label_scalar(DOUBLE, INTEGER) -> LABELED_SCALAR",
    lambda d: 0.0,
    "Attach an integer label to a double.",
)
def label_scalar(value, label: int) -> LabeledScalar:
    return LabeledScalar(_num(value), int(label))


@register(
    "label_vector(VECTOR[a], INTEGER) -> VECTOR[a]",
    lambda d: d.get("a", 1),
    "Return a copy of the vector with its label set.",
)
def label_vector(vector: Vector, label: int) -> Vector:
    return vector.with_label(int(label))


@register(
    "get_label(VECTOR[a]) -> INTEGER",
    lambda d: 0.0,
    "Read a vector's label (-1 when never set).",
)
def get_label(vector: Vector) -> int:
    return int(vector.label)


# ---------------------------------------------------------------------------
# solvers and decomposition-backed operations
# ---------------------------------------------------------------------------


@register(
    "matrix_inverse(MATRIX[a][a]) -> MATRIX[a][a]",
    lambda d: 2.0 * d.get("a", 1) ** 3,
    "Inverse of a square matrix.",
    kind="blas3",
)
def matrix_inverse(matrix: Matrix) -> Matrix:
    if matrix.rows != matrix.cols:
        raise RuntimeTypeError(f"matrix_inverse: matrix is not square ({matrix.shape})")
    try:
        return Matrix(np.linalg.inv(matrix.data))
    except np.linalg.LinAlgError as exc:
        raise ExecutionError(f"matrix_inverse: {exc}") from exc


@register(
    "pseudo_inverse(MATRIX[a][b]) -> MATRIX[b][a]",
    lambda d: 4.0 * d.get("a", 1) * d.get("b", 1) * min(d.get("a", 1), d.get("b", 1)),
    "Moore-Penrose pseudo-inverse.",
    kind="blas3",
)
def pseudo_inverse(matrix: Matrix) -> Matrix:
    return Matrix(np.linalg.pinv(matrix.data))


@register(
    "solve(MATRIX[a][a], VECTOR[a]) -> VECTOR[a]",
    lambda d: (2.0 / 3.0) * d.get("a", 1) ** 3,
    "Solve the linear system A x = b.",
    kind="blas3",
)
def solve(matrix: Matrix, vector: Vector) -> Vector:
    if matrix.rows != matrix.cols:
        raise RuntimeTypeError(f"solve: matrix is not square ({matrix.shape})")
    if matrix.rows != vector.length:
        raise RuntimeTypeError(
            f"solve: matrix is {matrix.rows}x{matrix.cols} but vector has "
            f"{vector.length} entries"
        )
    try:
        return Vector(np.linalg.solve(matrix.data, vector.data))
    except np.linalg.LinAlgError as exc:
        raise ExecutionError(f"solve: {exc}") from exc


@register(
    "determinant(MATRIX[a][a]) -> DOUBLE",
    lambda d: (2.0 / 3.0) * d.get("a", 1) ** 3,
    "Determinant of a square matrix.",
    kind="blas3",
)
def determinant(matrix: Matrix) -> float:
    if matrix.rows != matrix.cols:
        raise RuntimeTypeError(f"determinant: matrix is not square ({matrix.shape})")
    return float(np.linalg.det(matrix.data))


@register(
    "trace(MATRIX[a][a]) -> DOUBLE",
    lambda d: d.get("a", 1),
    "Trace of a square matrix.",
)
def trace(matrix: Matrix) -> float:
    if matrix.rows != matrix.cols:
        raise RuntimeTypeError(f"trace: matrix is not square ({matrix.shape})")
    return float(np.trace(matrix.data))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


@register(
    "norm_vector(VECTOR[a]) -> DOUBLE",
    lambda d: 2 * d.get("a", 1),
    "Euclidean norm of a vector.",
)
def norm_vector(vector: Vector) -> float:
    return float(np.linalg.norm(vector.data))


@register(
    "sum_vector(VECTOR[a]) -> DOUBLE",
    lambda d: d.get("a", 1),
    "Sum of the entries of a vector.",
)
def sum_vector(vector: Vector) -> float:
    return float(np.sum(vector.data))


@register(
    "sum_matrix(MATRIX[a][b]) -> DOUBLE",
    lambda d: d.get("a", 1) * d.get("b", 1),
    "Sum of the entries of a matrix.",
)
def sum_matrix(matrix: Matrix) -> float:
    return float(np.sum(matrix.data))


@register(
    "min_vector(VECTOR[a]) -> DOUBLE",
    lambda d: d.get("a", 1),
    "Smallest entry of a vector.",
)
def min_vector(vector: Vector) -> float:
    return float(np.min(vector.data))


@register(
    "max_vector(VECTOR[a]) -> DOUBLE",
    lambda d: d.get("a", 1),
    "Largest entry of a vector.",
)
def max_vector(vector: Vector) -> float:
    return float(np.max(vector.data))


@register(
    "index_min(VECTOR[a]) -> INTEGER",
    lambda d: d.get("a", 1),
    "1-based position of the smallest entry.",
)
def index_min(vector: Vector) -> int:
    return int(np.argmin(vector.data)) + 1


@register(
    "index_max(VECTOR[a]) -> INTEGER",
    lambda d: d.get("a", 1),
    "1-based position of the largest entry.",
)
def index_max(vector: Vector) -> int:
    return int(np.argmax(vector.data)) + 1


@register(
    "row_sums(MATRIX[a][b]) -> VECTOR[a]",
    lambda d: d.get("a", 1) * d.get("b", 1),
    "Vector of per-row sums.",
)
def row_sums(matrix: Matrix) -> Vector:
    return Vector(matrix.data.sum(axis=1))


@register(
    "col_sums(MATRIX[a][b]) -> VECTOR[b]",
    lambda d: d.get("a", 1) * d.get("b", 1),
    "Vector of per-column sums.",
)
def col_sums(matrix: Matrix) -> Vector:
    return Vector(matrix.data.sum(axis=0))


@register(
    "row_mins(MATRIX[a][b]) -> VECTOR[a]",
    lambda d: d.get("a", 1) * d.get("b", 1),
    "Vector of per-row minima (cf. SystemML's rowMins, used by the "
    "paper's distance computation).",
)
def row_mins(matrix: Matrix) -> Vector:
    return Vector(matrix.data.min(axis=1))


@register(
    "row_maxs(MATRIX[a][b]) -> VECTOR[a]",
    lambda d: d.get("a", 1) * d.get("b", 1),
    "Vector of per-row maxima.",
)
def row_maxs(matrix: Matrix) -> Vector:
    return Vector(matrix.data.max(axis=1))


@register(
    "col_mins(MATRIX[a][b]) -> VECTOR[b]",
    lambda d: d.get("a", 1) * d.get("b", 1),
    "Vector of per-column minima.",
)
def col_mins(matrix: Matrix) -> Vector:
    return Vector(matrix.data.min(axis=0))


@register(
    "col_maxs(MATRIX[a][b]) -> VECTOR[b]",
    lambda d: d.get("a", 1) * d.get("b", 1),
    "Vector of per-column maxima.",
)
def col_maxs(matrix: Matrix) -> Vector:
    return Vector(matrix.data.max(axis=0))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


@register(
    "identity_matrix(INTEGER) -> MATRIX[][]",
    lambda d: float(DEFAULT_UNKNOWN_DIM) ** 2,
    "The n-by-n identity matrix.",
)
def identity_matrix(n: int) -> Matrix:
    if int(n) <= 0:
        raise ExecutionError(f"identity_matrix: size must be positive, got {n}")
    n = int(n)
    return Matrix(allocate("identity_matrix", lambda shape: np.eye(*shape), (n, n)))


@register(
    "zeros_vector(INTEGER) -> VECTOR[]",
    lambda d: float(DEFAULT_UNKNOWN_DIM),
    "A vector of n zeros.",
)
def zeros_vector_fn(n: int) -> Vector:
    if int(n) <= 0:
        raise ExecutionError(f"zeros_vector: size must be positive, got {n}")
    return Vector(allocate("zeros_vector", np.zeros, (int(n),)))


@register(
    "ones_vector(INTEGER) -> VECTOR[]",
    lambda d: float(DEFAULT_UNKNOWN_DIM),
    "A vector of n ones.",
)
def ones_vector(n: int) -> Vector:
    if int(n) <= 0:
        raise ExecutionError(f"ones_vector: size must be positive, got {n}")
    return Vector(allocate("ones_vector", np.ones, (int(n),)))


# ---------------------------------------------------------------------------
# element-wise math
# ---------------------------------------------------------------------------


def _register_elementwise(stem: str, np_fn, doc: str):
    @register(
        f"{stem}_vector(VECTOR[a]) -> VECTOR[a]",
        lambda d: d.get("a", 1),
        f"Element-wise {doc} of a vector.",
    )
    def _vec(vector: Vector) -> Vector:
        return Vector(np_fn(vector.data))

    @register(
        f"{stem}_matrix(MATRIX[a][b]) -> MATRIX[a][b]",
        lambda d: d.get("a", 1) * d.get("b", 1),
        f"Element-wise {doc} of a matrix.",
    )
    def _mat(matrix: Matrix) -> Matrix:
        return Matrix(np_fn(matrix.data))


_register_elementwise("abs", np.abs, "absolute value")
_register_elementwise("exp", np.exp, "exponential")
_register_elementwise("log", np.log, "natural logarithm")
_register_elementwise("sqrt", np.sqrt, "square root")


@register(
    "min_vectors(VECTOR[a], VECTOR[a]) -> VECTOR[a]",
    lambda d: d.get("a", 1),
    "Element-wise minimum of two vectors (cf. SystemML's min(X, Y)); "
    "used by the blocked distance computation.",
)
def min_vectors(left: Vector, right: Vector) -> Vector:
    if left.length != right.length:
        raise RuntimeTypeError(
            f"min_vectors: vector lengths differ ({left.length} vs {right.length})"
        )
    return Vector(np.minimum(left.data, right.data))


@register(
    "max_vectors(VECTOR[a], VECTOR[a]) -> VECTOR[a]",
    lambda d: d.get("a", 1),
    "Element-wise maximum of two vectors.",
)
def max_vectors(left: Vector, right: Vector) -> Vector:
    if left.length != right.length:
        raise RuntimeTypeError(
            f"max_vectors: vector lengths differ ({left.length} vs {right.length})"
        )
    return Vector(np.maximum(left.data, right.data))
