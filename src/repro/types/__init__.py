"""Type system: scalar types, LABELED_SCALAR, VECTOR and MATRIX.

See the paper, sections 3.1 and 4.2.
"""

from .labeled import DEFAULT_LABEL, LabeledScalar
from .scalar import (
    BOOLEAN,
    DOUBLE,
    ELEMENT_SIZE,
    INTEGER,
    LABELED_SCALAR,
    STRING,
    BooleanType,
    DataType,
    DoubleType,
    IntegerType,
    LabeledScalarType,
    MatrixType,
    StringType,
    VectorType,
    common_numeric_type,
)
from .signature import Signature, SigMatrix, SigScalar, SigVector, runtime_shape_check
from .tensor import Matrix, Vector, key_bytes, zeros_matrix, zeros_vector
from .typeparse import parse_type

__all__ = [
    "BOOLEAN",
    "DEFAULT_LABEL",
    "DOUBLE",
    "ELEMENT_SIZE",
    "INTEGER",
    "LABELED_SCALAR",
    "STRING",
    "BooleanType",
    "DataType",
    "DoubleType",
    "IntegerType",
    "LabeledScalar",
    "LabeledScalarType",
    "Matrix",
    "MatrixType",
    "Signature",
    "SigMatrix",
    "SigScalar",
    "SigVector",
    "StringType",
    "Vector",
    "VectorType",
    "common_numeric_type",
    "key_bytes",
    "parse_type",
    "runtime_shape_check",
    "zeros_matrix",
    "zeros_vector",
]
