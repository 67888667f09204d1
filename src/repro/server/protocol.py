"""The wire protocol: JSON encoding of values, results, and errors.

Everything the server sends or accepts over HTTP is JSON. Linear-algebra
values — the paper's VECTOR / MATRIX attribute types plus labeled
scalars — do not exist in JSON, so they travel as ``$type``-tagged
objects. A tensor's cells are the base64 of its little-endian float64
bytes, so every double — ``inf``, a NaN's payload bits, ``-0.0`` —
crosses exactly::

    {"$type": "vector", "f64": "AAAAAAAA8D8AAAAAAAAAQA==", "label": 3}
    {"$type": "matrix", "f64": "...", "shape": [2, 2]}
    {"$type": "labeled", "value": 0.5, "label": 7}

A finite DOUBLE is a JSON number (Python's shortest-roundtrip repr reads
back exactly); one JSON cannot hold — ``inf``, ``-inf``, a NaN — is
``{"$type": "double", "f64": ...}`` with its eight bytes. Clients may
also post a tensor's cells as plain lists, ``{"$type": "vector",
"data": [1.0, 2.0]}`` and ``{"$type": "matrix", "data": [[1.0, 0.0],
[0.0, 1.0]]}``. Query parameters posted by a client are decoded through
:func:`decode_value`, result cells are encoded through
:func:`encode_value`.

**Canonical encoding.** :func:`canonical_json` serializes with sorted
keys, no whitespace, and Python's shortest-roundtrip float repr, so two
structurally equal results produce byte-identical strings. The
concurrency stress test compares serial and concurrent runs on these
strings — "bit-identical" is literal.

Errors cross the wire as the structured payload of
:meth:`repro.errors.ReproError.to_payload` (``code``, ``message``, plus
error-specific fields such as ``retry_after_s``), wrapped in
``{"error": ...}``. :func:`status_for_error` maps the exception to its
HTTP status; 429 responses additionally carry a ``Retry-After`` header.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from typing import Dict, List, Optional

import numpy as np

from ..errors import (
    CatalogError,
    CompileError,
    CursorClosedError,
    CursorError,
    QueryTimeoutError,
    RateLimitedError,
    ReproError,
    ServiceOverloadedError,
    SessionClosedError,
    SqlSyntaxError,
    StatementTooLargeError,
)
from ..types import LabeledScalar, Matrix, Vector

#: protocol revision reported by ``GET /health``
PROTOCOL_VERSION = 2


# -- values ----------------------------------------------------------------


def _f64(array: np.ndarray) -> str:
    """The base64 of an array's little-endian float64 bytes."""
    return base64.b64encode(array.astype("<f8", copy=False).tobytes()).decode("ascii")


def _double(value: float):
    """A double as a JSON number when JSON holds it, else tagged."""
    if math.isfinite(value):
        return value
    return {"$type": "double", "f64": _f64(np.array([value]))}


def encode_value(value):
    """One result cell (or parameter) as a JSON-compatible value."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return _double(float(value))
    if isinstance(value, LabeledScalar):
        return {
            "$type": "labeled",
            "value": _double(float(value.value)),
            "label": int(value.label),
        }
    if isinstance(value, Vector):
        return {"$type": "vector", "f64": _f64(value.data), "label": int(value.label)}
    if isinstance(value, Matrix):
        return {"$type": "matrix", "f64": _f64(value.data), "shape": list(value.shape)}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return _double(float(value))
    if isinstance(value, np.ndarray):
        if value.ndim == 1:
            return encode_value(Vector(value))
        if value.ndim == 2:
            return encode_value(Matrix(value))
    raise TypeError(f"cannot encode {type(value).__name__} for the wire")


def _cells(value: dict, count: Optional[int] = None) -> np.ndarray:
    """The doubles of a tagged value's ``f64`` field: base64 of
    little-endian float64 bytes, ``count`` of them when given."""
    raw = base64.b64decode(value["f64"], validate=True)
    if len(raw) % 8 or (count is not None and len(raw) != 8 * count):
        raise ValueError(f"{len(raw)} bytes of f64 are not the doubles asked for")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def _number(value) -> float:
    """A double posted as a JSON number or a tagged ``double``."""
    if isinstance(value, dict) and value.get("$type") == "double":
        return float(_cells(value, 1)[0])
    return float(value)


def decode_value(value):
    """The inverse of :func:`encode_value`, for result cells and for
    client-posted values (which may also give a tensor's cells as
    lists). Malformed input — a missing key, a wrong JSON type, a number
    no double or label can hold, an ``f64`` that is not base64 of the
    doubles asked for — raises ``ValueError`` (or the tensor
    constructors' ``ReproError``), which the server answers with 400."""
    if isinstance(value, dict):
        tag = value.get("$type")
        try:
            if tag == "double":
                return _number(value)
            if tag == "labeled":
                return LabeledScalar(_number(value["value"]), int(value.get("label", -1)))
            if tag == "vector":
                data = _cells(value) if "f64" in value else value["data"]
                return Vector(data, label=int(value.get("label", -1)))
            if tag == "matrix":
                if "f64" not in value:
                    return Matrix(value["data"])
                rows, cols = (int(n) for n in value["shape"])
                if min(rows, cols) < 0:
                    raise ValueError(f"a matrix shape cannot be negative: {value['shape']}")
                return Matrix(_cells(value, rows * cols).reshape(rows, cols))
        except KeyError as exc:
            raise ValueError(f"{tag} value is missing its {exc} field") from None
        except (TypeError, OverflowError, binascii.Error) as exc:
            raise ValueError(f"malformed {tag} value: {exc}") from None
        raise ValueError(f"unknown $type tag {tag!r}")
    if isinstance(value, list):
        raise ValueError(
            "bare JSON arrays are ambiguous; tag vectors/matrices with $type"
        )
    return value


def decode_params(params: Optional[Dict[str, object]]) -> Dict[str, object]:
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise ValueError("'params' must be a JSON object of name -> value")
    return {name: decode_value(value) for name, value in params.items()}


# -- results ---------------------------------------------------------------


def encode_rows(rows: List[tuple]) -> List[List[object]]:
    return [[encode_value(cell) for cell in row] for row in rows]


def encode_result(columns: List[str], rows: List[tuple]) -> Dict[str, object]:
    """A full result (or one cursor page) as a wire object."""
    return {"columns": list(columns), "rows": encode_rows(rows)}


def canonical_json(payload) -> str:
    """Deterministic serialization: equal payloads, equal bytes."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_result(columns: List[str], rows: List[tuple]) -> str:
    """The canonical string of a result, for bit-identity comparison
    between serial and concurrent executions."""
    return canonical_json(encode_result(columns, rows))


# -- errors ----------------------------------------------------------------

#: exception class -> HTTP status, most specific first (the first
#: matching isinstance wins)
_STATUS_MAP = (
    (RateLimitedError, 429),
    (ServiceOverloadedError, 429),
    (QueryTimeoutError, 504),
    (SessionClosedError, 410),
    (CursorClosedError, 410),
    (CursorError, 410),
    (SqlSyntaxError, 400),
    (CompileError, 400),
    (CatalogError, 400),
    (StatementTooLargeError, 413),
)


def status_for_error(exc: ReproError) -> int:
    for cls, status in _STATUS_MAP:
        if isinstance(exc, cls):
            return status
    return 500


def error_body(exc: ReproError) -> Dict[str, object]:
    """The wire form of a structured error: ``{"error": payload}``."""
    return {"error": exc.to_payload()}


def retry_after_header(exc: ReproError) -> Optional[str]:
    """The ``Retry-After`` value for 429 responses (seconds, decimal),
    or None when the error carries no hint."""
    retry_after = getattr(exc, "retry_after_s", None)
    if retry_after is None:
        return None
    return f"{max(0.0, float(retry_after)):.3f}"
