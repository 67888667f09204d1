"""Text and values from outside: every statement nests within the
parser's bound or is refused, and every posted ``$type`` value decodes or
is refused.

* **Nesting.** Statements nest parentheses, unary minus, calls and
  ``NOT`` up to 10⁴ deep. One within ``MAX_NESTING`` runs and returns
  the rows the nesting means; a deeper one is a ``SqlSyntaxError`` —
  never a ``RecursionError`` from the parser, the binder or an
  evaluator.
* **Posted values.** ``decode_params`` over drawn ``$type`` objects,
  ``f64`` fields of every length and nested lists: a decoded dict, or
  the ``ValueError`` / ``ReproError`` the server answers with 400.

Tier-1 runs these tests at the profile's example count; CI's sweep step
runs them under the ``sweep`` profile (``tests/conftest.py``), so no
test here pins ``max_examples``.
"""

import base64
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.errors import ReproError, SqlSyntaxError
from repro.server import decode_params
from repro.sql.parser import MAX_NESTING

POINTS = ([1.0, 2.0], [3.0, -1.0], [-0.5, 0.0])

@pytest.fixture(scope="module")
def db() -> Database:
    """One database for every example: a table of three vectors."""
    database = Database(TEST_CLUSTER)
    database.execute("CREATE TABLE t (v VECTOR[2])")
    database.load("t", [(np.array(point),) for point in POINTS])
    return database


#: how each wrapper nests an expression of its phase's type
WRAP = {
    "paren": "({})".format,
    "neg": "- {}".format,
    "call": "label_vector({}, 1)".format,
    "not": "NOT {}".format,
}


def runs(kinds):
    """Up to three runs of one wrapper repeated, often near the bound:
    the three phases of a statement nest it up to 10⁴ deep."""
    count = st.integers(0, MAX_NESTING + 4) | st.integers(0, 10_000 // 9)
    return st.lists(st.tuples(st.sampled_from(kinds), count), max_size=3)


def wrapped(text, drawn):
    for kind, count in drawn:
        for _ in range(count):
            text = WRAP[kind](text)
    return text


def negations(drawn, kind):
    return sum(n for k, n in drawn if k == kind)


@settings(deadline=None)
@given(runs(["paren", "neg", "call"]), runs(["paren", "neg"]), runs(["paren", "not"]))
def test_nesting_parses_within_the_bound_or_is_a_syntax_error(db, vector, double, condition):
    """``SELECT d FROM t WHERE c``: ``d`` is ``norm_vector`` of the
    vector ``v`` under the vector phase's wrappers, then under the double
    phase's; ``c`` is ``d > 0.0`` under the condition phase's. The
    deepest construct nests two levels (the select item or WHERE
    expression and ``norm_vector``'s argument) plus every wrapper."""
    number = wrapped(f"norm_vector({wrapped('v', vector)})", double)
    sql = f"SELECT {number} FROM t WHERE {wrapped(f'{number} > 0.0', condition)}"
    depth = 2 + sum(n for drawn in (vector, double, condition) for _, n in drawn)
    try:
        rows = db.execute(sql).rows
    except SqlSyntaxError:
        assert depth > MAX_NESTING
        return
    assert depth <= MAX_NESTING
    sign = -1.0 if negations(double, "neg") % 2 else 1.0
    flip = negations(condition, "not") % 2 == 1
    want = [sign * math.hypot(*point) for point in POINTS]
    want = [value for value in want if (value > 0.0) != flip]
    assert len(rows) == len(want)
    for (got,), value in zip(sorted(rows), sorted(want)):
        assert math.isclose(got, value, rel_tol=1e-12)


def _f64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


#: an ``f64`` field: the base64 of bytes of every length, of whole
#: doubles, or any text or JSON scalar
F64 = (
    st.binary(max_size=80).map(_f64)
    | st.lists(st.floats(), max_size=9).map(lambda xs: _f64(struct.pack(f"<{len(xs)}d", *xs)))
    | st.text(max_size=16)
    | st.integers()
    | st.none()
)
NUMBERS = st.floats() | st.integers() | st.booleans() | st.none() | st.text(max_size=3)
NESTED = st.recursive(NUMBERS, lambda inner: st.lists(inner, max_size=4), max_leaves=16)
TAGGED = st.fixed_dictionaries(
    {"$type": st.sampled_from(["vector", "matrix", "double", "labeled", "tensor"]) | st.text(max_size=3)},
    optional={
        "f64": F64,
        "data": NESTED,
        "shape": st.lists(st.integers(-2, 2**40), max_size=3) | NUMBERS,
        "label": NUMBERS,
        "value": NUMBERS | st.fixed_dictionaries({"$type": st.just("double"), "f64": F64}),
    },
)
VALUES = st.recursive(NUMBERS | TAGGED, lambda inner: st.lists(inner, max_size=3), max_leaves=8)


@settings(deadline=None)
@given(st.dictionaries(st.text(max_size=3), VALUES, max_size=3) | VALUES)
def test_decode_params_decodes_or_refuses_every_posted_value(params):
    """A decoded dict, or the ValueError / ReproError the server answers
    with 400 — whatever the ``$type``, ``f64``, ``shape`` and nesting."""
    try:
        decoded = decode_params(params)
    except (ValueError, ReproError):
        return
    assert isinstance(decoded, dict)
