"""Property-based tests (hypothesis) for the core invariants.

Covers: tensor arithmetic vs numpy, signature binding, aggregate
merge-associativity (the distributed-aggregation invariant), VECTORIZE /
ROWMATRIX semantics, stable hashing, and — the big one — *plan
equivalence*: for randomly generated queries over random tables, the
cost-based optimizer (LA-aware or size-blind) must produce exactly the
same rows as the unoptimized canonical plan.
"""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.engine import stable_hash
from repro.la import lookup, lookup_aggregate
from repro.plan import Binder, CostModel, Optimizer, PhysicalPlanner
from repro.engine import Cluster, Executor
from repro.sql import parse_statement
from repro.types import (
    LabeledScalar,
    Matrix,
    MatrixType,
    Signature,
    Vector,
    VectorType,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
small_dim = st.integers(min_value=1, max_value=6)


def vectors(length=None):
    length_strategy = st.just(length) if length else small_dim
    return length_strategy.flatmap(
        lambda n: st.lists(finite, min_size=n, max_size=n).map(Vector)
    )


def matrices(rows=None, cols=None):
    rows_strategy = st.just(rows) if rows else small_dim
    cols_strategy = st.just(cols) if cols else small_dim
    return st.tuples(rows_strategy, cols_strategy).flatmap(
        lambda shape: st.lists(
            st.lists(finite, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(Matrix)
    )


class TestTensorArithmetic:
    @given(vectors(4), vectors(4))
    def test_vector_addition_matches_numpy(self, left, right):
        assert np.allclose((left + right).data, left.data + right.data)

    @given(vectors(4), vectors(4))
    def test_vector_addition_commutes(self, left, right):
        assert (left + right).allclose(right + left)

    @given(vectors(3), finite)
    def test_scalar_broadcast_both_sides(self, vec, scalar):
        assert np.allclose((vec * scalar).data, (scalar * vec).data)

    @given(matrices(3, 3), matrices(3, 3))
    def test_hadamard_matches_numpy(self, left, right):
        assert np.allclose((left * right).data, left.data * right.data)

    @given(matrices(2, 4), matrices(4, 3))
    def test_matrix_multiply_matches_numpy(self, left, right):
        product = lookup("matrix_multiply")(left, right)
        assert np.allclose(product.data, left.data @ right.data)

    @given(matrices(3, 4))
    def test_double_transpose_identity(self, matrix):
        trans = lookup("trans_matrix")
        assert trans(trans(matrix)).allclose(matrix)

    @given(vectors(5), vectors(5))
    def test_inner_product_symmetric(self, left, right):
        inner = lookup("inner_product")
        assert inner(left, right) == pytest.approx(inner(right, left), rel=1e-9, abs=1e-6)

    @given(vectors(3), vectors(4))
    def test_outer_product_entries(self, left, right):
        outer = lookup("outer_product")(left, right)
        assert outer.shape == (3, 4)
        assert np.allclose(outer.data, np.outer(left.data, right.data))

    @given(matrices())
    def test_row_sums_total_equals_sum_matrix(self, matrix):
        row_sums = lookup("row_sums")(matrix)
        total = lookup("sum_matrix")(matrix)
        assert float(np.sum(row_sums.data)) == pytest.approx(total, rel=1e-9, abs=1e-6)


class TestSignatureProperties:
    @given(small_dim, small_dim, small_dim)
    def test_matrix_multiply_binding(self, a, b, c):
        sig = Signature.parse(
            "matrix_multiply(MATRIX[a][b], MATRIX[b][c]) -> MATRIX[a][c]"
        )
        result = sig.bind([MatrixType(a, b), MatrixType(b, c)])
        assert result == MatrixType(a, c)

    @given(small_dim, small_dim)
    def test_unknown_dims_always_bind(self, a, b):
        sig = Signature.parse(
            "matrix_vector_multiply(MATRIX[a][b], VECTOR[b]) -> VECTOR[a]"
        )
        assert sig.bind([MatrixType(a, None), VectorType(None)]) == VectorType(a)
        assert sig.bind([MatrixType(None, b), VectorType(b)]) == VectorType(None)


class TestAggregateProperties:
    @given(st.lists(finite, min_size=1, max_size=30), st.integers(1, 5))
    def test_sum_partition_invariance(self, values, pieces):
        """Distributed partial aggregation must equal serial aggregation
        for any partitioning of the input."""
        agg = lookup_aggregate("SUM")
        serial = None
        for value in values:
            serial = agg.add(serial, value)
        chunk = max(1, math.ceil(len(values) / pieces))
        partials = []
        for start in range(0, len(values), chunk):
            state = agg.create()
            for value in values[start : start + chunk]:
                state = agg.add(state, value)
            partials.append(state)
        merged = reduce(agg.merger.add, partials, agg.merger.create())
        assert agg.finish(merged) == pytest.approx(serial, rel=1e-9, abs=1e-6)

    @given(st.lists(st.tuples(st.integers(1, 10), finite), min_size=1, max_size=20))
    def test_vectorize_places_by_label(self, pairs):
        agg = lookup_aggregate("VECTORIZE")
        state = agg.create()
        for label, value in pairs:
            state = agg.add(state, LabeledScalar(value, label))
        vector = agg.finish(state)
        last = {}
        for label, value in pairs:
            last[label] = value
        assert vector.length == max(last)
        for label, value in last.items():
            assert vector.data[label - 1] == value

    @given(st.lists(finite, min_size=1, max_size=10))
    def test_min_max_bracket_all_values(self, values):
        low = lookup_aggregate("MIN")
        high = lookup_aggregate("MAX")
        state_lo, state_hi = None, None
        for value in values:
            state_lo = low.add(state_lo, value)
            state_hi = high.add(state_hi, value)
        assert state_lo == min(values)
        assert state_hi == max(values)


class TestStableHash:
    @given(st.lists(st.one_of(st.integers(), st.text(), finite), max_size=4))
    def test_deterministic(self, values):
        assert stable_hash(tuple(values)) == stable_hash(tuple(values))

    @given(st.integers(-(2**40), 2**40))
    def test_int_float_coincide(self, value):
        assert stable_hash((value,)) == stable_hash((float(value),))


# -- plan equivalence: random queries, optimized vs unoptimized --------------

TABLE_A_ROWS = [(i % 7, float(i), i % 3) for i in range(40)]
TABLE_B_ROWS = [(i % 5, float(i * 2)) for i in range(15)]


def _fresh_db():
    db = Database(TEST_CLUSTER)
    db.execute("CREATE TABLE ta (k INTEGER, x DOUBLE, g INTEGER)")
    db.execute("CREATE TABLE tb (k INTEGER, y DOUBLE)")
    db.load("ta", TABLE_A_ROWS)
    db.load("tb", TABLE_B_ROWS)
    return db


comparisons = st.sampled_from(["=", "<>", "<", ">", "<=", ">="])

_A_PREDICATES = st.one_of(
    st.tuples(st.just("ta.k"), comparisons, st.integers(0, 7)).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}"
    ),
    st.tuples(st.just("ta.x"), comparisons, st.integers(0, 40)).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}"
    ),
)
_B_PREDICATES = st.tuples(st.just("tb.y"), comparisons, st.integers(0, 30)).map(
    lambda t: f"{t[0]} {t[1]} {t[2]}"
)


@st.composite
def random_queries(draw):
    join = draw(st.booleans())
    pred_pool = (
        st.one_of(_A_PREDICATES, _B_PREDICATES) if join else _A_PREDICATES
    )
    preds = draw(st.lists(pred_pool, max_size=2))
    if join:
        where = ["ta.k = tb.k"] + preds
        from_clause = "ta, tb"
        grouped = draw(st.booleans())
        if grouped:
            select = "ta.g, COUNT(*), SUM(ta.x + tb.y)"
            tail = " GROUP BY ta.g"
        else:
            select = "ta.k, ta.x, tb.y"
            tail = ""
    else:
        where = preds
        from_clause = "ta"
        grouped = draw(st.booleans())
        if grouped:
            select = "ta.g, SUM(ta.x), MIN(ta.k), MAX(ta.x)"
            tail = " GROUP BY ta.g"
        else:
            select = "ta.k, ta.x * 2 + 1"
            tail = ""
    where_clause = f" WHERE {' AND '.join(where)}" if where else ""
    return f"SELECT {select} FROM {from_clause}{where_clause}{tail}"


def _run_unoptimized(db, sql):
    """Execute the binder's canonical plan with no optimizer pass."""
    statement = parse_statement(sql)
    plan = Binder(db.catalog).bind_select(statement)
    physical = PhysicalPlanner(CostModel(db.config)).plan(plan)
    executor = Executor(Cluster(db.config))
    # share storage: the fresh cluster only carries cost accounting
    rows, _ = executor.run(physical)
    return rows


class TestPlanEquivalence:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(random_queries())
    def test_optimizer_preserves_results(self, sql):
        db = _fresh_db()
        optimized = sorted(db.execute(sql).rows)
        unoptimized = sorted(_run_unoptimized(db, sql))
        assert optimized == unoptimized

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(random_queries())
    def test_size_blind_optimizer_preserves_results(self, sql):
        db = _fresh_db()
        blind = Database(TEST_CLUSTER, size_blind_optimizer=True)
        blind.execute("CREATE TABLE ta (k INTEGER, x DOUBLE, g INTEGER)")
        blind.execute("CREATE TABLE tb (k INTEGER, y DOUBLE)")
        blind.load("ta", TABLE_A_ROWS)
        blind.load("tb", TABLE_B_ROWS)
        assert sorted(db.execute(sql).rows) == sorted(blind.execute(sql).rows)
