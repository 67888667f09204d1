"""Row/batch interpreter equivalence and batch-columnar unit coverage.

The contract (docs/ENGINE.md): ``execution_mode`` is a pure interpreter
optimization. For any query both back ends must produce identical result
rows and *bit-identical* simulated :class:`QueryMetrics`, and every
:class:`TypedExpr` must accumulate identical :class:`EvalCost` totals
whether evaluated row-at-a-time or over a whole :class:`Batch`. The
hypothesis tests here drive randomized SELECT / WHERE / GROUP BY / join
queries (scalar and linear-algebra flavored) through both modes; the
unit tests cover :class:`ColumnData` (its three physical forms: typed
scalar, tensor block, object), :class:`Batch`, the agreement of the two
chunk kernels (:class:`RowChunk` and :class:`Batch`) operation by
operation — over scalar columns and over tensor-block columns with NULL
cells, special floats and the extent-1 shapes where numpy's reduce order
changes — and the ``execution_mode`` knob itself.
"""

import dataclasses
import itertools
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Database, PAPER_CLUSTER, TEST_CLUSTER
from repro.catalog import Schema
from repro.columnar import ColumnData, columns_from_rows, truth
from repro.engine import stable_hash
from repro.engine.cluster import columns_row_bytes, row_bytes
from repro.engine.keys import HashedKeys, TypedKeys, _key_codes, stable_order
from repro.engine import Cluster, Executor, OperatorMetrics
from repro.engine.storage import Batch, PartitionedTable, RowChunk
from repro.errors import ExecutionError, ReproError, RuntimeTypeError
from repro.la import lookup, lookup_aggregate
from repro.plan.physical import PExchange, PHashJoin
from repro.plan.expressions import (
    BinaryExpr,
    ColumnVar,
    EvalCost,
    FuncExpr,
    IsNullExpr,
    LiteralExpr,
    NegExpr,
    slot_sums,
)
from repro.sql import parse_statement
from repro.storage import MemorySegment, StorageEngine
from repro.types import (
    BOOLEAN,
    DOUBLE,
    INTEGER,
    STRING,
    Matrix,
    MatrixType,
    Vector,
    VectorType,
)

# -- randomized query equivalence --------------------------------------------

TABLE_A_ROWS = [(i % 7, float(i) - 3.5, i % 3) for i in range(40)]
TABLE_B_ROWS = [(i % 5, float(i * 2)) for i in range(15)]
VECTOR_DIM = 4
TABLE_V_ROWS = [
    (i, i % 3, Vector([float(i + j * j) - 5.0 for j in range(VECTOR_DIM)]))
    for i in range(24)
]


def _db(mode):
    db = Database(TEST_CLUSTER, execution_mode=mode)
    db.execute("CREATE TABLE ta (k INTEGER, x DOUBLE, g INTEGER)")
    db.execute("CREATE TABLE tb (k INTEGER, y DOUBLE)")
    db.execute("CREATE TABLE tv (id INTEGER, g INTEGER, v VECTOR[])")
    db.load("ta", TABLE_A_ROWS)
    db.load("tb", TABLE_B_ROWS)
    db.load("tv", TABLE_V_ROWS)
    return db


def _fingerprint(metrics):
    """Every simulated number an operator charges, bit-for-bit."""
    return (
        metrics.jobs,
        metrics.startup_seconds,
        metrics.total_seconds,
        tuple(
            (
                op.name,
                op.rows_in,
                op.rows_out,
                op.bytes_out,
                op.wall_seconds,
                op.max_worker_seconds,
                op.mean_worker_seconds,
                op.network_bytes,
            )
            for op in metrics.operators
        ),
    )


def _assert_modes_agree(sql):
    row_result = _db("row").execute(sql)
    batch_result = _db("batch").execute(sql)
    row_digest = sorted(stable_hash(tuple(r)) for r in row_result.rows)
    batch_digest = sorted(stable_hash(tuple(r)) for r in batch_result.rows)
    assert row_digest == batch_digest
    assert _fingerprint(row_result.metrics) == _fingerprint(batch_result.metrics)


comparisons = st.sampled_from(["=", "<>", "<", ">", "<=", ">="])

_A_PREDICATES = st.one_of(
    st.tuples(st.just("ta.k"), comparisons, st.integers(0, 7)).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}"
    ),
    st.tuples(st.just("ta.x"), comparisons, st.integers(-4, 40)).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}"
    ),
)
_B_PREDICATES = st.tuples(st.just("tb.y"), comparisons, st.integers(0, 30)).map(
    lambda t: f"{t[0]} {t[1]} {t[2]}"
)


@st.composite
def scalar_queries(draw):
    join = draw(st.booleans())
    pred_pool = (
        st.one_of(_A_PREDICATES, _B_PREDICATES) if join else _A_PREDICATES
    )
    preds = draw(st.lists(pred_pool, max_size=2))
    if join:
        where = ["ta.k = tb.k"] + preds
        from_clause = "ta, tb"
        if draw(st.booleans()):
            select = "ta.g, COUNT(*), SUM(ta.x + tb.y)"
            tail = " GROUP BY ta.g"
        else:
            select = "ta.k, ta.x, tb.y"
            tail = ""
    else:
        where = preds
        from_clause = "ta"
        if draw(st.booleans()):
            select = "ta.g, SUM(ta.x), MIN(ta.k), MAX(ta.x), COUNT(*)"
            tail = " GROUP BY ta.g"
        else:
            select = "ta.k, ta.x * 2 + 1"
            tail = ""
    where_clause = f" WHERE {' AND '.join(where)}" if where else ""
    return f"SELECT {select} FROM {from_clause}{where_clause}{tail}"


@st.composite
def vector_queries(draw):
    """LA-flavored queries exercising the vectorized builtin paths."""
    threshold = draw(st.integers(0, 24))
    shape = draw(st.integers(0, 3))
    where = f" WHERE t.id {draw(comparisons)} {threshold}"
    if shape == 0:
        return f"SELECT SUM(outer_product(t.v, t.v)) FROM tv AS t{where}"
    if shape == 1:
        return (
            "SELECT t.g, SUM(outer_product(t.v, t.v)), COUNT(*) "
            f"FROM tv AS t{where} GROUP BY t.g"
        )
    if shape == 2:
        return (
            "SELECT t.id, inner_product(t.v, t.v) "
            f"FROM tv AS t{where} ORDER BY id LIMIT 10"
        )
    return (
        "SELECT a.id, b.id, inner_product(a.v, b.v) "
        f"FROM tv AS a, tv AS b WHERE a.g = b.g AND a.id {draw(comparisons)} "
        f"{threshold}"
    )


class TestModeEquivalence:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scalar_queries())
    def test_scalar_queries_agree(self, sql):
        _assert_modes_agree(sql)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(vector_queries())
    def test_vector_queries_agree(self, sql):
        _assert_modes_agree(sql)

    def test_distinct_and_subquery_agree(self):
        _assert_modes_agree("SELECT DISTINCT ta.g FROM ta")
        _assert_modes_agree(
            "SELECT s.g, s.total FROM "
            "(SELECT ta.g AS g, SUM(ta.x) AS total FROM ta GROUP BY ta.g) AS s "
            "WHERE s.total > 0"
        )


    @pytest.mark.parametrize(
        "column_type, values",
        [
            ("DOUBLE", [3, 2.0, 7, 2.0]),  # int64 beside float64 partitions
            ("INTEGER", [True, 2, False, 5]),  # bool_ beside int64 partitions
        ],
    )
    def test_partitions_of_different_dtypes_keep_python_types(
        self, column_type, values
    ):
        """Round-robin loading puts the ints on one slot and the floats
        on the other; gathering them must not upcast (x = 3 stays an int,
        so x / 2 stays integer division) in either mode."""
        results = {}
        for mode in ("row", "batch"):
            db = Database(
                TEST_CLUSTER.with_updates(machines=1, cores_per_machine=2),
                execution_mode=mode,
            )
            db.execute(f"CREATE TABLE t (k INTEGER, x {column_type})")
            db.load("t", [(i + 1, value) for i, value in enumerate(values)])
            results[mode] = db.execute("SELECT t.k, t.x, t.x / 2 FROM t ORDER BY k")
        row, batch = results["row"], results["batch"]
        assert [value for _, value, _ in row.rows] == values
        assert _cells_identical(row.rows, batch.rows)
        assert _fingerprint(row.metrics) == _fingerprint(batch.metrics)


# -- expression-level EvalCost equivalence -----------------------------------

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
#: payloads on which a reordered or re-associated kernel shows: signed
#: zeros, NaN, infinities, and magnitudes that absorb or cancel
special_floats = st.one_of(
    finite,
    st.sampled_from(
        [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e-300]
    ),
)


def tensor_cells(dim, rows=0):
    """Vectors of length ``dim``, or ``rows`` x ``dim`` matrices."""
    if not rows:
        return st.lists(special_floats, min_size=dim, max_size=dim).map(Vector)
    return st.lists(
        st.lists(special_floats, min_size=dim, max_size=dim),
        min_size=rows,
        max_size=rows,
    ).map(Matrix)


def _vector_rows(draw_lists, dim):
    return [
        (float(x), Vector(vec))
        for x, vec in draw_lists
        if len(vec) == dim
    ]


class TestEvalCostEquivalence:
    """evaluate() per row and evaluate_batch() over the same rows must
    accumulate identical EvalCost totals and produce identical values."""

    @staticmethod
    def _compare(expr, rows, column_ids):
        row_cost = EvalCost()
        expected = [expr.evaluate(row, row_cost) for row in rows]
        batch = Batch.from_rows(column_ids, rows)
        batch_cost = EvalCost()
        actual = expr.evaluate_batch(batch, batch_cost).pylist()
        for want, got in zip(expected, actual):
            if isinstance(want, (Vector,)):
                assert got.data.tobytes() == want.data.tobytes()
            elif want is None:
                assert got is None
            elif hasattr(want, "data"):  # Matrix
                assert got.data.tobytes() == want.data.tobytes()
            else:
                assert got == want
        assert batch_cost.flops == row_cost.flops
        assert batch_cost.blas1_flops == row_cost.blas1_flops
        assert batch_cost.stream_bytes == row_cost.stream_bytes
        assert batch_cost.calls == row_cost.calls

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                finite, st.lists(finite, min_size=3, max_size=3)
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_builtin_and_arithmetic_costs(self, raw):
        rows = [(x, Vector(vec)) for x, vec in raw]
        x = ColumnVar(0, DOUBLE, "x")
        v = ColumnVar(1, VectorType(3), "v")
        outer = FuncExpr(lookup("outer_product"), [v, v])
        inner = FuncExpr(lookup("inner_product"), [v, v])
        scale = BinaryExpr("*", v, x)
        arith = BinaryExpr("+", BinaryExpr("*", x, x), x)
        compare = BinaryExpr(">", x, x)
        for expr in (outer, inner, scale, arith, compare, NegExpr(x)):
            self._compare(expr, rows, (0, 1))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(st.none(), finite), min_size=1, max_size=20
        )
    )
    def test_null_handling_costs(self, values):
        rows = [(value,) for value in values]
        x = ColumnVar(0, DOUBLE, "x")
        for expr in (
            BinaryExpr("+", x, x),
            BinaryExpr("<", x, x),
            IsNullExpr(x),
            IsNullExpr(x, negated=True),
        ):
            self._compare(expr, rows, (0,))

    def test_mixed_vector_lengths_fall_back(self):
        """Non-uniform tensor shapes must use the per-row path yet still
        match the row interpreter's cost and values."""
        rows = [
            (1.0, Vector([1.0, 2.0])),
            (2.0, Vector([3.0, 4.0, 5.0])),
            (3.0, Vector([6.0, 7.0])),
        ]
        v = ColumnVar(1, VectorType(None), "v")
        self._compare(FuncExpr(lookup("outer_product"), [v, v]), rows, (0, 1))

    def test_checks_are_kept_per_argument_form(self):
        """One ``FuncExpr`` over batches of several forms: each form's
        shape check and flop price are its own — a form seen before is
        charged its price again, and a mismatched one still raises."""
        m = ColumnVar(0, MatrixType(None, None), "m")
        v = ColumnVar(1, VectorType(None), "v")
        times = FuncExpr(lookup("matrix_vector_multiply"), [m, v])

        def batch(rows, cols, length):
            return Batch.from_rows(
                (0, 1), [(Matrix(np.ones((rows, cols))), Vector(np.ones(length)))] * 4
            )

        for rows, cols in ((2, 3), (3, 4), (2, 3)):
            for expr in (times, FuncExpr(times.builtin, [m, v])):  # warm, fresh
                cost = EvalCost()
                expr.evaluate_batch(batch(rows, cols, cols), cost)
                assert (cost.blas1_flops, cost.calls) == (4 * 2 * rows * cols, 4)
        with pytest.raises(RuntimeTypeError):
            times.evaluate_batch(batch(2, 3, 2), EvalCost())


# -- columnar building blocks ------------------------------------------------


class TestColumnData:
    def test_typed_promotion_and_exact_roundtrip(self):
        col = ColumnData.from_values([1.5, 2.0, -0.25])
        assert col.data.dtype == np.float64
        assert col.pylist() == [1.5, 2.0, -0.25]
        assert all(type(v) is float for v in col.pylist())

    def test_mixed_types_stay_object(self):
        col = ColumnData.from_values([1, 2.0, 3])
        assert col.data.dtype == object
        assert col.pylist() == [1, 2.0, 3]
        assert [type(v) for v in col.pylist()] == [int, float, int]

    def test_nulls_roundtrip(self):
        col = ColumnData.from_values([1.0, None, 3.0])
        assert col.pylist() == [1.0, None, 3.0]

    def test_truth_treats_null_as_false(self):
        col = ColumnData.from_values([True, None, False, True])
        assert truth(col).tolist() == [True, False, False, True]

    def test_uniform_tensor_cells_become_one_block(self):
        """A fixed-shape tensor column is one contiguous float64 array,
        NULL cells included — not an object array of wrappers."""
        vectors = ColumnData.from_values(
            [Vector([1.0, -0.0]), None, Vector([3.0, 4.0])]
        )
        assert vectors.is_block and not vectors.is_object
        assert vectors.data.dtype == np.float64 and vectors.data.shape == (3, 2)
        assert vectors.data.flags.c_contiguous
        assert vectors.nulls.tolist() == [False, True, False]
        matrices = ColumnData.from_values([Matrix(np.eye(2)), Matrix(np.ones((2, 2)))])
        assert matrices.is_block and matrices.data.shape == (2, 2, 2)
        assert matrices.nulls is None
        # whatever the cell size: the paper's block style carries big cells
        big = ColumnData.from_values([Matrix(np.zeros((65, 64)))] * 2)
        assert big.is_block and big.data.shape == (2, 65, 64)

    @pytest.mark.parametrize(
        "values",
        [
            [Vector([1.0]), Vector([1.0, 2.0])],  # ragged
            [Vector([1.0, 2.0]), Vector([3.0, 4.0], label=2)],  # labelled
            [Vector([1.0, 2.0]), Matrix([[1.0, 2.0]])],  # mixed kinds
            [Matrix(np.eye(2)), Matrix(np.eye(3))],  # ragged matrices
            [Vector([1.0, 2.0]), 3.0],  # tensor beside a scalar
            [None, None],
        ],
    )
    def test_other_tensor_columns_stay_object(self, values):
        col = ColumnData.from_values(values)
        assert col.data.dtype == object and not col.is_block
        assert all(got is want for got, want in zip(col.pylist(), values))

    def test_concat_of_disagreeing_forms_meets_as_objects(self):
        ints, floats = ColumnData.from_values([1, 2]), ColumnData.from_values([2.0])
        merged = ColumnData.concat([ints, floats])
        assert merged.data.dtype == object
        assert [type(value) for value in merged.pylist()] == [int, int, float]
        flags = ColumnData.from_values([True])
        assert ColumnData.concat([flags, ints]).pylist() == [True, 1, 2]
        assert type(ColumnData.concat([flags, ints]).pylist()[0]) is bool
        block = ColumnData.from_values([Vector([1.0, 2.0])])
        wider = ColumnData.from_values([Vector([1.0, 2.0, 3.0])])
        assert ColumnData.concat([block, block]).data.shape == (2, 2)
        assert ColumnData.concat([block, wider]).data.dtype == object
        assert ColumnData.concat([block, ints]).pylist()[1:] == [1, 2]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_from_values_pylist_roundtrip(self, data):
        """Whatever physical form from_values picks, pylist gives back
        the same values: same Python types, same float bits, same
        labels, None where NULL."""
        values = data.draw(
            st.one_of(
                st.lists(st.one_of(st.none(), special_floats), max_size=8),
                st.lists(st.one_of(st.none(), st.integers(-5, 5)), max_size=8),
                st.lists(st.one_of(st.none(), tensor_cells(2)), max_size=8),
                st.lists(
                    st.one_of(
                        st.none(),
                        tensor_cells(2),
                        tensor_cells(3),
                        tensor_cells(2).map(lambda v: v.with_label(4)),
                        tensor_cells(2, 2),
                    ),
                    max_size=8,
                ),
            )
        )
        col = ColumnData.from_values(values)
        assert len(col) == len(values)
        assert _cells_identical(values, col.pylist())
        assert _cells_identical(values, list(col))
        for got, want in zip(col.pylist(), values):
            if isinstance(want, Vector):
                assert got.label == want.label
        mask = np.array([i % 2 == 0 for i in range(len(values))], dtype=bool)
        assert _cells_identical(values[::2], col.filter(mask).pylist())
        assert _cells_identical(
            values + values, ColumnData.concat([col, col]).pylist()
        )


class TestBatch:
    ROWS = [(1, "a", Vector([1.0, 2.0])), (2, "bc", None), (3, "", Vector([3.0, 4.0]))]

    def test_rows_roundtrip(self):
        batch = Batch.from_rows((10, 11, 12), self.ROWS)
        assert batch.rows() == self.ROWS
        assert batch.col(11).pylist() == ["a", "bc", ""]

    def test_row_bytes_match_cluster_accounting(self):
        batch = Batch.from_rows((0, 1, 2), self.ROWS)
        expected = [row_bytes(row) for row in self.ROWS]
        assert batch.row_bytes_array().tolist() == expected
        assert batch.total_bytes() == float(sum(expected))

    def test_filter_and_take_slice_cached_bytes(self):
        batch = Batch.from_rows((0, 1, 2), self.ROWS)
        sizes = batch.row_bytes_array()
        kept = batch.filter(np.array([True, False, True]))
        assert kept.rows() == [self.ROWS[0], self.ROWS[2]]
        assert kept.row_bytes_array().tolist() == [sizes[0], sizes[2]]
        taken = batch.take(np.array([2, 0]))
        assert taken.rows() == [self.ROWS[2], self.ROWS[0]]
        assert taken.row_bytes_array().tolist() == [sizes[2], sizes[0]]

    def test_concat(self):
        left = Batch.from_rows((0, 1, 2), self.ROWS[:1])
        right = Batch.from_rows((0, 1, 2), self.ROWS[1:])
        merged = Batch.concat((0, 1, 2), [left, right])
        assert merged.rows() == self.ROWS
        assert merged.total_bytes() == float(
            sum(row_bytes(row) for row in self.ROWS)
        )


# -- the two chunk kernels, operation by operation ---------------------------

CHUNK_IDS = (10, 11, 12, 13, 14, 15)
chunk_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-50, 50)),
        st.one_of(st.none(), finite),
        st.text(max_size=4),
        st.one_of(st.none(), st.lists(finite, min_size=3, max_size=3).map(Vector)),
        st.lists(finite, min_size=1, max_size=4).map(Vector),  # ragged
        st.lists(
            st.lists(finite, min_size=2, max_size=2), min_size=2, max_size=2
        ).map(Matrix),
    ),
    max_size=12,
)


def _cells_identical(want, got):
    if want is None:
        return got is None
    if isinstance(want, (Vector, Matrix)):
        return (
            type(got) is type(want)
            and got.data.shape == want.data.shape
            and got.data.tobytes() == want.data.tobytes()
        )
    if isinstance(want, (tuple, list)):
        return len(want) == len(got) and all(
            _cells_identical(a, b) for a, b in zip(want, got)
        )
    if isinstance(want, float):
        # bit-for-bit (the sign of -0.0 included), except that any NaN
        # matches any NaN: the sign CPython gives ``nan + -nan`` between
        # two Python floats depends on whether the interpreter has
        # specialised that ``+`` yet, so it is not part of the contract
        # (tensor payloads, computed by numpy, are compared bytewise)
        if type(got) is not float:
            return False
        if want != want:
            return got != got
        return struct.pack("<d", got) == struct.pack("<d", want)
    return type(got) is type(want) and got == want


def _bits(value):
    """An orderable stand-in for a DISTINCT state's member (NaN-proof)."""
    if isinstance(value, (Vector, Matrix)):
        return value.data.tobytes()
    return struct.pack("<d", value)


def _costs(cost):
    return (cost.flops, cost.blas1_flops, cost.stream_bytes, cost.calls)


def _spec(name, arg, distinct=False):
    """An aggregate spec as ``partial_aggregate`` reads one."""
    return SimpleNamespace(
        distinct=distinct, aggregate=lookup_aggregate(name), arg=arg
    )


def _assert_chunks_agree(chunk, batch):
    assert type(chunk) is RowChunk and type(batch) is Batch
    assert len(chunk) == len(batch)
    assert _cells_identical(chunk.rows(), batch.rows())
    assert list(chunk.row_bytes()) == batch.row_bytes_array().tolist()
    assert list(chunk.row_bytes()) == [row_bytes(row) for row in chunk.rows()]
    assert chunk.total_bytes() == batch.total_bytes()


class TestChunkKernelsAgree:
    """RowChunk and Batch built from the same rows agree exactly on
    every protocol operation, so an executor-level divergence between
    the execution modes is pinned to one kernel."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rows=chunk_rows,
        picks=st.lists(st.integers(0, 1000), max_size=10),
        cut=st.integers(0, 12),
    )
    def test_every_protocol_operation(self, rows, picks, cut):
        chunk = RowChunk.from_rows(CHUNK_IDS, rows)
        batch = Batch.from_rows(CHUNK_IDS, rows)
        _assert_chunks_agree(chunk, batch)
        columns = columns_from_rows(rows, len(CHUNK_IDS))
        segment = MemorySegment(columns, columns_row_bytes(columns, len(rows)))
        _assert_chunks_agree(
            *(cls.from_segment(CHUNK_IDS, segment)[0] for cls in (RowChunk, Batch))
        )

        indices = [pick % len(rows) for pick in picks] if rows else []
        _assert_chunks_agree(chunk.take(indices), batch.take(indices))
        halves = (rows[:cut], rows[cut:])
        _assert_chunks_agree(
            *(
                cls.concat(
                    CHUNK_IDS, [cls.from_rows(CHUNK_IDS, half) for half in halves]
                )
                for cls in (RowChunk, Batch)
            )
        )

        k = ColumnVar(10, INTEGER, "k")
        x = ColumnVar(11, DOUBLE, "x")
        v = ColumnVar(13, VectorType(3), "v")
        ragged = ColumnVar(14, VectorType(None), "r")
        exprs = [
            BinaryExpr("+", x, k),
            FuncExpr(lookup("inner_product"), [v, v]),
            FuncExpr(lookup("outer_product"), [ragged, ragged]),
            IsNullExpr(v),
        ]
        for expr in exprs:
            row_cost, batch_cost = EvalCost(), EvalCost()
            assert _cells_identical(
                chunk.values(expr, row_cost), batch.values(expr, batch_cost)
            )
            assert _costs(row_cost) == _costs(batch_cost)

        row_cost, batch_cost = EvalCost(), EvalCost()
        _assert_chunks_agree(
            chunk.project((20, 21, 22, 23), exprs, row_cost),
            batch.project((20, 21, 22, 23), exprs, batch_cost),
        )
        assert _costs(row_cost) == _costs(batch_cost)

        positive = BinaryExpr(">", x, LiteralExpr(0.0, DOUBLE))
        row_cost, batch_cost = EvalCost(), EvalCost()
        _assert_chunks_agree(
            chunk.filter(chunk.keep(positive, row_cost)),
            batch.filter(batch.keep(positive, batch_cost)),
        )
        assert _costs(row_cost) == _costs(batch_cost)

        joined_ids = CHUNK_IDS + (30, 31, 32, 33, 34, 35)
        for probe_is_left in (True, False):
            _assert_chunks_agree(
                chunk.join(joined_ids, chunk, indices, indices[::-1], probe_is_left),
                batch.join(joined_ids, batch, indices, indices[::-1], probe_is_left),
            )

        groups = [
            [i for i in range(len(rows)) if i % 2 == parity] for parity in (0, 1)
        ]
        groups = [group for group in groups if group]
        matrix = ColumnVar(15, MatrixType(2, 2), "m")
        for arg in (v, ragged, matrix, x):
            if arg is ragged and len({row[4].length for row in rows}) > 1:
                continue  # SUM over ragged vectors is a runtime type error
            sum_spec = _spec("SUM", arg)
            row_cost, batch_cost = EvalCost(), EvalCost()
            assert _cells_identical(
                chunk.partial_aggregate(sum_spec, groups, row_cost),
                batch.partial_aggregate(sum_spec, groups, batch_cost),
            )
            assert _costs(row_cost) == _costs(batch_cost)

    # -- tensor-block columns ----------------------------------------------

    @staticmethod
    def _both(row_call, batch_call):
        """Both kernels' outcomes: ``(value, cost)`` each, or the error
        type both must raise (a shape error surfaces in both or neither)."""
        outcomes = []
        for call in (row_call, batch_call):
            cost = EvalCost()
            try:
                with np.errstate(all="ignore"):
                    outcomes.append((call(cost), _costs(cost)))
            except ReproError as exc:
                outcomes.append(type(exc))
        row_outcome, batch_outcome = outcomes
        if isinstance(row_outcome, type) or isinstance(batch_outcome, type):
            assert row_outcome is batch_outcome
            return None
        assert row_outcome[1] == batch_outcome[1]
        return row_outcome[0], batch_outcome[0]

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0, inf - inf
    def test_tensor_block_columns(self, data):
        """The protocol property over tensor columns: uniform VECTOR and
        MATRIX columns (tensor blocks in a Batch) with NULL cells,
        special-float payloads, empty partitions and the extent-1 shapes
        (VECTOR[1], MATRIX[1][1], MATRIX[k][1]) where numpy's reduce
        order changes, beside a column that may be labelled or ragged
        (an object column)."""
        dim = data.draw(st.integers(1, 3), label="dim")
        mrows = data.draw(st.integers(1, 3), label="matrix rows")
        wild = st.one_of(
            tensor_cells(dim),
            tensor_cells(dim).map(lambda v: v.with_label(2)),
            tensor_cells(dim + 1),
        )
        ids = (20, 21, 22, 23, 24, 25)
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, 2),
                    special_floats,
                    st.one_of(st.none(), tensor_cells(dim)),
                    tensor_cells(dim),
                    st.one_of(st.none(), tensor_cells(dim, mrows)),
                    wild,
                ),
                max_size=10,
            ),
            label="rows",
        )
        picks = data.draw(st.lists(st.integers(0, 1000), max_size=8), label="picks")
        cut = data.draw(st.integers(0, 10), label="cut")

        chunk = RowChunk.from_rows(ids, rows)
        batch = Batch.from_rows(ids, rows)
        _assert_chunks_agree(chunk, batch)
        if rows:
            assert batch.col(23).is_block
            assert batch.col(22).is_block == any(row[2] is not None for row in rows)

        indices = [pick % len(rows) for pick in picks] if rows else []
        _assert_chunks_agree(chunk.take(indices), batch.take(indices))
        # block + block, block + object (a labelled or ragged half),
        # and an empty partition on either side
        halves = (rows[:cut], rows[cut:])
        _assert_chunks_agree(
            *(
                cls.concat(ids, [cls.from_rows(ids, half) for half in halves])
                for cls in (RowChunk, Batch)
            )
        )

        k = ColumnVar(20, INTEGER, "k")
        x = ColumnVar(21, DOUBLE, "x")
        v = ColumnVar(22, VectorType(dim), "v")
        w = ColumnVar(23, VectorType(dim), "w")
        m = ColumnVar(24, MatrixType(mrows, dim), "m")
        r = ColumnVar(25, VectorType(None), "r")
        outer, inner, times = (
            lookup("outer_product"),
            lookup("inner_product"),
            lookup("matrix_vector_multiply"),
        )
        exprs = [
            FuncExpr(outer, [w, w]),
            FuncExpr(outer, [v, w]),
            FuncExpr(inner, [v, w]),
            FuncExpr(times, [m, w]),
            FuncExpr(times, [m, BinaryExpr("*", v, x)]),
            FuncExpr(inner, [w, LiteralExpr(Vector([1.5] * dim), VectorType(dim))]),
            BinaryExpr("+", v, w),
            BinaryExpr("*", w, x),
            BinaryExpr("-", k, w),
            BinaryExpr("/", m, x),
            BinaryExpr("*", m, m),
            NegExpr(v),
            NegExpr(m),
            IsNullExpr(m),
            FuncExpr(outer, [r, w]),
            FuncExpr(inner, [r, w]),
            BinaryExpr("+", r, w),
        ]
        for expr in exprs:
            pair = self._both(
                lambda cost: chunk.values(expr, cost),
                lambda cost: batch.values(expr, cost),
            )
            assert pair is None or _cells_identical(*pair), expr

        safe = exprs[:14]  # the wild column may raise mid-projection
        out_ids = tuple(range(40, 40 + len(safe)))
        projected = self._both(
            lambda cost: chunk.project(out_ids, safe, cost),
            lambda cost: batch.project(out_ids, safe, cost),
        )
        _assert_chunks_agree(*projected)

        keep = BinaryExpr(">", k, LiteralExpr(0, INTEGER))
        _assert_chunks_agree(
            *self._both(
                lambda cost: chunk.filter(chunk.keep(keep, cost)),
                lambda cost: batch.filter(batch.keep(keep, cost)),
            )
        )

        joined_ids = ids + (30, 31, 32, 33, 34, 35)
        for probe_is_left in (True, False):
            _assert_chunks_agree(
                chunk.join(joined_ids, chunk, indices, indices[::-1], probe_is_left),
                batch.join(joined_ids, batch, indices, indices[::-1], probe_is_left),
            )

        by_key = {}
        for i, row in enumerate(rows):
            by_key.setdefault(row[0], []).append(i)
        groupings = [list(by_key.values())]
        if rows:
            groupings.append([range(len(rows))])  # the global aggregate
        inputs = [v, w, m, r] + exprs[:5] + [BinaryExpr("*", w, x)]
        for name, distinct in (("SUM", False), ("MIN", False), ("COUNT", True)):
            for expr in inputs:
                spec = _spec(name, expr, distinct)
                for groups in groupings:
                    pair = self._both(
                        lambda cost: chunk.partial_aggregate(spec, groups, cost),
                        lambda cost: batch.partial_aggregate(spec, groups, cost),
                    )
                    if pair is None:
                        continue
                    if distinct:  # states are sets of values
                        pair = [[sorted(map(_bits, s)) for s in side] for side in pair]
                    assert _cells_identical(*pair), (name, expr)

    def test_sum_order_on_large_blocks(self):
        """The block SUM is the sequential fold, and the fused
        outer-product SUM the blocked one, at partition scale too (numpy
        buffers long reductions; a partition spans many steps): plain,
        fused and single-element cells, the row oracle against the batch
        kernel."""
        rng = np.random.default_rng(5)
        for count, dim in ((9000, 1), (9000, 2), (3000, 8), (300, 64)):
            scale = 10.0 ** rng.integers(-8, 8, size=(count, dim))
            rows = [(Vector(cell),) for cell in rng.normal(size=(count, dim)) * scale]
            chunk, batch = RowChunk.from_rows((0,), rows), Batch.from_rows((0,), rows)
            v = ColumnVar(0, VectorType(dim), "v")
            for expr in (v, FuncExpr(lookup("outer_product"), [v, v])):
                sum_spec, groups = _spec("SUM", expr), [range(count)]
                row_cost, batch_cost = EvalCost(), EvalCost()
                assert _cells_identical(
                    chunk.partial_aggregate(sum_spec, groups, row_cost),
                    batch.partial_aggregate(sum_spec, groups, batch_cost),
                )
                assert _costs(row_cost) == _costs(batch_cost)


def _scan_pieces(cls, ids, table, slot, pool=None):
    """What ``Executor._scan`` builds for one partition: every segment's
    chunk with its buffer-pool outcome."""
    return [cls.from_segment(ids, seg, pool) for seg in table.segments(slot)]


def _per_row_bytes(chunk):
    if isinstance(chunk, Batch):
        return chunk.row_bytes_array().tolist()
    return list(chunk.row_bytes())


class TestScanAssembly:
    """A scanned partition is ``concat`` of its segments' chunks, and
    that equals one ``from_rows`` over the partition's rows — rows,
    per-row bytes and total bytes — for both chunk classes and both
    segment homes, whatever physical form each segment's columns took."""

    @staticmethod
    def _assert_assembles(rows, width, ids, segment_rows):
        schema = Schema([(f"c{i}", "INTEGER") for i in range(width)])
        for home in ("memory", "disk"):
            engine = StorageEngine(
                TEST_CLUSTER.with_updates(storage_mode=home, segment_rows=segment_rows)
            )
            try:
                table = PartitionedTable(
                    schema, 1, segment_rows=segment_rows, engine=engine
                )
                table.insert_many(rows)
                sealed = len(rows) // segment_rows
                assert len(table.segments(0)) == sealed + bool(len(rows) % segment_rows)
                for cls in (RowChunk, Batch):
                    whole = cls.from_rows(ids, rows)
                    # the second pass reads cached columns / pooled rows
                    for expected in ("miss", "hit"):
                        pieces = _scan_pieces(cls, ids, table, 0, engine.buffer_pool)
                        outcomes = [outcome for _, outcome in pieces]
                        if home == "disk":
                            assert outcomes[:sealed] == [expected] * sealed
                            assert outcomes[sealed:] == [None] * (len(pieces) - sealed)
                        else:
                            assert outcomes == [None] * len(pieces)
                        assembled = cls.concat(ids, [piece for piece, _ in pieces])
                        assert _cells_identical(whole.rows(), assembled.rows())
                        assert _per_row_bytes(whole) == _per_row_bytes(assembled)
                        assert whole.total_bytes() == assembled.total_bytes()
                    if home == "disk":
                        for segment in table.segments(0)[:sealed]:
                            engine.buffer_pool.invalidate(segment.path)
            finally:
                engine.close()

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(rows=chunk_rows, segment_rows=st.integers(1, 6))
    def test_concat_of_segment_chunks_equals_from_rows(self, rows, segment_rows):
        self._assert_assembles(rows, len(CHUNK_IDS), CHUNK_IDS, segment_rows)

    def test_segments_of_different_physical_forms(self):
        """int64 beside a NULL-bearing segment, a tensor block beside a
        labelled and a ragged segment, and an empty tail."""
        rows = [
            (1, Vector([1.0, 2.0])),
            (2, Vector([3.0, -0.0])),
            (None, Vector([5.0, 6.0]).with_label(2)),
            (4, Vector([7.0, 8.0])),
            (5, Vector([9.0])),
            (6, Vector([1.0, 2.0])),
        ]
        table = PartitionedTable(
            Schema([("k", "INTEGER"), ("v", "VECTOR[]")]), 1, segment_rows=2
        )
        table.insert_many(rows)
        first, second, third = (
            batch for batch, _ in _scan_pieces(Batch, (0, 1), table, 0)
        )
        assert first.col(0).is_numeric and first.col(1).is_block
        assert second.col(0).is_object and second.col(1).is_object
        assert third.col(0).is_numeric and third.col(1).is_object
        self._assert_assembles(rows, 2, (0, 1), 2)


class TestSharedBlocks:
    """A table segment's cached columns hand every query the same
    blocks."""

    @staticmethod
    def _db():
        db = Database(TEST_CLUSTER, execution_mode="batch")
        db.execute("CREATE TABLE t (id INTEGER, v VECTOR[])")
        db.load("t", [(i, Vector([float(i), -float(i)])) for i in range(12)])
        return db

    def test_scans_and_kernels_stay_on_blocks(self, monkeypatch):
        """A silent fall back to the object path would keep every result
        right and only lose the speed, so pin the physical form: the
        scan's vector column is a block, the outer product of two blocks
        is a block, and the Gram aggregate folds the argument blocks
        without ever running the kernel that materializes the products."""
        db = self._db()
        storage = db.catalog.table("t").storage
        (segment,) = storage.segments(0)
        batch, _ = Batch.from_segment((0, 1), segment)
        assert batch.col(1).is_block and batch.col(1).data.dtype == np.float64
        assert Batch.from_segment((0, 1), segment)[0].col(1) is batch.col(1)
        v = ColumnVar(1, VectorType(2), "v")
        outer = lookup("outer_product")
        product = FuncExpr(outer, [v, v])
        column = product.evaluate_batch(batch)
        assert column.is_block and column.data.shape == (len(batch), 2, 2)
        calls = []
        monkeypatch.setattr(
            outer, "block_impl", lambda *blocks: calls.append(blocks), raising=True
        )
        (state,) = batch.partial_aggregate(
            _spec("SUM", product), [range(len(batch))], EvalCost()
        )
        assert not calls
        assert state.finish().data.tobytes() == column.data.sum(axis=0).tobytes()

    def test_mutating_a_result_cannot_corrupt_the_cached_block(self):
        db = self._db()
        query = "SELECT t.v FROM t WHERE t.id = 3"
        total = "SELECT SUM(t.v) FROM t"
        before = db.execute(total).scalar().data.copy()
        for result in (db.execute(query), db.execute(total)):
            value = result.scalar()
            try:
                value.data[0] = 1e9
            except ValueError:
                pass  # blocks (and the views results wrap) are read-only
        assert db.execute(query).scalar().data.tolist() == [3.0, -3.0]
        assert db.execute(total).scalar().data.tolist() == before.tolist()


# -- key kernels: grouping, scalar folds, join matching, ordering --------------

#: one draw per kind of key column: the three typed forms (their edges
#: included), and the three that keep the dict loops — NULL-bearing,
#: int beside float (one Python-number key space: 1 = 1.0), strings.
#: ``int`` keeps int64's minimum and maximum in one column (a span that
#: overflows int64); ``narrow`` spans up to 81 values, so a column of a
#: few rows takes ``np.unique``'s codes and one of more rows ``value -
#: min``, two of them fold past the table bound, and a sort of more than
#: 16 rows takes the ``uint16`` radix form
_NAN = float("nan")
KEY_KINDS = {
    "int": st.one_of(
        st.integers(-2, 2),
        st.sampled_from([-(2**63), 2**63 - 1, 2**62, 2**62 + 1]),
    ),
    "narrow": st.integers(-40, 40),
    "bool": st.booleans(),
    # 2.0**62 is 2**62 and not 2**62 + 1: float64 cannot tell, Python can
    "float": st.sampled_from(
        [0.0, -0.0, 1.0, -1.5, 2.5, 2.0**62, _NAN, -_NAN, float("nan"),
         float("inf"), float("-inf")]
    ),
    "nullable": st.one_of(st.none(), st.integers(-1, 1)),
    "mixed": st.one_of(st.integers(-1, 2), st.sampled_from([1.0, 2.0, -0.0, 0.5])),
    "text": st.sampled_from(["", "a", "b", "ab"]),
}
KEY_SQL_TYPES = {
    "int": "INTEGER", "narrow": "INTEGER", "bool": "INTEGER", "float": "DOUBLE",
    "nullable": "INTEGER", "mixed": "DOUBLE", "text": "STRING",
}
#: full-width doubles either side of zero, so a reassociated or
#: reordered sum shows in the last bits
wide_floats = st.one_of(
    st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([1.0, -1.0]),
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(-8, 7),
    ),
    st.sampled_from([0.0, -0.0]),
)
#: ints whose group sums leave int64 (Python's are exact)
wide_ints = st.one_of(
    st.integers(-9, 9), st.sampled_from([2**62, 2**62 + 1, -(2**62), 2**63 - 1])
)
#: x: float64, xn: NULL-bearing, xs: NaN/inf-bearing, i: int64, j: NULL-bearing
VALUE_COLUMNS = (
    ("x", "DOUBLE", wide_floats),
    ("xn", "DOUBLE", st.one_of(st.none(), wide_floats)),
    ("xs", "DOUBLE", special_floats),
    ("i", "INTEGER", wide_ints),
    ("j", "INTEGER", st.one_of(st.none(), st.integers(-9, 9))),
)
#: (probe kind, build kind) of one join key: the same typed form on both
#: sides (the sort), or forms that only the dict can compare
JOIN_KEY_KINDS = [
    ("int", "int"), ("narrow", "narrow"), ("float", "float"), ("bool", "bool"),
    ("float", "float"),
    ("int", "float"), ("int", "mixed"), ("bool", "int"), ("float", "mixed"),
    ("nullable", "nullable"), ("nullable", "int"), ("text", "text"),
]
AGGREGATES = (
    ("SUM", False), ("AVG", False), ("COUNT", False), ("MIN", False),
    ("MAX", False), ("COUNT", True), ("SUM", True),
)


@st.composite
def keyed_tables(draw, max_rows=14, long_rows=None):
    """``(key kinds, rows)``: one to three key columns, then the value
    columns; few distinct keys, so groups, duplicate join keys and sort
    ties all occur; possibly no rows at all. Given ``long_rows``, half
    of the tables have 17 to that many rows instead."""
    kinds = draw(st.lists(st.sampled_from(sorted(KEY_KINDS)), min_size=1, max_size=3))
    columns = [KEY_KINDS[kind] for kind in kinds]
    columns += [strategy for _, _, strategy in VALUE_COLUMNS]
    low, high = (17, long_rows) if long_rows and draw(st.booleans()) else (0, max_rows)
    return kinds, draw(st.lists(st.tuples(*columns), min_size=low, max_size=high))


def _exact(value):
    """``(type, bits)`` of a cell: what ``==`` blurs (1 = 1.0 = True,
    0.0 = -0.0) kept apart; any NaN is one NaN (see _cells_identical)."""
    if isinstance(value, (tuple, list)):
        return tuple(_exact(cell) for cell in value)
    if isinstance(value, (set, frozenset)):
        return sorted(map(repr, map(_exact, value)))
    if isinstance(value, float):
        return ("float", "nan" if value != value else struct.pack("<d", value))
    return (type(value).__name__, value)


def _key_exprs(kinds):
    types = {"INTEGER": INTEGER, "DOUBLE": DOUBLE, "STRING": STRING}
    return [
        ColumnVar(i, types[KEY_SQL_TYPES[kind]], f"k{i}")
        for i, kind in enumerate(kinds)
    ]


def _value_exprs(kinds):
    return [
        ColumnVar(len(kinds) + i, DOUBLE if sql == "DOUBLE" else INTEGER, name)
        for i, (name, sql, _) in enumerate(VALUE_COLUMNS)
    ]


def _grouping_print(grouping):
    return (
        grouping.codes.tolist(),
        _exact(grouping.keys),
        list(map(int, grouping.first)),
        [list(map(int, rows)) for rows in grouping.positions()],
    )


class TestKeyKernelsAgree:
    """The key kernels of a ``Batch`` against the tuple/``dict`` loops of
    a ``RowChunk`` built from the same rows: group codes, keys and their
    first-seen order; every scalar fold's states and charge; join pairs
    and their order; the stable multi-key order."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(table=keyed_tables(long_rows=40), data=st.data())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    def test_grouping_folds_and_order(self, table, data):
        kinds, rows = table
        ids = tuple(range(len(kinds) + len(VALUE_COLUMNS)))
        chunk, batch = RowChunk.from_rows(ids, rows), Batch.from_rows(ids, rows)
        keys, values = _key_exprs(kinds), _value_exprs(kinds)
        # GROUP BY on every prefix of the key columns, and on none; the
        # folds over the whole key and over no key
        for width in range(len(keys) + 1):
            row_cost, batch_cost = EvalCost(), EvalCost()
            row_group = chunk.keys(keys[:width], row_cost).grouping()
            batch_keys = batch.keys(keys[:width], batch_cost)
            batch_group = batch_keys.grouping()
            assert _grouping_print(row_group) == _grouping_print(batch_group)
            if isinstance(batch_keys, TypedKeys):
                # no code table is wider than a few times the rows
                assert _key_codes(batch_keys.arrays)[1] <= 4 * len(rows) + 64
            assert _costs(row_cost) == _costs(batch_cost)
            for name, distinct in AGGREGATES if width in (0, len(keys)) else ():
                for arg in values + [None]:
                    if arg is None and (name != "COUNT" or distinct):
                        continue
                    spec = _spec(name, arg, distinct)
                    row_cost, batch_cost = EvalCost(), EvalCost()
                    want = chunk.partial_aggregate(spec, row_group, row_cost)
                    got = batch.partial_aggregate(spec, batch_group, batch_cost)
                    assert _exact(want) == _exact(got), (name, distinct, arg)
                    assert _costs(row_cost) == _costs(batch_cost)

        # DISTINCT: every column is a key
        assert _grouping_print(chunk.row_keys().grouping()) == _grouping_print(
            batch.row_keys().grouping()
        )

        # ORDER BY: keys and value columns, each ASC or DESC, ties kept
        # in input order
        order_by = data.draw(
            st.lists(
                st.tuples(st.sampled_from(keys + values), st.booleans()),
                min_size=1,
                max_size=3,
            ),
            label="order by",
        )
        orders = [
            list(
                map(
                    int,
                    stable_order(
                        len(rows),
                        [
                            (part.keys([expr], EvalCost()), ascending)
                            for expr, ascending in reversed(order_by)
                        ],
                    ),
                )
            )
            for part in (chunk, batch)
        ]
        assert orders[0] == orders[1]

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_join_pairs(self, data):
        """Equi-join matching on one and two keys: duplicate keys on both
        sides, NULL and NaN keys (match nothing), ``-0.0 = 0.0``, and an
        int column against a float column (the dict, not the sort)."""
        kinds = data.draw(
            st.lists(st.sampled_from(JOIN_KEY_KINDS), min_size=1, max_size=2),
            label="key kinds (probe, build)",
        )
        # a build side without repeated keys (a key–foreign-key join)
        # half of the time: it has its own, shorter pair kernel
        unique_build = data.draw(st.booleans(), label="unique build keys")
        # otherwise sides of 17 to 40 rows half of the time: a longer
        # build side sorts in the radix form
        long = not unique_build and data.draw(st.booleans(), label="long sides")
        sides = []
        for side in (0, 1):
            columns = [KEY_KINDS[pair[side]] for pair in kinds]
            rows = data.draw(
                st.lists(
                    st.tuples(*columns),
                    min_size=17 if long else 0,
                    max_size=40 if long else 10,
                    unique=unique_build and side == 1,
                )
            )
            ids = tuple(range(len(kinds)))
            exprs = [ColumnVar(i, DOUBLE, f"k{i}") for i in ids]
            sides.append(
                [
                    cls.from_rows(ids, rows).keys(exprs, EvalCost())
                    for cls in (RowChunk, Batch)
                ]
            )
        (row_probe, batch_probe), (row_build, batch_build) = sides
        want = row_probe.pairs(row_build)
        got = batch_probe.pairs(batch_build)
        assert [list(map(int, side)) for side in got] == [list(s) for s in want]
        # the build side indexes itself once and answers every probe
        again = batch_probe.pairs(batch_build)
        assert [list(map(int, side)) for side in again] == [list(s) for s in want]

    def test_int_keys_meet_float_keys_as_python_numbers(self):
        """``int = float`` join keys compare exactly (2**62 + 1 is not
        2.0**62, which float64 promotion would say), so keys of two
        dtypes go to the dict, in either direction."""
        ints = [(2**62 + 1,), (2**62,), (1,), (0,), (1,)]
        floats = [(2.0**62,), (1.0,), (-0.0,), (0.5,)]
        expr = [ColumnVar(0, DOUBLE, "k")]
        for probe, build, want in (
            (ints, floats, ([1, 2, 3, 4], [0, 1, 2, 1])),
            (floats, ints, ([0, 1, 1, 2], [1, 2, 4, 3])),
        ):
            for cls in (RowChunk, Batch):
                got = (
                    cls.from_rows((0,), probe)
                    .keys(expr, EvalCost())
                    .pairs(cls.from_rows((0,), build).keys(expr, EvalCost()))
                )
                assert tuple(list(map(int, side)) for side in got) == want

    def test_carried_states_continue_the_chain(self):
        """A fold continued from a carried state, over typed and
        NULL-bearing runs in any sequence, is the fold of the whole."""
        rng = np.random.default_rng(11)
        values = (rng.normal(size=40) * 10.0 ** rng.integers(-8, 8, size=40)).tolist()
        values[3] = values[17] = -0.0
        runs = [values[:9], [None, 2.5, None], values[9:30], [None], values[30:]]
        ints = [[2**62, 5], [None, -3], [2**62, 2**62], [7]]
        for cls in (RowChunk, Batch):
            for name in ("SUM", "AVG", "MIN", "MAX", "COUNT"):
                for column_runs, column_type in ((runs, DOUBLE), (ints, INTEGER)):
                    spec = _spec(name, ColumnVar(0, column_type, "x"))
                    whole = RowChunk.from_rows(
                        (0,), [(value,) for run in column_runs for value in run]
                    )
                    (want,) = whole.partial_aggregate(
                        spec, whole.keys((), None).grouping(), EvalCost()
                    )
                    state = None
                    for run in column_runs:
                        part = cls.from_rows((0,), [(value,) for value in run])
                        (state,) = part.partial_aggregate(
                            spec,
                            part.keys((), None).grouping(),
                            EvalCost(),
                            None if state is None else [state],
                        )
                    assert _exact(state) == _exact(want), (cls, name)

    def test_extremes_keep_the_first_row_of_a_tie(self):
        """MIN/MAX against ``fold_groups``' chain by bits, the groups'
        rows interleaved: ``[0.0, -0.0]`` and ``[-0.0, 0.0]`` (an ``==``
        tie, where ``min``/``max`` keep the first row), int64's extremes
        and a ``bool_`` column, fresh and continuing a carried state."""
        from repro.engine.aggregation import fold_groups

        columns = (
            (DOUBLE, [[0.0, -0.0], [-0.0, 0.0], [1.0, -0.0, 0.0], [-0.0, -0.0, 0.0]],
             [-0.0, 0.0, 0.0, 2.0]),
            (INTEGER, [[-(2**63), 2**63 - 1], [2**63 - 1, -(2**63)], [0, -1, 0], [5]],
             [2**63 - 1, -(2**63), 0, 5]),
            (BOOLEAN, [[True, False], [False, True], [True, True], [False]],
             [False, True, True, True]),
        )
        for column_type, groups, carried in columns:
            rows = [
                (group, values[j])
                for j in range(max(map(len, groups)))
                for group, values in enumerate(groups)
                if j < len(values)
            ]
            batch = Batch.from_rows((0, 1), rows)
            grouping = batch.keys([ColumnVar(0, INTEGER, "g")], EvalCost()).grouping()
            values = [value for _, value in rows]
            for name in ("MIN", "MAX"):
                spec = _spec(name, ColumnVar(1, column_type, "x"))
                for start in (None, carried):
                    want = fold_groups(
                        spec.aggregate, values, grouping.positions(), EvalCost(), start
                    )
                    got = batch.partial_aggregate(spec, grouping, EvalCost(), start)
                    assert _exact(got) == _exact(want), (column_type, name, start)

    def test_typed_keys_never_reach_the_dict_loops(self, monkeypatch):
        """A silent fall back would keep every result right and only
        lose the speed, so pin the path: over typed columns the ``gram
        (tuple)``, group-filter and top-k shapes and a hash repartition
        read no key or aggregate-argument column back as Python values,
        hash each distinct key once and never enter ``fold_groups``; over
        an object key column (NULL-bearing) they do — the fallback is
        alive. Either way no state but AVG's takes the row merge
        (``merge_states``): the states are typed. Nor does any key kernel
        pay a comparison sort that the key's form avoids: no ``np.lexsort``, no
        ``np.unique(return_index=True)`` (a stable mergesort), no stable
        sort of more than 16 ``int64`` (a narrow span sorts as
        ``uint16``); a float GROUP BY key still takes ``np.unique``."""
        from repro.engine import aggregation, executor

        sorts, uniqued = [], []
        argsort, unique = np.argsort, np.unique

        def lexsort(*args, **kwargs):
            raise AssertionError("np.lexsort called")

        def counted_argsort(array, *args, **kwargs):
            if kwargs.get("kind") == "stable" and array.dtype == np.int64:
                sorts.append(len(array))
            return argsort(array, *args, **kwargs)

        def counted_unique(array, *args, **kwargs):
            uniqued.append((array.dtype, kwargs.get("return_index", False)))
            return unique(array, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", lexsort)
        monkeypatch.setattr(np, "argsort", counted_argsort)
        monkeypatch.setattr(np, "unique", counted_unique)
        statements = (
            "SELECT a.c, b.c, SUM(a.v * b.v) FROM t AS a, t AS b "
            "WHERE a.r = b.r GROUP BY a.c, b.c",
            "SELECT c, SUM(v), COUNT(v), MIN(v), MAX(v), AVG(v) FROM t "
            "WHERE r < 20 GROUP BY c",
            "SELECT r, c, v FROM t ORDER BY v DESC LIMIT 5",
        )
        rows = [(i // 8, i % 4, float(i) - 17.5) for i in range(96)]
        evaluated, listed, hashed, folds = [], [], [], []
        values, pylist = Batch.values, ColumnData.pylist
        monkeypatch.setattr(
            Batch,
            "values",
            lambda self, expr, cost: evaluated.append(values(self, expr, cost))
            or evaluated[-1],
        )
        monkeypatch.setattr(
            ColumnData, "pylist", lambda self: listed.append(self) or pylist(self)
        )
        monkeypatch.setattr(
            executor,
            "stable_hash",
            lambda key: hashed.append(key) or stable_hash(key),
        )
        fold_groups, merge_states = aggregation.fold_groups, aggregation.merge_states
        monkeypatch.setattr(
            aggregation,
            "fold_groups",
            lambda *args: folds.append(args) or fold_groups(*args),
        )
        merged = []
        monkeypatch.setattr(
            aggregation,
            "merge_states",
            lambda spec, states, *args: merged.append(
                (spec.aggregate.name, len(states))
            ) or merge_states(spec, states, *args),
        )

        def fell_back():  # (an empty partition has no form to speak of)
            return any(
                seen is column and len(column)
                for seen in listed
                for column in evaluated
            )

        for null_key in (False, True):
            db = Database(TEST_CLUSTER, execution_mode="batch")
            db.execute("CREATE TABLE t (r INTEGER, c INTEGER, v DOUBLE)")
            db.load("t", rows + [(None, None, None)] * (4 if null_key else 0))
            for sql in statements:
                del evaluated[:], listed[:], hashed[:], folds[:], sorts[:], uniqued[:]
                del merged[:]
                db.execute(sql)
                assert evaluated
                assert fell_back() == null_key, sql
                assert bool(folds) == (null_key and "SUM" in sql), sql
                assert all(name == "AVG" for name, _ in merged), sql
                assert ("AVG" in {name for name, _ in merged}) == ("AVG" in sql)
                assert max(sorts, default=0) <= 16, sql
                assert not any(index for _, index in uniqued), sql
            if not null_key:
                del uniqued[:]
                db.execute("SELECT v, COUNT(*) FROM t GROUP BY v")
                assert (np.dtype(np.float64), False) in uniqued
            # a hash repartition of the scan itself, where every source
            # chunk holds each of its keys several times
            scan = db._compile(parse_statement("SELECT r, c, v FROM t"), None).physical
            key = ColumnVar(scan.columns[0].column_id, INTEGER, "r")
            del evaluated[:], listed[:], hashed[:], sorts[:]
            routed, _ = Executor(db.cluster, "batch").run(
                PExchange(scan, "hash", [key])
            )
            assert len(routed) == len(rows) + (4 if null_key else 0)
            assert fell_back() == null_key
            assert max(sorts, default=0) <= 16
            storage = db.catalog.table("t").storage
            assert len(hashed) == len({row[0] for row in storage.all_rows()})


class TestFusedSum:
    """``SUM(outer_product(a, b))`` is a fused SUM: one blocked kernel
    that every door calls (docs/ENGINE.md, "The float contract")."""

    @staticmethod
    def _gram_rows(count, label=-1):
        return [
            (i % 3, Vector([float(i), 1.0 / (i + 1), -0.5 * i], label=label))
            for i in range(count)
        ]

    def test_every_door_reaches_the_one_kernel(self, monkeypatch):
        """Row ≡ batch and view ≡ rescan hold by construction only while
        every door calls the one kernel, so pin it: ``sum_steps`` runs for
        a batch block column, a batch object column (labelled vectors), a
        ``RowChunk``, a view's fold and a view's answer — and no fused SUM
        enters ``SumAggregate.add`` (the sequential chain) in
        PartialAggregate or in a view's fold. The merge of finished cells
        (FinalAggregate, a view's answer) is that chain, and always was."""
        from repro.engine import aggregation, storage
        from repro.engine.aggregation import STEP_ROWS
        from repro.la.aggregates import SumAggregate

        kernel, calls = aggregation.sum_steps, []
        monkeypatch.setattr(
            aggregation,
            "sum_steps",
            lambda *args: calls.append(args) or kernel(*args),
        )
        merging, merge, add = [], storage.final_aggregate, SumAggregate.add

        def merged(*args, **kwargs):
            merging.append(1)
            try:
                return merge(*args, **kwargs)
            finally:
                merging.pop()

        def chain(self, state, value):
            if not merging:
                raise AssertionError("a fused SUM reached the add chain")
            return add(self, state, value)

        monkeypatch.setattr(storage, "final_aggregate", merged)
        monkeypatch.setattr(SumAggregate, "add", chain)
        v = ColumnVar(1, VectorType(3), "v")
        spec = _spec("SUM", FuncExpr(lookup("outer_product"), [v, v]))
        uniform, labelled = self._gram_rows(STEP_ROWS), self._gram_rows(STEP_ROWS, 2)
        for cls, rows, form in (
            (Batch, uniform, "is_block"),
            (Batch, labelled, "is_object"),
            (RowChunk, uniform, None),
        ):
            chunk = cls.from_rows((0, 1), rows)
            if form:
                assert getattr(chunk.col(1), form)
            del calls[:]
            (state,) = chunk.partial_aggregate(spec, [range(len(rows))], EvalCost())
            assert len(calls) == 1 and state.total is not None, (cls, form)

        for mode in ("row", "batch"):
            db = Database(TEST_CLUSTER, execution_mode=mode)
            db.execute("CREATE TABLE t (k INTEGER, v VECTOR[3])")
            db.execute(
                "CREATE MATERIALIZED VIEW mv AS "
                "SELECT SUM(outer_product(v, v)) AS g FROM t"
            )
            del calls[:]
            db.load("t", self._gram_rows(4 * STEP_ROWS))  # a step per slot
            assert len(calls) == 4, mode
            db.load("t", self._gram_rows(3))  # open steps only
            del calls[:]
            answer = db.execute("SELECT SUM(outer_product(v, v)) FROM t")
            assert answer.metrics.view_hits == 1
            assert len(calls) == 3, mode  # the three slots' open steps

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_ragged_operands_are_a_structured_error(self, mode):
        """Operand rows of two lengths in one group raise the
        ``RuntimeTypeError`` the chain raised on their products — never
        numpy's ``ValueError`` from stacking them — while groups of
        different lengths each fold."""
        db = Database(TEST_CLUSTER, execution_mode=mode)
        db.execute("CREATE TABLE t (k INTEGER, v VECTOR[])")
        db.load(
            "t",
            [(0, Vector([1.0, 2.0]))] * 8 + [(1, Vector([1.0, 2.0, 3.0]))] * 8,
        )
        with pytest.raises(RuntimeTypeError):
            db.execute("SELECT SUM(outer_product(v, v)) FROM t")
        grouped = db.execute(
            "SELECT k, SUM(outer_product(v, v)) FROM t GROUP BY k ORDER BY k"
        ).rows
        assert [value.data.shape for _, value in grouped] == [(2, 2), (3, 3)]
        v = ColumnVar(1, VectorType(None), "v")
        spec = _spec("SUM", FuncExpr(lookup("outer_product"), [v, v]))
        rows = [(0, Vector([1.0, 2.0])), (0, Vector([1.0, 2.0, 3.0]))]
        for cls in (RowChunk, Batch):
            with pytest.raises(RuntimeTypeError):
                cls.from_rows((0, 1), rows).partial_aggregate(
                    spec, [range(2)], EvalCost()
                )


def _metrics_print(metrics):
    """Every simulated number of a statement, per-slot chains included
    (buffer-pool outcomes aside: they exist in disk mode only)."""
    return (
        metrics.jobs,
        metrics.startup_seconds,
        metrics.total_seconds,
        tuple(
            (
                op.name, op.rows_in, op.rows_out, op.bytes_out, op.wall_seconds,
                op.network_bytes, op.slot_seconds, op.spill_bytes,
                op.spill_events, op.segments_pruned, op.segments_scanned,
                op.peak_memory_bytes,
            )
            for op in metrics.operators
        ),
    )


MODE_MATRIX = [
    (mode, storage) for mode in ("row", "batch") for storage in ("memory", "disk")
]


def _run_matrix(tables, statements, matrix=MODE_MATRIX, **config):
    """``statements`` over ``tables`` (name -> (column DDL, rows)) under
    every ``(execution_mode, storage_mode)``:
    each statement's rows by ``(type, bits)`` **in order**, and its
    simulated metrics."""
    outcomes = []
    for mode, storage in matrix:
        db = Database(
            TEST_CLUSTER.with_updates(
                execution_mode=mode,
                storage_mode=storage,
                segment_rows=4,
                **config,
            )
        )
        try:
            for name, (ddl, rows) in tables.items():
                db.execute(f"CREATE TABLE {name} ({ddl})")
                db.load(name, rows)
            results = [db.execute(sql) for sql in statements]
            outcomes.append(
                [(_exact(r.rows), _metrics_print(r.metrics)) for r in results]
            )
        finally:
            db.close()
    return outcomes


class TestKeyStatementsAgree:
    """GROUP BY, joins, DISTINCT and ORDER BY over every kind of key
    column: one answer — rows in order, every simulated charge — under
    every execution mode and storage mode, for either placement
    rule."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(table=keyed_tables(max_rows=12), data=st.data())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    def test_across_the_mode_matrix(self, table, data):
        kinds, rows = table
        # the join's other side: the same kinds, except that an int key
        # may meet a float one (1 = 1.0 must still match)
        other_kinds = [
            data.draw(st.sampled_from(["int", "mixed", "float"]))
            if kind == "int"
            else kind
            for kind in kinds
        ]
        other_rows = data.draw(
            st.lists(st.tuples(*[KEY_KINDS[kind] for kind in other_kinds]), max_size=8),
            label="other rows",
        )
        limit = data.draw(st.integers(0, 6), label="limit")
        directions = data.draw(
            st.lists(st.sampled_from(["ASC", "DESC"]), min_size=4, max_size=4),
            label="directions",
        )
        names = [f"k{i}" for i in range(len(kinds))]
        keys = ", ".join(names)
        ddl = ", ".join(
            [f"{name} {KEY_SQL_TYPES[kind]}" for name, kind in zip(names, kinds)]
            + [f"{name} {sql}" for name, sql, _ in VALUE_COLUMNS]
        )
        other_ddl = ", ".join(
            f"{name} {KEY_SQL_TYPES[kind]}" for name, kind in zip(names, other_kinds)
        )
        # every form over the typed columns, the plain ones over the
        # NULL- and NaN-bearing ones (the chunk-level property above
        # crosses them all)
        aggregates = ", ".join(
            f"{name}({'DISTINCT ' if distinct else ''}{column})"
            for column in ("x", "i", "xn", "xs", "j")
            for name, distinct in AGGREGATES
            if column in ("x", "i") or not distinct
        ) + ", COUNT(*)"
        order_by = ", ".join(
            f"{name} {direction}"
            for name, direction in zip(names + ["x"], directions)
        )
        on = " AND ".join(f"a.{name} = b.{name}" for name in names)
        statements = [
            f"SELECT {keys}, {aggregates} FROM t GROUP BY {keys}",
            f"SELECT {aggregates} FROM t",
            f"SELECT a.x, a.k0, b.k0 FROM t AS a, u AS b WHERE {on}",
            f"SELECT a.x, a.k0, b.k0 FROM t AS a, u AS b WHERE a.k0 = b.k0",
            f"SELECT DISTINCT {keys} FROM t",
            f"SELECT {keys}, x FROM t ORDER BY {order_by}",
            f"SELECT {keys}, x FROM t ORDER BY {order_by} LIMIT {limit}",
        ]
        tables = {"t": (ddl, rows), "u": (other_ddl, other_rows)}
        for balanced in (False, True):
            first, *rest = _run_matrix(
                tables, statements, balanced_placement=balanced
            )
            for outcome in rest:
                for sql, want, got in zip(statements, first, outcome):
                    assert want == got, sql


class TestNaNKeys:
    """One rule for NaN keys (docs/SQL.md): GROUP BY, DISTINCT and
    placement treat every NaN as one key, first seen representing it —
    whichever float object carries it; an equi-join never matches one,
    like NULL and like ``=``. ORDER BY, MIN and MAX keep the comparison
    chain's order-dependent answer."""

    def test_one_rule_in_every_mode(self):
        nan = float("nan")
        rows = [(nan, 1.0), (nan, 2.0), (1.0, 3.0), (float("nan"), 4.0), (-nan, 5.0)]
        statements = [
            "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k",
            "SELECT a.v, b.v FROM t AS a, t AS b WHERE a.k = b.k",
            "SELECT DISTINCT k FROM t",
            "SELECT COUNT(DISTINCT k), COUNT(k) FROM t",
            "SELECT k, v FROM t ORDER BY k DESC, v",
            "SELECT MIN(k), MAX(k) FROM t",
        ]
        # the second pass spills every exchange: in disk mode the rows —
        # DISTINCT value sets included — really cross a spill file
        for balanced, pool in ((False, None), (True, None), (False, 64.0)):
            outcomes = _run_matrix(
                {"t": ("k DOUBLE, v DOUBLE", rows)},
                statements,
                balanced_placement=balanced,
                buffer_pool_bytes=pool,
            )
            for outcome in outcomes:
                assert outcome == outcomes[0]
            grouped, joined, distinct, counted, ordered, extremes = (
                rows for rows, _ in outcomes[0]
            )
            assert sorted(grouped, key=repr) == sorted(
                _exact([(nan, 12.0, 4), (1.0, 3.0, 1)]), key=repr
            )
            assert joined == _exact([(3.0, 3.0)])
            assert sorted(distinct, key=repr) == sorted(
                _exact([(nan,), (1.0,)]), key=repr
            )
            assert counted == _exact([(2, 5)])
            assert len(ordered) == 5 and len(extremes) == 1


# -- stages: one batch per operator, charged per slot ------------------------

STAGE_SLOTS = (1, 3, 4, 80)
STAGE_STATEMENTS = (
    "SELECT g, COUNT(*), SUM(x), MIN(x), MAX(k), COUNT(DISTINCT k) FROM t GROUP BY g",
    "SELECT k, x * 2.0, g FROM t WHERE x > 0.5 OR k IS NULL",
    "SELECT SUM(outer_product(v, v)), SUM(v * x), COUNT(v) FROM t WHERE x < 9.0",
    "SELECT g, SUM(y) FROM t, one WHERE t.k = one.c GROUP BY g",
    "SELECT a.k, b.c FROM t AS a, one AS b WHERE a.x < b.y",
    "SELECT DISTINCT g FROM t",
    "SELECT k, x FROM t ORDER BY x DESC, k LIMIT 4",
    "SELECT c, SUM(y), COUNT(*) FROM one GROUP BY c",
    "SELECT COUNT(*), SUM(x) FROM t WHERE k > 1000",
    "SELECT g, x, k FROM t ORDER BY x, k DESC",
    # ``p`` is hash-partitioned on ``k``: a co-partitioned join whose NULL
    # keys all sit on one slot
    "SELECT a.k, a.z, b.z FROM p AS a, p AS b WHERE a.k = b.k AND a.z <= b.z",
    "SELECT DISTINCT g, x FROM t",
)


def _stage_cell(value):
    if isinstance(value, (Vector, Matrix)):
        return (type(value).__name__, value.data.shape, value.data.tobytes())
    if isinstance(value, tuple):
        return tuple(map(_stage_cell, value))
    return _exact(value)


def _stage_db(slots, mode="batch", **config):
    """The tables ``STAGE_STATEMENTS`` read, on ``slots`` slots."""
    db = Database(
        TEST_CLUSTER.with_updates(
            machines=slots // 2 or 1,
            cores_per_machine=min(slots, 2) if slots % 2 == 0 else slots,
            **config,
        ),
        execution_mode=mode,
    )
    nan = float("nan")
    db.create_table(
        "t", [("k", "INTEGER"), ("g", "STRING"), ("x", "DOUBLE"), ("v", "VECTOR[]")]
    )
    db.load(
        "t",
        [
            (i if i % 5 else None, "ab"[i % 2] * (i % 3), x, Vector([x or 0.0, -1.5]))
            for i, x in enumerate(
                [0.25, None, 3.0, nan, -0.0, 7.5, 1.0, None, 2.5, nan, 8.0, 0.75, 5.0]
            )
        ],
    )
    # every row of ``one`` hashes to one slot: ``c`` is the partitioning key
    db.create_table("one", [("c", "INTEGER"), ("y", "DOUBLE")], partition_by=["c"])
    db.load("one", [(3, 0.5 * i) for i in range(6)])
    db.create_table("p", [("k", "INTEGER"), ("z", "DOUBLE")], partition_by=["k"])
    db.load("p", [(None if i % 7 == 3 else i // 2, i * 0.25) for i in range(30)])
    # ``MERGE_STATEMENTS``' partial states: all -0.0 (``nz``), ±0.0 by
    # row (``pz``), NaN (``w``), NULL-only on all but one slot (group 2 of
    # ``y`` and ``v``), int64 near 2**63 in sum (``big``), tensor cells
    # (``v``) and STRING (``s``)
    db.create_table(
        "m",
        [("g", "INTEGER"), ("nz", "DOUBLE"), ("pz", "DOUBLE"), ("n", "INTEGER"),
         ("w", "DOUBLE"), ("y", "DOUBLE"), ("big", "INTEGER"), ("v", "VECTOR[]"),
         ("s", "STRING")],
    )
    db.load(
        "m",
        [
            (i % 3, -0.0, 0.0 if i % 2 else -0.0, i % 2 - 1,
             nan if i % 6 == 0 else i * 0.5,
             None if i % 3 == 2 and i != 5 else i * 0.25,
             2**61 + i,
             None if i % 3 == 2 and i != 5 else Vector([i % 7 - 3.0, -0.0]),
             "abc"[i % 3] * (i % 4))
            for i in range(40)
        ],
    )
    return db


def _stage_run(
    slots,
    mode,
    fault_plan=None,
    storage="memory",
    statements=STAGE_STATEMENTS,
    budget=64.0,
):
    """Every statement's rows in order and every field of every operator
    — ``slot_seconds`` by ``float.hex`` — on ``slots`` slots. In disk
    mode a ``budget``-byte working-memory budget (64 by default) makes
    every sizeable state spill, so build sides and exchanged slots cross
    spill files."""
    config = {"fault_plan": fault_plan}
    if storage == "disk":
        config.update(storage_mode="disk", buffer_pool_bytes=budget)
    db = _stage_db(slots, mode, **config)
    out = []
    for sql in statements:
        result = db.execute(sql)
        ops = tuple(
            tuple(
                tuple(s.hex() for s in value) if field.name == "slot_seconds" else value
                for field, value in (
                    (field, getattr(op, field.name)) for field in dataclasses.fields(op)
                )
            )
            for op in result.metrics.operators
        )
        out.append((tuple(map(_stage_cell, result.rows)), ops, result.metrics.fault_events))
    db.close()
    return out


def _spilled(run, name):
    """Whether an operator whose name starts with ``name`` spilled."""
    fields = [field.name for field in dataclasses.fields(OperatorMetrics)]
    at = fields.index("name"), fields.index("spill_events")
    return any(
        op[at[0]].startswith(name) and op[at[1]] for _, ops, _ in run for op in ops
    )


class TestStages:
    """Every operator runs once over a slot-ordered stage and charges
    each slot from a per-slot cost ledger; the row oracle walks the same
    stages slot by slot with one plain cost each — the per-partition
    arithmetic. Both must agree on every row, in order, and every charge,
    bit for bit, at any cluster shape: empty slots (80 slots, 13 rows),
    every row on one slot (``one``), NULL keys on one slot only (``p``),
    NULL, NaN, string and tensor columns, under injected faults, and
    with disk-mode spills."""

    @pytest.mark.parametrize("slots", STAGE_SLOTS)
    def test_row_oracle_agrees_at_every_cluster_shape(self, slots):
        from repro.faults import FaultPlan

        plans = [
            None,
            FaultPlan(
                seed=slots,
                slot_crash_rate=0.2,
                straggler_rate=0.2,
                lost_partition_rate=0.3,
                max_partition_retries=20,
            ),
        ]
        for plan, storage in itertools.product(plans, ("memory", "disk")):
            row, batch = (
                _stage_run(slots, mode, plan, storage) for mode in ("row", "batch")
            )
            assert row == batch, (slots, plan, storage)
            spills = _spilled(row, "HashJoin"), _spilled(row, "Exchange(hash)")
            assert spills == ((storage == "disk"),) * 2, (slots, storage)
        assert any(events for _, _, events in row)  # the faults did land

    def test_converted_operators_evaluate_each_expression_once(self, monkeypatch):
        """A stage is one batch: each expression node is evaluated once per
        statement whatever the slot count — not once per slot."""
        import collections
        import repro.plan.expressions as expressions

        calls = collections.Counter()
        for cls in vars(expressions).values():
            if isinstance(cls, type) and "evaluate_batch" in vars(cls):
                original = cls.evaluate_batch

                def counted(self, batch, cost=None, mask=None, _original=original):
                    calls[self.key(), id(self)] += 1
                    return _original(self, batch, cost, mask)

                monkeypatch.setattr(cls, "evaluate_batch", counted)
        sql = (
            "SELECT g, SUM(x * 2.0), COUNT(*) FROM t "
            "WHERE x > 0.0 AND k IS NOT NULL GROUP BY g"
        )
        seen = []
        for slots in (1, 4, 80):
            db = Database(PAPER_CLUSTER.with_updates(machines=slots // 2 or 1, cores_per_machine=min(slots, 2)))
            db.execute("CREATE TABLE t (k INTEGER, g INTEGER, x DOUBLE)")
            db.load("t", [(i, i % 7, i * 0.5) for i in range(400)])
            calls.clear()
            db.execute(sql)
            seen.append(sorted((key, count) for (key, _), count in calls.items()))
        assert seen[0] == seen[1] == seen[2]
        assert {count for _, count in seen[0]} == {1}

    def test_hash_exchange_takes_once(self, monkeypatch):
        """A hash exchange regroups its stage with one ``take``, however
        many (source, target) pairs the cluster has."""
        takes = []
        take = Batch.take
        monkeypatch.setattr(
            Batch, "take", lambda self, indices: takes.append(1) or take(self, indices)
        )
        for slots in (4, 80):
            db = Database(PAPER_CLUSTER.with_updates(machines=slots // 2, cores_per_machine=2))
            db.execute("CREATE TABLE t (r INTEGER, v DOUBLE)")
            db.load("t", [(i % 11, float(i)) for i in range(500)])
            scan = db._compile(parse_statement("SELECT r, v FROM t"), None).physical
            key = ColumnVar(scan.columns[0].column_id, INTEGER, "r")
            del takes[:]
            rows, _ = Executor(db.cluster, "batch").run(PExchange(scan, "hash", [key]))
            assert len(rows) == 500 and len(takes) == 1, slots

    @pytest.mark.parametrize("mode", ("row", "batch"))
    def test_hash_exchange_hashes_each_key_once(self, monkeypatch, mode):
        """A hash exchange groups its stage on the key alone: one
        ``stable_hash`` call per distinct key, however many source slots
        hold it — typed (``r``), object (``s``) and composite keys alike."""
        import repro.engine.executor as executor

        hashed = []
        monkeypatch.setattr(
            executor, "stable_hash", lambda key: hashed.append(key) or stable_hash(key)
        )
        grew = self._per_operator(monkeypatch, "_exchange", hashed)
        for slots in (4, 80):
            db = Database(
                PAPER_CLUSTER.with_updates(machines=slots // 2, cores_per_machine=2),
                execution_mode=mode,
            )
            db.execute("CREATE TABLE t (r INTEGER, s STRING, v DOUBLE)")
            db.load("t", [(i % 11, "abc"[i % 3], float(i)) for i in range(500)])
            for sql, keys in (
                ("SELECT r, SUM(v) FROM t GROUP BY r", 11),
                ("SELECT s, COUNT(*) FROM t GROUP BY s", 3),
                ("SELECT r, s, MIN(v) FROM t GROUP BY r, s", 33),
            ):
                del grew[:]
                assert len(db.execute(sql).rows) == keys
                assert grew == [keys], (slots, sql, grew)


    @staticmethod
    def _per_operator(monkeypatch, handler, counter):
        """Wrap ``Executor.<handler>`` so each run of it records how far
        ``counter`` (a list) grew while it ran — its child executed
        first, whose calls are not this operator's."""
        original = getattr(Executor, handler)
        grew = []

        def counted(self, node):
            self.execute(node.child)
            before = len(counter)
            relation = original(self, node)
            grew.append(len(counter) - before)
            return relation

        monkeypatch.setattr(Executor, handler, counted)
        return grew

    @pytest.mark.parametrize(
        "handler, sql",
        [
            ("_sort_limit", "SELECT k, x FROM t ORDER BY x, k DESC"),
            ("_top_k", "SELECT k, x FROM t ORDER BY x DESC, k LIMIT 4"),
            ("_distinct", "SELECT DISTINCT g, x FROM t"),
        ],
    )
    def test_ordering_operators_take_once(self, monkeypatch, handler, sql):
        """Sort, Top-K and Distinct apply every slot's picks to their
        stage with one ``take``, however many slots the cluster has."""
        takes = []
        take = Batch.take
        monkeypatch.setattr(
            Batch, "take", lambda self, indices: takes.append(1) or take(self, indices)
        )
        grew = self._per_operator(monkeypatch, handler, takes)
        for slots in (4, 80):
            del grew[:]
            _stage_db(slots).execute(sql)
            assert grew and set(grew) == {1}, (slots, grew)

    def test_final_aggregate_merges_once(self, monkeypatch):
        """FinalAggregate makes one ``final_aggregate`` call over its
        stage, grouped by (slot, key), and typed SUM, COUNT, MIN and MAX
        states and tensor-block SUM states merge by the partial
        aggregate's kernels, however few states a column holds. A silent
        fall back would keep every result right and only lose the speed,
        so pin the path: over typed columns no statement enters the
        ``dict`` grouping of a key (``HashedKeys.grouping``) or the row
        merge (``merge_states``), and no state is sized one by one
        (``value_bytes``)."""
        from repro.engine import aggregation, storage

        calls, loops, sized, hashed = [], [], [], []
        for owner, name, seen in (
            (storage, "final_aggregate", calls),
            (aggregation, "merge_states", loops),
            (aggregation, "value_bytes", sized),
            (HashedKeys, "grouping", hashed),
        ):
            original = getattr(owner, name)
            monkeypatch.setattr(
                owner, name,
                lambda *args, _seen=seen, _original=original, **kwargs:
                _seen.append(args) or _original(*args, **kwargs),
            )
        grew = self._per_operator(monkeypatch, "_final_aggregate", calls)
        statements = (
            "SELECT k, COUNT(*), COUNT(z), SUM(z), MIN(z), MAX(z), SUM(n), MIN(n) "
            "FROM q GROUP BY k",
            "SELECT SUM(z), COUNT(*), MAX(n) FROM q",
            "SELECT k, SUM(v), SUM(outer_product(v, v)) FROM q GROUP BY k",
            "SELECT SUM(v * z) FROM q",
        )
        for slots in (4, 80):
            db = Database(
                PAPER_CLUSTER.with_updates(machines=slots // 2, cores_per_machine=2)
            )
            db.create_table(
                "q",
                [("k", "INTEGER"), ("z", "DOUBLE"), ("n", "INTEGER"), ("v", "VECTOR[]")],
            )
            db.load(
                "q",
                [
                    (i % 16, i * 0.25 - 3.0, i % 5 - 2, Vector([i * 0.5, -1.0, 2.0]))
                    for i in range(200)
                ],
            )
            for sql in statements:
                del grew[:], loops[:], sized[:], hashed[:]
                result = db.execute(sql)
                assert len(result.rows) == (16 if "GROUP" in sql else 1), sql
                assert grew == [1], (slots, sql, grew)
                assert not loops and not sized, (slots, sql)
                assert not any(keys.columns for keys, *_ in hashed), (slots, sql)

    @pytest.mark.parametrize(
        "aggregate, merged, where",
        [
            ("AVG(z)", "AVG", ""),
            ("COUNT(DISTINCT n)", "COUNT", ""),
            ("SUM(DISTINCT z)", "SUM", ""),
            ("VECTORIZE(label_scalar(z, n + 3))", "VECTORIZE", ""),
            ("ROWMATRIX(label_vector(v, n + 3))", "ROWMATRIX", ""),
            ("COLMATRIX(label_vector(v, n + 3))", "COLMATRIX", ""),
            ("SUM(y)", "SUM", ""),  # NULL-bearing: every y of a (slot, key) NULL
            ("MIN(y)", "MIN", ""),
            ("MIN(w)", "MIN", ""),  # NaN-bearing
            ("MAX(w)", "MAX", ""),
            ("MIN(v)", "MIN", ""),  # element-wise over VECTOR cells
            ("MIN(s)", "MIN", ""),  # STRING
            # one key: one state per slot
            ("MAX(z)", "MAX", "WHERE k = 0"),
        ],
    )
    def test_every_merge_fallback_is_named(
        self, monkeypatch, aggregate, merged, where
    ):
        """Only states that are no values take the row merge
        (``merge_states``), named here by their aggregate: AVG's ``(sum,
        count)`` pairs, DISTINCT value sets and VECTORIZE/ROWMATRIX/
        COLMATRIX label dicts. Every other column — a NULL state (charged
        ``value_bytes(None)`` beside the fold), a NaN extreme, tensor or
        STRING extremes, one state per slot — and the typed SUM beside it
        fold under the aggregate's ``merger`` and never enter it. The
        rows and charges stay the row oracle's."""
        from repro.engine import aggregation

        loops = []
        original = aggregation.merge_states
        monkeypatch.setattr(
            aggregation, "merge_states",
            lambda spec, *args: loops.append(spec) or original(spec, *args),
        )
        nan = float("nan")
        sql = f"SELECT k, {aggregate}, SUM(z) FROM q {where} GROUP BY k"
        seen = []
        for mode in ("row", "batch"):
            db = Database(TEST_CLUSTER, execution_mode=mode)
            db.create_table(
                "q",
                [("k", "INTEGER"), ("z", "DOUBLE"), ("n", "INTEGER"), ("v", "VECTOR[]"),
                 ("y", "DOUBLE"), ("w", "DOUBLE"), ("s", "STRING")],
            )
            db.load(
                "q",
                [
                    (i % 5, i * 0.5, i % 3, Vector([i * 1.0, 2.0]),
                     None if i % 4 == 1 else i * 0.25,
                     nan if i % 8 == 2 else i * 0.75, "abc"[i % 3])
                    for i in range(48)
                ],
            )
            del loops[:]
            result = db.execute(sql)
            if mode == "batch":
                names = {spec.aggregate.name for spec in loops}
                fallback = "DISTINCT" in aggregate or merged in MERGE_FALLBACKS
                assert names == ({merged} if fallback else set()), names
            seen.append((
                list(map(_stage_cell, result.rows)),
                [
                    (op.name, tuple(s.hex() for s in op.slot_seconds))
                    for op in result.metrics.operators
                ],
            ))
        assert seen[0] == seen[1]

    @pytest.mark.parametrize(
        "build_sql, broadcast",
        [("SELECT c, y FROM one", True), ("SELECT k, z FROM p", False)],
    )
    def test_hash_join_pairs_once(self, monkeypatch, build_sql, broadcast):
        """A hash join finds every slot's pairs with one ``pairs`` call: a
        broadcast build side (``one``) is one chunk every slot matches, a
        co-partitioned one (``p`` again) matches on keys that carry the
        slot."""
        calls, depth = [], []
        for cls in (TypedKeys, HashedKeys):

            def counted(self, build, _original=cls.pairs):
                calls.extend([] if depth else [1])  # typed keys may hash
                depth.append(1)
                try:
                    return _original(self, build)
                finally:
                    depth.pop()

            monkeypatch.setattr(cls, "pairs", counted)
        for slots in (4, 80):
            db = _stage_db(slots)
            probe, build = (
                db._compile(parse_statement(sql), None).physical
                for sql in ("SELECT k, z FROM p", build_sql)
            )
            if broadcast:
                build = PExchange(build, "broadcast")
            keys = [
                [ColumnVar(side.columns[0].column_id, INTEGER, "k")]
                for side in (probe, build)
            ]
            join = PHashJoin(probe, build, *keys, None, True)
            want, _ = Executor(db.cluster, "row").run(join)
            del calls[:]
            rows, _ = Executor(db.cluster, "batch").run(join)
            assert rows == want and len(rows) in (12, 48)
            assert len(calls) == 1, (slots, calls)


#: the aggregates whose states are no values — pairs and label dicts —
#: and so, with DISTINCT's value sets, the only ones FinalAggregate merges
#: through ``merge_states``
MERGE_FALLBACKS = {"AVG", "VECTORIZE", "ROWMATRIX", "COLMATRIX"}

#: FinalAggregate merges, each a case of the float and charge contract
#: the merge kernels keep (over table ``m`` of :func:`_stage_db`)
MERGE_STATEMENTS = (
    # every slot's partial total is -0.0: the merged SUM stays -0.0
    "SELECT g, SUM(nz), COUNT(*) FROM m GROUP BY g",
    "SELECT SUM(nz) FROM m",
    # ±0.0 ties across slots: MIN and MAX keep the first slot's state
    "SELECT g, MIN(pz), MAX(pz) FROM m GROUP BY g",
    "SELECT MIN(pz), MAX(pz), MIN(n), MAX(n) FROM m",
    # a NaN partial extreme takes the chain
    "SELECT g, MIN(w), MAX(w) FROM m GROUP BY g",
    # NULL-only in a slot: that slot's state is None, charged 1.0
    "SELECT g, SUM(y), MIN(y), COUNT(y) FROM m GROUP BY g",
    # int64 SUMs whose merge crosses 2**63 (and COUNTs beside them)
    "SELECT g, SUM(big), COUNT(big) FROM m GROUP BY g",
    "SELECT SUM(big), COUNT(*) FROM m",
    # tensor (element-wise, NULL-only on some slots) and STRING extremes
    "SELECT g, MIN(v), MAX(v), MIN(s), MAX(s) FROM m GROUP BY g",
    # one key: one state per slot
    "SELECT g, MAX(pz), SUM(nz), COUNT(y), MIN(w) FROM m WHERE g = 1 GROUP BY g",
    # SQL's one row over empty input
    "SELECT SUM(nz), COUNT(*), MIN(pz), MAX(big), AVG(w) FROM m WHERE g < 0",
)


class TestMergeKernels:
    """FinalAggregate folds a column of SUM, COUNT, MIN or MAX states as
    PartialAggregate folds values — by the kernels where the column is
    typed, whatever its length — and the row oracle by the ``add`` chain.
    At every cluster shape the two must agree on every row, by bits, and
    every charge — with the states held in memory (``spill_budget``
    None) and with every partial state crossing disk-mode spill files on
    its way to the merge (a 1-byte working-memory budget)."""

    @pytest.mark.parametrize("spill_budget", [1, None])
    @pytest.mark.parametrize("slots", STAGE_SLOTS)
    def test_merge_kernels_agree_with_the_row_merge(self, slots, spill_budget):
        storage = "memory" if spill_budget is None else "disk"
        row, batch = (
            _stage_run(
                slots,
                mode,
                storage=storage,
                statements=MERGE_STATEMENTS,
                budget=spill_budget,
            )
            for mode in ("row", "batch")
        )
        for sql, want, got in zip(MERGE_STATEMENTS, row, batch):
            assert want == got, (slots, spill_budget, sql)
        if spill_budget is not None:
            # the partial states spill, and cross the exchange by spill files
            assert _spilled(batch, "PartialAggregate"), slots
            assert _spilled(batch, "Exchange"), slots
        (sums, _, _), (total, _, _) = batch[:2]
        # -0.0 survives the merge: no +0.0 start anywhere in the chain
        assert {cell[1] for cell in sums} == {_exact(-0.0)}
        assert total == ((_exact(-0.0),),)
        empty, _, _ = batch[-1]
        assert empty == (tuple(map(_exact, (None, 0, None, None, None))),)


class TestSlotSums:
    """``slot_sums``, the ledger's one helper: per slot of a stage, a
    count or a sum of per-row amounts over the selected rows — each the
    number the per-partition loop made over that slot's slice, empty
    slots (leading, middle, trailing) included."""

    @settings(max_examples=150, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 12), min_size=1, max_size=9),
        data=st.data(),
    )
    @example(counts=[0, 10, 0], data=None)
    def test_per_slot_counts_and_running_sums(self, counts, data):
        offsets = np.array([0, *itertools.accumulate(counts)], dtype=np.int64)
        total = int(offsets[-1])
        if data is None:
            mask = np.ones(total, dtype=bool)
            amounts = [0.1] * total
        else:
            mask = np.array(
                data.draw(st.lists(st.booleans(), min_size=total, max_size=total)),
                dtype=bool,
            )
            amounts = data.draw(
                st.lists(
                    st.floats(-1e3, 1e3, allow_nan=False),
                    min_size=int(mask.sum()),
                    max_size=int(mask.sum()),
                )
            )
        bounds = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
        want_counts = [int(np.count_nonzero(mask[a:b])) for a, b in bounds]
        positions = np.flatnonzero(mask)
        want_sums = []
        for a, b in bounds:
            running = 0.0  # the per-partition loop's order
            for i in np.flatnonzero(mask[a:b]):
                running += amounts[int(np.searchsorted(positions, a + i))]
            want_sums.append(running)
        assert slot_sums(offsets, mask).tolist() == want_counts
        assert slot_sums(offsets, positions[::-1]).tolist() == want_counts
        assert (slot_sums(offsets, mask, 8.0)).tolist() == [8.0 * c for c in want_counts]
        assert slot_sums(offsets, range(total)).tolist() == counts
        got = slot_sums(offsets, mask, amounts).tolist()
        assert [s.hex() for s in got] == [s.hex() for s in want_sums]
        assert slot_sums(offsets, positions, amounts).tolist() == got


# -- the execution_mode knob -------------------------------------------------


class TestExecutionModeKnob:
    def test_default_is_batch(self):
        assert TEST_CLUSTER.execution_mode == "batch"
        assert Database(TEST_CLUSTER).execution_mode == "batch"

    def test_constructor_override_and_setter(self):
        db = Database(TEST_CLUSTER, execution_mode="row")
        assert db.execution_mode == "row"
        db.set_execution_mode("batch")
        assert db.execution_mode == "batch"

    def test_config_override(self):
        config = TEST_CLUSTER.with_updates(execution_mode="row")
        assert Database(config).execution_mode == "row"

    def test_both_modes_dispatch_to_the_same_handlers(self):
        """One handler per operator: the mode selects the chunk class,
        never the code that charges."""
        cluster = Cluster(TEST_CLUSTER)
        row = Executor(cluster, "row")._handlers
        batch = Executor(cluster, "batch")._handlers
        assert row.keys() == batch.keys() and len(row) == 12
        for node_type, handler in row.items():
            assert handler.__func__ is batch[node_type].__func__

    def test_unknown_mode_rejected(self):
        with pytest.raises(ExecutionError):
            Database(TEST_CLUSTER, execution_mode="columnar-ish")

    def test_mode_survives_ddl_and_queries(self):
        db = Database(TEST_CLUSTER, execution_mode="row")
        db.execute("CREATE TABLE t (a INTEGER)")
        db.load("t", [(1,), (2,)])
        assert sorted(db.execute("SELECT t.a FROM t").rows) == [(1,), (2,)]
        assert db.execution_mode == "row"
