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

import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.catalog import Schema
from repro.columnar import ColumnData, truth
from repro.engine import stable_hash
from repro.engine.cluster import row_bytes
from repro.engine import Cluster, Executor
from repro.engine.storage import Batch, PartitionedTable, RowChunk
from repro.errors import ExecutionError, ReproError
from repro.la import lookup, lookup_aggregate
from repro.plan.expressions import (
    BinaryExpr,
    ColumnVar,
    EvalCost,
    FuncExpr,
    IsNullExpr,
    LiteralExpr,
    NegExpr,
)
from repro.storage import MemorySegment, StorageEngine
from repro.types import DOUBLE, INTEGER, Matrix, MatrixType, Vector, VectorType

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
        segment = MemorySegment(rows, len(CHUNK_IDS))
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
            chunk.select(positive, row_cost), batch.select(positive, batch_cost)
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
                lambda cost: chunk.select(keep, cost),
                lambda cost: batch.select(keep, cost),
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
        """The block SUM is the sequential fold at partition scale too
        (numpy buffers long reductions): plain, fused outer-product and
        single-element cells against the value-at-a-time chain."""
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
        assert state.data.tobytes() == column.data.sum(axis=0).tobytes()

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
