"""Edge-case tests for the execution engine: empty inputs, NULL
handling through operators, broadcast interactions, sort corner cases."""

import numpy as np
import pytest

from repro import Database, TEST_CLUSTER
from repro.errors import ExecutionError


@pytest.fixture
def db():
    database = Database(TEST_CLUSTER)
    database.execute("CREATE TABLE t (id INTEGER, v DOUBLE)")
    database.load("t", [(i, float(i)) for i in range(6)])
    return database


class TestEmptyInputs:
    def test_empty_scan(self, db):
        db.execute("CREATE TABLE empty (x DOUBLE)")
        assert len(db.execute("SELECT x FROM empty")) == 0

    def test_empty_join_sides(self, db):
        db.execute("CREATE TABLE empty (id INTEGER)")
        result = db.execute("SELECT t.id FROM t, empty WHERE t.id = empty.id")
        assert len(result) == 0

    def test_empty_group_by(self, db):
        db.execute("CREATE TABLE empty (g INTEGER, x DOUBLE)")
        result = db.execute("SELECT g, SUM(x) FROM empty GROUP BY g")
        assert len(result) == 0

    def test_filter_eliminates_everything(self, db):
        result = db.execute("SELECT SUM(v) FROM t WHERE id > 999")
        assert result.rows == [(None,)]

    def test_empty_sort_limit(self, db):
        result = db.execute("SELECT id FROM t WHERE id > 999 ORDER BY id LIMIT 5")
        assert len(result) == 0

    def test_empty_distinct(self, db):
        result = db.execute("SELECT DISTINCT id FROM t WHERE id > 999")
        assert len(result) == 0


class TestNullFlow:
    @pytest.fixture
    def nullable(self, db):
        db.execute("CREATE TABLE n (id INTEGER, x DOUBLE)")
        db.load("n", [(1, 1.0), (2, None), (3, 3.0), (None, 4.0)])
        return db

    def test_null_arithmetic_propagates(self, nullable):
        result = nullable.execute("SELECT id, x + 1 FROM n WHERE id = 2")
        assert result.rows == [(2, None)]

    def test_null_in_where_filters_row(self, nullable):
        # the row with x = NULL fails the predicate (NULL is not true)
        result = nullable.execute("SELECT id FROM n WHERE x > 0")
        ids = sorted(
            (row[0] for row in result), key=lambda v: (v is None, v)
        )
        assert ids == [1, 3, None]

    def test_aggregates_skip_nulls(self, nullable):
        result = nullable.execute("SELECT SUM(x), COUNT(x), COUNT(*) FROM n")
        assert result.rows == [(8.0, 3, 4)]

    def test_group_by_null_key_groups_together(self, nullable):
        nullable.execute("INSERT INTO n VALUES (NULL, 6.0)")
        result = nullable.execute("SELECT id, SUM(x) FROM n GROUP BY id")
        by_key = {row[0]: row[1] for row in result}
        assert by_key[None] == 10.0

    def test_distinct_keeps_one_null(self, nullable):
        nullable.execute("INSERT INTO n VALUES (NULL, 9.0)")
        result = nullable.execute("SELECT DISTINCT id FROM n")
        nulls = [row for row in result if row[0] is None]
        assert len(nulls) == 1

    def test_order_by_places_nulls_first_asc(self, nullable):
        result = nullable.execute("SELECT id FROM n ORDER BY id")
        assert result.rows[0][0] is None


class TestBroadcastPaths:
    def test_two_broadcast_joins_chain(self, db):
        db.execute("CREATE TABLE a (id INTEGER)")
        db.execute("CREATE TABLE b (id INTEGER)")
        db.load("a", [(1,), (2,)])
        db.load("b", [(2,), (3,)])
        result = db.execute(
            "SELECT t.id FROM t, a, b WHERE t.id = a.id AND t.id = b.id"
        )
        assert result.rows == [(2,)]

    def test_single_tuple_matrix_table_broadcast(self, db):
        db.execute("CREATE TABLE mm (mat MATRIX[][])")
        db.load("mm", [(np.eye(2),)])
        db.execute("CREATE TABLE vv (id INTEGER, vec VECTOR[2])")
        db.load("vv", [(i, np.array([float(i), 1.0])) for i in range(5)])
        result = db.execute(
            "SELECT vv.id, matrix_vector_multiply(mm.mat, vv.vec) FROM vv, mm"
        )
        assert len(result) == 5


class TestSortCornerCases:
    def test_desc_with_ties_stable_on_secondary(self, db):
        db.execute("CREATE TABLE s (a INTEGER, b INTEGER)")
        db.load("s", [(1, 1), (1, 2), (0, 3)])
        result = db.execute("SELECT a, b FROM s ORDER BY a DESC, b ASC")
        assert result.rows == [(1, 1), (1, 2), (0, 3)]

    def test_limit_zero(self, db):
        assert len(db.execute("SELECT id FROM t ORDER BY id LIMIT 0")) == 0

    def test_limit_larger_than_input(self, db):
        assert len(db.execute("SELECT id FROM t ORDER BY id LIMIT 100")) == 6

    def test_limit_without_order(self, db):
        assert len(db.execute("SELECT id FROM t LIMIT 2")) == 2

    def test_order_by_expression_over_output(self, db):
        result = db.execute("SELECT id, v * -1 AS neg FROM t ORDER BY neg")
        assert [row[0] for row in result] == [5, 4, 3, 2, 1, 0]


class TestRuntimeFailures:
    def test_vector_length_mismatch_mid_query(self, db):
        from repro.errors import RuntimeTypeError

        db.execute("CREATE TABLE mixed (vec VECTOR[])")
        db.load("mixed", [(np.ones(3),), (np.ones(4),)])
        with pytest.raises(RuntimeTypeError):
            db.execute("SELECT SUM(vec) FROM mixed")

    def test_get_scalar_out_of_range(self, db):
        db.execute("CREATE TABLE one (vec VECTOR[2])")
        db.load("one", [(np.ones(2),)])
        with pytest.raises(ExecutionError):
            db.execute("SELECT get_scalar(vec, 5) FROM one")

    def test_singular_inverse_surfaces(self, db):
        db.execute("CREATE TABLE sing (mat MATRIX[2][2])")
        db.load("sing", [(np.ones((2, 2)),)])
        with pytest.raises(ExecutionError):
            db.execute("SELECT matrix_inverse(mat) FROM sing")


class TestOversizedTensors:
    """A tensor result numpy cannot allocate is a structured
    ``ExecutionError`` naming the function and the size it asked for,
    never numpy's ``ValueError``/``MemoryError``. Every size here is one
    numpy rejects before allocating anything."""

    @pytest.fixture(params=["row", "batch"])
    def mode_db(self, request):
        database = Database(TEST_CLUSTER, execution_mode=request.param)
        database.execute("CREATE TABLE z (x DOUBLE, vec VECTOR[2])")
        database.load("z", [(1.5, np.array([1.0, 2.0])), (2.5, np.array([0.0, 3.0]))])
        return database

    @pytest.mark.parametrize(
        "sql, name, size",
        [
            ("SELECT VECTORIZE(label_scalar(x, 4611686018427387904)) FROM z",
             "VECTORIZE", "4611686018427387904"),
            ("SELECT VECTORIZE(label_scalar(x, 9223372036854775807)) FROM z",
             "VECTORIZE", "9223372036854775807"),
            ("SELECT ROWMATRIX(label_vector(vec, 4611686018427387904)) FROM z",
             "ROWMATRIX", "4611686018427387904 x 2"),
            ("SELECT COLMATRIX(label_vector(vec, 4611686018427387904)) FROM z",
             "COLMATRIX", "4611686018427387904 x 2"),
            ("SELECT zeros_vector(4611686018427387904) FROM z",
             "zeros_vector", "4611686018427387904"),
            ("SELECT ones_vector(4611686018427387904) FROM z",
             "ones_vector", "4611686018427387904"),
            ("SELECT identity_matrix(10000000000) FROM z",
             "identity_matrix", "10000000000 x 10000000000"),
        ],
    )
    def test_is_an_execution_error(self, mode_db, sql, name, size):
        with pytest.raises(ExecutionError, match=f"{name}: cannot allocate a {size} "):
            mode_db.execute(sql)


class TestArithmeticFailures:
    """A scalar divided by zero is a structured ``ExecutionError`` in both
    modes; every other floating-point exception is IEEE 754's answer
    (docs/SQL.md), with no numpy warning escaping a statement."""

    @pytest.fixture(params=["row", "batch"])
    def mode_db(self, request):
        database = Database(TEST_CLUSTER, execution_mode=request.param)
        database.execute("CREATE TABLE z (i INTEGER, x DOUBLE, vec VECTOR[2])")
        database.load(
            "z",
            [(0, 1e308, np.array([1.0, 0.0])), (2, -1e308, np.array([0.0, -2.0]))],
        )
        return database

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT x / 0.0 FROM z",
            "SELECT 1 / i FROM z",
            "SELECT x / i FROM z",
            "SELECT i FROM z WHERE 1.0 / (i - 2) > 0.0",
            "INSERT INTO z VALUES (1, 1.0 / 0, NULL)",
        ],
    )
    def test_scalar_division_by_zero_is_an_execution_error(self, mode_db, sql):
        with pytest.raises(ExecutionError, match="division by zero"):
            mode_db.execute(sql)

    def test_tensor_division_by_zero_keeps_ieee(self, mode_db):
        rows = mode_db.execute("SELECT i, vec / 0.0, 1.0 / vec FROM z ORDER BY i").rows
        quotients = [value.data.tolist() for row in rows for value in row[1:]]
        assert str(quotients) == str(
            [[np.inf, np.nan], [1.0, np.inf], [np.nan, -np.inf], [np.inf, -0.5]]
        )

    def test_overflow_is_silent_and_mode_independent(self):
        """Under ``warnings.simplefilter("error")`` overflowing tensor and
        scalar statements return, bit for bit, the same rows in row and
        batch mode."""
        import warnings

        statements = (
            "SELECT i, x * 10.0, vec * 1e308 * 10.0, x - x * 10.0 FROM z ORDER BY i",
            "SELECT SUM(x * 10.0), SUM(vec * 1e308 * 10.0), SUM(x), MIN(x * 10.0) "
            "FROM z",
            "SELECT i, inner_product(vec * 1e308, vec * 1e308) FROM z ORDER BY i",
            "SELECT i, SUM(outer_product(vec * 1e308, vec * 1e308)) FROM z "
            "GROUP BY i ORDER BY i",
        )
        seen = []
        for mode in ("row", "batch"):
            database = Database(TEST_CLUSTER, execution_mode=mode)
            database.execute("CREATE TABLE z (i INTEGER, x DOUBLE, vec VECTOR[2])")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                database.load(
                    "z",
                    [(0, 1e308, np.array([1.0, 0.0])),
                     (2, -1e308, np.array([0.0, -2.0]))],
                )
                seen.append([
                    [
                        tuple(
                            value.data.tobytes() if hasattr(value, "data")
                            else float(value).hex()
                            for value in row
                        )
                        for row in database.execute(sql).rows
                    ]
                    for sql in statements
                ])
        assert seen[0] == seen[1]
        assert float("inf").hex() in seen[1][0][0]


class TestRepeatability:
    def test_same_query_same_metrics(self, db):
        first = db.execute("SELECT id, SUM(v) FROM t GROUP BY id")
        second = db.execute("SELECT id, SUM(v) FROM t GROUP BY id")
        assert first.metrics.total_seconds == pytest.approx(
            second.metrics.total_seconds
        )
        assert sorted(first.rows) == sorted(second.rows)

    def test_results_independent_of_cluster_shape(self):
        from repro.config import ClusterConfig

        rows = [(i % 4, float(i)) for i in range(40)]
        outputs = []
        for machines, cores in ((1, 1), (2, 2), (5, 3)):
            db = Database(ClusterConfig(machines=machines, cores_per_machine=cores))
            db.execute("CREATE TABLE t (g INTEGER, x DOUBLE)")
            db.load("t", rows)
            outputs.append(
                sorted(db.execute("SELECT g, SUM(x) FROM t GROUP BY g").rows)
            )
        assert outputs[0] == outputs[1] == outputs[2]
