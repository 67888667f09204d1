"""Tests for schemas, the catalog, and statistics collection."""

import numpy as np
import pytest

from repro.catalog import (
    Catalog,
    Column,
    Schema,
    TableStats,
    append_stats,
    collect_stats,
)
from repro.errors import CatalogError
from repro.types import DOUBLE, INTEGER, Matrix, MatrixType, Vector, VectorType


class TestSchema:
    def test_from_pairs_with_string_types(self):
        schema = Schema([("id", "INTEGER"), ("vec", "VECTOR[10]")])
        assert schema.names == ["id", "vec"]
        assert schema.types == [INTEGER, VectorType(10)]

    def test_from_columns(self):
        schema = Schema([Column("a", DOUBLE)])
        assert schema.column("a").data_type == DOUBLE

    def test_case_insensitive_lookup(self):
        schema = Schema([("PointID", INTEGER)])
        assert schema.index_of("pointid") == 0
        assert schema.has_column("POINTID")

    def test_duplicate_names_rejected(self):
        with pytest.raises(CatalogError):
            Schema([("a", INTEGER), ("A", DOUBLE)])

    def test_missing_column_raises(self):
        with pytest.raises(CatalogError):
            Schema([("a", INTEGER)]).column("b")

    def test_rename(self):
        schema = Schema([("a", INTEGER), ("b", DOUBLE)])
        renamed = schema.rename(["x", "y"])
        assert renamed.names == ["x", "y"]
        assert renamed.types == schema.types

    def test_rename_arity_checked(self):
        with pytest.raises(CatalogError):
            Schema([("a", INTEGER)]).rename(["x", "y"])

    def test_row_width_reflects_tensor_sizes(self):
        narrow = Schema([("a", INTEGER)])
        wide = Schema([("m", MatrixType(100, 1000))])
        assert wide.row_width_bytes() > 1000 * narrow.row_width_bytes()

    def test_iteration_order(self):
        schema = Schema([("a", INTEGER), ("b", DOUBLE)])
        assert [column.name for column in schema] == ["a", "b"]
        assert len(schema) == 2


class TestCatalog:
    def test_create_and_fetch_table(self):
        catalog = Catalog()
        catalog.create_table("t", Schema([("a", INTEGER)]))
        assert catalog.table("T").name == "t"
        assert catalog.has_table("t")

    def test_duplicate_relation_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", Schema([("a", INTEGER)]))
        with pytest.raises(CatalogError):
            catalog.create_table("T", Schema([("b", INTEGER)]))
        with pytest.raises(CatalogError):
            catalog.create_view("t", query=None)

    def test_view_name_conflicts_with_table(self):
        catalog = Catalog()
        catalog.create_view("v", query=None)
        with pytest.raises(CatalogError):
            catalog.create_table("v", Schema([("a", INTEGER)]))

    def test_drop_table(self):
        catalog = Catalog()
        catalog.create_table("t", Schema([("a", INTEGER)]))
        catalog.drop_table("t")
        assert not catalog.has_table("t")

    def test_drop_missing_table(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.drop_table("nope")
        catalog.drop_table("nope", if_exists=True)  # no error

    def test_drop_view(self):
        catalog = Catalog()
        catalog.create_view("v", query=None)
        catalog.drop_view("v")
        assert catalog.view("v") is None
        with pytest.raises(CatalogError):
            catalog.drop_view("v")
        catalog.drop_view("v", if_exists=True)

    def test_stamps_are_values_of_the_one_version_counter(self):
        catalog = Catalog()
        assert catalog.stamp("t") == 0  # no such relation
        catalog.create_table("t", Schema([("a", INTEGER)]))
        catalog.create_view("v", query=None)
        assert catalog.stamp("T") == 1 and catalog.stamp("v") == 2
        catalog.touch("t")  # data or statistics moved
        assert catalog.stamp("t") == catalog.version == 3
        assert catalog.stamp("v") == 2  # others keep theirs
        assert not hasattr(catalog, "ddl_version")

    def test_a_recreated_name_never_repeats_a_stamp(self):
        catalog = Catalog()
        seen = set()
        for _ in range(3):
            catalog.create_table("t", Schema([("a", INTEGER)]))
            catalog.touch("t")
            assert catalog.stamp("t") not in seen
            seen.add(catalog.stamp("t"))
            catalog.drop_table("t")
            assert catalog.stamp("t") == 0
        for _ in range(2):
            catalog.create_view("t", query=None)
            assert catalog.stamp("t") not in seen
            seen.add(catalog.stamp("t"))
            catalog.drop_view("t")


class TestStatistics:
    def test_collect_row_count_and_distinct(self):
        schema = Schema([("k", INTEGER), ("v", DOUBLE)])
        rows = [(1, 1.0), (1, 2.0), (2, 3.0)]
        stats = collect_stats(schema, rows)
        assert stats.row_count == 3
        assert stats.distinct("k") == 2
        assert stats.distinct("v") == 3
        assert stats.distinct("missing") is None

    def test_observed_vector_length_refines_type(self):
        schema = Schema([("vec", VectorType(None))])
        rows = [(Vector([1.0, 2.0, 3.0]),), (Vector([4.0, 5.0, 6.0]),)]
        stats = collect_stats(schema, rows)
        refined = stats.column("vec").refine_type(VectorType(None))
        assert refined == VectorType(3)

    def test_mixed_lengths_do_not_refine(self):
        schema = Schema([("vec", VectorType(None))])
        rows = [(Vector([1.0]),), (Vector([1.0, 2.0]),)]
        stats = collect_stats(schema, rows)
        assert stats.column("vec").refine_type(VectorType(None)) == VectorType(None)

    def test_observed_matrix_dims(self):
        schema = Schema([("m", MatrixType(None, None))])
        rows = [(Matrix(np.ones((2, 5))),)]
        stats = collect_stats(schema, rows)
        refined = stats.column("m").refine_type(MatrixType(None, None))
        assert refined == MatrixType(2, 5)

    def test_declared_dims_never_overridden(self):
        schema = Schema([("m", MatrixType(7, None))])
        rows = [(Matrix(np.ones((7, 5))),)]
        stats = collect_stats(schema, rows)
        refined = stats.column("m").refine_type(MatrixType(7, None))
        assert refined == MatrixType(7, 5)

    def test_empty_table(self):
        schema = Schema([("k", INTEGER)])
        stats = collect_stats(schema, [])
        assert stats.row_count == 0
        assert stats.distinct("k") == 0

    def test_default_stats_object(self):
        stats = TableStats()
        assert stats.row_count == 0
        assert stats.column("x").distinct is None


class TestAppendStats:
    """Incremental statistics maintenance: appending rows must yield the
    same statistics as re-collecting from scratch."""

    def test_append_matches_full_collect(self):
        schema = Schema([("k", INTEGER), ("v", DOUBLE)])
        first = [(1, 1.0), (1, 2.0), (2, 3.0)]
        second = [(2, 3.0), (3, 4.0)]
        stats = collect_stats(schema, first)
        assert append_stats(stats, schema, second)
        full = collect_stats(schema, first + second)
        assert stats.row_count == full.row_count == 5
        assert stats.distinct("k") == full.distinct("k") == 3
        assert stats.distinct("v") == full.distinct("v") == 4

    def test_append_tensor_dims_match_full_collect(self):
        schema = Schema([("vec", VectorType(None))])
        first = [(Vector([1.0, 2.0, 3.0]),)]
        second = [(Vector([4.0, 5.0, 6.0]),)]
        stats = collect_stats(schema, first)
        assert append_stats(stats, schema, second)
        assert stats.column("vec").observed_length == 3

    def test_append_inconsistent_length_resets_observed(self):
        schema = Schema([("vec", VectorType(None))])
        stats = collect_stats(schema, [(Vector([1.0, 2.0]),)])
        assert stats.column("vec").observed_length == 2
        assert append_stats(stats, schema, [(Vector([1.0]),)])
        assert stats.column("vec").observed_length is None

    def test_append_matrix_shapes(self):
        schema = Schema([("m", MatrixType(None, None))])
        stats = collect_stats(schema, [(Matrix(np.ones((2, 5))),)])
        assert append_stats(stats, schema, [(Matrix(np.ones((2, 5))),)])
        assert stats.column("m").observed_rows == 2
        assert stats.column("m").observed_cols == 5

    def test_append_to_empty_collect(self):
        schema = Schema([("k", INTEGER)])
        stats = collect_stats(schema, [])
        assert append_stats(stats, schema, [(1,), (2,)])
        assert stats.row_count == 2
        assert stats.distinct("k") == 2

    def test_non_incremental_stats_refuse(self):
        # hand-built stats (no accumulators) signal "rescan the table"
        schema = Schema([("k", INTEGER)])
        stats = TableStats(row_count=5)
        assert not append_stats(stats, schema, [(1,)])
        assert stats.row_count == 5

    def test_unhashable_append_drops_distinct(self):
        schema = Schema([("k", INTEGER)])
        stats = collect_stats(schema, [(1,)])
        assert append_stats(stats, schema, [([1, 2],)])
        assert stats.distinct("k") is None
        # further appends stay incremental, distinct stays unknown
        assert append_stats(stats, schema, [(2,)])
        assert stats.distinct("k") is None
        assert stats.row_count == 3


class TestStatsFreshAfterDML:
    """Every DML statement must refresh statistics and bump the catalog
    version (stale stats silently mis-cost all subsequent plans)."""

    def _db(self):
        from repro import Database, TEST_CLUSTER

        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE t (k INTEGER, v DOUBLE)")
        db.load("t", [(i % 4, float(i)) for i in range(8)])
        return db

    def test_insert_values_refreshes(self):
        db = self._db()
        before = db.catalog.version
        shape = db.catalog.stamp("t")
        db.execute("INSERT INTO t VALUES (99, 1.5)")
        stats = db.catalog.table("t").stats
        assert stats.row_count == 9
        assert stats.distinct("k") == 5
        assert db.catalog.version == before + 1  # one bump per statement
        # the table's statistics stamp moves, not just the catalog's
        # version; its shape (no refined dimension changed) does not
        assert db.catalog.statistics_stamp("t") == db.catalog.version
        assert db.catalog.stamp("t") == shape

    def test_insert_select_refreshes(self):
        db = self._db()
        before = db.catalog.version
        db.execute("INSERT INTO t SELECT k, v FROM t WHERE v > 5")
        assert db.catalog.table("t").stats.row_count == 10
        assert db.catalog.version > before

    def test_ctas_collects_stats(self):
        db = self._db()
        db.execute("CREATE TABLE t2 AS SELECT k, v FROM t WHERE v > 3")
        stats = db.catalog.table("t2").stats
        assert stats.row_count == 4
        assert stats.distinct("k") == 4

    def test_delete_refreshes(self):
        db = self._db()
        before = db.catalog.version
        db.execute("DELETE FROM t WHERE k = 0")
        assert db.catalog.table("t").stats.row_count == 6
        assert db.catalog.table("t").stats.distinct("k") == 3
        assert db.catalog.version > before

    def test_incremental_append_matches_rescan(self):
        db = self._db()
        db.execute("INSERT INTO t VALUES (7, 2.5)")
        entry = db.catalog.table("t")
        incremental = entry.stats
        rescanned = collect_stats(entry.schema, entry.storage.all_rows())
        assert incremental.row_count == rescanned.row_count
        for name in ("k", "v"):
            assert incremental.distinct(name) == rescanned.distinct(name)

    def test_insert_changes_plan_estimates(self):
        # the regression the bugfix sweep guards: an INSERT must be
        # visible to the very next plan's cardinality estimates
        db = self._db()

        def scan_rows():
            result = db.execute("SELECT k FROM t")
            trace = result.metrics.trace
            leaf = trace
            while leaf.children:
                leaf = leaf.children[0]
            return leaf.est_rows

        assert scan_rows() == 8
        db.execute("INSERT INTO t SELECT k, v FROM t")
        assert scan_rows() == 16
