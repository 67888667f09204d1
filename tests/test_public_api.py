"""Tests for the package's public surface: exports, error hierarchy,
version, and the documented quickstart snippet."""

import numpy as np
import pytest

import repro
from repro import errors


class TestExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_dsl_importable(self):
        from repro.dsl import Session  # noqa: F401

    def test_bench_importable(self):
        from repro.bench import SimSQLPlatform, price  # noqa: F401

    def test_comparators_importable(self):
        from repro.comparators import SciDB, SparkMllib, SystemML  # noqa: F401

    def test_plan_cache_names_are_one_implementation(self):
        """The plan cache lives under the database (``repro.plan_cache``);
        ``repro.service`` documents and re-exports its names — the same
        objects, not a second implementation."""
        import repro.plan_cache as home
        import repro.service as service
        import repro.sql as sql

        for name in ("PlanCache", "PlanCacheKey", "CachedPlan", "param_signature"):
            assert getattr(service, name) is getattr(home, name), name
            assert name in service.__all__
        assert service.normalize_sql is home.normalize_sql is sql.normalize_sql
        db = repro.Database(repro.TEST_CLUSTER)
        assert isinstance(db.plan_cache, home.PlanCache)
        assert db.service().plan_cache is db.plan_cache


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in (
            "SqlSyntaxError",
            "CompileError",
            "TypeCheckError",
            "NameResolutionError",
            "CatalogError",
            "ExecutionError",
            "RuntimeTypeError",
            "ResourceExhaustedError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_type_check_is_compile_error(self):
        assert issubclass(errors.TypeCheckError, errors.CompileError)

    def test_runtime_type_is_execution_error(self):
        assert issubclass(errors.RuntimeTypeError, errors.ExecutionError)

    def test_syntax_error_carries_position(self):
        error = errors.SqlSyntaxError("bad", line=3, column=7)
        assert error.line == 3 and error.column == 7
        assert "line 3" in str(error)

    def test_one_except_clause_catches_everything(self):
        from repro import Database, TEST_CLUSTER

        db = Database(TEST_CLUSTER)
        for bad in ("SELEC x", "SELECT x FROM missing", "DROP TABLE missing"):
            with pytest.raises(errors.ReproError):
                db.execute(bad)


class TestReadmeQuickstart:
    def test_readme_snippet_runs(self):
        """The exact flow from README.md must work."""
        from repro import Database

        db = Database()
        db.execute("CREATE TABLE X (i INTEGER, x_i VECTOR[])")
        db.execute("CREATE TABLE y (i INTEGER, y_i DOUBLE)")

        rng = np.random.default_rng(0)
        data = rng.normal(size=(500, 8))
        beta = rng.normal(size=8)
        outcomes = data @ beta

        db.load("X", [(i, data[i]) for i in range(500)])
        db.load("y", [(i, float(outcomes[i])) for i in range(500)])

        result = db.execute(
            """
            SELECT matrix_vector_multiply(
                       matrix_inverse(SUM(outer_product(X.x_i, X.x_i))),
                       SUM(X.x_i * y_i))
            FROM X, y
            WHERE X.i = y.i
        """
        )
        assert np.allclose(result.scalar().data, beta)
        assert result.metrics.total_seconds > 0
        assert "logical" in db.explain(
            "SELECT SUM(outer_product(x_i, x_i)) FROM X"
        )
