"""Tests for the optimizer's scaling paths: the greedy fallback above the
DP relation limit, deep view nesting, wide join graphs, and the
once-per-node, per-pass lifetime of the estimates it plans with."""

import sys
import threading

import pytest

from repro import Database, TEST_CLUSTER
from repro.plan import CostModel, ScanNode
from repro.plan.optimizer import DP_RELATION_LIMIT
from repro.sql import parse_statement


def chain_db(tables):
    db = Database(TEST_CLUSTER)
    for i in range(tables):
        db.execute(f"CREATE TABLE t{i} (k INTEGER, v{i} DOUBLE)")
        db.load(f"t{i}", [(j, float(j + i)) for j in range(4)])
    return db


def chain_sql(tables):
    froms = ", ".join(f"t{i}" for i in range(tables))
    joins = " AND ".join(f"t{i}.k = t{i + 1}.k" for i in range(tables - 1))
    return f"SELECT t0.k, t0.v0, t{tables - 1}.v{tables - 1} FROM {froms} WHERE {joins}"


class TestGreedyFallback:
    def test_limit_is_sane(self):
        assert 4 <= DP_RELATION_LIMIT <= 16

    def test_join_beyond_dp_limit_is_correct(self):
        tables = DP_RELATION_LIMIT + 2
        db = chain_db(tables)
        result = db.execute(chain_sql(tables))
        # every key joins across all tables: 4 result rows
        assert sorted(result.rows) == [
            (j, float(j), float(j + tables - 1)) for j in range(4)
        ]

    def test_greedy_and_dp_agree_at_the_boundary(self):
        at_limit = DP_RELATION_LIMIT
        db = chain_db(at_limit + 1)
        small = sorted(db.execute(chain_sql(at_limit)).rows)
        # one more table pushes the region into the greedy path
        large = sorted(db.execute(chain_sql(at_limit + 1)).rows)
        assert [row[:2] for row in small] == [row[:2] for row in large]


@pytest.fixture
def scan_estimates(monkeypatch):
    """Every evaluation of the scan rule on a logical plan, in order:
    each one sizes its scan's row exactly once (``row_width``)."""
    seen = []
    row_width = CostModel.row_width

    def counting(self, node):
        if isinstance(node, ScanNode):
            seen.append(node.table.name)
        return row_width(self, node)

    monkeypatch.setattr(CostModel, "row_width", counting)
    return seen


class TestEstimatedOncePerNode:
    """A compile makes one estimate pass: it evaluates each logical node
    once, however many DP candidates share it, the physical planner
    lowers with the same pass, and each physical operator is priced once
    — counts, not seconds."""

    TABLES = 6

    def test_optimizer_and_physical_pass_are_linear_in_scans(
        self, scan_estimates, monkeypatch
    ):
        priced = []
        rule = CostModel._physical_rule

        def counting(self, node, inputs):
            priced.append(node)
            return rule(self, node, inputs)

        monkeypatch.setattr(CostModel, "_physical_rule", counting)
        db = chain_db(self.TABLES)
        plan = db._compile(parse_statement(chain_sql(self.TABLES)), None)
        assert sorted(scan_estimates) == [f"t{i}" for i in range(self.TABLES)]

        def walk(node):
            yield node
            for child in node.children():
                yield from walk(child)

        assert sorted(map(id, priced)) == sorted(map(id, walk(plan.physical)))

    def test_verbose_explain_is_linear_in_scans(self, scan_estimates):
        db = chain_db(self.TABLES)
        db.explain(chain_sql(self.TABLES), verbose=True)
        # the annotated tree and its total cost read the compile's pass
        assert sorted(scan_estimates) == [f"t{i}" for i in range(self.TABLES)]


class TestEstimatesLivePerPass:
    def test_no_estimate_survives_its_pass(self):
        db = chain_db(2)
        sql = chain_sql(2)
        assert "Scan t0 AS t0 (4 rows)  [~4 rows" in db.explain(sql, verbose=True)
        db.load("t0", [(j, float(j)) for j in range(4, 12)])
        assert "Scan t0 AS t0 (12 rows)  [~12 rows" in db.explain(sql, verbose=True)

    def test_concurrent_planning_matches_serial(self):
        db = chain_db(5)
        statements = [chain_sql(4), chain_sql(5)] * 2  # more threads than cores
        serial = [db.explain(sql, verbose=True) for sql in statements]
        concurrent = [None] * len(statements)
        start = threading.Barrier(len(statements))

        def plan(index):
            start.wait(timeout=30)
            for _ in range(3):
                concurrent[index] = db.explain(statements[index], verbose=True)

        threads = [
            threading.Thread(target=plan, args=(index,))
            for index in range(len(statements))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert concurrent == serial


class TestDeepNesting:
    def test_views_on_views(self):
        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE base (k INTEGER, x DOUBLE)")
        db.load("base", [(i, float(i)) for i in range(10)])
        db.execute("CREATE VIEW v1 AS SELECT k, x * 2 AS x FROM base")
        db.execute("CREATE VIEW v2 AS SELECT k, x + 1 AS x FROM v1")
        db.execute("CREATE VIEW v3 AS SELECT k, x FROM v2 WHERE x > 5")
        result = db.execute("SELECT SUM(x) FROM v3")
        expected = sum(2 * i + 1 for i in range(10) if 2 * i + 1 > 5)
        assert result.scalar() == expected

    def test_nested_subqueries(self):
        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE base (g INTEGER, x DOUBLE)")
        db.load("base", [(i % 3, float(i)) for i in range(12)])
        result = db.execute(
            """SELECT MAX(s.total)
            FROM (SELECT q.g AS g, SUM(q.x) AS total
                  FROM (SELECT g, x FROM base WHERE x < 10) AS q
                  GROUP BY q.g) AS s"""
        )
        sums = {}
        for i in range(12):
            if i < 10:
                sums[i % 3] = sums.get(i % 3, 0.0) + i
        assert result.scalar() == max(sums.values())

    def test_view_joined_with_its_base_table(self):
        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE base (k INTEGER, x DOUBLE)")
        db.load("base", [(i, float(i)) for i in range(5)])
        db.execute("CREATE VIEW doubled AS SELECT k, x * 2 AS y FROM base")
        result = db.execute(
            "SELECT base.x, doubled.y FROM base, doubled "
            "WHERE base.k = doubled.k"
        )
        assert sorted(result.rows) == [(float(i), float(2 * i)) for i in range(5)]


class TestStarJoinShapes:
    def test_star_schema_join(self):
        """A fact table joined to several small dimensions — every
        dimension should be broadcast, never the fact table."""
        db = Database(TEST_CLUSTER)
        db.execute(
            "CREATE TABLE fact (d1 INTEGER, d2 INTEGER, d3 INTEGER, m DOUBLE)"
        )
        db.load("fact", [(i % 3, i % 4, i % 5, float(i)) for i in range(60)])
        for name, size in (("dim1", 3), ("dim2", 4), ("dim3", 5)):
            db.execute(f"CREATE TABLE {name} (id INTEGER, label STRING)")
            db.load(name, [(i, f"{name}-{i}") for i in range(size)])
        result = db.execute(
            """SELECT dim1.label, SUM(fact.m)
            FROM fact, dim1, dim2, dim3
            WHERE fact.d1 = dim1.id AND fact.d2 = dim2.id
              AND fact.d3 = dim3.id
            GROUP BY dim1.label"""
        )
        assert len(result) == 3
        assert sum(row[1] for row in result.rows) == sum(float(i) for i in range(60))
        plan = db.explain(
            """SELECT dim1.label, SUM(fact.m)
            FROM fact, dim1, dim2, dim3
            WHERE fact.d1 = dim1.id AND fact.d2 = dim2.id
              AND fact.d3 = dim3.id
            GROUP BY dim1.label"""
        )
        assert "Exchange hash" not in plan.split("== physical ==")[1].split(
            "PartialAggregate"
        )[-1]
