"""The ``ORDER BY ... LIMIT`` boundary battery (Top-K heap sort).

The contract (docs/ENGINE.md, "Adaptive optimization"): ``PTopK`` is a
pure execution optimization. For any query it must return rows
*bit-identical* to the full ``PSortLimit`` sort — including ties exactly
at rank k (broken by input position), k = 0, k >= the total row count,
NULL sort keys, and vector sort keys — in every execution mode x storage
mode combination and under fault injection, while never materializing
more than k rows per slot (the full sort holds the whole partition).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.engine.keys import TypedKeys, stable_order, top_order
from repro.faults import FaultPlan
from repro.plan import PhysicalPlanner
from repro.plan.physical import PSortLimit, PTopK
from repro.sql import parse_statement
from repro.types import Vector

N = 30

#: i is unique; s = i % 5 gives ties at virtually every rank; x mixes
#: NULLs in; v is a vector key whose first element ties (i % 3) so the
#: lexicographic tail and the input-position tiebreak both matter
ROWS = [
    (
        i,
        i % 5,
        None if i % 7 == 0 else float((i * 13) % 9),
        Vector([float(i % 3), float((i * 5) % 11)]),
    )
    for i in range(N)
]

LIMITS = (0, 1, 3, N, N + 10)

QUERIES = (
    "SELECT i, s FROM t ORDER BY s, i LIMIT {k}",
    "SELECT i, s FROM t ORDER BY s DESC LIMIT {k}",
    "SELECT i, x FROM t ORDER BY x LIMIT {k}",
    "SELECT i, x FROM t ORDER BY x DESC, i LIMIT {k}",
    "SELECT i, v FROM t ORDER BY v LIMIT {k}",
    "SELECT i, v FROM t ORDER BY v DESC LIMIT {k}",
)


def _db(**overrides):
    db = Database(TEST_CLUSTER.with_updates(**overrides))
    db.execute("CREATE TABLE t (i INTEGER, s INTEGER, x DOUBLE, v VECTOR[])")
    db.load("t", ROWS)
    return db


def _run_full_sort(db, sql):
    """The same statement forced through the full PSortLimit sort."""
    plan = db._compile(parse_statement(sql), None)
    plan.physical = PhysicalPlanner(db.cost_model, enable_top_k=False).plan(
        plan.logical
    )
    assert not _collect(plan.physical, PTopK)
    return db._execute_plan(plan)


def _collect(node, node_type):
    found = []
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, node_type):
            found.append(current)
        stack.extend(current.children())
    return found


def _ops_fingerprint(metrics):
    return tuple(
        (
            op.name,
            op.rows_in,
            op.rows_out,
            op.bytes_out,
            op.wall_seconds,
            op.network_bytes,
        )
        for op in metrics.operators
    )


class TestBitIdenticalToFullSort:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    @pytest.mark.parametrize("k", LIMITS)
    @pytest.mark.parametrize("template", QUERIES)
    def test_rows_match_full_sort(self, template, k, mode):
        sql = template.format(k=k)
        db = _db(execution_mode=mode)
        top_k = db.execute(sql)
        full = _run_full_sort(db, sql)
        assert top_k.rows == full.rows
        assert top_k.columns == full.columns
        assert len(top_k.rows) == min(k, N)

    def test_tie_exactly_at_rank_k_takes_full_sort_order(self):
        # s == 0 for i in {0, 5, 10, 15, 20, 25}: LIMIT 4 cuts *inside*
        # that tie group, so which of the six tied rows survive — and in
        # what order — is decided purely by the tiebreak. Top-K must
        # make exactly the full sort's choice, and every survivor must
        # come from the tie group.
        db = _db()
        sql = "SELECT i, s FROM t ORDER BY s LIMIT 4"
        result = db.execute(sql)
        assert result.rows == _run_full_sort(db, sql).rows
        assert [row[1] for row in result.rows] == [0, 0, 0, 0]
        assert {row[0] for row in result.rows} <= {0, 5, 10, 15, 20, 25}

    def test_nulls_sort_first_and_survive_the_cut(self):
        db = _db()
        sql = "SELECT i, x FROM t ORDER BY x LIMIT 5"
        result = db.execute(sql)
        # the 5 NULL x values (i % 7 == 0) fill the whole top-5
        assert [row[1] for row in result.rows] == [None] * 5
        assert {row[0] for row in result.rows} == {0, 7, 14, 21, 28}
        assert result.rows == _run_full_sort(db, sql).rows

    def test_vector_keys_order_lexicographically(self):
        db = _db()
        result = db.execute("SELECT i, v FROM t ORDER BY v LIMIT 3")
        expected = sorted(
            (tuple(row[3].data.tolist()) for row in ROWS)
        )[:3]
        assert [tuple(row[1].data.tolist()) for row in result.rows] == expected


#: the typed sort key forms, few values each so ties straddle rank k:
#: int64 with its extremes (DESC sorts ``~x``, 2**63 - 1 at -2**63),
#: bool, ±0.0 and infinities, and a NaN-bearing float, under which no
#: selection may run: the chain keeps Python's comparison order, which
#: depends on the rows it sorts, even when the NaN key is not dominant
SORT_KEYS = {
    "int": (np.int64, st.one_of(
        st.integers(-3, 3), st.sampled_from([-(2**63), 2**63 - 1]))),
    "bool": (np.bool_, st.booleans()),
    "float": (np.float64, st.sampled_from(
        [0.0, -0.0, 1.5, -2.0, float("inf"), float("-inf")])),
    "nan": (np.float64, st.sampled_from([0.0, 1.5, float("nan")])),
}


@st.composite
def sort_keys(draw):
    """``(n, ORDER BY keys as (TypedKeys, ascending), k)``."""
    n = draw(st.integers(1, 40))
    keys = []
    forms = draw(st.lists(st.sampled_from(sorted(SORT_KEYS)), min_size=1, max_size=3))
    for form in forms:
        dtype, values = SORT_KEYS[form]
        column = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)
        keys.append((TypedKeys([column], n), draw(st.booleans())))
    return n, keys, draw(st.sampled_from([1, n - 1, n, n + 5]))


class TestSelection:
    @settings(max_examples=150, deadline=None)
    @given(drawn=sort_keys())
    def test_top_order_is_the_full_orders_prefix(self, drawn):
        """``top_order`` ≡ ``stable_order(...)[:k]``, and it selects on
        the dominant key exactly when it can: 0 < k < n, no NaN key."""
        n, keys, k = drawn
        last_first = keys[::-1]
        want = [int(i) for i in stable_order(n, last_first)[:k]]
        partition, selected = np.partition, []
        with mock.patch.object(
            np, "partition", lambda *args: selected.append(args) or partition(*args)
        ):
            got = [int(i) for i in top_order(n, last_first, k)]
        assert got == want
        nan = any(
            np.isnan(column.arrays[0]).any()
            for column, _ in keys
            if column.dtypes[0] == np.float64
        )
        assert bool(selected) == (0 < k < n and not nan)


class TestModeAndStorageParity:
    @pytest.mark.parametrize("k", LIMITS)
    def test_row_batch_metrics_bit_identical(self, k):
        sql = f"SELECT i, s FROM t ORDER BY s, i LIMIT {k}"
        row = _db(execution_mode="row").execute(sql)
        batch = _db(execution_mode="batch").execute(sql)
        assert row.rows == batch.rows
        assert _ops_fingerprint(row.metrics) == _ops_fingerprint(batch.metrics)
        assert row.metrics.total_seconds == batch.metrics.total_seconds

    @pytest.mark.parametrize("execution_mode", ["row", "batch"])
    @pytest.mark.parametrize("k", (0, 3, N + 10))
    def test_disk_mode_matches_memory(self, k, execution_mode):
        sql = f"SELECT i, x FROM t ORDER BY x, i LIMIT {k}"
        memory = _db(
            storage_mode="memory", execution_mode=execution_mode, segment_rows=8
        ).execute(sql)
        disk = _db(
            storage_mode="disk", execution_mode=execution_mode, segment_rows=8
        ).execute(sql)
        assert memory.rows == disk.rows

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_rows_survive_fault_injection(self, mode):
        sql = "SELECT i, s FROM t ORDER BY s, i LIMIT 4"
        plan = FaultPlan(
            seed=13,
            slot_crash_rate=0.1,
            lost_partition_rate=0.1,
            transient_error_rate=0.1,
            straggler_rate=0.2,
            max_partition_retries=8,
        )
        clean = _db(execution_mode=mode).execute(sql)
        faulted = _db(execution_mode=mode, fault_plan=plan).execute(sql)
        assert faulted.rows == clean.rows


class TestBoundedState:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_peak_memory_is_o_k_not_o_n(self, mode):
        db = Database(TEST_CLUSTER.with_updates(execution_mode=mode))
        db.execute("CREATE TABLE big (i INTEGER, x DOUBLE)")
        db.load("big", [(i, float((i * 17) % 101)) for i in range(200)])
        sql = "SELECT i, x FROM big ORDER BY x, i LIMIT 2"
        top_k = db.execute(sql)
        full = _run_full_sort(db, sql)
        assert top_k.rows == full.rows

        def local_peak(trace, prefix):
            peaks = [
                node.peak_memory_bytes
                for node in trace.walk()
                if node.name.startswith(prefix)
            ]
            assert peaks
            return max(peaks)

        top_k_peak = local_peak(top_k.metrics.trace, "TopK(local)")
        sort_peak = local_peak(full.metrics.trace, "Sort(local)")
        # ~50 rows per slot vs 2 kept: the heap's state must be a small
        # fraction of the full sort's materialized partition
        assert top_k_peak > 0
        assert top_k_peak * 5 < sort_peak

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_limit_zero_short_circuits_child(self, mode):
        db = _db(execution_mode=mode)
        result = db.execute("SELECT i, s FROM t ORDER BY s LIMIT 0")
        assert result.rows == []
        trace = result.metrics.trace
        assert trace.executed  # the final TopK itself ran
        skipped = [node for node in trace.walk() if not node.executed]
        # the gather, the local TopK, and the scan subtree never ran
        assert skipped
        for node in skipped:
            assert node.q_error is None
            assert node.rows_out == 0
