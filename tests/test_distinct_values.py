"""Distinct values as typed columns: an INTEGER, DOUBLE or BOOLEAN
column's statistics keep its distinct values as sorted, disjoint typed
runs (``catalog.statistics.TypedDistinct``), a STRING column as a set.

Whatever the column, the distinct count and the placement estimate
(``busiest_share``) are those of a reference set fold under the key
rule (docs/SQL.md): every NaN is one value, ``0.0`` and ``-0.0`` are one
value, NULL is one value — and an incremental fold, a rescan and a
restored snapshot agree on them.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.catalog import ColumnStats, Schema, append_stats, collect_stats
from repro.catalog.statistics import TypedDistinct
from repro.columnar import ColumnData, columns_from_rows
from repro.errors import TypeCheckError
from repro.engine.executor import busiest_share
from repro.engine.cluster import stable_hash
from repro.persist import _freeze_stats, _thaw_stats
from repro.storage.durable import decode_payload, encode_payload

NAN = float("nan")
EDGE_INTS = [-(2**63), -(2**63) + 1, 2**63 - 2, 2**63 - 1, 0, 1, -1]

#: each column type's drawn cells: NULLs, ±0.0, NaN (of any sign or
#: payload hypothesis draws) and ints at the ends of int64
CELLS = {
    "INTEGER": st.none() | st.sampled_from(EDGE_INTS) | st.integers(-(2**63), 2**63 - 1)
    | st.integers(-4, 4),
    "DOUBLE": st.none() | st.sampled_from([0.0, -0.0, NAN, -NAN, 1.0, math.inf])
    | st.floats() | st.integers(-4, 4).map(float),
    "BOOLEAN": st.none() | st.booleans(),
    "STRING": st.none() | st.text(max_size=2),
}


def _key(value):
    """A value under the key rule: every NaN one value, ±0.0 one value
    (Python's ``==`` already merges the zeros)."""
    return "NaN" if isinstance(value, float) and value != value else value


def _reference(values):
    """The distinct values of a column by a plain set fold."""
    return {_key(value) for value in values}


def _placed(keys, config):
    """The busiest slot's share of ``keys`` hash-placed, by hand."""
    if not keys:
        return 0.0
    targets = [stable_hash((NAN if key == "NaN" else key,)) % config.slots for key in keys]
    return float(np.bincount(targets, minlength=config.slots).max()) / len(keys)


def _content(values):
    """Distinct values as comparable text (``repr`` tells -0.0 from 0.0)."""
    return sorted(map(repr, values))


def _restored(stats, schema):
    """``stats`` written as a snapshot writes them, and read back."""
    return _thaw_stats(decode_payload(encode_payload(_freeze_stats(stats))), schema)


class TestDrawnAppends:
    @settings(deadline=None)
    @given(
        st.sampled_from(sorted(CELLS)).flatmap(
            lambda kind: st.tuples(
                st.just(kind), st.lists(st.lists(CELLS[kind], max_size=12), max_size=6)
            )
        )
    )
    def test_counts_and_placement_match_a_reference_set_fold(self, drawn):
        kind, batches = drawn
        schema = Schema([("c", kind)])
        stats = collect_stats(schema)
        seen = []
        for batch in batches:
            assert append_stats(stats, schema, columns_from_rows([(v,) for v in batch], 1))
            seen += batch
            want = _reference(seen)
            column = stats.column("c")
            assert stats.row_count == len(seen)
            if seen:
                assert column.distinct == len(want)
        if not seen:
            return
        column = stats.column("c")
        assert busiest_share(column, TEST_CLUSTER) == _placed(list(want), TEST_CLUSTER)
        rescanned = collect_stats(schema, [(v,) for v in seen])
        restored = _restored(stats, schema)
        assert rescanned.distinct("c") == restored.distinct("c") == len(want)
        assert _content(restored.column("c").values) == _content(column.values)
        if kind != "STRING":
            runs = column.values.runs
            assert all(np.all(run[1:] > run[:-1]) for run in runs)  # sorted, one of each
            assert all(a >= 2 * b for a, b in zip(map(len, runs), map(len, runs[1:])))


class TestKeyRule:
    """One NaN object loaded three times is one value, as three NaN
    objects are; ``0.0``/``-0.0`` are one value; NULL is one value."""

    def test_incremental_rescan_and_restored_counts_agree(self, tmp_path):
        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE t (v DOUBLE, k INTEGER)")
        db.load("t", [(1.0, 1)])
        nan = float("nan")
        db.load("t", [(nan, 2), (nan, 2), (nan, 2)])
        db.load("t", [(-nan, None), (0.0, 3), (-0.0, 3), (None, 3)])
        entry = db.catalog.table("t")
        rescanned = collect_stats(entry.schema, entry.storage.all_rows())
        path = str(tmp_path / "db.repro")
        db.save(path)
        restored = Database.restore(path).catalog.table("t").stats
        for stats in (entry.stats, rescanned, restored):
            assert stats.distinct("v") == 4  # 1.0, NaN, 0.0, NULL
            assert stats.distinct("k") == 4  # 1, 2, 3, NULL
        assert _content(entry.stats.column("v").values) == _content(restored.column("v").values)

    def test_typed_columns_hold_typed_runs(self):
        schema = Schema([("i", "INTEGER"), ("x", "DOUBLE"), ("b", "BOOLEAN"), ("s", "STRING")])
        stats = collect_stats(schema)
        assert [type(stats.column(c).values) for c in "ixbs"] == [TypedDistinct] * 3 + [set]
        assert [stats.column(c).values.dtype for c in "ixb"] == [np.int64, np.float64, np.bool_]

    def test_an_int_past_int64_leaves_the_count_unknown(self):
        schema = Schema([("k", "INTEGER")])
        stats = collect_stats(schema, [(1,)])
        append_stats(stats, schema, [(2**70,)])
        assert stats.distinct("k") is None
        append_stats(stats, schema, [(3,)])
        assert stats.distinct("k") is None

    def test_a_fresh_table_has_accumulators_but_no_counts(self):
        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE t (k INTEGER, v VECTOR[])")
        stats = db.catalog.table("t").stats
        assert stats.incremental and stats.distinct("k") is None
        db.load("t", [(1, np.ones(3)), (2, None)])
        assert stats is db.catalog.table("t").stats  # folded, not rescanned
        assert stats.distinct("k") == 2 and stats.column("v").observed_length == 3


class TestFootprint:
    """An append-only table of 10⁵ rows, 64 at a time (ids ascending,
    doubles drawn)."""

    N = 100_000

    def _batches(self):
        rng = np.random.default_rng(0)
        ids = np.arange(self.N)
        doubles = rng.normal(size=self.N)
        return [
            [ColumnData(ids[i : i + 64].copy()), ColumnData(doubles[i : i + 64].copy())]
            for i in range(0, self.N, 64)
        ]

    def test_runs_stay_logarithmic(self):
        schema = Schema([("i", "INTEGER"), ("x", "DOUBLE")])
        stats = collect_stats(schema)
        bound = math.ceil(math.log2(self.N)) + 2
        for batch in self._batches():
            append_stats(stats, schema, batch)
            assert len(stats.column("i").values.runs) < bound
            assert len(stats.column("x").values.runs) < bound
        assert stats.distinct("i") == stats.distinct("x") == self.N

    def test_one_row_appends_wait_in_the_tail_then_make_a_run(self):
        """Appends of a few rows go to the sorted tail, unsearched by
        numpy, until it holds 4096 values; then it is a run."""
        schema = Schema([("x", "DOUBLE")])
        stats = collect_stats(schema)
        drawn = np.random.default_rng(1).integers(0, 6000, size=9000).astype(float).tolist()
        for value in drawn + [0.0, -0.0, NAN, -NAN]:
            append_stats(stats, schema, [(value,)])
        values = stats.column("x").values
        assert values.runs and len(values.tail) < 4096
        assert stats.distinct("x") == len(_reference(drawn + [0.0, NAN]))
        fresh = TypedDistinct(np.array(drawn + [-0.0, NAN]))
        assert np.array_equal(
            np.sort(values.column().data), np.sort(fresh.column().data), equal_nan=True
        )

    def test_at_most_16_bytes_per_distinct_value(self):
        schema = Schema([("i", "INTEGER"), ("x", "DOUBLE")])
        batches = self._batches()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stats = collect_stats(schema)
            for batch in batches:
                append_stats(stats, schema, batch)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 16 * 2 * self.N


class TestLoadConvertsAsInsert:
    """A load stores what the same INSERT stores: an INTEGER's integral
    doubles and booleans become ints, a DOUBLE's ints and booleans
    become doubles — one ``astype`` per column."""

    ROWS = [(1, 2.0), (2.5, True), (None, None), (False, 7)]
    TYPED = [(1, 2.0), (True, 4.0), (3, False)]

    def _pair(self, rows):
        loaded, inserted = Database(TEST_CLUSTER), Database(TEST_CLUSTER)
        for db in (loaded, inserted):
            db.execute("CREATE TABLE t (x DOUBLE, n INTEGER)")
        loaded.load("t", rows)
        literal = lambda v: "NULL" if v is None else str(v).upper()
        inserted.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({literal(x)}, {literal(n)})" for x, n in rows)
        )
        return loaded, inserted

    @staticmethod
    def _typed(rows):
        return [tuple((type(v).__name__, v) for v in row) for row in rows]

    @staticmethod
    def _forms(db):
        """Each slot's stored columns: dtype, and whether NULL-free."""
        storage = db.catalog.table("t").storage
        return [
            [(column.data.dtype, column.nulls is None) for column in chunk.columns()[0]]
            for chunk in map(storage.partition_chunk, range(storage.slots))
        ]

    @pytest.mark.parametrize("rows", [ROWS, TYPED], ids=["nulls", "typed"])
    def test_select_after_a_load_equals_select_after_insert(self, rows):
        loaded, inserted = self._pair(rows)
        sql = "SELECT x, n FROM t"
        assert self._typed(loaded.execute(sql).rows) == self._typed(inserted.execute(sql).rows)
        assert self._forms(loaded) == self._forms(inserted)
        for name in ("x", "n"):
            assert _content(loaded.catalog.table("t").stats.column(name).values) == (
                _content(inserted.catalog.table("t").stats.column(name).values)
            )

    def test_insert_select_converts_and_checks_alike(self):
        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE t (x DOUBLE, n INTEGER)")
        db.execute("CREATE TABLE s (a INTEGER, b DOUBLE, c STRING)")
        db.execute("INSERT INTO s VALUES (1, 2.0, 'p'), (3, 4.5, 'q')")
        db.execute("INSERT INTO t SELECT a, b FROM s WHERE b < 3.0")
        assert self._typed(db.execute("SELECT x, n FROM t").rows) == [
            (("float", 1.0), ("int", 2))
        ]
        for query in ("SELECT a, b FROM s", "SELECT c, a FROM s"):
            with pytest.raises(TypeCheckError):  # 4.5 is no INTEGER, 'p' no DOUBLE
                db.execute(f"INSERT INTO t {query}")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_a_double_past_int64_loads_as_a_python_int(self):
        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE t (n INTEGER)")
        db.load("t", [(1e19,), (2.0,)])
        assert sorted(db.execute("SELECT n FROM t").column("n")) == [2, 10**19]
        assert all(type(v) is int for v in db.execute("SELECT n FROM t").column("n"))


def test_a_key_domain_from_arange_places_as_hashed():
    known = TypedDistinct(np.arange(100))
    assert len(known) == 100
    assert busiest_share(ColumnStats(values=known), TEST_CLUSTER) == _placed(
        list(range(100)), TEST_CLUSTER
    )
