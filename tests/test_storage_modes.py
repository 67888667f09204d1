"""Out-of-core storage engine: cross-mode equivalence and unit coverage.

The contract (docs/STORAGE.md): ``storage_mode`` is a pure back-end
choice. For any query, all four combinations of
``storage_mode in ("memory", "disk")`` x ``execution_mode in ("row",
"batch")`` must produce identical result rows and bit-identical
simulated :class:`QueryMetrics` — including spill bytes/events, zone-map
pruning counts and peak memory — even with an arbitrarily small
``buffer_pool_bytes`` (forcing spills) and under an active
:class:`FaultPlan`. Buffer-pool hit/miss counters are the one exception:
they describe *real* disk-mode I/O and are deliberately outside the
cross-mode fingerprint.

Unit tests cover the segment codec, zone maps, chunk boundaries, the
LRU-with-pins buffer pool, and the service-level memory budget + storage
stats surface (the table contract, over both segment homes, is in
``tests/test_storage.py``).
"""

import os
import random
import struct
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.columnar import ColumnData, columns_from_rows
from repro.config import ClusterConfig
from repro.engine import exact_hash
from repro.engine.cluster import columns_row_bytes, row_bytes
from repro.engine.storage import Batch
from repro.errors import ExecutionError, ServiceOverloadedError
from repro.faults import FaultPlan
from repro.service import QueryService, ServiceConfig
from repro.storage import (
    BufferPool,
    DiskSegment,
    MemorySegment,
    ZoneMap,
    chunk_offsets,
    compute_zone,
    decode_segment,
    encode_rows,
    encode_segment,
    segment_pruned,
    zone_excludes,
)
from repro.storage.segment import decode_columns
from repro.types import LabeledScalar, Matrix, Vector

# -- shared workload ---------------------------------------------------------

TABLE_A_ROWS = [(i % 7, float(i) - 3.5, i % 3) for i in range(40)]
TABLE_B_ROWS = [(i % 5, float(i * 2)) for i in range(15)]
VECTOR_DIM = 4
TABLE_V_ROWS = [
    (i, i % 3, Vector([float(i + j * j) - 5.0 for j in range(VECTOR_DIM)]))
    for i in range(24)
]

STORAGE_MODES = ("memory", "disk")
EXECUTION_MODES = ("row", "batch")


def _config(storage_mode, execution_mode, **overrides):
    return TEST_CLUSTER.with_updates(
        storage_mode=storage_mode,
        execution_mode=execution_mode,
        segment_rows=8,
        **overrides,
    )


def _db(storage_mode, execution_mode, **overrides):
    db = Database(_config(storage_mode, execution_mode, **overrides))
    db.execute("CREATE TABLE ta (k INTEGER, x DOUBLE, g INTEGER)")
    db.execute("CREATE TABLE tb (k INTEGER, y DOUBLE)")
    db.execute("CREATE TABLE tv (id INTEGER, g INTEGER, v VECTOR[])")
    db.load("ta", TABLE_A_ROWS)
    db.load("tb", TABLE_B_ROWS)
    db.load("tv", TABLE_V_ROWS)
    return db


def _fingerprint(metrics):
    """Every simulated number an operator charges, bit-for-bit —
    including the out-of-core counters, excluding only the buffer-pool
    hit/miss counts (real disk-mode I/O observability)."""
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
                op.spill_bytes,
                op.spill_events,
                op.segments_pruned,
                op.segments_scanned,
                op.peak_memory_bytes,
            )
            for op in metrics.operators
        ),
    )


def _digest(result):
    return sorted(exact_hash(tuple(row)) for row in result.rows)


def _assert_all_modes_agree(sql, **overrides):
    results = {}
    for storage_mode in STORAGE_MODES:
        for execution_mode in EXECUTION_MODES:
            result = _db(storage_mode, execution_mode, **overrides).execute(sql)
            results[(storage_mode, execution_mode)] = result
    baseline = results[("memory", "row")]
    want_digest = _digest(baseline)
    want_fingerprint = _fingerprint(baseline.metrics)
    for combo, result in results.items():
        assert _digest(result) == want_digest, combo
        assert _fingerprint(result.metrics) == want_fingerprint, combo
    return results


# -- randomized cross-mode equivalence ---------------------------------------

comparisons = st.sampled_from(["=", "<>", "<", ">", "<=", ">="])


@st.composite
def storage_queries(draw):
    shape = draw(st.integers(0, 4))
    op = draw(comparisons)
    if shape == 0:
        threshold = draw(st.integers(-4, 40))
        return (
            "SELECT ta.g, SUM(ta.x), COUNT(*) FROM ta "
            f"WHERE ta.x {op} {threshold} GROUP BY ta.g"
        )
    if shape == 1:
        threshold = draw(st.integers(0, 7))
        return f"SELECT ta.k, ta.x FROM ta WHERE ta.k {op} {threshold}"
    if shape == 2:
        threshold = draw(st.integers(0, 30))
        return (
            "SELECT ta.k, ta.x, tb.y FROM ta, tb "
            f"WHERE ta.k = tb.k AND tb.y {op} {threshold}"
        )
    if shape == 3:
        threshold = draw(st.integers(0, 24))
        return (
            "SELECT SUM(outer_product(t.v, t.v)) FROM tv AS t "
            f"WHERE t.id {op} {threshold}"
        )
    threshold = draw(st.integers(0, 24))
    return (
        "SELECT t.g, SUM(outer_product(t.v, t.v)), COUNT(*) "
        f"FROM tv AS t WHERE t.id {op} {threshold} GROUP BY t.g"
    )


class TestStorageModeEquivalence:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(storage_queries())
    def test_queries_agree_across_all_modes(self, sql):
        _assert_all_modes_agree(sql)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(storage_queries())
    def test_forced_spill_agrees_across_all_modes(self, sql):
        """A buffer pool far smaller than any working set must not change
        a single result bit or simulated metric."""
        _assert_all_modes_agree(sql, buffer_pool_bytes=256.0)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(storage_queries())
    def test_fault_plan_agrees_across_all_modes(self, sql):
        """Deterministic fault injection composes with both back ends."""
        _assert_all_modes_agree(
            sql,
            fault_plan=FaultPlan(
                seed=3, transient_error_rate=0.2, straggler_rate=0.2
            ),
        )

    def test_faults_plus_forced_spill_agree(self):
        _assert_all_modes_agree(
            "SELECT ta.g, SUM(ta.x), COUNT(*) FROM ta, tb "
            "WHERE ta.k = tb.k GROUP BY ta.g",
            buffer_pool_bytes=256.0,
            fault_plan=FaultPlan(seed=11, transient_error_rate=0.3),
        )


class TestSpillBehaviour:
    GRAM_SQL = "SELECT SUM(outer_product(t.v, t.v)) FROM tv AS t"

    def test_tiny_budget_forces_spills(self):
        results = _assert_all_modes_agree(
            "SELECT ta.g, SUM(ta.x) FROM ta, tb WHERE ta.k = tb.k "
            "GROUP BY ta.g",
            buffer_pool_bytes=64.0,
        )
        metrics = results[("memory", "row")].metrics
        assert metrics.spill_bytes > 0
        assert metrics.spill_events > 0
        # identical across every combo (part of the fingerprint, but make
        # the acceptance criterion explicit)
        for result in results.values():
            assert result.metrics.spill_bytes == metrics.spill_bytes
            assert result.metrics.spill_events == metrics.spill_events

    def test_gram_matrix_spills_and_matches_unconstrained(self):
        unconstrained = _db("memory", "row").execute(self.GRAM_SQL)
        spilled = _db("disk", "batch", buffer_pool_bytes=64.0).execute(
            self.GRAM_SQL
        )
        assert spilled.metrics.spill_bytes > 0
        want = unconstrained.scalar()
        got = spilled.scalar()
        assert got.data.tobytes() == want.data.tobytes()

    def test_unconstrained_budget_never_spills(self):
        for storage_mode in STORAGE_MODES:
            result = _db(storage_mode, "batch").execute(self.GRAM_SQL)
            assert result.metrics.spill_bytes == 0
            assert result.metrics.spill_events == 0

    def test_spill_visible_in_explain_analyze(self):
        db = _db("disk", "row", buffer_pool_bytes=64.0)
        report = db.explain_analyze(
            "SELECT ta.g, SUM(ta.x) FROM ta, tb "
            "WHERE ta.k = tb.k GROUP BY ta.g"
        )
        assert "spilled" in report and "spill(s)" in report
        assert "pool" in report and "miss(es)" in report

    def test_disk_spill_files_are_cleaned_up(self):
        db = _db("disk", "row", buffer_pool_bytes=64.0)
        db.execute(self.GRAM_SQL)
        stats = db.storage.stats()
        assert stats["spill_events"] > 0
        assert stats["spilled_bytes"] > 0
        # spill files are transient: written, read back, unlinked
        import os

        leftovers = [
            name
            for name in os.listdir(db.storage.root)
            if name.startswith("spill")
        ]
        assert leftovers == []


class TestZoneMapPruning:
    def test_selective_scan_prunes_segments(self):
        for storage_mode in STORAGE_MODES:
            result = _db(storage_mode, "row").execute(
                "SELECT t.id, t.g FROM tv AS t WHERE t.id > 20"
            )
            assert result.metrics.segments_pruned >= 1
            assert sorted(result.rows) == [
                (i, i % 3) for i in range(21, 24)
            ]

    def test_pruning_counts_in_explain_analyze(self):
        db = _db("disk", "batch")
        report = db.explain_analyze(
            "SELECT t.id FROM tv AS t WHERE t.id > 20"
        )
        assert "pruned" in report and "segment(s)" in report

    def test_pruned_results_match_unpruned_segmentation(self):
        """One giant segment (nothing prunable) and many small segments
        must return the same rows."""
        sql = "SELECT ta.k, ta.x FROM ta WHERE ta.x > 30"
        coarse = Database(
            TEST_CLUSTER.with_updates(storage_mode="disk", segment_rows=4096)
        )
        coarse.execute("CREATE TABLE ta (k INTEGER, x DOUBLE, g INTEGER)")
        coarse.load("ta", TABLE_A_ROWS)
        fine = _db("disk", "row")
        assert sorted(coarse.execute(sql).rows) == sorted(
            fine.execute(sql).rows
        )
        assert coarse.execute(sql).metrics.segments_pruned == 0
        assert fine.execute(sql).metrics.segments_pruned >= 1

    def test_filter_still_evaluates_inside_kept_segments(self):
        """Pruning skips whole segments only; surviving segments are
        filtered row by row."""
        result = _db("disk", "row").execute(
            "SELECT t.id FROM tv AS t WHERE t.id = 9"
        )
        assert result.rows == [(9,)]


    @pytest.mark.parametrize("storage_mode", STORAGE_MODES)
    @pytest.mark.parametrize("execution_mode", ("row", "batch"))
    @pytest.mark.parametrize("segment_rows", (3, 4096))  # sealed; still the tail
    def test_a_leading_nan_does_not_prune_the_rows_behind_it(
        self, storage_mode, execution_mode, segment_rows
    ):
        """Zone min/max range over non-NaN values: a NaN (which Python's
        ``min``/``max`` keep when it comes first) bounds nothing."""
        nan = float("nan")
        for values in ([nan, 5.0, 7.0], [5.0, nan, 7.0], [None, nan, 7.0]):
            db = Database(
                ClusterConfig(
                    machines=1,
                    cores_per_machine=1,
                    storage_mode=storage_mode,
                    segment_rows=segment_rows,
                ),
                execution_mode=execution_mode,
            )
            db.execute("CREATE TABLE t (v DOUBLE)")
            db.load("t", [(value,) for value in values])
            for sql, expected in (
                ("SELECT COUNT(v) FROM t WHERE v > 6.0", 1),
                ("SELECT COUNT(v) FROM t WHERE v >= 7.0", 1),
                ("SELECT COUNT(v) FROM t WHERE v < 8.0", values.count(5.0) + 1),
                ("SELECT COUNT(v) FROM t WHERE v <= 7.0", values.count(5.0) + 1),
                ("SELECT COUNT(v) FROM t WHERE v = 7.0", 1),
            ):
                assert db.execute(sql).scalar() == expected, (values, sql)
            (segment,) = db.catalog.table("t").storage.segments(0)
            assert (segment.zone(0).lo, segment.zone(0).hi) == (
                5.0 if 5.0 in values else 7.0,
                7.0,
            )
        # a segment of nothing but NaN has no bounds, so it is kept
        zone = compute_zone(_column([nan, nan]))
        assert (zone.lo, zone.hi) == (None, None)
        assert not zone_excludes(zone, ">", 0.0)


class TestAppendOnlyTail:
    """O(delta) by count, not by clock: what an append and the reads
    after it convert from Python values is the append's own rows, however
    long the unsealed tail already is."""

    @pytest.mark.parametrize("storage_mode", STORAGE_MODES)
    def test_append_converts_its_rows_once_and_reads_convert_none(
        self, storage_mode, monkeypatch
    ):
        from repro import columnar

        converted = Counter()
        from_values = ColumnData.from_values.__func__
        tensor_block = columnar._tensor_block

        def counting_from_values(cls, values):
            converted["values"] += len(values)
            return from_values(cls, values)

        def counting_tensor_block(values):
            converted["cells"] += len(values)
            return tensor_block(values)

        monkeypatch.setattr(
            ColumnData, "from_values", classmethod(counting_from_values)
        )
        monkeypatch.setattr(columnar, "_tensor_block", counting_tensor_block)

        db = Database(
            ClusterConfig(
                machines=1, cores_per_machine=1, storage_mode=storage_mode
            ),
            execution_mode="batch",
        )
        db.execute("CREATE TABLE t (i INTEGER, x DOUBLE, v VECTOR[8])")
        db.execute(
            "CREATE MATERIALIZED VIEW g AS "
            "SELECT SUM(outer_product(v, v)) AS g, COUNT(v) AS n FROM t"
        )
        rng = np.random.default_rng(0)

        def rows(first, count):
            return [
                (first + r, (first + r) / 7.0, Vector(rng.normal(size=8)))
                for r in range(count)
            ]

        scan = "SELECT COUNT(i), SUM(x) FROM t WHERE i >= :lo"
        db.load("t", rows(0, 4000))  # one slot: all of it is unsealed tail
        assert [s.row_count for s in db.catalog.table("t").storage.segments(0)] == [
            4000
        ]
        width, batch = 3, 64
        for step in range(2):
            converted.clear()
            # the append, its statistics and the view's fold
            db.load("t", rows(4000 + batch * step, batch))
            assert converted == {"values": batch * width, "cells": batch}
            converted.clear()
            result = db.execute(scan, {"lo": 3000})
            assert result.rows[0][0] == 1000 + batch * (step + 1)
            # the scan read ~4000 tail rows and converted only its own
            # one-row results on the way out
            assert converted["cells"] == 0 and converted["values"] <= 2 * width
            converted.clear()
            # answered from the view: the fold was part of the append
            result = db.execute("SELECT COUNT(v) FROM t")
            assert result.metrics.view_hits == 1
            assert result.scalar() == 4000 + batch * (step + 1)
            assert converted["cells"] == 0 and converted["values"] <= 2 * width


class TestPeakMemoryAccounting:
    def test_peak_bytes_reported_and_identical_across_modes(self):
        sql = "SELECT ta.k, ta.x FROM ta WHERE ta.x > 0"
        peaks = set()
        for storage_mode in STORAGE_MODES:
            for execution_mode in EXECUTION_MODES:
                result = _db(storage_mode, execution_mode).execute(sql)
                assert result.metrics.peak_memory_bytes > 0
                peaks.add(result.metrics.peak_memory_bytes)
        assert len(peaks) == 1

    def test_operator_traces_carry_peaks(self):
        result = _db("memory", "row").execute(
            "SELECT ta.k, ta.x FROM ta WHERE ta.x > 0"
        )
        assert any(
            op.peak_memory_bytes > 0 for op in result.metrics.operators
        )


# -- buffer pool -------------------------------------------------------------


class TestBufferPool:
    def test_hit_after_insert(self):
        pool = BufferPool(budget_bytes=100.0)
        pool.insert("a", [1, 2], nbytes=10.0)
        pool.release("a")
        assert pool.acquire("a") == [1, 2]
        pool.release("a")

    def test_miss_returns_none(self):
        pool = BufferPool(budget_bytes=100.0)
        assert pool.acquire("missing") is None

    def test_lru_eviction_order(self):
        pool = BufferPool(budget_bytes=30.0)
        for key in ("a", "b", "c"):
            pool.insert(key, key.upper(), nbytes=10.0)
            pool.release(key)
        # touch "a" so "b" becomes the least recently used
        pool.acquire("a")
        pool.release("a")
        pool.insert("d", "D", nbytes=10.0)
        pool.release("d")
        assert "b" not in pool
        assert "a" in pool and "c" in pool and "d" in pool

    def test_pinned_entries_survive_eviction(self):
        pool = BufferPool(budget_bytes=10.0)
        pool.insert("pinned", "P", nbytes=10.0)  # still pinned
        pool.insert("other", "O", nbytes=10.0)
        pool.release("other")
        assert "pinned" in pool
        pool.release("pinned")

    def test_oversized_entry_still_usable_then_dropped(self):
        pool = BufferPool(budget_bytes=5.0)
        pool.insert("big", "B", nbytes=50.0)
        assert pool.acquire("big") == "B"
        pool.release("big")
        pool.release("big")
        pool.insert("next", "N", nbytes=1.0)
        pool.release("next")
        assert "big" not in pool

    def test_stats_counters(self):
        pool = BufferPool(budget_bytes=100.0)
        pool.acquire("a")  # miss
        pool.insert("a", 1, nbytes=10.0)
        pool.release("a")
        pool.acquire("a")  # hit
        pool.release("a")
        stats = pool.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["resident_bytes"] == 10.0

    def test_invalidate_and_clear(self):
        pool = BufferPool(budget_bytes=100.0)
        pool.insert("a", 1, nbytes=10.0)
        pool.release("a")
        pool.invalidate("a")
        assert "a" not in pool
        pool.insert("b", 2, nbytes=10.0)
        pool.release("b")
        pool.clear()
        assert len(pool) == 0
        assert pool.total_bytes == 0.0

    def test_running_total_evicts_as_a_resum_would(self):
        """The pool keeps its byte total as entries come and go. Under a
        seeded mix of every operation it is the entries' sum, and the
        pool holds — and evicts — exactly what one re-summing its
        entries at every check holds."""

        class Resumming(BufferPool):
            def _evict(self):
                while sum(e.nbytes for e in self._entries.values()) > self.budget_bytes:
                    victim = next(
                        (key for key, e in self._entries.items() if e.pins == 0), None
                    )
                    if victim is None:
                        return
                    del self._entries[victim]
                    self.evictions += 1

        rng = random.Random(5)
        pool, reference = BufferPool(budget_bytes=100.0), Resumming(budget_bytes=100.0)
        for step in range(2000):
            key = rng.randrange(12)
            op = rng.choice(["insert", "acquire", "release", "release", "invalidate"])
            args = (key, key, float(rng.randint(1, 40))) if op == "insert" else (key,)
            if step % 500 == 499:
                op, args = "clear", ()
            for target in (pool, reference):
                getattr(target, op)(*args)
            assert list(pool._entries) == list(reference._entries)
            assert pool.evictions == reference.evictions
            assert pool.total_bytes == sum(e.nbytes for e in pool._entries.values())


# -- zone maps and chunking --------------------------------------------------


def _column(values):
    return ColumnData.from_values(values)


def _segment(rows):
    columns = columns_from_rows(rows, len(rows[0]))
    return MemorySegment(columns, columns_row_bytes(columns, len(rows)))


class TestZoneMaps:
    def test_compute_zone_basic(self):
        zone = compute_zone(_column([3, None, 1, 2]))
        assert zone == ZoneMap(1, 3, 1, 4)

    def test_incomparable_values_never_prune(self):
        zone = compute_zone(_column([Vector([1.0]), Vector([2.0])]))
        assert zone.lo is None and zone.hi is None
        assert not zone_excludes(zone, "=", 5)

    def test_mixed_types_never_prune(self):
        zone = compute_zone(_column([1, "a"]))
        assert zone.lo is None
        assert not zone_excludes(zone, ">", 0)

    def test_all_null_segment_prunes(self):
        zone = compute_zone(_column([None, None]))
        assert zone_excludes(zone, "=", 1)
        assert zone_excludes(zone, "<", 1)

    def test_operator_semantics(self):
        zone = compute_zone(_column([5, 10]))
        assert zone_excludes(zone, "=", 4)
        assert zone_excludes(zone, "=", 11)
        assert not zone_excludes(zone, "=", 7)
        assert zone_excludes(zone, "<", 5)
        assert not zone_excludes(zone, "<", 6)
        assert zone_excludes(zone, "<=", 4)
        assert not zone_excludes(zone, "<=", 5)
        assert zone_excludes(zone, ">", 10)
        assert not zone_excludes(zone, ">", 9)
        assert zone_excludes(zone, ">=", 11)
        assert not zone_excludes(zone, ">=", 10)

    def test_incomparable_literal_keeps_segment(self):
        zone = compute_zone(_column([1, 2]))
        assert not zone_excludes(zone, "=", "a string")

    def test_segment_pruned_conjunction(self):
        segment = _segment([(1, 10.0), (2, 20.0)])
        assert segment_pruned(segment, [(0, ">", 5)])
        assert not segment_pruned(segment, [(0, ">", 1)])
        # any one excluding predicate of the AND suffices
        assert segment_pruned(segment, [(0, ">", 0), (1, "<", 0)])

    def test_chunk_offsets(self):
        assert list(chunk_offsets(10, 4)) == [(0, 4), (4, 8), (8, 10)]
        assert list(chunk_offsets(0, 4)) == []
        assert list(chunk_offsets(3, 100)) == [(0, 3)]
        # degenerate segment size clamps to one row per chunk
        assert list(chunk_offsets(2, 0)) == [(0, 1), (1, 2)]


# -- segment codec -----------------------------------------------------------


def _float_of(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: every float a column may hold: finite values, signed zeros and
#: infinities, and quiet NaNs of either sign with arbitrary payload bits
any_float = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf")]),
    st.builds(
        lambda sign, payload: _float_of(sign << 63 | 0x7FF8 << 48 | payload),
        st.integers(0, 1),
        st.integers(0, 2**51 - 1),
    ),
)
int64s = st.integers(-(2**63), 2**63 - 1)


def _vectors(min_size, max_size=None):
    return st.lists(any_float, min_size=min_size, max_size=max_size or min_size)


def _matrices(rows, cols):
    return st.lists(_vectors(cols), min_size=rows, max_size=rows).map(Matrix)


def _nullable(cells):
    return st.one_of(st.none(), cells)


labelled_vectors = st.builds(Vector, _vectors(1, 3), label=st.integers(0, 5))
#: strings, some holding a lone surrogate (the server's JSON decoder
#: hands ``"\ud800"`` to a STRING column as it is)
texts = st.one_of(
    st.text(max_size=5),
    st.tuples(st.text(max_size=2), st.text(max_size=2)).map(
        lambda parts: parts[0] + "\ud800" + parts[1]
    ),
)
#: one strategy per kind of column, so that every physical form of
#: ``ColumnData`` (typed array, tensor block with and without NULL
#: cells, object) and every value that must fall back to the object
#: form is drawn as a whole column, not only as a stray cell — each with
#: the type of a table column that holds it (a load admits what INSERT
#: does), or None when no column type admits it (numbers among strings)
COLUMN_KINDS = (
    ("DOUBLE", any_float),
    ("INTEGER", int64s),
    ("BOOLEAN", st.booleans()),
    ("INTEGER", st.one_of(int64s, st.integers(-(2**80), 2**80))),  # beyond int64
    ("DOUBLE", st.none()),  # an all-NULL column
    (None, _nullable(st.one_of(any_float, int64s, st.booleans(), texts))),
    ("DOUBLE", _nullable(st.one_of(any_float, int64s, st.booleans()))),
    ("STRING", _nullable(texts)),
    ("VECTOR[]", _nullable(_vectors(3).map(Vector))),  # a VECTOR block with NULL cells
    ("MATRIX[][]", _nullable(_matrices(2, 2))),  # a MATRIX block with NULL cells
    ("VECTOR[]", st.one_of(_vectors(1, 4).map(Vector), labelled_vectors)),  # ragged, labelled
    ("MATRIX[][]", st.one_of(_matrices(2, 2), _matrices(1, 3))),  # two shapes
    ("LABELED_SCALAR", _nullable(st.builds(LabeledScalar, any_float, st.integers(-1, 9)))),
)


@st.composite
def wild_rows(draw, max_rows=9, stored=False):
    """``(types, rows)``: zero to ``max_rows`` rows over one to five
    columns, each column drawn from one of ``COLUMN_KINDS`` — with
    ``stored``, one a table column holds — beside its column type."""
    count = draw(st.integers(0, max_rows))
    kinds = [kind for kind in COLUMN_KINDS if kind[0] is not None or not stored]
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5))
    columns = [
        draw(st.lists(kind, min_size=count, max_size=count)) for _, kind in kinds
    ]
    return [column_type for column_type, _ in kinds], list(zip(*columns))


#: a row a parameterised INSERT into ``typed`` accepts
typed_row = st.fixed_dictionaries(
    {
        "i": _nullable(st.one_of(int64s, st.integers(-(2**80), 2**80))),
        "x": _nullable(any_float),
        "s": _nullable(texts),
        "v": _nullable(st.one_of(_vectors(1, 4).map(Vector), labelled_vectors)),
        "m": _nullable(st.one_of(_matrices(2, 2), _matrices(1, 3))),
    }
)


def _exact(value):
    """A value as (type, bits): what "the same value" means to storage —
    NaN payloads, the sign of zero, ``bool`` vs ``int``, tensor labels
    and shapes all included (``==`` forgives every one of those)."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, Vector):
        return ("Vector", value.label, value.data.dtype.str, value.data.tobytes())
    if isinstance(value, Matrix):
        return ("Matrix", value.shape, value.data.dtype.str, value.data.tobytes())
    if isinstance(value, LabeledScalar):
        return ("LabeledScalar", _exact(value.value), value.label)
    if isinstance(value, (tuple, list)):
        return [_exact(item) for item in value]
    return (type(value).__name__, value)


def _exact_table(db, name):
    """Everything a snapshot or a WAL replay must reproduce of a table."""
    entry = db.catalog.table(name)
    storage = entry.storage
    value_sets = {
        column: None
        if stats.value_set is None
        else sorted(repr(_exact(value)) for value in stats.value_set)
        for column, stats in entry.stats.columns.items()
    }
    return (
        [_exact(storage.partition_rows(slot)) for slot in range(storage.slots)],
        storage.insert_cursor,
        entry.stats.row_count,
        value_sets,
    )


#: golden bytes — one artifact of each on-disk format, written by this
#: layout. They must keep decoding to GOLDEN_ROWS: a change to the byte
#: layout that forgets to bump a magic fails here, on every interpreter.
#: The segment holds one column of each physical form: int64, float64,
#: bool, object, and a VECTOR block with a NULL cell.
GOLDEN_ROWS = [(1, 2.5, True, "a", Vector([1.0, -0.0])), (2, -0.0, False, None, None)]
GOLDEN_SEGMENT = bytes.fromhex(
    "52534547330a000001000000000000000200000000000000000000000000044000000000"
    "0000008001000000000000005b2261222c6e756c6c5d000000000000000000000000f03f"
    "00000000000000800000000000000000000000000000000000010000000000005b322c5b"
    "5b223c6938222c5b325d2c66616c73652c31365d2c5b223c6638222c5b325d2c66616c73"
    "652c31365d2c5b227c6231222c5b325d2c66616c73652c325d2c5b227c4f222c5b325d2c"
    "66616c73652c31305d2c5b223c6638222c5b322c325d2c747275652c33345d5d5d6d0000"
    "00000000002d8bf7e9"
)
#: ``write_snapshot`` of a one-slot payload whose table ``g (s, v)`` holds
#: the last two columns of GOLDEN_ROWS (the cluster config left out)
GOLDEN_SNAPSHOT = bytes.fromhex(
    "52444246330a532d6162490200007b226d61676963223a22726570726f2d646174616261"
    "7365222c2276657273696f6e223a352c22636f6e666967223a6e756c6c2c22636174616c"
    "6f675f76657273696f6e223a322c227461626c6573223a5b7b226e616d65223a2267222c"
    "22636f6c756d6e73223a5b5b2273222c22535452494e47225d2c5b2276222c2256454354"
    "4f525b5d225d5d2c22706172746974696f6e5f6279223a6e756c6c2c2270617274697469"
    "6f6e73223a5b7b2224223a307d5d2c22696e736572745f637572736f72223a322c227374"
    "617473223a7b22726f775f636f756e74223a322c22696e6372656d656e74616c223a7472"
    "75652c22636f6c756d6e73223a5b5b2273222c7b2264697374696e6374223a322c226f62"
    "7365727665645f6c656e677468223a6e756c6c2c226f627365727665645f726f7773223a"
    "6e756c6c2c226f627365727665645f636f6c73223a6e756c6c2c2276616c75655f736574"
    "223a7b2224223a317d2c226c656e6774685f736574223a6e756c6c2c2273686170655f73"
    "6574223a6e756c6c2c22706c61636564223a6e756c6c7d5d2c5b2276222c7b2264697374"
    "696e6374223a6e756c6c2c226f627365727665645f6c656e677468223a322c226f627365"
    "727665645f726f7773223a6e756c6c2c226f627365727665645f636f6c73223a6e756c6c"
    "2c2276616c75655f736574223a6e756c6c2c226c656e6774685f736574223a5b325d2c22"
    "73686170655f736574223a5b5d2c22706c61636564223a6e756c6c7d5d5d7d7d5d2c2276"
    "69657773223a5b5d2c226d61747669657773223a5b5d7d7b000000000000005253454733"
    "0a00005b2261222c6e756c6c5d000000000000000000000000f03f000000000000008000"
    "00000000000000000000000000000000010000000000005b322c5b5b227c4f222c5b325d"
    "2c66616c73652c31305d2c5b223c6638222c5b322c325d2c747275652c33345d5d5d2f00"
    "000000000000b77337673d0000000000000052534547330a00005b2261222c6e756c6c5d"
    "0000000000005b322c5b5b227c4f222c5b325d2c66616c73652c31305d5d5d1900000000"
    "0000005263c4a0"
)
#: a log holding one ``load`` record of GOLDEN_ROWS into table ``g``
GOLDEN_WAL = bytes.fromhex(
    "5257414c330a2b010000c621d3e13e0000007b226b696e64223a226c6f6164222c227461"
    "626c65223a2267222c22726f7773223a7b2224223a307d2c22636174616c6f675f766572"
    "73696f6e223a337de10000000000000052534547330a0000010000000000000002000000"
    "000000000000000000000440000000000000008001000000000000005b2261222c6e756c"
    "6c5d000000000000000000000000f03f0000000000000080000000000000000000000000"
    "0000000000010000000000005b322c5b5b223c6938222c5b325d2c66616c73652c31365d"
    "2c5b223c6638222c5b325d2c66616c73652c31365d2c5b227c6231222c5b325d2c66616c"
    "73652c325d2c5b227c4f222c5b325d2c66616c73652c31305d2c5b223c6638222c5b322c"
    "325d2c747275652c33345d5d5d6d000000000000002d8bf7e9"
)
GOLDEN_COLUMNS = [
    ("i", "INTEGER"), ("x", "DOUBLE"), ("b", "BOOLEAN"), ("s", "STRING"),
    ("v", "VECTOR[]"),
]


class TestSegmentCodec:
    @settings(max_examples=150, deadline=None)
    @given(wild_rows(max_rows=30))
    def test_roundtrip_exact(self, drawn):
        types, rows = drawn
        blob, footer = encode_segment(rows, len(types))
        assert _exact(decode_segment(blob)) == _exact(rows)
        assert footer["rows"] == len(rows)
        # the zone-map-free form snapshots and WAL records store
        assert _exact(decode_segment(encode_rows(rows))) == _exact(rows)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 100), _nullable(_vectors(3))),
            min_size=1,
            max_size=20,
        )
    )
    def test_vector_columns_roundtrip_bitwise(self, raw):
        rows = [(i, None if vec is None else Vector(vec)) for i, vec in raw]
        blob = encode_segment(rows, width=2)[0]
        assert _exact(decode_segment(blob)) == _exact(rows)
        ids, vectors = decode_columns(blob)
        # decoded arrays are views of the blob: shared, so read-only
        assert not ids.data.flags.writeable
        assert not ids.data.flags.owndata
        if any(vec is not None for _, vec in rows):
            assert vectors.is_block
            assert not vectors.data.flags.writeable
            assert not vectors.data.flags.owndata

    def test_sizes_match_cluster_accounting(self):
        rows = [(1, 2.5, "ab"), (2, None, "c")]
        segment = _segment(rows)
        assert segment.sizes() == [row_bytes(row) for row in rows]

    def test_golden_segment_bytes(self):
        columns = decode_columns(GOLDEN_SEGMENT)
        assert [str(column.data.dtype) for column in columns] == [
            "int64", "float64", "bool", "object", "float64"
        ]
        assert columns[4].is_block and columns[4].nulls.tolist() == [False, True]
        assert _exact(decode_segment(GOLDEN_SEGMENT)) == _exact(GOLDEN_ROWS)
        assert encode_segment(GOLDEN_ROWS, 5)[0] == GOLDEN_SEGMENT

    def test_golden_snapshot_bytes(self, tmp_path):
        from repro.persist import apply_snapshot, load_snapshot

        path = tmp_path / "golden.repro"
        path.write_bytes(GOLDEN_SNAPSHOT)
        db = Database(ClusterConfig(machines=1, cores_per_machine=1))
        apply_snapshot(db, load_snapshot(str(path)))
        storage = db.catalog.table("g").storage
        assert _exact(storage.partition_rows(0)) == _exact(
            [row[3:] for row in GOLDEN_ROWS]
        )
        assert storage.insert_cursor == 2
        assert db.catalog.table("g").stats.distinct("s") == 2

    def test_golden_wal_bytes(self, tmp_path):
        from repro.storage import read_wal

        path = tmp_path / "wal.log"
        path.write_bytes(GOLDEN_WAL)
        records, offset, torn = read_wal(str(path))
        assert (len(records), offset, torn) == (1, len(GOLDEN_WAL), False)
        db = Database(ClusterConfig(machines=1, cores_per_machine=1))
        db.create_table("g", GOLDEN_COLUMNS)
        db._apply_wal_record(records[0])
        rows = db.catalog.table("g").storage.partition_rows(0)
        assert _exact(rows) == _exact(GOLDEN_ROWS)


class TestCodecUnderPersistence:
    """The same strategy through the two envelopes that now carry
    segment blobs: snapshot save -> restore, and WAL ``load`` +
    parameterised INSERT -> replay, in both storage modes."""

    @staticmethod
    def _tables(db, types):
        db.create_table("wild", [(f"c{i}", column) for i, column in enumerate(types)])
        db.execute(
            "CREATE TABLE typed "
            "(i INTEGER, x DOUBLE, s STRING, v VECTOR[], m MATRIX[][])"
        )

    @staticmethod
    def _fill(db, rows, typed):
        db.load("wild", rows)
        for params in typed:
            db.execute("INSERT INTO typed VALUES (:i, :x, :s, :v, :m)", params)

    @pytest.mark.parametrize("storage_mode", STORAGE_MODES)
    @settings(max_examples=25, deadline=None)
    @given(drawn=wild_rows(stored=True), typed=st.lists(typed_row, max_size=4))
    def test_save_restore_exact(self, storage_mode, drawn, typed):
        types, rows = drawn
        db = Database(_config(storage_mode, "batch").with_updates(segment_rows=2))
        self._tables(db, types)
        self._fill(db, rows, typed)
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "db.repro")
            db.save(path)
            restored = Database.restore(path)
        for name in ("wild", "typed"):
            assert _exact_table(restored, name) == _exact_table(db, name)
        db.close()
        restored.close()

    @pytest.mark.parametrize("storage_mode", STORAGE_MODES)
    @settings(max_examples=25, deadline=None)
    @given(drawn=wild_rows(stored=True), typed=st.lists(typed_row, max_size=4))
    def test_wal_replay_exact(self, storage_mode, drawn, typed):
        types, rows = drawn
        with tempfile.TemporaryDirectory() as data_dir:
            db = Database(
                _config(storage_mode, "batch").with_updates(
                    segment_rows=2, durability_mode="wal", data_dir=data_dir
                )
            )
            self._tables(db, types)
            self._fill(db, rows, typed)
            want = [_exact_table(db, name) for name in ("wild", "typed")]
            db.close()  # no checkpoint: everything comes back from the log
            recovered = Database.restore(data_dir)
            assert recovered.durability.records_replayed == 3 + len(typed)
            assert [
                _exact_table(recovered, name) for name in ("wild", "typed")
            ] == want
            recovered.close()


class TestDiskSegmentScan:
    """What a scan of a sealed disk segment does (and no longer does)."""

    @staticmethod
    def _sealed_db(execution_mode="batch"):
        db = Database(
            _config("disk", execution_mode).with_updates(segment_rows=4)
        )
        db.execute("CREATE TABLE t (i INTEGER, x DOUBLE, v VECTOR[])")
        slots = db.config.slots
        db.load(
            "t",
            [(i, i / 4.0, Vector([float(i), -float(i)])) for i in range(8 * slots)],
        )
        return db

    def test_pool_hit_packs_no_column(self, monkeypatch):
        db = self._sealed_db()
        pool = db.storage.buffer_pool
        segment = db.catalog.table("t").storage.segments(0)[0]
        assert isinstance(segment, DiskSegment)
        first, outcome = Batch.from_segment((0, 1, 2), segment, pool)
        assert outcome == "miss"
        packed = []
        monkeypatch.setattr(
            ColumnData,
            "from_values",
            classmethod(lambda cls, values: packed.append(values)),
        )
        second, outcome = Batch.from_segment((0, 1, 2), segment, pool)
        assert outcome == "hit"
        assert packed == []
        # the pooled columns themselves, not a re-packed copy of them
        assert all(a is b for a, b in zip(first.columns, second.columns))
        # a pool miss decodes the file without packing either: every
        # column of this table is a typed array or a block
        pool.clear()
        third, outcome = Batch.from_segment((0, 1, 2), segment, pool)
        assert outcome == "miss" and packed == []
        assert third.col(2).is_block and not third.col(2).data.flags.writeable
        monkeypatch.undo()
        assert _exact(third.rows()) == _exact(first.rows())

    def test_row_and_batch_read_the_same_pooled_columns(self):
        sql = "SELECT t.i, t.x, t.v FROM t WHERE t.i >= 3"
        db = self._sealed_db("batch")
        cold = db.execute(sql)
        assert cold.metrics.pool_misses > 0 and cold.metrics.pool_hits == 0
        batch = db.execute(sql)
        db.set_execution_mode("row")
        row = db.execute(sql)
        for warm in (batch, row):
            assert warm.metrics.pool_misses == 0
            assert warm.metrics.pool_hits == cold.metrics.pool_misses
            assert _exact(sorted(warm.rows)) == _exact(sorted(cold.rows))
            assert _fingerprint(warm.metrics) == _fingerprint(cold.metrics)

    def test_flipped_byte_in_segment_file_is_named(self):
        from repro.errors import SnapshotCorruptError

        db = self._sealed_db()
        segment = db.catalog.table("t").storage.segments(0)[0]
        with open(segment.path, "r+b") as handle:
            handle.seek(40)
            byte = handle.read(1)
            handle.seek(40)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(SnapshotCorruptError) as excinfo:
            db.execute("SELECT SUM(t.x) FROM t")
        assert excinfo.value.path == segment.path
        assert segment.path in str(excinfo.value)

    @pytest.mark.parametrize("keep", [0, 3, 8, 20, -1])
    def test_truncated_segment_file_is_named(self, keep):
        from repro.errors import SnapshotCorruptError
        from repro.storage import read_segment_file

        db = self._sealed_db()
        path = db.catalog.table("t").storage.segments(0)[0].path
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:keep])
        with pytest.raises(SnapshotCorruptError) as excinfo:
            read_segment_file(path)
        assert excinfo.value.path == path


class TestStorageEngineKnob:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ExecutionError):
            Database(TEST_CLUSTER.with_updates(storage_mode="tape"))

    def test_memory_mode_keeps_seed_table_type(self):
        from repro.engine.storage import PartitionedTable

        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE t (a INTEGER)")
        assert isinstance(db.catalog.table("t").storage, PartitionedTable)

    def test_disk_mode_seals_segment_files(self):
        db = Database(TEST_CLUSTER.with_updates(storage_mode="disk", segment_rows=2))
        db.execute("CREATE TABLE t (a INTEGER)")
        db.load("t", [(i,) for i in range(5 * TEST_CLUSTER.slots)])
        segments = db.catalog.table("t").storage.segments(0)
        assert [type(seg) for seg in segments] == [
            DiskSegment, DiskSegment, MemorySegment
        ]

    def test_dml_works_on_disk_tables(self):
        db = Database(TEST_CLUSTER.with_updates(storage_mode="disk"))
        db.execute("CREATE TABLE t (a INTEGER, b DOUBLE)")
        db.load("t", [(i, float(i)) for i in range(10)])
        db.execute("DELETE FROM t WHERE a < 5")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 5
        db.execute("INSERT INTO t VALUES (100, 1.5)")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 6


# -- service surface ---------------------------------------------------------


class TestServiceStorageSurface:
    def test_stats_expose_storage_block(self):
        db = _db("disk", "batch", buffer_pool_bytes=512.0)
        service = QueryService(db)
        with service.session("s") as session:
            session.execute("SELECT ta.k, ta.x FROM ta")
        storage = service.stats()["storage"]
        assert storage["mode"] == "disk"
        assert storage["budget_bytes"] == 512.0
        assert storage["buffer_pool"]["misses"] > 0

    def test_memory_budget_rejects_oversized_queries(self):
        db = _db("memory", "batch")
        service = QueryService(db, ServiceConfig(memory_budget_bytes=1.0))
        with service.session("s") as session:
            with pytest.raises(ServiceOverloadedError):
                session.execute("SELECT ta.k, ta.x FROM ta")
        assert service.stats()["rejected"] >= 1

    def test_memory_budget_admits_small_queries(self):
        db = _db("memory", "batch")
        service = QueryService(db, ServiceConfig(memory_budget_bytes=1e9))
        with service.session("s") as session:
            result = session.execute("SELECT ta.k FROM ta")
        assert len(result.rows) == len(TABLE_A_ROWS)
