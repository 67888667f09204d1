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

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.config import ClusterConfig
from repro.engine import stable_hash
from repro.engine.cluster import row_bytes
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
    encode_segment,
    segment_pruned,
    zone_excludes,
)
from repro.types import Vector

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
    return sorted(stable_hash(tuple(row)) for row in result.rows)


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


# -- zone maps and chunking --------------------------------------------------


class TestZoneMaps:
    def test_compute_zone_basic(self):
        zone = compute_zone([3, None, 1, 2])
        assert zone == ZoneMap(1, 3, 1, 4)

    def test_incomparable_values_never_prune(self):
        zone = compute_zone([Vector([1.0]), Vector([2.0])])
        assert zone.lo is None and zone.hi is None
        assert not zone_excludes(zone, "=", 5)

    def test_mixed_types_never_prune(self):
        zone = compute_zone([1, "a"])
        assert zone.lo is None
        assert not zone_excludes(zone, ">", 0)

    def test_all_null_segment_prunes(self):
        zone = compute_zone([None, None])
        assert zone_excludes(zone, "=", 1)
        assert zone_excludes(zone, "<", 1)

    def test_operator_semantics(self):
        zone = compute_zone([5, 10])
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
        zone = compute_zone([1, 2])
        assert not zone_excludes(zone, "=", "a string")

    def test_segment_pruned_conjunction(self):
        segment = MemorySegment([(1, 10.0), (2, 20.0)], width=2)
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

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
cell = st.one_of(
    st.none(),
    st.integers(min_value=-(2**62), max_value=2**62),
    finite,
    st.text(max_size=8),
    st.booleans(),
)


class TestSegmentCodec:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(cell, cell, cell), min_size=0, max_size=30))
    def test_roundtrip_exact(self, rows):
        blob, footer = encode_segment(rows, width=3)
        decoded = decode_segment(blob)
        assert decoded == rows
        assert [type(v) for row in decoded for v in row] == [
            type(v) for row in rows for v in row
        ]
        assert footer["rows"] == len(rows)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 100),
                st.lists(finite, min_size=3, max_size=3),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_vector_columns_roundtrip_bitwise(self, raw):
        rows = [(i, Vector(vec)) for i, vec in raw]
        decoded = decode_segment(encode_segment(rows, width=2)[0])
        for (_, want), (_, got) in zip(rows, decoded):
            assert got.data.tobytes() == want.data.tobytes()
            assert got.label == want.label

    def test_footer_carries_zone_maps_and_null_counts(self):
        rows = [(1, None), (5, 2.0), (3, None)]
        _, footer = encode_segment(rows, width=2)
        assert footer["rows"] == 3
        zones = footer["columns"]
        assert zones[0]["lo"] == 1 and zones[0]["hi"] == 5
        assert zones[0]["nulls"] == 0
        assert zones[1]["nulls"] == 2

    def test_sizes_match_cluster_accounting(self):
        rows = [(1, 2.5, "ab"), (2, None, "c")]
        segment = MemorySegment(rows, width=3)
        assert segment.sizes() == [row_bytes(row) for row in rows]


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
