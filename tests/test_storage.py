"""Tests for partitioned storage and distributed relations."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TEST_CLUSTER
from repro.catalog import Schema
from repro.engine import (
    BROADCAST,
    DistributedRelation,
    PartitionedTable,
    Partitioning,
    ROUND_ROBIN,
)
from repro.errors import ExecutionError
from repro.storage import DiskSegment, MemorySegment, StorageEngine
from repro.types import INTEGER


HOMES = ("memory", "disk")


@pytest.fixture(params=HOMES)
def make_table(request):
    """Builds tables whose sealed segments live in the parametrised
    home: in memory, or as files under a disk-mode storage engine."""
    engine = StorageEngine(TEST_CLUSTER.with_updates(storage_mode=request.param))
    schema = Schema([("k", INTEGER), ("v", INTEGER)])

    def build(slots=4, partition_by=None, segment_rows=4):
        return PartitionedTable(
            schema,
            slots,
            partition_by=partition_by,
            segment_rows=segment_rows,
            engine=engine,
            name="t",
        )

    build.engine = engine
    build.home = request.param
    yield build
    engine.close()


class TestPartitionedTable:
    """One table contract, checked with sealed segments in either home."""

    def test_round_robin_spreads_evenly(self, make_table):
        table = make_table()
        table.insert_many([(i, i) for i in range(8)])
        assert [len(part) for part in table.partitions] == [2, 2, 2, 2]

    def test_hash_partition_colocates_keys(self, make_table):
        table = make_table(partition_by=["k"])
        table.insert_many([(i % 3, i) for i in range(30)])
        for part in table.partitions:
            for key in {row[0] for row in part}:
                everywhere = sum(
                    1
                    for other in table.partitions
                    for row in other
                    if row[0] == key
                )
                here = sum(1 for row in part if row[0] == key)
                assert here == everywhere

    def test_unknown_partition_column_rejected(self, make_table):
        with pytest.raises(ExecutionError):
            make_table(partition_by=["nope"])

    def test_row_count_and_all_rows(self, make_table):
        table = make_table()
        table.insert_many([(1, 2), (3, 4)])
        assert table.row_count == 2
        assert sorted(table.all_rows()) == [(1, 2), (3, 4)]

    def test_rows_roundtrip(self, make_table):
        table = make_table()
        rows = [(i, float(i) / 2) for i in range(11)]
        table.insert_many(rows)
        assert sorted(table.all_rows()) == rows
        assert table.row_count == 11

    def test_single_slot_preserves_insert_order(self, make_table):
        table = make_table(slots=1)
        rows = [(i, float(i) / 2) for i in range(11)]
        table.insert_many(rows)
        assert table.all_rows() == rows
        assert table.partition_rows(0) == rows

    def test_segments_and_unsealed_tail(self, make_table):
        table = make_table(slots=1)
        table.insert_many([(i, float(i)) for i in range(10)])
        segments = table.segments(0)
        # 10 rows at 4 rows/segment: 2 sealed + 1 tail of 2
        assert [seg.row_count for seg in segments] == [4, 4, 2]
        sealed = DiskSegment if make_table.home == "disk" else MemorySegment
        assert [type(seg) for seg in segments] == [sealed, sealed, MemorySegment]

    def test_replace_partition_rewrites_segments(self, make_table):
        table = make_table(slots=1)
        table.insert_many([(i, float(i)) for i in range(8)])
        table.replace_partition(0, [(99, 1.0)])
        assert table.all_rows() == [(99, 1.0)]
        assert [seg.row_count for seg in table.segments(0)] == [1]

    def test_truncate(self, make_table):
        table = make_table()
        table.insert_many([(1, 2)])
        table.truncate()
        assert table.row_count == 0

    def test_truncate_removes_files(self, make_table):
        table = make_table(slots=1)
        table.insert_many([(i, float(i)) for i in range(8)])
        if make_table.home == "disk":
            assert any(
                name.endswith(".seg") for name in os.listdir(make_table.engine.root)
            )
        table.truncate()
        assert table.all_rows() == []
        if make_table.home == "disk":
            assert not any(
                name.endswith(".seg") for name in os.listdir(make_table.engine.root)
            )

    def test_total_bytes_positive(self, make_table):
        table = make_table()
        table.insert((1, 2))
        assert table.total_bytes() > 0

    def test_partitions_is_a_read_only_view(self, make_table):
        table = make_table(slots=1)
        table.insert_many([(1, 2), (3, 4)])
        table.partitions[0].append((5, 6))
        assert table.all_rows() == [(1, 2), (3, 4)]

    def test_append_leaves_sealed_segments_and_their_caches_alone(
        self, make_table
    ):
        """Caches hang off immutable segments: an append rebuilds only
        the tail's view, never a sealed segment or its cached columns."""
        table = make_table(slots=1)
        table.insert_many([(i, i) for i in range(10)])
        before = table.segments(0)
        cached = [segment.columns()[0] for segment in before]
        table.insert((10, 10))
        after = table.segments(0)
        assert [seg.row_count for seg in after] == [4, 4, 3]
        assert all(old is new for old, new in zip(before[:-1], after[:-1]))
        assert after[-1] is not before[-1]
        if make_table.home == "memory":  # a disk segment caches nothing
            for segment, columns in zip(after[:-1], cached):
                assert segment.columns()[0] is columns


# -- both homes, any mutation sequence ---------------------------------------

operation = st.one_of(
    st.tuples(
        st.just("insert_many"),
        st.lists(
            st.tuples(
                st.integers(0, 9),
                st.one_of(st.none(), st.integers(-5, 5), st.text(max_size=3)),
            ),
            max_size=12,
        ),
    ),
    st.tuples(st.just("replace"), st.integers(0, 2), st.integers(0, 9)),
    st.tuples(st.just("truncate")),
)


def _describe(table):
    """Everything a reader of the table can observe, by slot."""
    out = {
        "all_rows": table.all_rows(),
        "insert_cursor": table.insert_cursor,
        "row_count": table.row_count,
        "total_bytes": table.total_bytes(),
    }
    for slot in range(table.slots):
        segments = table.segments(slot)
        count = table.partition_row_count(slot)
        out[slot] = {
            "boundaries": [segment.row_count for segment in segments],
            "sizes": [segment.sizes() for segment in segments],
            "totals": [segment.total_bytes for segment in segments],
            "zones": [
                [segment.zone(i) for i in range(table.width)] for segment in segments
            ],
            "rows": [segment.read(None)[0] for segment in segments],
            "suffixes": [
                table.partition_suffix(slot, k) for k in range(count + 2)
            ],
            "count": count,
        }
    return out


class TestBothHomesAgree:
    @settings(max_examples=40, deadline=None)
    @given(
        operations=st.lists(operation, max_size=8),
        segment_rows=st.integers(1, 5),
        hashed=st.booleans(),
    )
    def test_any_mutation_sequence(self, operations, segment_rows, hashed):
        schema = Schema([("k", INTEGER), ("v", INTEGER)])
        engines = [
            StorageEngine(TEST_CLUSTER.with_updates(storage_mode=home))
            for home in HOMES
        ]
        try:
            tables = [
                PartitionedTable(
                    schema,
                    3,
                    partition_by=["k"] if hashed else None,
                    segment_rows=segment_rows,
                    engine=engine,
                    name="t",
                )
                for engine in engines
            ]
            for op in operations:
                for table in tables:
                    if op[0] == "insert_many":
                        table.insert_many(op[1])
                    elif op[0] == "replace":
                        kept = [
                            row
                            for row in table.partition_rows(op[1])
                            if row[0] != op[2]
                        ]
                        table.replace_partition(op[1], kept)
                    else:
                        table.truncate()
                memory, disk = (_describe(table) for table in tables)
                assert memory == disk
                for slot in range(3):
                    assert memory[slot]["suffixes"][0] == [
                        row for rows in memory[slot]["rows"] for row in rows
                    ]
                    assert all(
                        n == segment_rows
                        for n in memory[slot]["boundaries"][:-1]
                    )
        finally:
            for engine in engines:
                engine.close()


class TestPartitioning:
    def test_co_partitioned_check(self):
        hashed = Partitioning("hash", (("col", 3),))
        assert hashed.co_partitioned_with((("col", 3),))
        assert not hashed.co_partitioned_with((("col", 4),))
        assert not ROUND_ROBIN.co_partitioned_with((("col", 3),))


class TestDistributedRelation:
    def test_row_count_and_all_rows(self):
        relation = DistributedRelation(
            (5, 6), [[(1, 2)], [(3, 4)], []], ROUND_ROBIN
        )
        assert relation.row_count == 2
        assert sorted(relation.all_rows()) == [(1, 2), (3, 4)]

    def test_broadcast_counts_once(self):
        rows = [(1, 2), (3, 4)]
        relation = DistributedRelation((5, 6), [rows, rows, rows], BROADCAST)
        assert relation.row_count == 2
        assert relation.all_rows() == rows

    def test_row_view_maps_column_ids(self):
        relation = DistributedRelation((10, 20), [[(7, 8)]], ROUND_ROBIN)
        view = relation.view((7, 8))
        assert view[10] == 7
        assert view[20] == 8
        with pytest.raises(KeyError):
            view[99]
