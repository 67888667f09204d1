"""Tests for partitioned storage and distributed relations."""

import os
import struct
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TEST_CLUSTER
from repro.catalog import Schema
from repro.columnar import columns_from_rows, rows_from_columns
from repro.engine import (
    BROADCAST,
    DistributedRelation,
    PartitionedTable,
    Partitioning,
    ROUND_ROBIN,
    RowView,
    SINGLE,
)
from repro.engine.storage import Batch, PairStage, slot_offsets
from repro.engine.cluster import row_bytes, stable_hash
from repro.errors import ExecutionError
from repro.storage import (
    DiskSegment,
    MemorySegment,
    StorageEngine,
    chunk_offsets,
    compute_zones,
)
from repro.types import INTEGER, Matrix, Vector


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

_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0]

#: what one statement puts in the ``v`` column: runs of one scalar type
#: (so the tail is a typed array until another statement turns it into
#: objects mid-tail), NULL-bearing runs, and anything-goes runs
_scalar_runs = st.one_of(
    st.lists(st.integers(-5, 5), max_size=9),
    st.lists(
        st.sampled_from([0.0, -0.0, 1.5, float("nan"), _NAN_PAYLOAD, float("inf")]),
        max_size=9,
    ),
    st.lists(st.booleans(), max_size=5),
    st.lists(st.one_of(st.none(), st.integers(-5, 5)), max_size=9),
    st.lists(
        st.one_of(
            st.none(),
            st.integers(-5, 5),
            st.just(2**70),
            st.just(-0.0),
            st.text(max_size=3),
        ),
        max_size=9,
    ),
)
#: and in the ``t`` column: same-shape default-label vectors (a tensor
#: block, with or without NULL cells), all-NULL runs, and runs with a
#: ragged, labelled or matrix cell among them
_block_cell = st.builds(
    lambda a, b: Vector([a, b]), st.sampled_from([0.0, -0.0, 2.5]), st.integers(0, 3)
)
_odd_cell = st.sampled_from(
    [Vector([1.0, 2.0, 3.0]), Vector([1.0, -0.0], label=4), Matrix([[1.0, 2.0]])]
)
_tensor_runs = st.one_of(
    st.lists(_block_cell, max_size=9),
    st.lists(st.one_of(st.none(), _block_cell), max_size=9),
    st.lists(st.none(), max_size=4),
    st.lists(st.one_of(st.none(), _block_cell, _odd_cell), max_size=9),
)


@st.composite
def _statement_rows(draw):
    scalars, tensors = draw(_scalar_runs), draw(_tensor_runs)
    count = min(len(scalars), len(tensors))
    keys = draw(st.lists(st.integers(0, 9), min_size=count, max_size=count))
    return list(zip(keys, scalars, tensors))


operation = st.one_of(
    st.tuples(st.just("insert_many"), _statement_rows()),
    st.tuples(st.just("insert"), _statement_rows()),
    st.tuples(st.just("replace"), st.integers(0, 2), st.integers(0, 9)),
    st.tuples(st.just("truncate")),
)


class RowTable:
    """The row-at-a-time table the columnar one replaced — a list of
    tuples per slot, one ``insert`` per row — kept as the oracle."""

    def __init__(self, slots, hashed):
        self.parts = [[] for _ in range(slots)]
        self.hashed = hashed
        self.insert_cursor = 0

    def insert(self, row):
        if self.hashed:
            slot = stable_hash((row[0],)) % len(self.parts)
        else:
            slot = self.insert_cursor % len(self.parts)
            self.insert_cursor += 1
        self.parts[slot].append(tuple(row))

    def truncate(self):
        self.parts = [[] for _ in self.parts]
        self.insert_cursor = 0


def _exact(value):
    """A value as (type, bits): the sign of zero, NaN payloads, ``bool``
    vs ``int``, tensor labels and shapes all included."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, Vector):
        return ("Vector", value.label, value.data.tobytes())
    if isinstance(value, Matrix):
        return ("Matrix", value.shape, value.data.tobytes())
    if isinstance(value, (tuple, list)):
        return [_exact(item) for item in value]
    return (type(value).__name__, value)


def _exact_columns(columns):
    """Columns as (physical form, exact values)."""
    return [
        (
            column.data.dtype.str,
            column.data.shape,
            None if column.nulls is None else column.nulls.tolist(),
            _exact(column.pylist()),
        )
        for column in columns
    ]


def _assert_holds(table, oracle, rows, columns, sizes, zones):
    """One run of a partition as the table holds it is what converting
    ``rows`` from scratch gives: same physical forms, same bits, same
    per-row sizes, same zone maps."""
    scratch = columns_from_rows(rows, table.width)
    assert _exact_columns(columns) == _exact_columns(scratch)
    assert _exact(rows_from_columns(columns)) == _exact(rows)
    assert list(sizes) == [row_bytes(row) for row in rows]
    if zones is not None:
        assert _exact([astuple(zone) for zone in zones]) == _exact(
            [astuple(zone) for zone in compute_zones(scratch)]
        )
        keys = [row[0] for row in rows]
        assert (zones[0].lo, zones[0].hi) == (min(keys), max(keys))


class TestBothHomesAgree:
    @settings(max_examples=60, deadline=None)
    @given(
        operations=st.lists(operation, max_size=8),
        segment_rows=st.integers(1, 5),
        hashed=st.booleans(),
    )
    def test_any_mutation_sequence(self, operations, segment_rows, hashed):
        """After any sequence of statements — seals falling mid-statement
        — every segment, the tail view and every partition suffix hold
        exactly what converting the oracle's rows from scratch gives,
        in both homes."""
        schema = Schema([("k", INTEGER), ("v", INTEGER), ("t", INTEGER)])
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
            oracle = RowTable(3, hashed)
            for op in operations:
                if op[0] in ("insert_many", "insert"):
                    for row in op[1]:
                        oracle.insert(row)
                elif op[0] == "replace":
                    oracle.parts[op[1]] = [
                        row for row in oracle.parts[op[1]] if row[0] != op[2]
                    ]
                else:
                    oracle.truncate()
                for table in tables:
                    if op[0] == "insert_many":
                        assert table.insert_many(op[1]) == len(op[1])
                    elif op[0] == "insert":
                        for row in op[1]:
                            table.insert(row)
                    elif op[0] == "replace":
                        kept = [
                            row
                            for row in table.partition_rows(op[1])
                            if row[0] != op[2]
                        ]
                        table.replace_partition(op[1], kept)
                    else:
                        table.truncate()
                    self._assert_table_is(table, oracle, segment_rows)
                memory, disk = tables
                assert memory.total_bytes() == disk.total_bytes()
        finally:
            for engine in engines:
                engine.close()

    @staticmethod
    def _assert_table_is(table, oracle, segment_rows):
        assert table.insert_cursor == oracle.insert_cursor
        assert table.row_count == sum(len(part) for part in oracle.parts)
        assert _exact(table.all_rows()) == _exact(
            [row for part in oracle.parts for row in part]
        )
        for slot, rows in enumerate(oracle.parts):
            assert table.partition_row_count(slot) == len(rows)
            segments = table.segments(slot)
            boundaries = [segment.row_count for segment in segments]
            assert boundaries == [
                stop - start
                for start, stop in chunk_offsets(len(rows), segment_rows)
            ]
            offset = 0
            for segment in segments:
                run = rows[offset : offset + segment.row_count]
                offset += segment.row_count
                columns, sizes, _ = segment.columns(None)
                zones = [segment.zone(i) for i in range(table.width)]
                _assert_holds(table, oracle, run, columns, sizes, zones)
                assert _exact(segment.read(None)[0]) == _exact(run)
                assert segment.sizes() == list(sizes)
                assert segment.total_bytes == sum(sizes)
            for start in range(len(rows) + 2):
                chunk = table.partition_chunk(slot, start)
                columns, sizes, _ = chunk.columns(None)
                _assert_holds(table, oracle, rows[start:], columns, sizes, None)


class TestPartitioning:
    def test_co_partitioned_check(self):
        hashed = Partitioning("hash", (("col", 3),))
        assert hashed.co_partitioned_with((("col", 3),))
        assert not hashed.co_partitioned_with((("col", 4),))
        assert not ROUND_ROBIN.co_partitioned_with((("col", 3),))


class TestDistributedRelation:
    def test_all_rows_in_slot_order(self):
        chunk = Batch.from_rows((5, 6), [(1, 2), (3, 4)])
        relation = DistributedRelation(
            (5, 6), ROUND_ROBIN, (chunk, slot_offsets([1, 1, 0]))
        )
        assert relation.partition_lengths() == [1, 1, 0]
        assert relation.all_rows() == [(1, 2), (3, 4)]

    def test_broadcast_counts_once(self):
        rows = [(1, 2), (3, 4)]
        chunk = Batch.from_rows((5, 6), rows)
        relation = DistributedRelation(
            (5, 6), BROADCAST, (chunk, slot_offsets([2])), slots=3
        )
        assert relation.all_rows() == rows
        assert relation.partition_lengths() == [2] * 3
        assert relation.partition_totals() == [chunk.total_bytes()] * 3
        assert all(relation.partition(slot) is chunk for slot in range(3))

    def test_partition_of_a_gathered_stage(self):
        rows = [(1, "a"), (2, "bb"), (3, None)]
        chunk = Batch.from_rows((5, 6), rows)
        gathered = DistributedRelation(
            (5, 6), SINGLE, (chunk, slot_offsets([3, 0, 0, 0]))
        )
        assert gathered.partition(0).rows() == rows
        assert [len(gathered.partition(slot)) for slot in range(4)] == [3, 0, 0, 0]
        assert gathered.partition_totals() == [sum(map(row_bytes, rows)), 0, 0, 0]

    def test_pairs_answer_lengths_and_totals_unbuilt(self, monkeypatch):
        probe = Batch.from_rows((0, 1), [(i, "x" * i) for i in range(5)])
        build = Batch.from_rows((2,), [(0.5,), (1.5,)])
        pairs = PairStage((0, 1, 2), probe, build, slot_offsets([2, 0, 3]))
        relation = DistributedRelation((0, 1, 2), ROUND_ROBIN, pairs=pairs)
        built = pairs.chunk()
        monkeypatch.setattr(PairStage, "chunk", None)  # building would fail
        assert relation.partition_lengths() == [4, 0, 6]
        assert relation.partition_totals() == built.slot_totals(pairs.offsets)
        assert relation.pairs is pairs

    def test_row_view_maps_column_ids(self):
        view = RowView((7, 8), {10: 0, 20: 1})
        assert view[10] == 7
        assert view[20] == 8
        with pytest.raises(KeyError):
            view[99]