"""Bytes from outside: every on-disk format decodes or is refused.

A snapshot, a write-ahead log and a segment are plain data behind a
CRC, so reading one runs no code it holds. Each format is fuzzed two
ways: bit flips and truncations of a valid file, which the checksum
mostly catches, and CRC-valid frames around drawn payloads (a valid
payload flipped or cut, or bytes drawn whole), which reach the decoders
behind the checksum. The only outcomes are success or a structured
:class:`~repro.errors.ReproError` — :class:`SnapshotCorruptError` for
bytes that do not decode or validate — and decoding allocates no more
than the bytes it was given can hold.

Tier-1 runs these tests at the profile's example count; CI's sweep step
runs them under the ``sweep`` profile (``tests/conftest.py``), so no
test here pins ``max_examples``.
"""

import os
import shutil
import struct
import tempfile
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, Vector
from repro.config import ClusterConfig
from repro.errors import ReproError, SnapshotCorruptError
from repro.la.aggregates import NanCells
from repro.persist import FRAME_MAGIC
from repro.storage import WAL_MAGIC, encode_rows
from repro.storage.durable import decode_payload, encode_payload
from repro.storage.segment import decode_segment
from repro.types import LabeledScalar, Matrix

CONFIG = ClusterConfig(machines=1, cores_per_machine=2, job_startup_s=1.0)

#: one statement of each kind the WAL logs, over every column form
STATEMENTS = (
    "CREATE TABLE Pts (Id INTEGER, x DOUBLE, s STRING, v VECTOR[])",
    "INSERT INTO pts VALUES (1, 0.5, 'a', :v), (2, NULL, NULL, NULL)",
    "CREATE VIEW Near AS SELECT Id, s FROM pts WHERE x < 1.0",
    "CREATE MATERIALIZED VIEW Gram AS SELECT SUM(outer_product(v, v)) AS g FROM pts",
    "CREATE MATERIALIZED VIEW Ids AS SELECT DISTINCT Id FROM pts",
)


def _fill(db):
    for sql in STATEMENTS:
        db.execute(sql, {"v": Vector([1.0, -0.0])} if ":v" in sql else None)
    db.load("pts", [(3, float("nan"), "b\ud800", Vector([2.0, 3.0], label=4))])
    db.execute("INSERT INTO pts VALUES (:i, :x, 'c', NULL)", {"i": 2**70, "x": -0.0})


@pytest.fixture(scope="module")
def scratch():
    directory = tempfile.mkdtemp(prefix="repro-fuzz-")
    yield directory
    shutil.rmtree(directory, ignore_errors=True)


@pytest.fixture(scope="module")
def snapshot(scratch):
    db = Database(CONFIG)
    _fill(db)
    path = os.path.join(scratch, "valid.repro")
    db.save(path)
    db.close()
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def wal(scratch):
    data_dir = os.path.join(scratch, "valid-wal")
    db = Database(CONFIG.with_updates(durability_mode="wal", data_dir=data_dir))
    _fill(db)
    db.close()
    with open(os.path.join(data_dir, "wal.log"), "rb") as handle:
        return handle.read()


SEGMENT_ROWS = [
    (1, 0.5, "a\ud800", Vector([1.0, -0.0]), None, 2**70),
    (2, float("nan"), None, None, LabeledScalar(1.5, 3), -1),
    (3, -0.0, "", Vector([4.0, 5.0]), Matrix([[1.0, 2.0]]), True),
]


@pytest.fixture(scope="module")
def segment():
    return encode_rows(SEGMENT_ROWS)


def _mutated(data, blob: bytes) -> bytes:
    """``blob`` with one to three bits flipped, cut short, or both."""
    out = bytearray(blob)
    how = data.draw(st.sampled_from(["flip", "cut", "both"]))
    if how != "cut" and out:
        for _ in range(data.draw(st.integers(1, 3))):
            position = data.draw(st.integers(0, len(out) - 1))
            out[position] ^= 1 << data.draw(st.integers(0, 7))
    if how != "flip":
        out = out[: data.draw(st.integers(0, len(out)))]
    return bytes(out)


#: any value a JSON head can hold, and a blob
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
) | st.binary(max_size=64)


def _rewritten(data, payload: bytes) -> bytes:
    """``payload`` decoded, one value anywhere in it replaced by a drawn
    one (or, in a dict, deleted), and encoded again: plain data that
    decodes but need not validate."""
    tree = decode_payload(payload)
    places = []

    def walk(node):
        if isinstance(node, (dict, list)):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, child in list(items):
                places.append((node, key))
                walk(child)

    walk(tree)
    node, key = data.draw(st.sampled_from(places))
    if isinstance(node, dict) and data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(_VALUES)
    return encode_payload(tree)


def _drawn(data, payload: bytes, plain: bool = False) -> bytes:
    """A payload to frame with a valid CRC: ``payload`` flipped or cut,
    bytes drawn whole, or — for a plain-data envelope — ``payload`` with
    one value rewritten."""
    how = data.draw(st.sampled_from(["mutated", "drawn", "rewritten"][: 2 + plain]))
    if how == "mutated":
        return _mutated(data, payload)
    if how == "drawn":
        return data.draw(st.binary(max_size=256))
    return _rewritten(data, payload)


def _outcome(read):
    """Run ``read``; only success and a ReproError are outcomes."""
    try:
        return read()
    except ReproError as exc:
        return exc


def _restore(path):
    def read():
        db = Database.restore(path)
        db.close()

    return _outcome(read)


class TestSnapshotFuzz:
    @staticmethod
    def _write(scratch, blob) -> str:
        path = os.path.join(scratch, "fuzzed.repro")
        with open(path, "wb") as handle:
            handle.write(blob)
        return path

    @settings(deadline=None)
    @given(data=st.data())
    def test_flipped_or_cut_file(self, scratch, snapshot, data):
        _restore(self._write(scratch, _mutated(data, snapshot)))

    @settings(deadline=None)
    @given(data=st.data())
    def test_crc_valid_frame_around_drawn_payload(self, scratch, snapshot, data):
        header = len(FRAME_MAGIC) + 4
        body = _drawn(data, snapshot[header:], plain=True)
        framed = FRAME_MAGIC + struct.pack("<I", zlib.crc32(body)) + body
        _restore(self._write(scratch, framed))


def _frames(log: bytes):
    """The ``(start, payload)`` of every record of a WAL."""
    offset, frames = len(WAL_MAGIC), []
    while offset < len(log):
        length, _crc = struct.unpack_from("<II", log, offset)
        frames.append((offset, log[offset + 8 : offset + 8 + length]))
        offset += 8 + length
    return frames


class TestWalFuzz:
    @staticmethod
    def _recover(scratch, log: bytes):
        data_dir = os.path.join(scratch, "fuzzed-wal")
        shutil.rmtree(data_dir, ignore_errors=True)
        os.makedirs(data_dir)
        with open(os.path.join(data_dir, "wal.log"), "wb") as handle:
            handle.write(log)
        return _restore(data_dir)

    @settings(deadline=None)
    @given(data=st.data())
    def test_flipped_or_cut_log(self, scratch, wal, data):
        self._recover(scratch, _mutated(data, wal))

    @settings(deadline=None)
    @given(data=st.data())
    def test_crc_valid_frame_around_drawn_record(self, scratch, wal, data):
        frames = _frames(wal)
        start, payload = frames[data.draw(st.integers(0, len(frames) - 1))]
        body = _drawn(data, payload, plain=True)
        framed = struct.pack("<II", len(body), zlib.crc32(body)) + body
        end = start + 8 + len(payload)
        self._recover(scratch, wal[:start] + framed + wal[end:])

    @pytest.mark.parametrize("zeros", [8, 11, 16])
    def test_zero_filled_tail_is_torn(self, scratch, wal, zeros):
        """A crash mid-append can leave the file longer than the bytes
        that landed, zero-filled. Zeros read as a frame of length 0 whose
        CRC holds; no record is that short, so the tail is truncated and
        every record before it replays."""
        data_dir = os.path.join(scratch, "zero-tail")
        shutil.rmtree(data_dir, ignore_errors=True)
        os.makedirs(data_dir)
        log_path = os.path.join(data_dir, "wal.log")
        with open(log_path, "wb") as handle:
            handle.write(wal + bytes(zeros))
        db = Database.restore(data_dir)
        try:
            assert db.durability.records_replayed == len(_frames(wal)) - 1
            assert db.execute("SELECT COUNT(*) FROM pts").scalar() == 4
            assert db.execute("SELECT COUNT(*) FROM Ids").scalar() == 4
        finally:
            db.close()
        with open(log_path, "rb") as handle:
            assert handle.read() == wal

    def test_replay_error_is_not_blamed_on_the_log(self, scratch, wal, monkeypatch):
        """Only reading a record is checked: an error the engine raises
        while replaying a valid one surfaces as itself, not as a log
        that does not validate."""

        def broken(*args):
            raise KeyError("a program error")

        monkeypatch.setattr(Database, "_execute_statement", broken)
        with pytest.raises(KeyError, match="a program error"):
            self._recover(scratch, wal)

    def test_crc_valid_record_that_does_not_decode_is_refused(self, scratch, wal):
        """A torn write cannot leave a frame of a record's length whose
        CRC holds: such a record that does not decode is corruption, and
        nothing after it is cut."""
        start, payload = _frames(wal)[1]
        body = b"\xff" + payload[1:]
        framed = struct.pack("<II", len(body), zlib.crc32(body)) + body
        log = wal[:start] + framed + wal[start + 8 + len(payload) :]
        refused = self._recover(scratch, log)
        assert isinstance(refused, SnapshotCorruptError)
        assert refused.offset == start + 8
        with open(os.path.join(scratch, "fuzzed-wal", "wal.log"), "rb") as handle:
            assert handle.read() == log


def _decode_bounded(blob: bytes):
    """Decode a segment and materialize its rows, allocating no more
    than a small multiple of the blob."""
    tracemalloc.start()
    try:
        outcome = _outcome(lambda: decode_segment(blob))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * len(blob) + (1 << 20)
    return outcome


class TestSegmentFuzz:
    @settings(deadline=None)
    @given(data=st.data())
    def test_flipped_or_cut_segment(self, segment, data):
        _decode_bounded(_mutated(data, segment))

    @settings(deadline=None)
    @given(data=st.data())
    def test_crc_valid_segment_around_drawn_bytes(self, segment, data):
        body = _drawn(data, segment[:-4])
        _decode_bounded(body + struct.pack("<I", zlib.crc32(body)))


def _with_footer(blob: bytes, footer: bytes) -> bytes:
    """``blob`` with its footer replaced and its trailer redone, so the
    checksum holds over whatever the footer claims."""
    (length,) = struct.unpack_from("<Q", blob, len(blob) - 12)
    body = blob[: len(blob) - 12 - length] + footer + struct.pack("<Q", len(footer))
    return body + struct.pack("<I", zlib.crc32(body))


class TestSegmentBounds:
    """A checksum-valid footer is still outside input: every entry is
    checked against what the encoder writes before anything is
    allocated from it."""

    BLOB = encode_rows([(1.5,), (2.5,)])

    @pytest.mark.parametrize(
        "footer",
        [
            b'[1000000000,[["<f8",[1000000000],false,16]]]',  # a shape past the bytes
            b'[1000000000,[["<f8",[1000000000],false,8000000000]]]',  # and its length
            b'[2,[["<c16",[2],false,32]]]',  # a dtype the codec never writes
            b'[2,[["<f8",[2],true,16]]]',  # a mask the length leaves out
            b'[2,[["|b1",[2,3],false,6]]]',  # tensor cells in a bool column
            b'[2,[["|O",[2],false,99]]]',  # cells running into the footer
            b'[3,[["<f8",[2],false,16]]]',  # a column shorter than the rows
            b'{"rows":2}',  # not the footer's shape
            b"[" * 100000,  # nested past the parser
        ],
    )
    def test_lying_footer_is_refused_before_allocation(self, footer):
        refused = _decode_bounded(_with_footer(self.BLOB, footer))
        assert isinstance(refused, SnapshotCorruptError)
        assert "does not decode" in str(refused)


class TestCellKinds:
    """What a spill writes besides SQL values: the partial-aggregate
    states (AVG pairs, label dicts, DISTINCT sets and their NaN keys)
    round-trip to the same types and bits."""

    def test_states_round_trip(self):
        nan_key = NanCells(Vector([float("nan"), -0.0]))
        rows = [
            ((1.5, 2), {1: 0.5, 2: Vector([1.0], label=3)}, {1, "a", nan_key}),
            ((LabeledScalar(-0.0, 2), 2**65), {}, set()),
        ]
        (first, second) = decode_segment(encode_rows(rows))
        assert first[0] == (1.5, 2) and type(first[0][1]) is int
        assert first[1][1] == 0.5 and first[1][2].label == 3
        restored_key = next(v for v in first[2] if type(v) is NanCells)
        assert restored_key == nan_key
        assert np.isnan(restored_key.value.data[0])
        assert struct.pack("<d", second[0][0].value) == struct.pack("<d", -0.0)
        assert second[0][1] == 2**65 and second[1:] == ({}, set())

    def test_unknown_kind_is_a_program_error(self):
        with pytest.raises(TypeError, match="no segment encoding"):
            encode_rows([(object(),)])
