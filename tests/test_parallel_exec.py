"""Concurrent statements and admission-gate coverage.

The contract (docs/ENGINE.md, "Concurrency model"): statements overlap
each other on real threads, a statement itself runs on the thread that
admitted it. A statement executed beside other readers and a DDL writer
must produce the rows and *bit-identical* simulated
:class:`QueryMetrics` — including the per-slot busy-second chains — it
produces alone. The reader–writer :class:`AdmissionGate` replaces the
old global exec lock; its unit tests and the
``set_execution_mode``-vs-in-flight-statement regression live here too.
"""

import threading
import time

import pytest

from repro import Database, TEST_CLUSTER
from repro.admission import AdmissionGate
from repro.plan import CostModel
from repro.types import Vector

TABLE_A_ROWS = [(i % 7, float(i) - 3.5, i % 3) for i in range(40)]
TABLE_B_ROWS = [(i % 5, float(i * 2)) for i in range(15)]
VECTOR_DIM = 4
TABLE_V_ROWS = [
    (i, i % 3, Vector([float(i + j * j) - 5.0 for j in range(VECTOR_DIM)]))
    for i in range(24)
]

QUERIES = (
    # exchange + hash join + grouped aggregate (multi-phase operators)
    "SELECT ta.g, COUNT(*), SUM(ta.x + tb.y) FROM ta, tb "
    "WHERE ta.k = tb.k GROUP BY ta.g",
    # scan + filter + project
    "SELECT ta.k, ta.x * 2 + 1 FROM ta WHERE ta.x > 0",
    # Gram-style vector aggregate (the paper's workload)
    "SELECT t.g, SUM(outer_product(t.v, t.v)), COUNT(*) "
    "FROM tv AS t GROUP BY t.g",
)


def _db():
    db = Database(TEST_CLUSTER)
    db.execute("CREATE TABLE ta (k INTEGER, x DOUBLE, g INTEGER)")
    db.execute("CREATE TABLE tb (k INTEGER, y DOUBLE)")
    db.execute("CREATE TABLE tv (id INTEGER, g INTEGER, v VECTOR[])")
    db.load("ta", TABLE_A_ROWS)
    db.load("tb", TABLE_B_ROWS)
    db.load("tv", TABLE_V_ROWS)
    return db


def _fingerprint(metrics):
    """Every simulated number an operator charges, bit-for-bit —
    including the per-slot busy-second chains."""
    return (
        metrics.jobs,
        metrics.startup_seconds,
        metrics.total_seconds,
        metrics.recovery_seconds,
        metrics.wasted_seconds,
        metrics.speculative_seconds,
        tuple(sorted(metrics.fault_events.items())),
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
                op.slot_seconds,
                op.spill_bytes,
                op.spill_events,
                op.segments_pruned,
                op.segments_scanned,
                op.peak_memory_bytes,
            )
            for op in metrics.operators
        ),
    )


# -- concurrent statements stay deterministic --------------------------------


class TestConcurrentStatements:
    def test_concurrent_selects_match_serial_execution(self):
        """Many real threads on one database: every statement must see
        exactly the rows and bit-identical simulated metrics it gets
        when run alone — concurrency (and a DDL writer churning other
        tables) must be invisible."""
        db = _db()
        references = {
            sql: (db.execute(sql).rows, _fingerprint(db.execute(sql).metrics))
            for sql in QUERIES
        }
        errors = []
        mismatches = []

        def reader(n):
            try:
                for sql in QUERIES:
                    result = db.execute(sql)
                    got = (result.rows, _fingerprint(result.metrics))
                    if got != references[sql]:
                        mismatches.append((n, sql))
            except Exception as exc:  # pragma: no cover
                errors.append(repr(exc))

        def writer():
            try:
                for round_ in range(4):
                    db.execute(f"CREATE TABLE scratch{round_} (i INTEGER)")
                    db.load(f"scratch{round_}", [(i,) for i in range(5)])
                    db.execute(f"DROP TABLE scratch{round_}")
            except Exception as exc:  # pragma: no cover
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=reader, args=(n,)) for n in range(4)
        ]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert mismatches == []
        stats = db._admission.stats()
        assert stats["shared_admissions"] >= 12
        assert stats["exclusive_admissions"] >= 8


# -- EXPLAIN under admission (regression) ------------------------------------


class TestExplainUnderAdmission:
    """EXPLAIN compiles, and reads the estimates it prints, under shared
    admission — so a concurrent load cannot move the statistics between
    the plan and its numbers."""

    @staticmethod
    def _watch(db, monkeypatch):
        """Whether this thread held admission, per scan estimate."""
        held = []
        rule = CostModel.scan_rule

        def watched(self, *args):
            held.append(threading.get_ident() in db._admission._readers)
            return rule(self, *args)

        monkeypatch.setattr(CostModel, "scan_rule", watched)
        return held

    def test_verbose_explain_estimates_under_admission(self, monkeypatch):
        db = _db()
        held = self._watch(db, monkeypatch)
        assert "[~40 rows" in db.explain(QUERIES[1], verbose=True)
        assert held and all(held)

    def test_session_explain_compiles_under_admission(self, monkeypatch):
        db = _db()
        session = db.service().session()
        held = self._watch(db, monkeypatch)
        assert "Scan ta" in session.explain(QUERIES[1])
        assert held and all(held)


# -- the set_execution_mode race (regression) --------------------------------


class TestSetExecutionModeRace:
    def test_swap_waits_for_inflight_statements(self):
        """``set_execution_mode`` used to swap ``Database._executor``
        without any exclusion; it now takes the exclusive admission
        path, so it blocks until in-flight statements drain and no
        statement ever observes a half-swapped executor."""
        db = _db()
        db._admission.acquire_shared()  # simulate an in-flight SELECT
        swapped = threading.Event()

        def swap():
            db.set_execution_mode("row")
            swapped.set()

        thread = threading.Thread(target=swap)
        thread.start()
        try:
            assert not swapped.wait(0.2)  # blocked behind the reader
            assert db.execution_mode == "batch"
        finally:
            db._admission.release_shared()
            thread.join(5)
        assert swapped.is_set()
        assert db.execution_mode == "row"
        assert db.execute("SELECT ta.k FROM ta WHERE ta.k = 0").rows

    def test_swap_is_atomic_under_concurrent_queries(self):
        db = _db()
        stop = threading.Event()
        errors = []

        def churn():
            while not stop.is_set():
                try:
                    db.execute("SELECT SUM(ta.x) FROM ta")
                except Exception as exc:  # pragma: no cover
                    errors.append(repr(exc))
                    return

        threads = [threading.Thread(target=churn) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for mode in ("row", "batch", "row", "batch"):
                db.set_execution_mode(mode)
                time.sleep(0.01)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []
        assert db.execution_mode == "batch"


# -- AdmissionGate unit coverage ---------------------------------------------


class TestAdmissionGate:
    def test_readers_overlap(self):
        gate = AdmissionGate()
        inside = threading.Barrier(2, timeout=5)

        def read():
            with gate.shared():
                inside.wait()  # both threads inside simultaneously

        threads = [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5)
        assert gate.stats()["shared_admissions"] == 2
        assert gate.stats()["active_readers"] == 0

    def test_writer_excludes_readers_and_writers(self):
        gate = AdmissionGate()
        gate.acquire_shared()
        entered = threading.Event()

        def write():
            with gate.exclusive():
                entered.set()

        thread = threading.Thread(target=write)
        thread.start()
        try:
            assert not entered.wait(0.1)  # reader still in flight
        finally:
            gate.release_shared()
        thread.join(5)
        assert entered.is_set()

    def test_reentrant_shared_and_exclusive(self):
        gate = AdmissionGate()
        with gate.shared():
            with gate.shared():
                assert gate.stats()["active_readers"] == 1
        with gate.exclusive():
            with gate.exclusive():
                assert gate.stats()["writer_active"] == 1
        assert gate.stats()["active_readers"] == 0
        assert gate.stats()["writer_active"] == 0

    def test_writer_may_read(self):
        """CTAS/INSERT..SELECT: the exclusive holder runs its inner
        SELECT through the shared path without deadlocking."""
        gate = AdmissionGate()
        with gate.exclusive():
            with gate.shared():
                assert gate.stats()["writer_active"] == 1

    def test_shared_to_exclusive_upgrade_raises(self):
        gate = AdmissionGate()
        with gate.shared():
            with pytest.raises(RuntimeError):
                gate.acquire_exclusive()

    def test_writer_preference_blocks_new_readers(self):
        """Once a writer waits, new readers queue behind it — a steady
        stream of queries cannot starve DDL."""
        gate = AdmissionGate()
        gate.acquire_shared()
        writer_done = threading.Event()
        late_reader_admitted = threading.Event()
        order = []

        def write():
            with gate.exclusive():
                order.append("writer")
            writer_done.set()

        writer = threading.Thread(target=write)
        writer.start()
        # let the writer reach its wait loop
        deadline = time.monotonic() + 5
        while gate.stats()["writers_waiting"] == 0:
            assert time.monotonic() < deadline
            time.sleep(0.005)

        def late_read():
            with gate.shared():
                order.append("reader")
            late_reader_admitted.set()

        reader = threading.Thread(target=late_read)
        reader.start()
        assert not late_reader_admitted.wait(0.1)  # queued behind writer
        gate.release_shared()
        writer.join(5)
        reader.join(5)
        assert order == ["writer", "reader"]

    def test_release_without_acquire_raises(self):
        gate = AdmissionGate()
        with pytest.raises(RuntimeError):
            gate.release_shared()
        with pytest.raises(RuntimeError):
            gate.release_exclusive()
