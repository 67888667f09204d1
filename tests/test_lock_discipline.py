"""Thread-safety lint: every post-construction attribute write on the
service layer's shared components must hold the owning ``_lock``.

The auditor patches ``__setattr__`` on the audited classes and records
any write performed without the lock, then a concurrent workload drives
every mutation path (sessions, plan cache hits/misses, scheduler
submits, breaker trips, metrics, GC, cursors, rate limiter). A single
recorded violation fails the lint — so an unlocked write added by a
future change is caught here, not as a heisenbug under load."""

import threading

import numpy as np
import pytest

from repro import Database, TEST_CLUSTER
from repro.admission import AdmissionGate
from repro.errors import ReproError
from repro.server.ratelimit import TenantRateLimiter, TokenBucket
from repro.service import (
    CircuitBreaker,
    LockDisciplineAuditor,
    PlanCache,
    QueryService,
    ServiceConfig,
    SlotScheduler,
    owned,
)
from repro.service.metrics import ServiceMetrics
from repro.storage.bufferpool import BufferPool
from repro.storage.engine import StorageEngine

AUDITED = (
    QueryService,
    PlanCache,  # repro.plan_cache: one per Database, sized by the service
    SlotScheduler,
    CircuitBreaker,
    ServiceMetrics,
    TokenBucket,
    TenantRateLimiter,
    # engine + storage layers: shared across concurrently admitted
    # statements since the global exec lock was retired
    AdmissionGate,
    StorageEngine,
    BufferPool,
)


def make_db():
    db = Database(TEST_CLUSTER)
    db.execute("CREATE TABLE t (i INTEGER, x DOUBLE)")
    db.load("t", [(i, float(i)) for i in range(30)])
    return db


# -- the auditor itself ------------------------------------------------------


def test_owned_tracks_rlock_holder():
    lock = threading.RLock()
    assert not owned(lock)
    with lock:
        assert owned(lock)
    assert not owned(lock)


class _Sloppy:
    """Negative control: writes an attribute without taking its lock."""

    def __init__(self):
        self.counter = 0
        self._lock = threading.RLock()

    def bump_unlocked(self):
        self.counter += 1

    def bump_locked(self):
        with self._lock:
            self.counter += 1


def test_auditor_catches_unlocked_write():
    with LockDisciplineAuditor().audit(_Sloppy) as auditor:
        sloppy = _Sloppy()  # construction is exempt (lock assigned last)
        sloppy.bump_locked()
        assert auditor.violations == []
        sloppy.bump_unlocked()
    assert len(auditor.violations) == 1
    violation = auditor.violations[0]
    assert violation.class_name == "_Sloppy"
    assert violation.attribute == "counter"
    # restore() really unpatches: further writes are not recorded
    sloppy.bump_unlocked()
    assert len(auditor.violations) == 1


def test_auditor_exempts_construction():
    with LockDisciplineAuditor().audit(_Sloppy) as auditor:
        for _ in range(3):
            _Sloppy()
        assert auditor.violations == []


# -- the lint ----------------------------------------------------------------


def run_workload(service):
    """Touch every mutation path of the audited components."""
    with service.session(tenant="acme") as session:
        for k in (5, 10, 15):
            result = session.execute("SELECT i, x FROM t WHERE i < :k", {"k": k})
            cursor = session.open_cursor(result, page_size=3)
            cursor.fetchall()
            cursor.close()
        session.execute("SELECT SUM(x) FROM t")  # cache miss then hits
        session.execute("SELECT SUM(x) FROM t")
    # the plan cache is the database's: the embedded door shares it
    service.db.execute("SELECT SUM(x) FROM t")
    service.db.execute("SELECT i FROM t WHERE i < :k", {"k": 3})
    service.gc_sessions()
    service.stats()


def test_no_unlocked_writes_under_concurrency():
    db = make_db()
    auditor = LockDisciplineAuditor()
    errors = []
    with auditor.audit(*AUDITED):
        service = QueryService(
            db,
            ServiceConfig(
                session_ttl_s=1e9,
                breaker_threshold=2,
                max_concurrency=2,
                admission_queue_limit=2,
            ),
        )
        limiter = TenantRateLimiter(rate=1e9, burst=1e9)

        def worker(worker_id):
            try:
                for _ in range(3):
                    limiter.acquire(f"tenant{worker_id % 2}")
                    try:
                        run_workload(service)
                    except ReproError:
                        # overload shedding (queue full, breaker open)
                        # is legitimate under this tiny admission
                        # config; the lint only judges lock discipline
                        pass
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(n,), name=f"lint-{n}")
            for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    assert errors == []
    assert auditor.violations == [], "\n".join(
        str(v) for v in auditor.violations
    )


def test_no_unlocked_writes_under_overload():
    """Rejection paths (queue full, breaker trips) mutate counters too —
    drive them explicitly and demand the same discipline."""
    from repro.errors import ReproError

    db = make_db()
    auditor = LockDisciplineAuditor()
    with auditor.audit(*AUDITED):
        service = QueryService(
            db,
            ServiceConfig(
                max_concurrency=1,
                admission_queue_limit=0,
                breaker_threshold=1,
                query_timeout_s=1e9,
            ),
        )

        def worker(worker_id):
            session = service.session(f"w{worker_id}")
            for _ in range(4):
                try:
                    session.execute("SELECT SUM(x * x) FROM t")
                except ReproError:
                    pass
            session.close()

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    assert auditor.violations == [], "\n".join(
        str(v) for v in auditor.violations
    )


def test_engine_and_storage_obey_lock_discipline():
    """The lint now reaches below the service: disk-mode statements
    drive the buffer pool, spill bookkeeping, and the admission gate
    from many threads at once — including a DDL writer taking the
    exclusive path mid-stream."""
    config = TEST_CLUSTER.with_updates(
        storage_mode="disk",
        buffer_pool_bytes=2048.0,  # small pool: force evictions
    )
    auditor = LockDisciplineAuditor()
    errors = []
    with auditor.audit(*AUDITED):
        db = Database(config)
        db.execute("CREATE TABLE t (i INTEGER, x DOUBLE)")
        db.load("t", [(i, float(i)) for i in range(60)])
        service = QueryService(
            db,
            ServiceConfig(
                session_ttl_s=1e9,
                max_concurrency=4,
                admission_queue_limit=64,
            ),
        )

        def reader(n):
            try:
                with service.session(tenant=f"r{n}") as session:
                    for k in (10, 30, 50):
                        session.execute(
                            "SELECT i, x FROM t WHERE i < :k", {"k": k}
                        )
                        session.execute(
                            "SELECT a.i, SUM(a.x * b.x) FROM t a, t b "
                            "WHERE a.i = b.i AND a.i < :k GROUP BY a.i",
                            {"k": k},
                        )
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(repr(exc))

        def writer():
            try:
                for round_ in range(3):
                    db.execute(f"CREATE TABLE w{round_} (i INTEGER)")
                    db.execute(f"DROP TABLE w{round_}")
            except Exception as exc:  # pragma: no cover - fail loudly
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
    assert auditor.violations == [], "\n".join(
        str(v) for v in auditor.violations
    )
    gate = db._admission.stats()
    assert gate["shared_admissions"] >= 24  # the SELECT traffic
    assert gate["exclusive_admissions"] >= 6  # DDL + loads


def test_buffer_pool_running_total_is_written_under_its_lock():
    """``BufferPool._resident`` moves on insert, eviction, invalidation
    and clear — from several threads at once, always under the pool's
    lock, and it ends equal to the entries' sum."""
    auditor = LockDisciplineAuditor()
    with auditor.audit(BufferPool):
        pool = BufferPool(budget_bytes=64.0)

        def worker(n):
            for i in range(300):
                key = (n * 7 + i) % 12
                if pool.acquire(key) is None:
                    pool.insert(key, key, nbytes=float(1 + key))
                pool.release(key)
                if i % 17 == n:
                    pool.invalidate(key)
                if i % 101 == n:
                    pool.clear()

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    assert auditor.violations == [], "\n".join(str(v) for v in auditor.violations)
    assert pool.total_bytes == sum(entry.nbytes for entry in pool._entries.values())


def test_server_request_path_obeys_lock_discipline():
    """The full HTTP path — connection threads, the statement permits,
    cursors, jobs on their own pool, the server's own counters — under
    the auditor."""
    from repro.server import Server, ServerClient
    from repro.server.jobs import JobManager

    db = make_db()
    auditor = LockDisciplineAuditor()
    with auditor.audit(*AUDITED, JobManager, Server):
        with Server(db) as srv:

            def hammer(n):
                with ServerClient(*srv.address) as client:
                    for k in (4, 8):
                        resp = client.query(
                            "SELECT i, x FROM t WHERE i < :k",
                            {"k": k},
                            page_size=2,
                            tenant=f"t{n}",
                        )
                        while not resp["done"]:
                            resp = client.fetch(resp["cursor"])
                    job = client.submit_job("SELECT COUNT(i) FROM t")
                    import time

                    deadline = time.monotonic() + 10
                    while time.monotonic() < deadline:
                        if client.poll_job(job)["state"] in ("done", "error"):
                            break
                        time.sleep(0.005)
                    client.delete_job(job)

            threads = [
                threading.Thread(target=hammer, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

    assert auditor.violations == [], "\n".join(
        str(v) for v in auditor.violations
    )
