"""The query service layer: sessions, plan cache, admission control.

Walks through the serving front end in `repro/service/`: acquiring
sessions from a database, session-local temp views and parameters,
prepared statements that hit the plan cache instead of re-planning,
cache invalidation on DDL, and what happens when more clients arrive
than the scheduler admits.

Run:  python examples/query_service.py
"""

import numpy as np

from repro import Database, ServiceOverloadedError


def build_db():
    db = Database()
    db.execute("CREATE TABLE points (i INTEGER, vec VECTOR[])")
    rng = np.random.default_rng(7)
    data = rng.normal(size=(200, 6))
    db.load("points", [(i, data[i]) for i in range(200)])
    return db


def main():
    db = build_db()

    # -- 1. sessions hold private state ---------------------------------------
    service = db.service(max_concurrency=2, admission_queue_limit=2)
    alice = service.session("alice")
    bob = service.session("bob")

    alice.execute("CREATE TEMP VIEW mine AS SELECT i, vec FROM points WHERE i < 50")
    bob.execute("CREATE TEMP VIEW mine AS SELECT i, vec FROM points WHERE i >= 150")
    a = alice.execute("SELECT COUNT(i) FROM mine").scalar()
    b = bob.execute("SELECT COUNT(i) FROM mine").scalar()
    print(f"same view name, different sessions: alice sees {a} rows, bob sees {b}")

    # -- 2. prepared statements and the plan cache -----------------------------
    stmt = alice.prepare("SELECT SUM(outer_product(vec, vec)) FROM points WHERE i < :k")
    for k in (40, 80, 120):
        result = stmt.execute(k=k)
        hit = "hit " if result.metrics.compile_seconds == 0 else "miss"
        print(
            f"k={k:>3}: cache {hit}  compile {result.metrics.compile_seconds:.2f}s  "
            f"latency {result.metrics.elapsed_seconds:.2f}s"
        )

    # -- 3. a plan is valid while what it read is unchanged ---------------------
    db.execute("CREATE TABLE scratch (x DOUBLE)")  # unrelated DDL: still a hit
    result = stmt.execute(k=40)
    print(f"after DDL elsewhere the plan still hits: compile {result.metrics.compile_seconds:.2f}s")
    db.execute("INSERT INTO points SELECT i + 1000, vec FROM points WHERE i < 2")
    result = stmt.execute(k=40)
    print(f"after a change to points it re-plans: compile {result.metrics.compile_seconds:.2f}s")

    # -- 4. overload: bounded admission queue ----------------------------------
    # Fire queries from many sessions at the same simulated instant. With
    # 2 gangs (one still finishing alice's last query) and a queue of 2,
    # arrivals beyond capacity are rejected immediately, not hung.
    sessions = [service.session() for _ in range(6)]
    admitted, rejected = 0, 0
    for s in sessions:
        try:
            s.submit("SELECT SUM(vec * vec) FROM points")
            admitted += 1
        except ServiceOverloadedError as error:
            rejected += 1
            print(f"rejected fast: {error}")
    while service.next_completion() is not None:
        pass
    print(f"admitted {admitted}, rejected {rejected}")

    # -- 5. the dashboard -------------------------------------------------------
    print()
    print(service.report())


if __name__ == "__main__":
    main()
