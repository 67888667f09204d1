"""``serve_mix``: the HTTP server under a read-mostly statement mix.

``repro.server.Server`` runs in its own process over tables so small
that the engine is the minority of a request (``points`` 64x8,
``outcomes`` 64 rows, ``events`` empty; default ``ServerConfig`` and
``ServiceConfig``, durability off). Two generator threads (= ``nproc``)
each hold one persistent ``ServerClient``. Read classes: the six shapes
of the repo's open-loop bench (filtered Gram, scaled vector sum, COUNT,
join aggregate, two scans paged at 16 rows) plus a point lookup; write
class: an INSERT into ``events`` with a ``$type`` vector parameter, 10 %
of traffic. The ``server`` wire parse and encode, ``service`` sessions,
plan cache and admission, and ``sql`` + ``plan`` on cache misses are the
majority here; writes take exclusive admission beside the reads.

The timed run is a closed loop (each connection sends its next statement
when the reply is in) over a fixed count of statements; it gives
``ops_per_s`` and the latencies. The traced run adds an open loop with
Poisson arrivals on a ladder of 80 / 160 / 320 requests per second, each
request timed from its *scheduled* send: latency at each rate, generator
lateness, and the highest rate that keeps p95 within the limit without a
growing backlog. Those are per-layer metrics and gate nothing, because
at a fixed rate a slow spell of the shared host turns into a queue.

A DML statement invalidates every open cursor (the program's documented
contract), so a paged read that loses its cursor to a concurrent INSERT
is re-issued, as the protocol tells a client to; the retry stays inside
the request's latency and the retry share is reported.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    BENCH_DIR,
    Calibrator,
    Judge,
    Op,
    class_stats,
    close,
    latency_metrics,
    load_average,
    normalised_setup,
    rows_close,
)
from repro import ClusterConfig, Database
from repro.server import ServerClient, ServerError, decode_value

ROWS, DIMS = 64, 8
PAGE_SIZE = 16
CLIENTS = 2
WRITE_SHARE = 0.10
#: a request may be re-issued this often after ``cursor_invalidated``
MAX_ATTEMPTS = 50
#: a chunk's floor is the median of this many passes over its statements'
#: oracles (one pass takes ~6 us per statement: too little to time once)
FLOOR_REPEATS = 5
#: closed-loop statements per second of ``--seconds``, over all clients.
#: Every phase has a fixed op count, not a fixed duration: the server
#: slows as the requests it has served accumulate, so a run must always
#: put the same number of requests in front of each measurement.
CLOSED_OPS_PER_SECOND = 300
#: the closed loop runs in this many chunks; ``ops_per_s`` is the median
#: chunk's rate, which a slow second of the host does not move
CLOSED_CHUNKS = 16
#: calibration ticks between two chunks of the closed loop
CHUNK_TICKS = 5
#: (step, requests per second, share of ``--seconds``). Frozen after
#: one rescale: closed-loop capacity at this size is ~480 requests/s on
#: the reference host, so the middle step sits at a third of it and the
#: top step at two thirds. Only the traced run climbs the ladder: at a
#: fixed rate a slow spell of the host turns into a queue, so open-loop
#: latency is reported (per layer) but gates nothing.
LADDER = (("low", 80.0, 0.15), ("mid", 160.0, 0.55), ("high", 320.0, 0.2))
#: the latency limit of ``server.max_rate_ok_qps``, on p95. The issue's
#: 10 ms is below what the reference host's own stalls (up to 40 ms)
#: leave at any rate, so the limit was rescaled once with the ladder.
LIMIT_MS = 25.0

READS = {
    "gram_filtered": "SELECT SUM(outer_product(vec, vec)) FROM points WHERE i < :k",
    "scaled_sum": "SELECT SUM(vec * :w) FROM points",
    "count_filtered": "SELECT COUNT(i) FROM points WHERE i < :k",
    "join_agg": (
        "SELECT SUM(vec * y_i) FROM points, outcomes "
        "WHERE points.i = outcomes.i AND points.i < :k"
    ),
    "scan_outcomes": "SELECT i, y_i FROM outcomes WHERE i < :k",
    "scan_points": "SELECT i, vec * :w FROM points WHERE i < :k",
    "point_lookup": "SELECT i, vec FROM points WHERE i = :k",
}
INSERT = "INSERT INTO events VALUES (:i, :y, :v)"
KINDS: Dict[str, str] = {**{cls: "read" for cls in READS}, "insert_event": "write"}


def serve_data(seed: int) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, 4])
    x = rng.normal(size=(ROWS, DIMS))
    return x, x @ rng.normal(size=DIMS)


def build_database(seed: int) -> Database:
    x, y = serve_data(seed)
    db = Database(ClusterConfig(machines=2, cores_per_machine=2, job_startup_s=1.0))
    db.execute("CREATE TABLE points (i INTEGER, vec VECTOR[])")
    db.execute("CREATE TABLE outcomes (i INTEGER, y_i DOUBLE)")
    db.execute("CREATE TABLE events (i INTEGER, y DOUBLE, v VECTOR[])")
    db.load("points", [(i, x[i]) for i in range(ROWS)])
    db.load("outcomes", [(i, float(y[i])) for i in range(ROWS)])
    return db


# -- the op stream ----------------------------------------------------------------


class OpStream:
    """Seeded statements with wire-ready parameters and numpy oracles.
    ``stream`` keeps the generator threads' streams apart."""

    def __init__(self, seed: int, stream: int):
        self.x, self.y = serve_data(seed)
        self.stream = stream
        self.rng = np.random.default_rng([seed, 40, stream])
        self.count = 0
        self.classes = list(READS)

    def __iter__(self):
        return self

    def __next__(self) -> Op:
        rng, x, y = self.rng, self.x, self.y
        self.count += 1
        if rng.random() < WRITE_SHARE:
            values = rng.normal(size=DIMS)
            params = {
                "i": self.stream * 10_000_000 + self.count,
                "y": float(rng.normal()),
                "v": {"$type": "vector", "data": [float(v) for v in values]},
            }
            return Op("insert_event", "write", sql=INSERT, params=params,
                      check=lambda rows, _: rows == [])
        cls = self.classes[int(rng.integers(len(self.classes)))]
        k = int(rng.integers(1, ROWS))
        w = float(rng.normal())
        sql = READS[cls]
        params = {}
        if ":k" in sql:
            params["k"] = k
        if ":w" in sql:
            params["w"] = w
        single = lambda rows, expected: len(rows) == 1 and close(rows[0][0], expected)
        oracle, check = {
            "gram_filtered": (lambda: x[:k].T @ x[:k], single),
            "scaled_sum": (lambda: (x * w).sum(axis=0), single),
            "count_filtered": (lambda: int((np.arange(ROWS) < k).sum()), single),
            "join_agg": (lambda: (x[:k] * y[:k, None]).sum(axis=0), single),
            "scan_outcomes": (lambda: [(i, y[i]) for i in range(k)], rows_close),
            "scan_points": (lambda: [(i, x[i] * w) for i in range(k)], rows_close),
            "point_lookup": (lambda: [(k, x[k])], rows_close),
        }[cls]
        return Op(cls, "read", sql=sql, params=params, oracle=oracle, check=check)


def take(stream: OpStream, count: int) -> List[Op]:
    return [next(stream) for _ in range(count)]


# -- the server process --------------------------------------------------------------


class ServerProcess:
    def __init__(self, seed: int):
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server_proc.py"), "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.process.wait()
            raise RuntimeError("the server process ended before it was ready")
        self.address = tuple(json.loads(line)["address"])

    def stats(self) -> Dict[str, object]:
        self.process.stdin.write("stats\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline())

    def stop(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=30)
        self.process.stdout.close()


# -- one request ------------------------------------------------------------------------


class Outcome:
    __slots__ = ("op", "rows", "error", "status", "latency_ms", "late_ms",
                 "pages", "retries")

    def __init__(self, op: Op):
        self.op = op
        self.rows = None
        self.error: Optional[str] = None
        self.status = 200
        self.latency_ms = 0.0
        self.late_ms = 0.0
        self.pages = 0
        self.retries = 0


def fire(client: ServerClient, outcome: Outcome) -> None:
    """Send one statement, page through the result, decode every cell."""
    op = outcome.op
    for attempt in range(MAX_ATTEMPTS):
        outcome.retries = attempt
        try:
            response = client.query(op.sql, op.params, page_size=PAGE_SIZE)
            rows = list(response["rows"])
            outcome.pages += 1
            while not response["done"]:
                response = client.fetch(response["cursor"])
                rows.extend(response["rows"])
                outcome.pages += 1
            outcome.rows = [[decode_value(cell) for cell in row] for row in rows]
            outcome.error = None
            return
        except ServerError as exc:
            outcome.error = f"{op.cls}: HTTP {exc.status} {exc.code}: {exc}"
            outcome.status = exc.status
            if exc.code != "cursor_invalidated":
                return
        except (OSError, ValueError) as exc:
            outcome.error = f"{op.cls}: {type(exc).__name__}: {exc}"
            outcome.status = 0
            return


def closed_loop(client: ServerClient, ops: List[Op], out: List[Outcome]) -> None:
    """Back to back: the next statement goes out when the reply is in."""
    for op in ops:
        outcome = Outcome(op)
        start = time.perf_counter()
        fire(client, outcome)
        outcome.latency_ms = (time.perf_counter() - start) * 1e3
        out.append(outcome)


def open_loop(client: ServerClient, schedule: List[Tuple[float, Op]],
              epoch: float, out: List[Outcome]) -> None:
    """Each op goes out at its scheduled time, or at once when the
    previous reply made us late; latency runs from the schedule."""
    for arrival, op in schedule:
        due = epoch + arrival
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        outcome = Outcome(op)
        outcome.late_ms = max(0.0, (time.perf_counter() - due) * 1e3)
        fire(client, outcome)
        outcome.latency_ms = (time.perf_counter() - due) * 1e3
        out.append(outcome)


def run_threads(target, per_client_args) -> float:
    """Run one generator thread per client; returns the wall seconds."""
    threads = [
        threading.Thread(target=target, args=args, daemon=True)
        for args in per_client_args
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


# -- judging -------------------------------------------------------------------------------


class Tally(Judge):
    """A judge that also counts what the wire did."""

    def __init__(self) -> None:
        super().__init__()
        self.shed = 0
        self.pages = 0
        self.retries = 0
        self.acked: List[Op] = []
        self.floor_s = 0.0

    def judge(self, outcomes: List[Outcome]) -> None:
        """Oracle every outcome; the oracle's time is the numpy floor."""
        start = time.perf_counter()
        expected = [outcome.op.oracle() for outcome in outcomes]
        self.floor_s += time.perf_counter() - start
        for outcome, want in zip(outcomes, expected):
            self.attempted += 1
            self.pages += outcome.pages
            self.retries += outcome.retries
            if outcome.error is not None:
                self.shed += outcome.status == 429
                self.fail(outcome.error)
            elif not outcome.op.check(outcome.rows, want):
                self.fail(f"{outcome.op.cls}: result differs from the numpy oracle")
            elif outcome.op.kind == "write":
                self.acked.append(outcome.op)

    def check_acknowledged(self, client: ServerClient) -> int:
        """Every acknowledged INSERT must be readable: count and sum."""
        _, rows = client.query_all("SELECT COUNT(i), SUM(y) FROM events")
        want = sum(op.params["y"] for op in self.acked)
        self.attempted += 1
        lost = len(self.acked) - int(rows[0][0])
        if lost or (self.acked and not close(rows[0][1], want)):
            self.fail(f"events: {lost} acknowledged write(s) lost or changed")
        return lost


def open_step(clients, streams, rate: float, seconds: float,
              rng: np.random.Generator) -> List[Outcome]:
    """One open-loop step: Poisson arrivals dealt to the clients in turn."""
    arrivals = []
    clock = float(rng.exponential(1.0 / rate))
    while clock < seconds:
        arrivals.append(clock)
        clock += float(rng.exponential(1.0 / rate))
    schedules = [[] for _ in clients]
    for n, arrival in enumerate(arrivals):
        slot = n % len(clients)
        schedules[slot].append((arrival, next(streams[slot])))
    outs = [[] for _ in clients]
    epoch = time.perf_counter() + 0.05
    run_threads(
        open_loop,
        [(clients[n], schedules[n], epoch, outs[n]) for n in range(len(clients))],
    )
    return [outcome for out in outs for outcome in out]


def step_summary(rate: float, outcomes: List[Outcome]) -> Dict[str, float]:
    done = [o for o in outcomes if o.error is None]
    latency = class_stats([o.latency_ms for o in done] or [0.0])
    late = [o.late_ms for o in outcomes]
    tail = late[-max(1, len(late) // 4):]
    return {
        "rate_qps": rate,
        "sent": len(outcomes),
        "completed": len(done),
        "p50_ms": latency["p50_ms"],
        "p95_ms": latency["p95_ms"],
        "late_p95_ms": float(np.percentile(late, 95)),
        "late_tail_p50_ms": float(np.median(tail)),
        "ok": bool(
            len(done) == len(outcomes)
            and latency["p95_ms"] <= LIMIT_MS
            and np.median(tail) <= LIMIT_MS
        ),
    }


def max_rate_ok(steps: Dict[str, Dict[str, float]]) -> float:
    return max([s["rate_qps"] for s in steps.values() if s["ok"]] or [0.0])


# -- set-up shared by both runs -----------------------------------------------------------


def start(seed: int):
    server = ServerProcess(seed)
    clients = [ServerClient(*server.address, timeout=60.0) for _ in range(CLIENTS)]
    streams = [OpStream(seed, n) for n in range(CLIENTS)]
    tally = Tally()
    # warm-up: every class three times on every connection, so the plan
    # cache holds all eight statements before anything is timed
    for client, stream in zip(clients, streams):
        seen: Dict[str, int] = defaultdict(int)
        warm: List[Outcome] = []
        while len(seen) < len(KINDS) or min(seen.values()) < 3:
            outcome = Outcome(next(stream))
            fire(client, outcome)
            seen[outcome.op.cls] += 1
            warm.append(outcome)
        tally.judge(warm)
    return server, clients, streams, tally


def stop(server: ServerProcess, clients) -> None:
    for client in clients:
        client.close()
    server.stop()


def add_latencies(latencies: Dict[str, List[float]], outcomes: List[Outcome],
                  factor: float = 1.0) -> None:
    """File the latencies of completed requests by class, each divided
    by the host factor of its chunk."""
    for outcome in outcomes:
        if outcome.error is None:
            latencies[outcome.op.cls].append(outcome.latency_ms / factor)


# -- the timed run (tracing off) ------------------------------------------------------------


def run_end_to_end(
    seed: int, seconds: float, spawned_at: float, setup_only: bool
) -> Dict[str, object]:
    load_start = load_average()
    server, clients, streams, tally = start(seed)
    try:
        gc.collect()
        setup = normalised_setup(spawned_at)
        if setup_only:
            return setup

        # the closed loop: a fixed count of statements, in chunks. The
        # kernel ticks between chunks, while the generator and the
        # server are quiet, so the server cannot move the host factor.
        calibrator = Calibrator()
        per_chunk = max(
            25, int(seconds * CLOSED_OPS_PER_SECOND) // (CLIENTS * CLOSED_CHUNKS)
        )
        closed: List[Outcome] = []
        latencies: Dict[str, List[float]] = defaultdict(list)
        chunk_rates: List[float] = []
        ratios: List[float] = []
        chunk_floors: List[float] = []  # ms per statement, as timed
        closed_wall = 0.0
        calibrator.tick(CHUNK_TICKS)
        for chunk in range(CLOSED_CHUNKS):
            outs: List[List[Outcome]] = [[] for _ in clients]
            wall = run_threads(
                closed_loop,
                [(clients[n], take(streams[n], per_chunk), outs[n])
                 for n in range(CLIENTS)],
            )
            done = [o for out in outs for o in out]
            # the numpy floor of the chunk's statements, right after the
            # chunk so that their ratio needs no correction
            floors = []
            for _ in range(FLOOR_REPEATS):
                begin = time.perf_counter()
                for outcome in done:
                    outcome.op.oracle()
                floors.append((time.perf_counter() - begin) * 1e3 / len(done))
            chunk_floors.append(float(np.median(floors)))
            rate = sum(o.error is None for o in done) / wall
            ratios.append(1e3 / rate / chunk_floors[-1])
            calibrator.tick(CHUNK_TICKS)
            # the ticks before and after the chunk
            factor = calibrator.factor(chunk * CHUNK_TICKS, (chunk + 2) * CHUNK_TICKS)
            chunk_rates.append(rate * factor)
            add_latencies(latencies, done, factor)
            closed_wall += wall
            closed.extend(done)
        tally.judge(closed)
        stats = latency_metrics(latencies, KINDS)

        lost = tally.check_acknowledged(clients[0])
        server_stats = server.stats()
    finally:
        stop(server, clients)

    ops_per_s = float(np.median(chunk_rates))
    ok = tally.attempted - tally.failed
    return {
        **setup,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": {
            "ops_per_s": ops_per_s,
            "read_p50_ms": stats["read_p50_ms"],
            "write_p50_ms": stats["write_p50_ms"],
            "overhead_x": float(np.median(ratios)),
            "ok_share": ok / tally.attempted,
            "peak_rss_mb": server_stats["peak_rss_mb"],
        },
        "classes": stats["classes"],
        "read_p95_ms": stats["read_p95_ms"],
        "write_p95_ms": stats["write_p95_ms"],
        "host_factor": calibrator.summary(),
        "closed_loop": {
            "clients": CLIENTS,
            "ops": len(closed),
            "wall_s": closed_wall,
            "chunk_rates": chunk_rates,
        },
        "floor_numpy_ms": float(np.median(chunk_floors)),
        "lost_acknowledged_writes": lost,
        "shed": tally.shed,
        "cursor_retries": tally.retries,
        "server_stats": server_stats,
        "workload_info": {
            "storage_mode": "memory",
            "flush_policy": "none (durability off)",
            "shapes": {"points": "64x8", "outcomes": "64", "events": "empty at start"},
            "clients": CLIENTS,
            "page_size": PAGE_SIZE,
            "write_share": WRITE_SHARE,
        },
        "load_average": [load_start, load_average()],
    }


# -- the traced run --------------------------------------------------------------------------


def run_traced(seed: int, seconds: float, trace_path: str) -> Dict[str, object]:
    """A short climb of the rate ladder, then a sample of the op
    stream sent one at a time over HTTP and replayed in-process — whole
    (``Session.execute``) and staged — on an identical database."""
    import layers
    from spans import SpanRecorder

    server, clients, streams, tally = start(seed)
    try:
        gc.collect()
        rng = np.random.default_rng([seed, 41])
        steps, tail = {}, {}
        for name, rate, share in LADDER:
            outcomes = open_step(clients, streams, rate, seconds / 3.0 * share, rng)
            tally.judge(outcomes)
            steps[name] = step_summary(rate, outcomes)
            if name == "mid":
                mid: Dict[str, List[float]] = defaultdict(list)
                add_latencies(mid, outcomes)
                tail = latency_metrics(mid, KINDS)
        recorder = SpanRecorder()
        judge = Judge()
        replay = layers.ServedReplay(build_database(seed), recorder, judge)
        sample = take(OpStream(seed, CLIENTS), max(400, int(seconds * 25)))
        untraced: Dict[str, List[float]] = defaultdict(list)
        outcomes = []
        for n, op in enumerate(sample):
            outcome = Outcome(op)
            if n % 2 == 0:
                begin = time.perf_counter()
                fire(clients[0], outcome)
                untraced[op.cls].append((time.perf_counter() - begin) * 1e3)
            else:
                replay.run_op(op, outcome, lambda o=outcome: fire(clients[0], o))
            outcomes.append(outcome)
        tally.judge(outcomes)
        tally.check_acknowledged(clients[0])
        server_stats = server.stats()
    finally:
        stop(server, clients)

    values = layers.zero_metrics()
    values.update(replay.layer_metrics(untraced, call="server.http"))
    values.update(replay.served_metrics())
    db = replay.db
    rows = db.catalog.table("points").storage.all_rows()
    values.update(layers.probe_layers(recorder, db.catalog.table("points").schema, rows))
    cache = server_stats["plan_cache"]
    requests = max(1, server_stats["server"]["requests_total"])
    values.update({
        "engine.sim_seconds": replay.sim_seconds,
        "engine.peak_memory_bytes": replay.sim_peak,
        "service.plan_cache_hit_rate": cache["hit_rate"],
        "service.rejected_share": server_stats["rejected"] / max(
            1, server_stats["queries"] + server_stats["rejected"]),
        "server.pages_per_query": tally.pages / max(1, tally.attempted),
        "server.shed_share": server_stats["server"]["shed_total"] / requests,
        "server.cursor_retry_share": tally.retries / max(1, tally.attempted),
        "server.sched_lag_p95_ms": steps["mid"]["late_p95_ms"],
        "server.rate_low.p95_ms": steps["low"]["p95_ms"],
        "server.rate_mid.p95_ms": steps["mid"]["p95_ms"],
        "server.rate_high.p95_ms": steps["high"]["p95_ms"],
        "server.max_rate_ok_qps": max_rate_ok(steps),
        "tail.read_p95_ms": tail["read_p95_ms"],
        "tail.write_p95_ms": tail["write_p95_ms"],
        "floor.numpy_ms": tally.floor_s * 1e3 / max(1, tally.attempted),
    })
    recorder.write_jsonl(trace_path)
    return {
        "attempted": tally.attempted + judge.attempted,
        "failed": tally.failed + judge.failed,
        "errors": tally.errors + judge.errors,
        "metrics": values,
        "ladder": steps,
        "spans": len(recorder.spans),
        "server_stats": server_stats,
    }
