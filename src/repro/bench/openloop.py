"""Open-loop serving benchmark over real sockets (``repro-bench serve``).

Measures the whole network stack in *real* time: it starts the HTTP
server (:class:`repro.server.Server`, one thread per connection),
spawns hundreds of client threads each holding one persistent socket
connection, and fires
queries drawn from a small set of parameterized *templates* (the
repeated-template shape of production analytical traffic) at the
server on a **Poisson arrival schedule** — arrivals come when the
schedule says, not when the previous response lands, which is what
makes the load open-loop and the latencies honest (a slow server sees
its queue grow instead of its offered load shrink).

Every scheduled query is also executed **serially** beforehand on an
identically seeded database, and each concurrent response is compared
against the serial answer on the canonical JSON encoding
(:func:`repro.server.protocol.canonical_result`) — the report's
``mismatches`` counter is a bit-identity check that concurrent
execution across the server's connection threads returns exactly the
serial results.

The report carries real wall-clock throughput, p50/p95/p99 latency
measured from each query's *scheduled arrival* (so queueing delay and
lateness count), and error/shed rates; ``to_json`` is what
``BENCH_serve.json`` holds.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import ClusterConfig
from ..db import Database
from ..server import Server, ServerClient, ServerConfig, ServerError, canonical_json
from ..server.protocol import canonical_result
from ..service import QueryService, ServiceConfig
from ..service.metrics import percentile

#: the repeated query templates the schedule draws from, every one
#: parameterized so prepared-statement style reuse is what gets
#: measured: four single-row aggregates, plus scans returning up to
#: ``rows`` tuples so the wire-level pagination path actually streams
#: multi-page results under load
OPEN_LOOP_TEMPLATES: Tuple[str, ...] = (
    "SELECT SUM(outer_product(vec, vec)) FROM points WHERE i < :k",
    "SELECT SUM(vec * :w) FROM points",
    "SELECT COUNT(i) FROM points WHERE i < :k",
    "SELECT SUM(vec * y_i) FROM points, outcomes WHERE points.i = outcomes.i "
    "AND points.i < :k",
    "SELECT i, y_i FROM outcomes WHERE i < :k",
    "SELECT i, vec * :w FROM points WHERE i < :k",
)

#: the scaling probe's templates: the paper's Gram matrix and the
#: regression-style vector aggregate over the whole table — CPU-heavy,
#: single-row answers, so throughput is dominated by engine compute
#: rather than result encoding or socket I/O
SCALING_TEMPLATES: Tuple[str, ...] = (
    "SELECT SUM(outer_product(vec, vec)) FROM points",
    "SELECT SUM(vec * y_i) FROM points, outcomes WHERE points.i = outcomes.i",
)


@dataclass(frozen=True)
class OpenLoopConfig:
    """Shape of the open-loop run."""

    #: concurrent socket clients (each one persistent connection)
    clients: int = 100
    #: total queries on the Poisson schedule
    queries: int = 400
    #: mean offered load (arrivals per real second)
    arrival_rate_qps: float = 200.0
    #: rows per page over the wire (small, to exercise pagination)
    page_size: int = 16
    #: workload data shape
    rows: int = 80
    dims: int = 6
    seed: int = 0
    service: ServiceConfig = field(default_factory=ServiceConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    cluster: Optional[ClusterConfig] = None
    #: query templates the schedule draws from; None uses
    #: OPEN_LOOP_TEMPLATES (the scaling probe swaps in SCALING_TEMPLATES)
    templates: Optional[Tuple[str, ...]] = None

    def with_updates(self, **kwargs) -> "OpenLoopConfig":
        return replace(self, **kwargs)


@dataclass
class OpenLoopReport:
    """What one open-loop run measured (real wall-clock time)."""

    clients: int
    scheduled: int
    completed: int
    errors: int
    shed: int
    mismatches: int
    wall_clock_s: float
    schedule_span_s: float
    offered_qps: float
    throughput_qps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_max_ms: float
    error_rate: float
    shed_rate: float
    pages_fetched: int
    errors_by_code: Dict[str, int]
    server_stats: Dict[str, object]

    def ok(self) -> bool:
        """The check gate: traffic got through and every concurrent
        result was bit-identical to its serial baseline."""
        return self.completed > 0 and self.throughput_qps > 0 and self.mismatches == 0

    def to_json(self) -> Dict[str, object]:
        return {
            "clients": self.clients,
            "scheduled": self.scheduled,
            "completed": self.completed,
            "errors": self.errors,
            "shed": self.shed,
            "mismatches": self.mismatches,
            "wall_clock_s": round(self.wall_clock_s, 4),
            "schedule_span_s": round(self.schedule_span_s, 4),
            "offered_qps": round(self.offered_qps, 2),
            "throughput_qps": round(self.throughput_qps, 2),
            "latency_ms": {
                "p50": round(self.latency_p50_ms, 3),
                "p95": round(self.latency_p95_ms, 3),
                "p99": round(self.latency_p99_ms, 3),
                "max": round(self.latency_max_ms, 3),
            },
            "error_rate": round(self.error_rate, 4),
            "shed_rate": round(self.shed_rate, 4),
            "pages_fetched": self.pages_fetched,
            "errors_by_code": self.errors_by_code,
            "server_stats": self.server_stats,
        }


@dataclass
class _WorkItem:
    """One scheduled arrival and its serial ground truth."""

    index: int
    arrival_s: float
    sql: str
    params: Dict[str, object]
    expected: str  # canonical JSON of the serial result


def _make_schedule(config: OpenLoopConfig) -> List[Tuple[float, str, Dict[str, object]]]:
    """Poisson arrivals over the query templates."""
    rng = np.random.default_rng(config.seed + 17)
    templates = config.templates or OPEN_LOOP_TEMPLATES
    schedule = []
    clock = 0.0
    for _ in range(config.queries):
        clock += float(rng.exponential(1.0 / config.arrival_rate_qps))
        template = templates[int(rng.integers(len(templates)))]
        params: Dict[str, object] = {}
        if ":k" in template:
            params["k"] = int(rng.integers(1, config.rows))
        if ":w" in template:
            params["w"] = float(rng.normal())
        schedule.append((clock, template, params))
    return schedule


def build_database(config: OpenLoopConfig) -> Database:
    """A small two-table database the templates run against."""
    cluster = config.cluster or ClusterConfig(
        machines=2, cores_per_machine=2, job_startup_s=1.0
    )
    db = Database(cluster)
    db.execute("CREATE TABLE points (i INTEGER, vec VECTOR[])")
    db.execute("CREATE TABLE outcomes (i INTEGER, y_i DOUBLE)")
    rng = np.random.default_rng(config.seed)
    data = rng.normal(size=(config.rows, config.dims))
    beta = rng.normal(size=config.dims)
    outcomes = data @ beta
    db.load("points", [(i, data[i]) for i in range(config.rows)])
    db.load("outcomes", [(i, float(outcomes[i])) for i in range(config.rows)])
    return db


def _serial_baseline(
    config: OpenLoopConfig,
    schedule: List[Tuple[float, str, Dict[str, object]]],
) -> List[_WorkItem]:
    """Run the whole schedule serially on an identically seeded database
    and record each canonical result — the bit-identity ground truth."""
    db = build_database(config)
    service = QueryService(db, config.service)
    items: List[_WorkItem] = []
    with service.session("serial-baseline") as session:
        for index, (arrival, sql, params) in enumerate(schedule):
            result = session.execute(sql, params)
            items.append(
                _WorkItem(
                    index=index,
                    arrival_s=arrival,
                    sql=sql,
                    params=params,
                    expected=canonical_result(result.columns, result.rows),
                )
            )
    return items


class _ClientWorker(threading.Thread):
    """One socket client draining its round-robin share of the schedule.

    Open-loop: each item is sent at its scheduled arrival time (or
    immediately, if the previous response already made us late — the
    lateness then shows up in the measured latency, which starts at the
    *scheduled* arrival)."""

    def __init__(self, worker_id: int, server: Server, items: List[_WorkItem],
                 start_barrier: threading.Barrier, epoch: List[float],
                 page_size: int):
        super().__init__(name=f"openloop-client-{worker_id}", daemon=True)
        self.worker_id = worker_id
        self.server = server
        self.items = items
        self.start_barrier = start_barrier
        self.epoch = epoch
        self.page_size = page_size
        self.latencies_ms: List[float] = []
        self.completed = 0
        self.errors = 0
        self.shed = 0
        self.mismatches = 0
        self.pages_fetched = 0
        self.errors_by_code: Dict[str, int] = {}

    def run(self) -> None:
        host, port = self.server.address
        client = ServerClient(host, port, timeout=60.0)
        try:
            client._connect()  # hold the socket before the gun goes off
            self.start_barrier.wait()
            epoch = self.epoch[0]
            for item in self.items:
                delay = (epoch + item.arrival_s) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self._fire(client, item, epoch)
        finally:
            client.close()

    def _fire(self, client: ServerClient, item: _WorkItem, epoch: float) -> None:
        try:
            response = client.query(
                item.sql, item.params, tenant=f"tenant{self.worker_id % 4}",
                page_size=self.page_size,
            )
            rows = list(response["rows"])
            while not response["done"]:
                response = client.fetch(response["cursor"])
                rows.extend(response["rows"])
                self.pages_fetched += 1
        except ServerError as exc:
            if exc.status == 429:
                self.shed += 1
            else:
                self.errors += 1
            self.errors_by_code[exc.code] = self.errors_by_code.get(exc.code, 0) + 1
            return
        finish = time.perf_counter()
        # round-trip the payload through the canonical encoder: equal
        # results give byte-identical strings (see server.protocol)
        actual = canonical_json({"columns": response["columns"], "rows": rows})
        if actual != item.expected:
            self.mismatches += 1
        self.completed += 1
        self.latencies_ms.append((finish - (epoch + item.arrival_s)) * 1000.0)


def run_open_loop(config: Optional[OpenLoopConfig] = None) -> OpenLoopReport:
    """Serial baseline, then the real-socket open-loop run."""
    config = config or OpenLoopConfig()
    schedule = _make_schedule(config)
    items = _serial_baseline(config, schedule)

    db = build_database(config)
    server = Server(db, config=config.server, service_config=config.service)
    shards: List[List[_WorkItem]] = [[] for _ in range(config.clients)]
    for item in items:
        shards[item.index % config.clients].append(item)

    with server:
        barrier = threading.Barrier(config.clients + 1)
        epoch: List[float] = [0.0]
        workers = [
            _ClientWorker(n, server, shards[n], barrier, epoch, config.page_size)
            for n in range(config.clients)
        ]
        for worker in workers:
            worker.start()
        # every client is connected and parked on the barrier; release
        # them against one shared epoch so arrivals line up
        epoch[0] = time.perf_counter() + 0.05
        start = epoch[0]
        barrier.wait()
        for worker in workers:
            worker.join()
        wall_clock = time.perf_counter() - start
        stats = server.stats()

    latencies = sorted(
        latency for worker in workers for latency in worker.latencies_ms
    )
    completed = sum(w.completed for w in workers)
    errors = sum(w.errors for w in workers)
    shed = sum(w.shed for w in workers)
    mismatches = sum(w.mismatches for w in workers)
    errors_by_code: Dict[str, int] = {}
    for worker in workers:
        for code, count in worker.errors_by_code.items():
            errors_by_code[code] = errors_by_code.get(code, 0) + count
    scheduled = len(items)
    span = schedule[-1][0] if schedule else 0.0
    wall_clock = max(wall_clock, 1e-9)
    server_section = stats.get("server", {})
    return OpenLoopReport(
        clients=config.clients,
        scheduled=scheduled,
        completed=completed,
        errors=errors,
        shed=shed,
        mismatches=mismatches,
        wall_clock_s=wall_clock,
        schedule_span_s=span,
        offered_qps=scheduled / max(span, 1e-9),
        throughput_qps=completed / wall_clock,
        latency_p50_ms=percentile(latencies, 50.0),
        latency_p95_ms=percentile(latencies, 95.0),
        latency_p99_ms=percentile(latencies, 99.0),
        latency_max_ms=latencies[-1] if latencies else 0.0,
        error_rate=errors / scheduled if scheduled else 0.0,
        shed_rate=shed / scheduled if scheduled else 0.0,
        pages_fetched=sum(w.pages_fetched for w in workers),
        errors_by_code=errors_by_code,
        server_stats={
            "requests_total": server_section.get("requests_total", 0),
            "shed_total": server_section.get("shed_total", 0),
            "rate_limited_total": server_section.get("rate_limited_total", 0),
            "worker_threads": server_section.get("worker_threads", 0),
            "plan_cache_hit_rate": stats["plan_cache"]["hit_rate"],
            "session_gc": stats["session_gc"],
        },
    )


def measure_scaling(
    queries: int = 24,
    clients: int = 8,
    rows: int = 512,
    dims: int = 32,
    seed: int = 0,
) -> Dict[str, object]:
    """Parallel-vs-serial wall-clock throughput of the serving stack.

    Runs the same saturating schedule (every arrival at time ~0, heavy
    Gram/regression templates) twice: once with ``worker_threads=1``
    and once with ``workers = min(4, os.cpu_count())`` server threads —
    statements overlap each other, a statement itself is
    single-threaded (docs/ENGINE.md, "Concurrency model"). Both runs
    keep the serial bit-identity comparison on.

    The ratio is **honest hardware-dependent measurement**: Python
    threads only overlap compute across real cores, which is why the
    probe never asks for more workers than the host has. On a 1-CPU
    host there is nothing to compare, so the ratio is ``None`` with the
    verdict ``"inconclusive"``; the bit-identity gates still apply.
    """
    host_cpus = os.cpu_count() or 1
    workers = min(4, host_cpus)

    def probe(worker_threads: int) -> OpenLoopReport:
        cluster = ClusterConfig(
            machines=2,
            cores_per_machine=2,
            job_startup_s=1.0,
            worker_threads=worker_threads,
        )
        config = OpenLoopConfig(
            clients=clients,
            queries=queries,
            # saturating: the whole schedule arrives immediately, so
            # wall clock measures service capacity, not offered load
            arrival_rate_qps=1e9,
            rows=rows,
            dims=dims,
            seed=seed,
            templates=SCALING_TEMPLATES,
            cluster=cluster,
            service=ServiceConfig(
                max_concurrency=worker_threads,
                admission_queue_limit=clients * queries,
            ),
        )
        return run_open_loop(config)

    serial = probe(1)
    parallel = probe(workers)
    conclusive = workers > 1 and serial.throughput_qps > 0
    return {
        "workers": workers,
        "queries": queries,
        "clients": clients,
        "rows": rows,
        "dims": dims,
        "host_cpus": host_cpus,
        "serial_qps": round(serial.throughput_qps, 3),
        "parallel_qps": round(parallel.throughput_qps, 3),
        "parallel_vs_serial": (
            round(parallel.throughput_qps / serial.throughput_qps, 3)
            if conclusive
            else None
        ),
        "verdict": "measured" if conclusive else "inconclusive",
        "serial_ok": serial.ok(),
        "parallel_ok": parallel.ok(),
    }


@dataclass
class ServingReport:
    """What ``repro-bench serve`` reports: the open-loop run plus the
    scaling probe's block (None when skipped)."""

    open_loop: OpenLoopReport
    scaling: Optional[Dict[str, object]]

    def ok(self) -> bool:
        """Traffic got through bit-identical to the serial baseline, in
        the main run and in both scaling probes. The probes'
        parallel-vs-serial throughput ratio is recorded but never gated
        on: it tracks the host's real core count."""
        return self.open_loop.ok() and (
            self.scaling is None
            or (self.scaling["serial_ok"] and self.scaling["parallel_ok"])
        )

    def to_json(self) -> Dict[str, object]:
        payload = self.open_loop.to_json()
        if self.scaling is not None:
            payload["scaling"] = self.scaling
        return payload


def run_serving_bench(
    clients: int = 100,
    queries: int = 400,
    rate: float = 200.0,
    seed: int = 0,
    no_scaling: bool = False,
    smoke: bool = False,
) -> ServingReport:
    """The open-loop run, then the scaling probe. ``smoke`` shrinks both
    for CI (still real sockets, still the serial bit-identity
    comparison, still the parallel probe)."""
    small = {}
    if smoke:
        clients, queries, rate = min(clients, 16), min(queries, 64), min(rate, 120.0)
        small = dict(queries=8, clients=4, rows=128, dims=16)
    report = run_open_loop(
        OpenLoopConfig(
            clients=clients, queries=queries, arrival_rate_qps=rate, seed=seed
        )
    )
    scaling = None if no_scaling else measure_scaling(seed=seed, **small)
    return ServingReport(report, scaling)


def format_serving(report: ServingReport) -> str:
    text = format_open_loop(report.open_loop)
    if report.scaling is not None:
        text = text + "\n\n" + format_scaling(report.scaling)
    return text


def format_open_loop(report: OpenLoopReport) -> str:
    """The ``repro-bench serve`` table."""
    lines = [
        f"open-loop serving benchmark — {report.clients} socket client(s), "
        f"Poisson arrivals at {report.offered_qps:.0f} q/s offered",
        f"{'scheduled':<26}{report.scheduled:>12d}",
        f"{'completed':<26}{report.completed:>12d}",
        f"{'errors':<26}{report.errors:>12d}",
        f"{'shed (429)':<26}{report.shed:>12d}",
        f"{'result mismatches':<26}{report.mismatches:>12d}",
        f"{'wall clock (s)':<26}{report.wall_clock_s:>12.2f}",
        f"{'throughput (q/s)':<26}{report.throughput_qps:>12.1f}",
        f"{'latency p50 (ms)':<26}{report.latency_p50_ms:>12.1f}",
        f"{'latency p95 (ms)':<26}{report.latency_p95_ms:>12.1f}",
        f"{'latency p99 (ms)':<26}{report.latency_p99_ms:>12.1f}",
        f"{'latency max (ms)':<26}{report.latency_max_ms:>12.1f}",
        f"{'error rate':<26}{report.error_rate:>12.1%}",
        f"{'shed rate':<26}{report.shed_rate:>12.1%}",
        f"{'pages fetched':<26}{report.pages_fetched:>12d}",
    ]
    if report.errors_by_code:
        codes = ", ".join(
            f"{code}={count}" for code, count in sorted(report.errors_by_code.items())
        )
        lines.append(f"error codes: {codes}")
    verdict = "OK" if report.ok() else "FAILED"
    lines.append(
        f"bit-identity vs serial baseline: {verdict} "
        f"({report.completed} compared, {report.mismatches} mismatch(es))"
    )
    return "\n".join(lines)


def format_scaling(scaling: Dict[str, object]) -> str:
    """The parallel-vs-serial scaling block of the serve report."""
    if scaling["parallel_vs_serial"] is None:
        ratio = f"inconclusive ({scaling['host_cpus']} cpu(s))"
    else:
        ratio = f"{scaling['parallel_vs_serial']:>11.2f}x"
    return "\n".join(
        [
            f"throughput scaling — {scaling['workers']} worker thread(s), "
            f"{scaling['queries']} saturating Gram/regression queries "
            f"({scaling['rows']}x{scaling['dims']})",
            f"{'serial (1 worker) q/s':<26}{scaling['serial_qps']:>12.2f}",
            f"{'parallel q/s':<26}{scaling['parallel_qps']:>12.2f}",
            f"{'parallel vs serial':<26}{ratio:>12}",
            f"{'host cpu count':<26}{scaling['host_cpus']:>12d}",
            "note: Python threads overlap compute only across real "
            "cores, so the probe runs min(4, host cpus) workers and "
            "the ratio tracks the host",
        ]
    )
