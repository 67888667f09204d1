"""Per-layer measurement for the traced run, all from outside ``repro``.

``StagedReplay`` executes each op once directly and, for a SELECT, once
more stage by stage through the layers' public functions with a span
around every call. ``probe_*`` time single layer functions standalone on
copies of the workload's own rows. Nothing here touches a private
attribute of the program.
"""

from __future__ import annotations

import os
import tempfile
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

import numpy as np

from common import PER_LAYER, Op, execute_op
from repro import ClusterConfig, Database, Matrix, Vector
from repro.catalog import append_stats, collect_stats
from repro.columnar import ColumnData
from repro.engine import Executor
from repro.la import lookup, lookup_aggregate
from repro.plan import Binder, Optimizer, PhysicalPlanner
from repro.server import decode_params, encode_result
from repro.service import QueryService
from repro.sql import ast, parse_statement
from repro.storage import WriteAheadLog, decode_segment, encode_segment, read_wal
from repro.views import ViewMatcher

STAGES = ("sql.parse", "plan.bind", "plan.optimize", "plan.physical", "engine.execute")
PROBE_REPEATS = 7
MIN_OVERHEAD_SAMPLES = 5


def zero_metrics() -> Dict[str, float]:
    """Every per-layer metric at 0: a workload that never enters a layer
    leaves that layer's metrics there."""
    return {name: 0.0 for name, _, _ in PER_LAYER}


def user_bytes(rows: Sequence[tuple]) -> int:
    """Bytes of user data in rows: 8 per number, 8 per tensor element."""
    total = 0
    for row in rows:
        for value in row:
            if isinstance(value, (Vector, Matrix)):
                total += value.data.size * 8
            else:
                total += 8
    return total


def cells_equal(left, right) -> bool:
    a, b = getattr(left, "data", left), getattr(right, "data", right)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return bool(left == right)


def rows_equal(left: Sequence[tuple], right: Sequence[tuple]) -> bool:
    """Exact equality: the staged execution runs the same code on the
    same data as the direct one."""
    return len(left) == len(right) and all(
        len(r1) == len(r2) and all(cells_equal(a, b) for a, b in zip(r1, r2))
        for r1, r2 in zip(left, right)
    )


def scan_rows(trace) -> int:
    """Rows the leaf operators (scans) fed into a statement's plan."""
    if trace is None:
        return 0
    if not trace.children:
        return int(trace.rows_out)
    return sum(scan_rows(child) for child in trace.children)


def class_medians(samples: Dict[str, List[float]]) -> Dict[str, float]:
    return {cls: float(np.median(values)) for cls, values in samples.items()}


# -- counts taken at the layer boundaries ---------------------------------------


class Counters:
    """Counts from ``Result.metrics`` of every direct statement."""

    def __init__(self) -> None:
        self.pool_hits = 0
        self.pool_misses = 0
        self.segments_pruned = 0
        self.segments_scanned = 0
        self.spill_bytes = 0.0
        self.view_hits = 0
        self.view_misses = 0
        #: ``db.load`` calls per table
        self.loads: Dict[str, int] = defaultdict(int)

    def absorb(self, records) -> None:
        for op, result, _, _ in records:
            if op.action == "load":
                self.loads[op.table.lower()] += 1
            metrics = getattr(result, "metrics", None)
            if metrics is None:
                continue
            self.pool_hits += metrics.pool_hits
            self.pool_misses += metrics.pool_misses
            self.segments_pruned += metrics.segments_pruned
            self.segments_scanned += metrics.segments_scanned
            self.spill_bytes += metrics.spill_bytes
            self.view_hits += metrics.view_hits
            self.view_misses += metrics.view_misses

    def storage_metrics(self, storage_stats: Dict[str, object]) -> Dict[str, float]:
        reads = self.pool_hits + self.pool_misses
        segments = self.segments_pruned + self.segments_scanned
        pool = storage_stats.get("buffer_pool", {})
        return {
            "storage.pool_hit_rate": self.pool_hits / reads if reads else 0.0,
            "storage.pool_evictions": float(pool.get("evictions", 0)),
            "storage.segments_pruned_share": (
                self.segments_pruned / segments if segments else 0.0
            ),
            "storage.spill_bytes": float(self.spill_bytes),
        }


# -- direct + staged execution --------------------------------------------------------


class StagedReplay:
    def __init__(self, db, recorder, judge):
        self.db = db
        self.recorder = recorder
        self.judge = judge
        self.op_id = 0
        #: per class, per span name: durations in ms
        self.samples: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.select_classes: set = set()
        self.rows_in = 0
        self.wal_bytes = 0
        self.appended_user_bytes = 0
        self.checkpoint_ratios: List[float] = []

    def staged_select(self, statement, params, parent):
        """The SELECT pipeline of ``Database.execute``, one public call
        per stage."""
        db = self.db
        with parent.child("plan.bind"):
            plan = Binder(db.catalog, dict(params or {})).bind_select(statement)
        with parent.child("plan.optimize"):
            logical = Optimizer(
                db.cost_model, view_matcher=ViewMatcher(db.catalog)
            ).optimize(plan)
        with parent.child("plan.physical"):
            physical = PhysicalPlanner(db.cost_model).plan(logical)
        with parent.child("engine.execute"):
            rows, _ = Executor(
                db.cluster, db.execution_mode, storage=db.storage
            ).run(physical)
        return rows

    def begin(self, op: Op):
        self.op_id += 1
        return self.recorder.span("op", op=self.op_id, cls=op.cls)

    def staged(self, root, op: Op, params):
        """The staged execution of a statement: ``sql.parse`` always,
        the SELECT pipeline for a SELECT. Returns the SELECT's rows."""
        staged = root.child("staged")
        with staged:
            with staged.child("sql.parse"):
                statement = parse_statement(op.sql)
            if not isinstance(statement, ast.SelectStatement):
                return None
            return self.staged_select(statement, params, staged)

    def compare(self, op: Op, staged_rows, direct_result) -> None:
        """Staged rows must equal direct rows."""
        if staged_rows is None:
            return
        self.select_classes.add(op.cls)
        self.rows_in += scan_rows(direct_result.metrics.trace)
        self.judge.attempted += 1
        if not rows_equal(staged_rows, direct_result.rows):
            self.judge.fail(f"{op.cls}: staged rows != direct rows")

    def collect(self, root, second: Optional[str] = None) -> None:
        """File the op's span durations by class and name. The second of
        the two executions of a SELECT (``"direct"`` or ``"staged"``)
        runs on whatever caches the first one filled — after an append,
        the first scan rebuilds the tail segment's metadata — so its
        spans are kept apart under ``<name>@second`` and only first
        executions are compared with each other."""
        spans = self.recorder.spans[root.id:]
        staged_ids = {span.id for span in spans if span.name == "staged"}
        for span in spans:
            in_staged = span.id in staged_ids or span.parent in staged_ids
            is_second = (second == "staged" and in_staged) or (
                second == "direct" and span.name == "direct"
            )
            name = span.name + "@second" if is_second else span.name
            self.samples[root.cls][name].append(span.ms)

    def run_op(self, op: Op, staged_first: bool):
        """One traced op; returns ``(result, error, direct seconds)``.
        A SELECT is executed twice, directly and staged, in the order
        the caller alternates; a write is executed once and only parsed
        in its staged span."""
        db = self.db
        root = self.begin(op)
        staged_first = staged_first and op.kind == "read"
        durable = db.durability if op.action == "load" else None
        wal_before = durable.wal_bytes() if durable is not None else 0
        rows = None
        with root:
            if staged_first:
                rows = self.staged(root, op, op.params)
            direct = root.child("direct")
            try:
                with direct:
                    result, error = execute_op(db, op), None
            except Exception as exc:  # counted by the caller's judge
                result, error = None, f"{op.cls}: {type(exc).__name__}: {exc}"
            if op.action == "sql" and error is None and not staged_first:
                rows = self.staged(root, op, op.params)
        if error is None:
            self.compare(op, rows, result)
        if durable is not None and error is None:
            self.wal_bytes += durable.wal_bytes() - wal_before
            self.appended_user_bytes += user_bytes(op.rows)
        if op.action == "checkpoint" and error is None:
            self.checkpoint_ratios.append(
                os.path.getsize(result) / max(1, database_user_bytes(db))
            )
        if op.kind != "read":
            self.collect(root)  # a write is executed once
        else:
            self.collect(root, "direct" if staged_first else "staged")
        return result, error, direct.ms / 1e3

    def run_pass(self, ops: List[Op], staged_first: bool) -> list:
        return [(op, *self.run_op(op, staged_first)) for op in ops]

    # -- numbers ---------------------------------------------------------------------

    def stage_medians(self, name: str) -> Dict[str, float]:
        return class_medians(
            {cls: s[name] for cls, s in self.samples.items() if s.get(name)}
        )

    def layer_metrics(
        self, untraced: Dict[str, List[float]], call: str = "direct"
    ) -> Dict[str, float]:
        """Stage times (mean over the SELECT classes of the class
        median), the share of a SELECT that is ``engine.execute``, what
        the stages leave unattributed, and the tracing overhead: the
        ``call`` span of traced ops against the same call untraced."""
        direct = self.stage_medians("direct")
        selects = sorted(self.select_classes)
        out: Dict[str, float] = {}
        staged_total = 0.0
        for stage in STAGES:
            medians = self.stage_medians(stage)
            values = [medians[cls] for cls in selects if cls in medians]
            out[stage + "_ms"] = float(np.mean(values)) if values else 0.0
            staged_total += sum(values)
        direct_total = sum(direct[cls] for cls in selects)
        execute = self.stage_medians("engine.execute")
        execute_total = sum(execute.get(cls, 0.0) for cls in selects)
        if direct_total > 0:
            out["engine.execute_share"] = execute_total / direct_total
            out["trace.unattributed_share"] = (
                direct_total - staged_total
            ) / direct_total
        execute_s = sum(
            sum(s["engine.execute"]) for s in self.samples.values()
        ) / 1e3
        out["engine.rows_in_per_s"] = self.rows_in / execute_s if execute_s else 0.0
        plain = class_medians(untraced)
        traced = self.stage_medians(call)
        # classes with a handful of samples (checkpoints) would swamp the sums
        shared = [
            cls for cls in traced
            if len(untraced.get(cls, ())) >= MIN_OVERHEAD_SAMPLES
            and len(self.samples[cls][call]) >= MIN_OVERHEAD_SAMPLES
        ]
        if shared:
            out["trace.overhead_share"] = (
                sum(traced[cls] for cls in shared)
                / sum(plain[cls] for cls in shared)
                - 1.0
            )
        checkpoints = self.samples.get("checkpoint", {}).get("direct")
        if checkpoints:
            out["persist.checkpoint_ms"] = float(np.median(checkpoints))
            out["persist.checkpoint_bytes_per_user_byte"] = float(
                np.median(self.checkpoint_ratios)
            )
        if self.appended_user_bytes:
            out["storage.wal_bytes_per_user_byte"] = (
                self.wal_bytes / self.appended_user_bytes
            )
        return out



class ServedReplay(StagedReplay):
    """``serve_mix``'s traced op: the HTTP round trip to the server
    process, then the same statement in-process on an identical
    database — through ``Session.execute``, directly, and staged — with
    the wire codec's two functions timed alone."""

    def __init__(self, db, recorder, judge):
        super().__init__(db, recorder, judge)
        self.session = QueryService(db).session("replay")
        self.sim_seconds = 0.0
        self.sim_peak = 0.0

    def run_op(self, op: Op, outcome, http_call) -> None:
        db = self.db
        root = self.begin(op)
        with root:
            with root.child("server.http"):
                http_call()
            with root.child("server.decode"):
                params = decode_params(op.params)
            with root.child("service.session"):
                served = self.session.execute(op.sql, params)
            if op.kind == "read":
                with root.child("direct"):
                    direct = db.execute(op.sql, params)
            else:
                # the session already applied the write to the replica
                direct = None
            rows = self.staged(root, op, params)
            if direct is not None:
                with root.child("server.encode"):
                    encode_result(direct.columns, direct.rows)
        if direct is not None:
            self.compare(op, rows, direct)
            self.sim_seconds += direct.metrics.total_seconds
            self.sim_peak = max(self.sim_peak, direct.metrics.peak_memory_bytes)
            self.judge.attempted += 1
            if not rows_equal(served.rows, direct.rows) or (
                outcome.error is None and not rows_equal(outcome.rows, direct.rows)
            ):
                self.judge.fail(f"{op.cls}: served rows != in-process rows")
        self.collect(root)

    def served_metrics(self) -> Dict[str, float]:
        """The serving layers' self times, each a mean over the classes
        of differences of class medians: ``server.wire`` is the round
        trip minus the in-process session call; ``service.session`` is
        that call minus the parse and execute stages under it (the plan
        cache makes bind/optimize/physical a miss-only cost)."""
        http = self.stage_medians("server.http")
        session = self.stage_medians("service.session")
        parse = self.stage_medians("sql.parse")
        execute = self.stage_medians("engine.execute")
        selects = sorted(self.select_classes)
        out = {
            "server.decode_ms": float(
                np.mean(list(self.stage_medians("server.decode").values()))),
            "server.encode_ms": float(
                np.mean(list(self.stage_medians("server.encode").values()))),
            "server.wire_ms": float(
                np.mean([http[cls] - session[cls] for cls in http])),
            "service.session_ms": float(np.mean(
                [session[cls] - parse[cls] - execute[cls] for cls in selects])),
            # of the whole round trip, not of the in-process call
            "engine.execute_share": sum(execute[cls] for cls in selects)
            / sum(http[cls] for cls in selects),
        }
        return out


def database_user_bytes(db) -> int:
    return sum(
        user_bytes(entry.storage.all_rows()) for entry in db.catalog.tables()
    )


# -- standalone layer probes --------------------------------------------------------------


def timed_ms(recorder, name: str, call, repeats: int = PROBE_REPEATS) -> float:
    """Median of ``repeats`` spans around ``call``."""
    samples = []
    for _ in range(repeats):
        with recorder.span(name, cls="probe") as span:
            call()
        samples.append(span.ms)
    return float(np.median(samples))


def kernel_ms(recorder, rows: Sequence[tuple]) -> float:
    """``outer_product`` over prebuilt ``Vector``s plus the SUM fold: the
    ``la`` kernels behind a Gram matrix, without the engine around them."""
    position = next(
        (i for i, value in enumerate(rows[0]) if isinstance(value, Vector)), None
    )
    if position is None:
        return 0.0
    vectors = [row[position] for row in rows]
    outer = lookup("outer_product")
    total = lookup_aggregate("SUM")
    indices = list(range(len(vectors)))

    def kernel():
        if outer.batch_impl is not None:
            products = outer.batch_impl([vectors, vectors], indices)
        else:
            products = [outer.impl(v, v) for v in vectors]
        state = total.create()
        for product in products:
            state = total.add(state, product)
        return total.finish(state)

    return timed_ms(recorder, "la.kernel", kernel)


def probe_layers(recorder, schema, rows: Sequence[tuple]) -> Dict[str, float]:
    """``columnar``, the segment codec, ``catalog.statistics`` and the
    ``la`` kernels, each timed alone on the probe table's rows."""
    rows = list(rows)
    width = len(rows[0])
    columns = list(zip(*rows))
    batch = rows[-64:]
    blob, _ = encode_segment(rows, width)
    out = {
        "columnar.build_ms": timed_ms(
            recorder,
            "columnar.build",
            lambda: [ColumnData.from_values(column) for column in columns],
        ),
        "storage.segment_encode_ms": timed_ms(
            recorder, "storage.segment_encode", lambda: encode_segment(rows, width)
        ),
        "storage.segment_decode_ms": timed_ms(
            recorder, "storage.segment_decode", lambda: decode_segment(blob)
        ),
        "storage.bytes_per_user_byte": len(blob) / user_bytes(rows),
        "catalog.collect_stats_ms": timed_ms(
            recorder, "catalog.collect_stats", lambda: collect_stats(schema, rows)
        ),
        "la.kernel_ms": kernel_ms(recorder, rows),
    }
    stats = collect_stats(schema, rows)
    out["catalog.append_stats_ms"] = timed_ms(
        recorder, "catalog.append_stats", lambda: append_stats(stats, schema, batch)
    )
    return out


def kernel_share(workload, replay: StagedReplay, probes) -> Dict[str, float]:
    """Share of the kernel class's ``engine.execute`` that the bare
    kernels account for (only where a class runs exactly that kernel
    over the probe table)."""
    cls = getattr(workload, "kernel_class", None)
    execute = replay.stage_medians("engine.execute").get(cls)
    if not execute:
        return {}
    return {"la.kernel_share": probes["la.kernel_ms"] / execute}


def probe_views(db, recorder, workload, replay: StagedReplay,
                counters: Counters, folded_before: int) -> Dict[str, float]:
    """The write path's layers: counts of what maintenance folded, the
    tax of a viewed append over a plain one, and — on a copy of one
    batch — the view fold (a deferred-mode REFRESH over exactly one batch
    in a scratch database) and the WAL append (the program's own last
    ``load`` record appended to a scratch log, one fsync each)."""
    out: Dict[str, float] = {}
    views = db.catalog.materialized_views()
    if views:
        viewed = {table for view in views for table in view.base_tables}
        appends = sum(counters.loads[table] for table in viewed)
        folded = db.views.stats()["delta_rows"] - folded_before
        out["views.folded_rows_per_append"] = (
            folded / (appends * len(views)) if appends else 0.0
        )
        reads = counters.view_hits + counters.view_misses
        out["views.hit_rate"] = counters.view_hits / reads if reads else 0.0
        out["views.fold_ms"] = fold_ms(recorder, workload)
        direct = replay.stage_medians("direct")
        taxed, plain = workload.tax_classes
        out["views.maintain_tax_x"] = direct[taxed] / direct[plain]
    if db.durability is not None:
        out["storage.wal_append_ms"] = wal_append_ms(
            recorder, db.durability.wal_path
        )
    return out


def fold_ms(recorder, workload) -> float:
    table_sql, view_sql, view_name, table, rows = workload.fold_probe()
    scratch = Database(
        ClusterConfig(
            machines=2,
            cores_per_machine=2,
            job_startup_s=1.0,
            view_refresh_mode="deferred",
        )
    )
    scratch.execute(table_sql)
    scratch.execute(view_sql)
    scratch.load(table, rows)
    refresh = f"REFRESH MATERIALIZED VIEW {view_name}"
    return timed_ms(recorder, "views.fold", lambda: scratch.execute(refresh))


def wal_append_ms(recorder, wal_path: str) -> float:
    records, _, _ = read_wal(wal_path)
    loads = [record for record in records if record.get("kind") == "load"]
    if not loads:
        return 0.0
    handle, path = tempfile.mkstemp(prefix="probe-wal-")
    os.close(handle)
    os.unlink(path)
    log = WriteAheadLog(path)
    try:
        return timed_ms(
            recorder, "storage.wal_append", lambda: log.append(loads[-1])
        )
    finally:
        log.close()
        os.unlink(path)
