"""Runner of the three embedded workloads: the timed window (tracing
off) and the traced replay, both driven through public ``repro`` APIs
from inside one child process."""

from __future__ import annotations

import gc
import os
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

import layers
from common import (
    Calibrator,
    Judge,
    Op,
    execute_op,
    latency_metrics,
    load_average,
    normalised_setup,
    vm_hwm_mb,
)
from repro import Database
from spans import SpanRecorder

WARMUP_PASSES = 3
#: the simulated clock is summed over this many timed passes, so the
#: recorded value does not depend on how long the window ran
SIM_PASSES = 8
#: a time-boxed window runs at least this many passes (smoke included)
MIN_PASSES = 20


def open_workload(workload, seconds: float):
    """Set-up: fix the op count, build the database, load the tables."""
    workload.plan(seconds)
    data_dir = tempfile.mkdtemp(prefix=f"{workload.name}-data-")
    db = Database.open(workload.config(data_dir))
    workload.setup(db)
    return db


def rotated(groups: List[List[Op]], pass_index: int) -> List[Op]:
    """Class order rotates per pass; ops inside a group keep theirs."""
    shift = pass_index % len(groups)
    return [op for group in groups[shift:] + groups[:shift] for op in group]


def run_pass(db, ops: List[Op]) -> List[Tuple[Op, object, Optional[str], float]]:
    """Execute a pass back to back; nothing but the calls is timed."""
    records = []
    for op in ops:
        start = time.perf_counter()
        try:
            result, error = execute_op(db, op), None
        except Exception as exc:  # the benchmark counts it and goes on
            result, error = None, f"{op.cls}: {type(exc).__name__}: {exc}"
        records.append((op, result, error, time.perf_counter() - start))
    return records


def judge_pass(records, judge: Judge) -> float:
    """Run every op's numpy oracle (timed: that is the floor of the
    pass), then compare. Returns the floor's seconds."""
    start = time.perf_counter()
    expected = [op.oracle() for op, _, _, _ in records]
    floor_s = time.perf_counter() - start
    for (op, result, error, _), want in zip(records, expected):
        judge.attempted += 1
        if error is not None:
            judge.fail(error)
        elif not op.check(result, want):
            judge.fail(f"{op.cls}: result differs from the numpy oracle")
    return floor_s


def warm_up(db, workload, judge: Judge) -> None:
    """Untimed passes: the plan cache and cardinality feedback settle."""
    for index in range(WARMUP_PASSES):
        judge_pass(run_pass(db, rotated(workload.op_groups(index), index)), judge)


def finish_workload(workload, db, judge: Judge) -> Dict[str, object]:
    """The workload's check after the window (``ingest_views`` abandons
    its database and recovers it); its failures count like any other."""
    finish = workload.finish(db)
    judge.attempted += finish.get("attempted", 0)
    for _ in range(finish.get("failed", 0)):
        judge.fail(f"{workload.name}: check after the window failed: {finish}")
    return finish


def table_bytes(db) -> Dict[str, float]:
    return {
        entry.name: float(entry.storage.total_bytes())
        for entry in db.catalog.tables()
    }


def window_open(workload, done: int, started: float, budget_s: float) -> bool:
    """Whether the window takes another pass: up to the workload's fixed
    count, or at least ``MIN_PASSES`` and until the time budget is spent."""
    if workload.fixed_passes is not None:
        return done < workload.fixed_passes
    return done < MIN_PASSES or time.perf_counter() - started < budget_s


def sim_of(records) -> Tuple[float, float]:
    """(simulated seconds, peak simulated memory) of a pass."""
    seconds, peak = 0.0, 0.0
    for _, result, _, _ in records:
        metrics = getattr(result, "metrics", None)
        if metrics is not None:
            seconds += metrics.total_seconds
            peak = max(peak, metrics.peak_memory_bytes)
    return seconds, peak


# -- the timed window (tracing off) ------------------------------------------------


def run_end_to_end(
    workload, seconds: float, spawned_at: float, setup_only: bool
) -> Dict[str, object]:
    load_start = load_average()
    judge = Judge()
    db = open_workload(workload, seconds)
    warm_up(db, workload, judge)
    gc.collect()
    setup = normalised_setup(spawned_at)
    if setup_only:
        db.close()
        return setup

    calibrator = Calibrator()
    raw: Dict[str, List[Tuple[int, float]]] = defaultdict(list)  # (pass, ms)
    pass_s: List[float] = []
    ratios: List[float] = []
    floor_s: List[float] = []
    sim_records: list = []
    window_start = time.perf_counter()
    done = 0
    while window_open(workload, done, window_start, seconds):
        index = WARMUP_PASSES + done
        records = run_pass(db, rotated(workload.op_groups(index), index))
        for op, _, error, took in records:
            if error is None:
                raw[op.cls].append((done, took * 1e3))
        pass_s.append(sum(took for _, _, _, took in records))
        floor_s.append(judge_pass(records, judge))
        # the floor runs right after its pass, so their ratio needs no
        # correction for the host's speed
        ratios.append(pass_s[-1] / floor_s[-1])
        calibrator.tick()
        if done < SIM_PASSES:
            sim_records.extend(records)
        done += 1

    finish = finish_workload(workload, db, judge)
    sim_seconds, sim_peak = sim_of(sim_records)

    factors = calibrator.factors()
    stats = latency_metrics(
        {cls: [ms / factors[i] for i, ms in samples] for cls, samples in raw.items()},
        workload.kinds,
    )
    window_s = float(np.sum(np.asarray(pass_s) / factors))
    ok = judge.attempted - judge.failed
    return {
        **setup,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "errors": judge.errors,
        "metrics": {
            "ops_per_s": ok / window_s,
            "read_p50_ms": stats["read_p50_ms"],
            "write_p50_ms": stats["write_p50_ms"],
            "overhead_x": float(np.median(ratios)),
            "ok_share": ok / judge.attempted,
            "peak_rss_mb": vm_hwm_mb(),
        },
        "classes": stats["classes"],
        "read_p95_ms": stats["read_p95_ms"],
        "write_p95_ms": stats["write_p95_ms"],
        "host_factor": calibrator.summary(),
        "passes": done,
        "window_s": float(sum(pass_s)),
        "pass_ms": float(np.median(pass_s)) * 1e3,
        "floor_numpy_ms": float(np.median(floor_s)) * 1e3,
        "engine.sim_seconds": sim_seconds,
        "engine.peak_memory_bytes": sim_peak,
        "workload_info": {
            **workload.describe(),
            "table_bytes": table_bytes(db),
            "storage": db.storage.stats(),
        },
        "finish": finish,
        "load_average": [load_start, load_average()],
    }


# -- the traced replay ---------------------------------------------------------------


def run_traced(
    workload, seconds: float, trace_path: str
) -> Dict[str, object]:
    """Replay about the first quarter of the op stream. Even passes run
    untraced, odd passes with a span around every call and, for each
    SELECT, a second execution staged through the layers' public
    functions; the difference between the direct calls of the two kinds
    of pass is the tracing overhead."""
    judge = Judge()
    # a quarter of the window: a fixed-count workload plans its whole
    # shape (checkpoints included) for the shorter replay
    db = open_workload(workload, seconds / 4.0)
    warm_up(db, workload, judge)
    gc.collect()

    recorder = SpanRecorder()
    replay = layers.StagedReplay(db, recorder, judge)
    untraced: Dict[str, List[float]] = defaultdict(list)
    floor_s: List[float] = []
    sim_records: list = []
    counters = layers.Counters()
    folded_before = db.views.stats()["delta_rows"]
    start = time.perf_counter()
    done = 0
    while window_open(workload, done, start, seconds / 4.0):
        index = WARMUP_PASSES + done
        ops = rotated(workload.op_groups(index), index)
        if done % 2 == 0:
            records = run_pass(db, ops)
            for op, _, error, took in records:
                if error is None:
                    untraced[op.cls].append(took * 1e3)
        else:
            # traced passes alternate which execution of a SELECT is first
            records = replay.run_pass(ops, staged_first=done % 4 == 3)
        floor_s.append(judge_pass(records, judge))
        if done < SIM_PASSES:
            sim_records.extend(records)
        counters.absorb(records)
        done += 1

    probe_rows = db.catalog.table(workload.probe_table).storage.all_rows()[:4096]
    schema = db.catalog.table(workload.probe_table).schema
    probes = layers.probe_layers(recorder, schema, probe_rows)
    views = layers.probe_views(
        db, recorder, workload, replay, counters, folded_before
    )
    storage_stats = db.storage.stats()
    finish = finish_workload(workload, db, judge)

    values = layers.zero_metrics()
    values.update(replay.layer_metrics(untraced))
    values.update(probes)
    values.update(views)
    values.update(counters.storage_metrics(storage_stats))
    values.update(layers.kernel_share(workload, replay, probes))
    values["engine.sim_seconds"], values["engine.peak_memory_bytes"] = sim_of(
        sim_records
    )
    values["floor.numpy_ms"] = float(np.median(floor_s)) * 1e3
    tail = latency_metrics(untraced, workload.kinds)
    values["tail.read_p95_ms"] = tail["read_p95_ms"]
    values["tail.write_p95_ms"] = tail["write_p95_ms"]
    if "recover_ms" in finish:
        values["persist.recover_ms"] = finish["recover_ms"]
    recorder.write_jsonl(trace_path)
    return {
        "attempted": judge.attempted,
        "failed": judge.failed,
        "errors": judge.errors,
        "metrics": values,
        "passes": done,
        "spans": len(recorder.spans),
        "trace_file": os.path.relpath(trace_path),
        "finish": finish,
    }
