"""Tests of the benchmark itself. Not part of the repo's tier-1 suite
(``testpaths`` is ``tests``); run with ``python -m pytest perfbench/``.
The module runs ``run.py --smoke`` twice (tracing off, then on), which
takes about two minutes."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile

import pytest

from common import (
    BASELINE_DIR,
    BENCH_DIR,
    Judge,
    END_TO_END,
    OUT_DIR,
    PER_LAYER,
    REPO_ROOT,
    SRC_DIR,
    WORKLOADS,
)

sys.path.insert(0, str(SRC_DIR))

import embedded  # noqa: E402
import layers  # noqa: E402
from spans import SpanRecorder, load_jsonl, self_times_ns  # noqa: E402
from workloads import embedded_workload, serve_mix  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def run_smoke(trace: int):
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"test_smoke_{trace}.json"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--trace", str(trace),
         "--seed", "5", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return done.returncode, last, json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke():
    return run_smoke(0)


@pytest.fixture(scope="module")
def traced():
    return run_smoke(1)


def test_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_spec_agrees_with_the_code():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        PER_LAYER
    )
    assert SPEC["paths"] == ["perfbench"]


def test_bounds_cover_the_recorded_spread():
    """No bound is below the same-code spread recorded for any workload
    (``setup_s`` aside, which the contract does not gate on spread),
    ``setup_s`` has the largest, and none passes the contract's cap."""
    recorded = json.loads((BASELINE_DIR / "spread.json").read_text())["workloads"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for name, bound in bounds.items():
        assert bound <= bounds["setup_s"] <= 0.25, name
        if name != "setup_s":
            worst = max(metrics[name]["spread"] for metrics in recorded.values())
            assert worst <= bound, name


def test_smoke_result_agrees_with_the_spec(smoke):
    code, last, result = smoke
    assert code == 0 and last["correct"] and last["failed"] == 0
    assert result["claim"] is None
    assert [run["workload"] for run in result["runs"]] == list(WORKLOADS)
    declared = [m["name"] for m in SPEC["end_to_end"]]
    for run in result["runs"]:
        assert list(run["metrics"]) == declared
        assert all(v["value"] > 0 for v in run["metrics"].values())
        reads_writes = [
            stats for cls, stats in run["detail"]["classes"].items()
            if cls != "checkpoint"
        ]
        assert all(stats["n"] >= 20 for stats in reads_writes)
        assert run["detail"]["workload_info"]["flush_policy"]
    assert {"nproc", "python", "numpy", "pins", "load_average"} <= set(result["host"])


def test_traced_result_agrees_with_the_spec(traced):
    code, last, result = traced
    assert code == 0 and last["correct"]
    declared = [m["name"] for m in SPEC["per_layer"]]
    by_workload = {run["workload"]: run["metrics"] for run in result["runs"]}
    for metrics in by_workload.values():
        assert list(metrics) == declared
    # full traced runs (baseline/traced.json) read 0.96-1.0 and 0.33-0.37;
    # a smoke run has five samples a class, so it allows some noise
    share = lambda w: by_workload[w]["engine.execute_share"]["value"]
    assert share("la_vector") > 0.8
    assert share("serve_mix") < 0.5
    # 0.15 is the target; serve_mix sits on it (Database.execute's own
    # work around 0.8 ms statements), so the smoke run allows some noise
    for metrics in by_workload.values():
        assert abs(metrics["trace.unattributed_share"]["value"]) <= 0.25


def test_span_parents_resolve_and_self_times_are_not_negative(traced):
    for workload in WORKLOADS:
        spans = load_jsonl(str(OUT_DIR / f"trace_{workload}.jsonl"))
        assert spans
        ids = {span["id"] for span in spans}
        assert all(s["parent"] is None or s["parent"] in ids for s in spans)
        assert all(s["end_ns"] >= s["start_ns"] for s in spans)
        assert min(self_times_ns(spans).values()) >= 0


def signatures(workload_name: str, seed: int):
    workload = embedded_workload(workload_name, seed)
    workload.plan(2.0)
    return [
        op.signature()
        for index in range(3)
        for group in workload.op_groups(index)
        for op in group
    ]


@pytest.mark.parametrize("name", ["rel_tuple", "ingest_views"])
def test_op_stream_depends_on_the_seed_only(name):
    assert signatures(name, 7) == signatures(name, 7)
    assert signatures(name, 7) != signatures(name, 8)


def test_data_depends_on_the_seed_only():
    data = lambda seed: embedded_workload("la_vector", seed).gram_x.tobytes()
    assert data(7) == data(7) and data(7) != data(8)
    served = lambda seed: [
        op.signature() for op in serve_mix.take(serve_mix.OpStream(seed, 0), 50)
    ]
    assert served(7) == served(7) and served(7) != served(8)


@pytest.mark.parametrize("name", ["rel_tuple", "ingest_views"])
def test_staged_execution_equals_direct(name, monkeypatch):
    with tempfile.TemporaryDirectory(dir=str(OUT_DIR)) as tmp:
        monkeypatch.setattr(tempfile, "tempdir", tmp)
        workload = embedded_workload(name, 3)
        db = embedded.open_workload(workload, 2.0)
        judge = Judge()
        replay = layers.StagedReplay(db, SpanRecorder(), judge)
        for index in range(3):
            records = replay.run_pass(
                embedded.rotated(workload.op_groups(index), index),
                staged_first=index % 2 == 1,
            )
            embedded.judge_pass(records, judge)
        db.close()
    assert replay.select_classes
    assert judge.attempted > 0 and judge.failed == 0, judge.errors
