"""perfbench: the repo's real-clock benchmark. One command runs a
workload in fresh child processes, checks every result against a numpy
oracle, prints every metric by name with its unit, and writes one result
file.

    python3 perfbench/run.py --workload la_vector --seed 3 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke            # all four workloads, < 60 s
    python3 perfbench/run.py --repeat 10 --out perfbench/out/A.json

With ``--trace 0`` (the default) the end-to-end metrics are measured,
tracing off; ``--trace 1`` is a separate, shorter run that yields the
per-layer metrics and ``perfbench/out/trace_<workload>.jsonl``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import (
    BASELINE_DIR,
    BENCH_DIR,
    EMBEDDED,
    END_TO_END,
    OUT_DIR,
    PER_LAYER,
    REPO_ROOT,
    SRC_DIR,
    WORKLOADS,
    child_env,
    host_fingerprint,
    load_average,
    metric,
)

#: set-ups per end-to-end run; ``setup_s`` is their median
SETUP_REPEATS = 5
SMOKE_SECONDS = 3.0
CHILD_TIMEOUT_S = 170
SIM_BASELINE = BASELINE_DIR / "sim_seconds.json"


class BenchError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


def spawn_child(workload: str, seed: int, seconds: float, trace: int,
                tmp_dir, setup_only: bool = False) -> Dict[str, object]:
    command = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(
        command, env=child_env(tmp_dir), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, cwd=str(REPO_ROOT),
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} child exited with code {done.returncode} and no result"
        )
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int,
            setup_repeats: int, tmp_dir) -> Dict[str, object]:
    """One run of one workload: a few set-up-only children, then the
    child that measures. Returns the run's record for the result file."""
    started = time.perf_counter()
    load_start = load_average()
    setups: List[float] = []
    if not trace:
        for _ in range(setup_repeats - 1):
            setups.append(
                spawn_child(workload, seed, seconds, 0, tmp_dir, setup_only=True)[
                    "setup_s"
                ]
            )
    detail = spawn_child(workload, seed, seconds, trace, tmp_dir)
    values = dict(detail.pop("metrics"))
    if not trace:
        setups.append(detail["setup_s"])
        values["setup_s"] = statistics.median(setups)
    declared = PER_LAYER if trace else END_TO_END
    missing = [name for name, _, _ in declared if name not in values]
    extra = sorted(set(values) - {name for name, _, _ in declared})
    if missing or extra:
        raise BenchError(
            f"{workload}: metrics missing {missing} or undeclared {extra}"
        )
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: metric(name, values[name]) for name, _, _ in declared},
        "setup_samples_s": setups,
        "wall_s": time.perf_counter() - started,
        "load_average": [load_start, load_average()],
        "detail": detail,
    }


# -- the simulated clock's baseline ---------------------------------------------------


def sim_seconds_of(run: Dict[str, object]) -> Optional[float]:
    if run["workload"] not in EMBEDDED:
        return None
    if run["trace"]:
        return run["metrics"]["engine.sim_seconds"]["value"]
    return run["detail"]["engine.sim_seconds"]


def check_sim_baseline(runs: List[Dict[str, object]], rebaseline: bool) -> List[str]:
    """The simulated (paper) clock must repeat exactly for a seed: a
    value that differs from the recorded one means the paper clock
    changed, which only ``--rebaseline`` may accept."""
    recorded = json.loads(SIM_BASELINE.read_text()) if SIM_BASELINE.exists() else {}
    problems = []
    for run in runs:
        value = sim_seconds_of(run)
        if value is None:
            continue
        per_seed = recorded.setdefault(run["workload"], {})
        key = str(run["seed"])
        if rebaseline or key not in per_seed:
            if rebaseline:
                per_seed[key] = value
        elif per_seed[key] != value:
            problems.append(
                f"{run['workload']} seed {key}: engine.sim_seconds {value!r} "
                f"differs from the recorded {per_seed[key]!r}"
            )
    if rebaseline:
        SIM_BASELINE.parent.mkdir(parents=True, exist_ok=True)
        SIM_BASELINE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return problems


# -- output ----------------------------------------------------------------------------------


def print_run(run: Dict[str, object]) -> None:
    mode = "per-layer (traced)" if run["trace"] else "end-to-end (tracing off)"
    print(f"== {run['workload']}  seed {run['seed']}  {mode}  "
          f"{run['wall_s']:.1f} s wall ==")
    for name, value in run["metrics"].items():
        print(f"  {name:<42} {value['value']:>16.6g} {value['unit']}")
    detail = run["detail"]
    for cls, stats in sorted(detail.get("classes", {}).items()):
        flag = "" if stats["p95_supported"] else "  (p95 has < 10 samples beyond it)"
        print(f"    class {cls:<20} n={stats['n']:<6} p50 {stats['p50_ms']:.3f} ms"
              f"  p95 {stats['p95_ms']:.3f} ms{flag}")
    if "floor_numpy_ms" in detail:
        print(f"  overhead_x base: numpy floor {detail['floor_numpy_ms']:.6g} ms")
    print(f"  attempted {run['attempted']}  failed {run['failed']}")
    for error in detail.get("errors", []):
        print(f"  error: {error}")


def last_line(runs: List[Dict[str, object]]) -> str:
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {
            f"{run['workload']}.{run['seed']}.{name}": value
            for run in runs
            for name, value in run["metrics"].items()
        }
    return json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="short windows, one set-up, no bounds applied")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--rebaseline", action="store_true",
                        help="record engine.sim_seconds in perfbench/baseline/")
    parser.add_argument("--out", default=str(OUT_DIR / "result.json"))
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro" / "__init__.py").exists():
        print(f"perfbench: no program to measure at {SRC_DIR / 'repro'}",
              file=sys.stderr)
        return 2

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    setup_repeats = 1 if args.smoke else SETUP_REPEATS
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    tmp_dir = OUT_DIR / "tmp" / f"run-{time.time_ns()}"
    tmp_dir.mkdir(parents=True)
    load_start = load_average()
    runs: List[Dict[str, object]] = []
    try:
        for workload in workloads:
            for seed in range(args.seed, args.seed + args.repeat):
                run = run_one(workload, seed, seconds, args.trace,
                              setup_repeats, tmp_dir)
                print_run(run)
                runs.append(run)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    problems = check_sim_baseline(runs, args.rebaseline)
    result = {
        "schema": 1,
        "claim": None,
        "smoke": args.smoke,
        "host": {**host_fingerprint(), "load_average": [load_start, load_average()]},
        "runs": runs,
        "problems": problems,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(last_line(runs))
    failed = sum(run["failed"] for run in runs)
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
