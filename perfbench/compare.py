"""Compare two result files of ``run.py`` (several runs per workload,
made with ``--repeat``), or record the spread between same-code sets.

    python3 perfbench/compare.py A.json B.json
    python3 perfbench/compare.py --spread set1.json set2.json set3.json

One row per workload x end-to-end metric: both medians with their
quartiles, the ratio B/A with its base, and a verdict. ``worse`` means
B's median is worse than A's by more than the metric's bound;
``unresolved`` means the same-code spread (A's own quartile distance, or
the one recorded in ``baseline/spread.json`` if larger) exceeds the
bound, so the row cannot tell; ``better`` needs a gain beyond that
spread. Per-layer metrics of traced runs are listed beside the
end-to-end metric they are expected to move. Exits 1 on any ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

from common import BASELINE_DIR, END_TO_END, REPO_ROOT

SPREAD_FILE = BASELINE_DIR / "spread.json"

#: which per-layer metrics should move which end-to-end metric (the
#: table in README.md); a per-layer metric appears under each
MOVES: Dict[str, Tuple[str, ...]] = {
    "read_p50_ms": (
        "sql.parse_ms", "plan.bind_ms", "plan.optimize_ms", "plan.physical_ms",
        "engine.execute_ms", "la.kernel_ms", "columnar.build_ms",
        "storage.segment_decode_ms", "storage.pool_hit_rate", "views.hit_rate",
        "service.session_ms", "server.decode_ms", "server.encode_ms",
        "server.wire_ms", "storage.pool_evictions",
        "storage.segments_pruned_share", "server.cursor_retry_share",
        "tail.read_p95_ms",
    ),
    "write_p50_ms": (
        "storage.wal_append_ms", "catalog.append_stats_ms", "views.fold_ms",
        "views.maintain_tax_x", "storage.segment_encode_ms", "tail.write_p95_ms",
    ),
    "ops_per_s": (
        "engine.rows_in_per_s", "persist.checkpoint_ms",
        "service.plan_cache_hit_rate", "server.max_rate_ok_qps",
    ),
    "overhead_x": ("engine.execute_share", "la.kernel_share", "floor.numpy_ms"),
    "setup_s": ("catalog.collect_stats_ms", "persist.recover_ms"),
    "peak_rss_mb": ("engine.peak_memory_bytes", "storage.bytes_per_user_byte"),
}


def load(path: str) -> Dict[int, Dict[str, Dict[str, List[float]]]]:
    """{trace: {workload: {metric: [values]}}}"""
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    out = {0: defaultdict(lambda: defaultdict(list)),
           1: defaultdict(lambda: defaultdict(list))}
    for run in result["runs"]:
        for name, value in run["metrics"].items():
            out[run["trace"]][run["workload"]][name].append(value["value"])
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def worsening(better: str, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of base."""
    if not base:
        return 0.0
    change = (other - base) / base
    return change if better == "lower" else -change


def recorded_spread() -> Dict[str, Dict[str, float]]:
    if not SPREAD_FILE.exists():
        return {}
    record = json.loads(SPREAD_FILE.read_text())
    return {
        workload: {name: row["spread"] for name, row in metrics.items()}
        for workload, metrics in record["workloads"].items()
    }


def compare(path_a: str, path_b: str) -> int:
    bounds = {
        row["name"]: row["bound"]
        for row in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    a, b = load(path_a), load(path_b)
    known = recorded_spread()
    worse = 0
    for workload in a[0]:
        if workload not in b[0]:
            continue
        print(f"== {workload} ==  (A = {path_a}, B = {path_b})")
        print(f"  {'metric':<14}{'A median [q1, q3]':>36}{'B median [q1, q3]':>36}"
              f"{'B/A':>9}  {'bound':>6} {'spread':>7}  verdict")
        for name, unit, better in END_TO_END:
            va, vb = a[0][workload][name], b[0][workload][name]
            q1a, ma, q3a = quartiles(va)
            q1b, mb, q3b = quartiles(vb)
            spread = max(relative_spread(va), known.get(workload, {}).get(name, 0.0))
            change = worsening(better, ma, mb)
            bound = bounds[name]
            if spread > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                worse += 1
            elif change < -spread and change < 0:
                verdict = "better"
            else:
                verdict = "same"
            ratio = mb / ma if ma else float("nan")
            print(f"  {name:<14}"
                  f"{ma:>14.5g} [{q1a:.5g}, {q3a:.5g}]".ljust(50)
                  + f"{mb:>14.5g} [{q1b:.5g}, {q3b:.5g}]".ljust(36)
                  + f"{ratio:>9.3f}x of {ma:.5g} {unit}  {bound:>5.2f} {spread:>7.3f}"
                  f"  {verdict}  (n={len(va)}/{len(vb)})")
            for layer in MOVES.get(name, ()):
                la, lb = a[1][workload].get(layer), b[1][workload].get(layer)
                if la and lb:
                    print(f"      {layer:<40}{statistics.median(la):>14.6g}"
                          f" -> {statistics.median(lb):<14.6g}")
    print(f"{worse} row(s) worse")
    return 1 if worse else 0


def record_spread(paths: List[str]) -> int:
    """Per workload x end-to-end metric over same-code sets: each set's
    median and quartile distance, and the largest of the quartile
    distances and of the gaps between set medians — the spread a bound
    must not be set below."""
    sets = [load(path)[0] for path in paths]
    record: Dict[str, Dict[str, Dict[str, object]]] = {}
    for workload in sets[0]:
        record[workload] = {}
        for name, _, _ in END_TO_END:
            medians = [statistics.median(s[workload][name]) for s in sets]
            iqrs = [relative_spread(s[workload][name]) for s in sets]
            centre = statistics.median(medians)
            gap = (max(medians) - min(medians)) / centre if centre else 0.0
            record[workload][name] = {
                "set_medians": medians,
                "set_quartile_distance_share": iqrs,
                "median_gap_share": gap,
                "spread": max(iqrs + [gap]),
            }
            print(f"{workload:<14}{name:<14} medians "
                  + " ".join(f"{m:.5g}" for m in medians)
                  + "  iqr/median " + " ".join(f"{i:.3f}" for i in iqrs)
                  + f"  gap {gap:.3f}")
    SPREAD_FILE.write_text(
        json.dumps({"sets": paths, "workloads": record}, indent=1) + "\n"
    )
    print(f"wrote {SPREAD_FILE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("files", nargs="+", help="result files of run.py")
    parser.add_argument("--spread", action="store_true",
                        help="record the spread between same-code sets")
    args = parser.parse_args(argv)
    if args.spread:
        return record_spread(args.files)
    if len(args.files) != 2:
        parser.error("give exactly two result files, A and B")
    return compare(*args.files)


if __name__ == "__main__":
    sys.exit(main())
