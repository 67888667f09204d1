"""Micro-benchmark for the two interpreter back ends (``repro-bench exec``).

Runs the paper's Gram / regression / distance computations, and a
filtered GROUP BY and a Top-K over tuple tables — all entries of the
``simsql`` catalogue — at mini scale through
``execution_mode="row"`` and ``"batch"`` and compares *real*
wall-clock time. The simulated :class:`QueryMetrics` and the result rows
must be identical in both modes — the batch-columnar pipeline is a pure
interpreter optimization (see ``docs/ENGINE.md``) — so the report also
verifies the equivalence contract and ``--check`` turns any divergence
(or a batch path that lost its wall-clock lead) into a failing exit code.

Loading is untimed: both modes share the same row-wise INSERT path, and
the interesting number is query execution throughput.

Each case also runs in batch mode on ``PAPER_CLUSTER``'s 80 slots: the
interpreter pays real Python per simulated slot, and the
``slots80_vs_slots4`` ratio is that cost (recorded, never gated). The
row oracle runs that shape once, untimed, so the equivalence contract
covers the 80-slot stages too. The GROUP BY probe (:data:`PROBES`) is
timed and checked like every case but kept out of the geomean gate: it
is there for its "80 vs 4" ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import PAPER_CLUSTER, ClusterConfig, TEST_CLUSTER
from .harness import digest, run_case
from .simsql import cases

#: mini-scale shapes, catalogue key -> (n, d); small enough for CI, large
#: enough that per-tuple interpreter overhead (not constant costs)
#: dominates the measurement
EXEC_SCALES = {
    ("gram", "vector"): (4096, 8),
    ("gram", "tuple"): (384, 6),
    ("group filter", "tuple"): (2048, 8),
    ("top-k", "tuple"): (2048, 8),
    ("regression", "vector"): (3072, 8),
    ("distance", "vector"): (96, 8),
    ("group by", "tuple"): (8192, 1),
}

#: cases recorded and equivalence-checked but outside the geomean gate:
#: the GROUP BY probe of 37 keys, whose states every slot holds at 80
#: slots (its "80 vs 4" ratio is the merge's per-slot cost)
PROBES = {"group by (tuple)"}

#: the --check gate on the batch-vs-row geomean: under half of the 5.0–5.8x
#: measured on the six smoke shapes since operators run once per stage
#: (4.98 / 5.79 / 5.62 over three runs of --repeats 9 on a 2-CPU x86-64
#: host, alternating with 5.15 / 5.12 / 5.06 while every operator looped
#: over slots — the row oracle walks the same stages slot by slot, so
#: the ratio barely moved while batch@80 fell 2.7–4.7x).
#: A ratio taken on one host, so runner speed cancels; at smoke size
#: fixed per-call costs hide most of the kernels' lead
MIN_GEOMEAN_SPEEDUP = 1.9

#: reduced shapes for the CI smoke run (--check)
EXEC_SCALES_SMOKE = {
    ("gram", "vector"): (512, 8),
    ("gram", "tuple"): (96, 6),
    ("group filter", "tuple"): (256, 8),
    ("top-k", "tuple"): (256, 8),
    ("regression", "vector"): (384, 8),
    ("distance", "vector"): (40, 8),
    ("group by", "tuple"): (1024, 1),
}


@dataclass(frozen=True)
class ExecCaseResult:
    name: str
    row_wall_s: float
    batch_wall_s: float
    #: the same batch run on ``PAPER_CLUSTER``'s 80 slots
    batch_wall_80_s: float
    simulated_s: float
    rows_match: bool
    metrics_match: bool
    #: rows and simulated seconds identical in both modes at 80 slots
    match_80: bool

    @property
    def speedup(self) -> float:
        if self.batch_wall_s <= 0:
            return float("inf")
        return self.row_wall_s / self.batch_wall_s

    @property
    def slots80_vs_slots4(self) -> float:
        if self.batch_wall_s <= 0:
            return float("inf")
        return self.batch_wall_80_s / self.batch_wall_s


@dataclass(frozen=True)
class ExecReport:
    cases: List[ExecCaseResult]

    @property
    def all_match(self) -> bool:
        return all(
            case.rows_match and case.metrics_match and case.match_80
            for case in self.cases
        )

    @property
    def geomean_speedup(self) -> float:
        gated = [case for case in self.cases if case.name not in PROBES]
        product = 1.0
        for case in gated:
            product *= case.speedup
        return product ** (1.0 / len(gated)) if gated else 1.0

    def ok(self) -> bool:
        """The --check criterion: identical results and simulated
        metrics in both modes, and the batch path keeping its lead."""
        return self.all_match and self.geomean_speedup >= MIN_GEOMEAN_SPEEDUP


def run_exec_bench(
    config: ClusterConfig = TEST_CLUSTER,
    repeats: int = 3,
    smoke: bool = False,
) -> ExecReport:
    scales = EXEC_SCALES_SMOKE if smoke else EXEC_SCALES
    results = []
    for case in cases(scales):
        row_wall, row_results = run_case(case, config, "row", repeats)
        batch_wall, batch_results = run_case(case, config, "batch", repeats)
        batch_wall_80, batch_80 = run_case(case, PAPER_CLUSTER, "batch", repeats)
        _, row_80 = run_case(case, PAPER_CLUSTER, "row")
        row_sim, batch_sim, row_sim_80, batch_sim_80 = (
            [result.metrics.total_seconds for result in results]
            for results in (row_results, batch_results, row_80, batch_80)
        )
        results.append(
            ExecCaseResult(
                name=case.name,
                row_wall_s=row_wall,
                batch_wall_s=batch_wall,
                batch_wall_80_s=batch_wall_80,
                simulated_s=sum(row_sim),
                rows_match=digest(row_results) == digest(batch_results),
                metrics_match=row_sim == batch_sim,
                match_80=digest(row_80) == digest(batch_80)
                and row_sim_80 == batch_sim_80,
            )
        )
    return ExecReport(results)


def format_exec(report: ExecReport) -> str:
    lines = [
        "Execution-mode micro-benchmark (real wall-clock, row vs batch)",
        "",
        f"{'workload':24} {'row':>9} {'batch':>9} {'speedup':>8}  "
        f"{'batch@80':>9} {'80 vs 4':>8}  {'simulated':>10}  equivalent",
    ]
    for case in report.cases:
        equivalent = (
            "yes"
            if case.rows_match and case.metrics_match and case.match_80
            else "DIVERGED"
        )
        lines.append(
            f"{case.name:24} {case.row_wall_s * 1e3:7.1f}ms "
            f"{case.batch_wall_s * 1e3:7.1f}ms {case.speedup:7.2f}x  "
            f"{case.batch_wall_80_s * 1e3:7.1f}ms {case.slots80_vs_slots4:7.2f}x  "
            f"{case.simulated_s:9.3f}s  {equivalent}"
        )
    lines.append("")
    lines.append(
        f"geometric-mean speedup (all but {', '.join(sorted(PROBES))}): "
        f"{report.geomean_speedup:.2f}x; "
        f"rows and simulated metrics identical in both modes: "
        f"{'yes' if report.all_match else 'NO'} (at 80 slots: "
        f"{'yes' if all(case.match_80 for case in report.cases) else 'NO'})"
    )
    lines.append(
        f"batch@80: the batch run on PAPER_CLUSTER's {PAPER_CLUSTER.slots} "
        "slots (per-slot interpreter cost; recorded, not gated)"
    )
    return "\n".join(lines)
