"""Out-of-core micro-benchmark (``repro-bench spill``).

Runs the paper's Gram / regression / distance computations at mini scale
three ways: unconstrained (the whole working set fits the buffer pool),
and with a spill-forcing ``buffer_pool_bytes`` under both storage back
ends (``storage_mode="memory"`` simulates the spill I/O; ``"disk"``
physically round-trips operator state through the segment codec). The
result rows must be bit-identical in all three configurations and the
constrained runs must actually spill — ``--check`` turns any divergence,
or a constrained run that never spilled, into a failing exit code.

Loading is untimed, as in the exec benchmark; the interesting numbers
are the spill volume the budget induces and the real wall-clock price of
physically writing it out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import ClusterConfig, TEST_CLUSTER
from .harness import digest, run_case
from .simsql import cases

#: mini-scale shapes, catalogue key -> (n, d): large enough that the
#: spill-forcing budget is hit by every workload, small enough for CI
SPILL_SCALES = {
    ("gram", "vector"): (2048, 8),
    ("regression", "vector"): (1536, 8),
    ("distance", "vector"): (64, 8),
}

#: reduced shapes for the CI smoke run (--check)
SPILL_SCALES_SMOKE = {
    ("gram", "vector"): (384, 8),
    ("regression", "vector"): (256, 8),
    ("distance", "vector"): (48, 8),
}

#: a budget far below any of the working sets above, so every exchange
#: stage, join build and aggregation state overflows it
SPILL_BUDGET_BYTES = 512.0
SPILL_SEGMENT_ROWS = 64


@dataclass(frozen=True)
class SpillCaseResult:
    name: str
    base_wall_s: float  #: unconstrained, memory back end
    memory_wall_s: float  #: spill-forcing budget, simulated spill I/O
    disk_wall_s: float  #: spill-forcing budget, physical round trips
    base_simulated_s: float
    spill_simulated_s: float
    spill_bytes: float
    spill_events: int
    rows_match: bool

    @property
    def spilled(self) -> bool:
        return self.spill_bytes > 0 and self.spill_events > 0


@dataclass(frozen=True)
class SpillReport:
    cases: List[SpillCaseResult]

    @property
    def all_match(self) -> bool:
        return all(case.rows_match for case in self.cases)

    @property
    def all_spilled(self) -> bool:
        return all(case.spilled for case in self.cases)

    def ok(self) -> bool:
        """The --check criterion: every constrained run spilled, and
        results stayed bit-identical to the unconstrained baseline."""
        return self.all_match and self.all_spilled


def _simulated(results) -> tuple:
    """One run's simulated seconds and spill counters, summed over its
    statements."""
    return (
        sum(result.metrics.total_seconds for result in results),
        sum(result.metrics.spill_bytes for result in results),
        sum(result.metrics.spill_events for result in results),
    )


def run_spill_bench(
    config: ClusterConfig = TEST_CLUSTER, smoke: bool = False
) -> SpillReport:
    scales = SPILL_SCALES_SMOKE if smoke else SPILL_SCALES
    base_config = config.with_updates(storage_mode="memory")
    constrained = dict(
        buffer_pool_bytes=SPILL_BUDGET_BYTES,
        segment_rows=SPILL_SEGMENT_ROWS,
    )
    memory_config = config.with_updates(storage_mode="memory", **constrained)
    disk_config = config.with_updates(storage_mode="disk", **constrained)
    results = []
    for case in cases(scales):
        base_wall, base = run_case(case, base_config)
        memory_wall, memory = run_case(case, memory_config)
        disk_wall, disk = run_case(case, disk_config)
        base_sim, _, base_events = _simulated(base)
        memory_sim, spill_bytes, spill_events = _simulated(memory)
        disk_sim, disk_bytes, disk_events = _simulated(disk)
        results.append(
            SpillCaseResult(
                name=case.name,
                base_wall_s=base_wall,
                memory_wall_s=memory_wall,
                disk_wall_s=disk_wall,
                base_simulated_s=base_sim,
                spill_simulated_s=disk_sim,
                spill_bytes=spill_bytes,
                spill_events=spill_events,
                rows_match=(
                    digest(base) == digest(memory) == digest(disk)
                    and base_events == 0
                    # both constrained back ends must charge the same
                    # simulated spills
                    and memory_sim == disk_sim
                    and (spill_bytes, spill_events)
                    == (disk_bytes, disk_events)
                ),
            )
        )
    return SpillReport(results)


def format_spill(report: SpillReport) -> str:
    lines = [
        "Out-of-core micro-benchmark "
        f"(buffer pool {SPILL_BUDGET_BYTES:.0f} B vs unconstrained)",
        "",
        f"{'workload':24} {'base':>9} {'spill':>9} {'disk':>9} "
        f"{'spilled':>11} {'events':>7}  equivalent",
    ]
    for case in report.cases:
        equivalent = "yes" if case.rows_match and case.spilled else "DIVERGED"
        lines.append(
            f"{case.name:24} {case.base_wall_s * 1e3:7.1f}ms "
            f"{case.memory_wall_s * 1e3:7.1f}ms "
            f"{case.disk_wall_s * 1e3:7.1f}ms "
            f"{case.spill_bytes / 1e6:9.2f}MB {case.spill_events:7d}  "
            f"{equivalent}"
        )
    lines.append("")
    lines.append(
        "results bit-identical across unconstrained / simulated-spill / "
        f"physical-spill runs: {'yes' if report.all_match else 'NO'}; "
        f"every constrained run spilled: "
        f"{'yes' if report.all_spilled else 'NO'}"
    )
    return "\n".join(lines)
