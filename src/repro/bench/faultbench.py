"""Fault-injection benchmark (``repro-bench faults``).

Runs the paper's Gram / regression / distance computations under a
sweep of injected failure rates (slot crashes, lost exchange partitions,
transient network errors, stragglers — see :mod:`repro.faults`) and
reports, per workload and rate: the effective simulated wall time, the
recovery / wasted / speculative breakdown, the number of injected
faults, and whether the run succeeded with results **bit-identical** to
the fault-free baseline.

``--check`` runs reduced shapes and turns any failure — a query that
exhausts its retry budget, a digest that diverges from the fault-free
run, or an injection sweep that (vacuously) injected nothing — into a
failing exit code. This is the robustness contract of docs/FAULTS.md:
at the default rates the system must absorb every injected fault and
still produce exactly the paper's answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..config import ClusterConfig, TEST_CLUSTER
from ..errors import ExecutionError
from ..faults import FaultPlan
from .harness import digest, run_case
from .simsql import cases

#: failure-probability sweep: every fault kind fires at the given rate
#: (stragglers at 1.6x of it, mirroring DEFAULT_FAULT_PLAN's mix)
FAULT_RATES = (0.02, 0.05, 0.10)

#: the workloads under injection (the paper's three computations),
#: catalogue key -> (n, d)
FAULT_SCALES = {
    ("gram", "vector"): (1024, 8),
    ("regression", "vector"): (768, 8),
    ("distance", "vector"): (64, 8),
}

FAULT_SCALES_SMOKE = {
    ("gram", "vector"): (256, 8),
    ("regression", "vector"): (192, 8),
    ("distance", "vector"): (32, 8),
}


def plan_for_rate(rate: float, seed: int = 0) -> FaultPlan:
    """The sweep's FaultPlan at one failure rate."""
    return FaultPlan(
        seed=seed,
        slot_crash_rate=rate,
        lost_partition_rate=rate,
        transient_error_rate=rate,
        straggler_rate=min(1.0, rate * 1.6),
    )


@dataclass(frozen=True)
class FaultRunResult:
    """One workload at one injection rate."""

    workload: str
    rate: float
    succeeded: bool
    bit_identical: bool
    fault_events: int
    #: effective simulated wall time (recovery included in the clocks)
    effective_s: float
    #: fault-free simulated wall time of the same workload
    baseline_s: float
    recovery_s: float
    wasted_s: float
    speculative_s: float
    error: Optional[str] = None

    @property
    def overhead(self) -> float:
        """Effective / fault-free simulated time."""
        if self.baseline_s <= 0:
            return 1.0
        return self.effective_s / self.baseline_s


@dataclass(frozen=True)
class FaultReport:
    results: List[FaultRunResult]

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def succeeded(self) -> int:
        return sum(1 for r in self.results if r.succeeded)

    @property
    def success_rate(self) -> float:
        if not self.results:
            return 0.0
        return self.succeeded / self.attempted

    @property
    def all_identical(self) -> bool:
        return all(r.bit_identical for r in self.results if r.succeeded)

    @property
    def total_events(self) -> int:
        return sum(r.fault_events for r in self.results)

    @property
    def total_wasted_s(self) -> float:
        return sum(r.wasted_s for r in self.results)

    def ok(self) -> bool:
        """The --check criterion: every run survives its injected
        faults with bit-identical results, and the sweep actually
        injected something (a zero-event sweep would pass vacuously)."""
        return (
            self.success_rate == 1.0
            and self.all_identical
            and self.total_events > 0
        )


def run_fault_bench(
    config: ClusterConfig = TEST_CLUSTER,
    rates: Tuple[float, ...] = FAULT_RATES,
    seed: int = 0,
    smoke: bool = False,
) -> FaultReport:
    scales = FAULT_SCALES_SMOKE if smoke else FAULT_SCALES
    results: List[FaultRunResult] = []
    for case in cases(scales):
        _, baseline = run_case(case, config.with_updates(fault_plan=None))
        baseline_digest = digest(baseline)
        baseline_s = sum(result.metrics.total_seconds for result in baseline)
        for rate in rates:
            faulty = config.with_updates(fault_plan=plan_for_rate(rate, seed))
            try:
                _, run = run_case(case, faulty)
            except ExecutionError as exc:
                results.append(
                    FaultRunResult(
                        workload=case.name,
                        rate=rate,
                        succeeded=False,
                        bit_identical=False,
                        fault_events=0,
                        effective_s=0.0,
                        baseline_s=baseline_s,
                        recovery_s=0.0,
                        wasted_s=0.0,
                        speculative_s=0.0,
                        error=str(exc),
                    )
                )
                continue
            metrics = [result.metrics for result in run]
            results.append(
                FaultRunResult(
                    workload=case.name,
                    rate=rate,
                    succeeded=True,
                    bit_identical=digest(run) == baseline_digest,
                    fault_events=sum(sum(m.fault_events.values()) for m in metrics),
                    effective_s=sum(m.total_seconds for m in metrics),
                    baseline_s=baseline_s,
                    recovery_s=sum(m.recovery_seconds for m in metrics),
                    wasted_s=sum(m.wasted_seconds for m in metrics),
                    speculative_s=sum(m.speculative_seconds for m in metrics),
                )
            )
    return FaultReport(results)


def format_faults(report: FaultReport) -> str:
    lines = [
        "Fault-injection benchmark (simulated cluster, seeded failures)",
        "",
        f"{'workload':24} {'rate':>5} {'faults':>7} {'effective':>10} "
        f"{'overhead':>9} {'recovery':>9} {'wasted':>8} {'specul.':>8}  outcome",
    ]
    for r in report.results:
        if not r.succeeded:
            outcome = f"FAILED: {r.error}"
            lines.append(
                f"{r.workload:24} {r.rate:>5.2f} {'-':>7} {'-':>10} "
                f"{'-':>9} {'-':>9} {'-':>8} {'-':>8}  {outcome}"
            )
            continue
        outcome = "bit-identical" if r.bit_identical else "DIVERGED"
        lines.append(
            f"{r.workload:24} {r.rate:>5.2f} {r.fault_events:>7} "
            f"{r.effective_s:>9.3f}s {r.overhead:>8.2f}x "
            f"{r.recovery_s:>8.3f}s {r.wasted_s:>7.3f}s "
            f"{r.speculative_s:>7.3f}s  {outcome}"
        )
    lines.append("")
    lines.append(
        f"success rate {report.success_rate:.1%} "
        f"({report.succeeded}/{report.attempted} runs), "
        f"{report.total_events} fault(s) injected, "
        f"{report.total_wasted_s:.3f}s of simulated work wasted; "
        f"results bit-identical to fault-free runs: "
        f"{'yes' if report.all_identical else 'NO'}"
    )
    return "\n".join(lines)
