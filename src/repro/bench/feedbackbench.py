"""Cardinality-feedback benchmark (``repro-bench feedback``).

Runs a fixed analytic workload — selective filters, a filtered
equi-join, and an ``ORDER BY ... LIMIT`` Top-K — repeatedly against the
same database, once with ``feedback_mode="on"`` and once with ``"off"``,
and charts the per-repetition mean cardinality q-error. With feedback on
the optimizer folds each completed trace's actual row counts back into
the catalog statistics (docs/ENGINE.md, "Adaptive optimization"), so the
q-error curve must fall toward 1.0; with feedback off the same workload
must stay flat. The Top-K statement doubles as the bounded-state probe:
its ``TopK(local)`` peak memory is compared against the same statement
forced through the full ``PSortLimit`` sort.

``--check`` gates on four invariants and exits nonzero when any fails:

* feedback on: the final repetition's mean q-error is below the first's;
* feedback off: every repetition reports the identical mean q-error;
* rows never change: on/off deliver bit-identical rows per statement;
* Top-K holds O(k) state: its local peak is a small fraction of the
  full sort's materialized-partition peak, with identical rows.

Wall-clock is recorded in the JSON artifact but never gated on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List

from ..config import ClusterConfig, TEST_CLUSTER
from ..db import Database
from ..plan import PhysicalPlanner
from ..sql import parse_statement

#: literal (parameter-free) statements: every predicate is
#: fingerprintable, so each misestimate is learnable
WORKLOAD = (
    "SELECT i FROM points WHERE v < 3.0",
    "SELECT COUNT(i) FROM points WHERE v >= 90.0",
    "SELECT points.i, outcomes.y FROM points, outcomes "
    "WHERE points.i = outcomes.i AND points.v < 50.0",
)

TOP_K_SQL = "SELECT i, v FROM points ORDER BY v, i LIMIT {k}"


@dataclass(frozen=True)
class FeedbackCurve:
    """Mean / worst q-error over the whole workload, per repetition."""

    mode: str
    mean_q_errors: List[float]
    worst_q_errors: List[float]
    feedback_version: int


@dataclass(frozen=True)
class TopKProbe:
    limit: int
    rows: int
    top_k_peak_bytes: float
    full_sort_peak_bytes: float
    rows_identical: bool

    @property
    def peak_fraction(self) -> float:
        if self.full_sort_peak_bytes <= 0:
            return 1.0
        return self.top_k_peak_bytes / self.full_sort_peak_bytes


@dataclass(frozen=True)
class FeedbackReport:
    on: FeedbackCurve
    off: FeedbackCurve
    top_k: TopKProbe
    rows_match_across_modes: bool

    def converged(self) -> bool:
        curve = self.on.mean_q_errors
        return len(curve) >= 2 and curve[-1] < curve[0]

    def flat_when_off(self) -> bool:
        curve = self.off.mean_q_errors
        return all(value == curve[0] for value in curve)

    def ok(self) -> bool:
        """The --check criterion (see module docstring)."""
        return (
            self.converged()
            and self.flat_when_off()
            and self.rows_match_across_modes
            and self.off.feedback_version == 0
            and self.top_k.rows_identical
            and self.top_k.peak_fraction < 0.5
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "workload": list(WORKLOAD),
            "curves": {
                curve.mode: {
                    "mean_q_errors": curve.mean_q_errors,
                    "worst_q_errors": curve.worst_q_errors,
                    "feedback_version": curve.feedback_version,
                }
                for curve in (self.on, self.off)
            },
            "top_k": {
                **asdict(self.top_k),
                "peak_fraction": self.top_k.peak_fraction,
            },
            "rows_match_across_modes": self.rows_match_across_modes,
        }


def _build(rows: int, feedback_mode: str, config: ClusterConfig) -> Database:
    db = Database(config.with_updates(feedback_mode=feedback_mode))
    db.execute("CREATE TABLE points (i INTEGER, v DOUBLE)")
    db.execute("CREATE TABLE outcomes (i INTEGER, y DOUBLE)")
    db.load("points", [(i, float(i % 100)) for i in range(rows)])
    db.load(
        "outcomes", [(i * 2, float(i % 7)) for i in range(rows // 4)]
    )
    return db


def _trace_q_errors(result) -> List[float]:
    return [
        node.q_error
        for node in result.metrics.trace.walk()
        if node.q_error is not None
    ]


def _run_curve(
    rows: int, repetitions: int, feedback_mode: str, config: ClusterConfig
) -> "tuple[FeedbackCurve, List[List[tuple]]]":
    """One database, the workload repeated; (curve, rows per statement
    of the final repetition) so callers can compare across modes."""
    db = _build(rows, feedback_mode, config)
    means: List[float] = []
    worsts: List[float] = []
    delivered: List[List[tuple]] = []
    for repetition in range(repetitions):
        errors: List[float] = []
        delivered = []
        for sql in WORKLOAD:
            result = db.execute(sql)
            errors.extend(_trace_q_errors(result))
            # feedback may legitimately pick a different (faster) plan,
            # and unordered queries deliver in plan-dependent order —
            # the invariant is the multiset of rows, so compare sorted
            delivered.append(sorted(result.rows))
        means.append(sum(errors) / len(errors))
        worsts.append(max(errors))
    return (
        FeedbackCurve(
            mode=feedback_mode,
            mean_q_errors=means,
            worst_q_errors=worsts,
            feedback_version=db.feedback.version,
        ),
        delivered,
    )


def _probe_top_k(rows: int, limit: int, config: ClusterConfig) -> TopKProbe:
    db = _build(rows, "on", config)
    sql = TOP_K_SQL.format(k=limit)
    top_k = db.execute(sql)
    # the same query lowered to the full sort
    plan = db._compile(parse_statement(sql), None)
    planner = PhysicalPlanner(db.cost_model, enable_top_k=False)
    plan.physical = planner.plan(plan.logical)
    full = db._execute_plan(plan)

    def local_peak(trace, prefix: str) -> float:
        return max(
            node.peak_memory_bytes
            for node in trace.walk()
            if node.name.startswith(prefix)
        )

    return TopKProbe(
        limit=limit,
        rows=rows,
        top_k_peak_bytes=local_peak(top_k.metrics.trace, "TopK(local)"),
        full_sort_peak_bytes=local_peak(full.metrics.trace, "Sort(local)"),
        rows_identical=top_k.rows == full.rows,
    )


def run_feedback_bench(
    config: ClusterConfig = TEST_CLUSTER, smoke: bool = False
) -> FeedbackReport:
    rows = 400 if smoke else 2000
    repetitions = 3 if smoke else 5
    on, on_rows = _run_curve(rows, repetitions, "on", config)
    off, off_rows = _run_curve(rows, repetitions, "off", config)
    return FeedbackReport(
        on=on,
        off=off,
        top_k=_probe_top_k(rows, 5, config),
        rows_match_across_modes=on_rows == off_rows,
    )


def format_feedback(report: FeedbackReport) -> str:
    lines = [
        "Cardinality-feedback benchmark (mean q-error per repetition)",
        "",
        f"{'repetition':>10}  {'feedback on':>12}  {'feedback off':>12}",
    ]
    for index, (on, off) in enumerate(
        zip(report.on.mean_q_errors, report.off.mean_q_errors), start=1
    ):
        lines.append(f"{index:>10}  {on:>12.3f}  {off:>12.3f}")
    lines.append("")
    lines.append(
        f"feedback versions: on={report.on.feedback_version} "
        f"off={report.off.feedback_version}"
    )
    lines.append(
        "q-error converges with feedback on: "
        f"{'yes' if report.converged() else 'NO'}"
    )
    lines.append(
        "q-error flat with feedback off: "
        f"{'yes' if report.flat_when_off() else 'NO'}"
    )
    lines.append(
        "rows bit-identical across feedback modes: "
        f"{'yes' if report.rows_match_across_modes else 'NO'}"
    )
    probe = report.top_k
    lines.append(
        f"Top-K LIMIT {probe.limit} over {probe.rows} rows: local peak "
        f"{probe.top_k_peak_bytes:,.0f} B vs full-sort "
        f"{probe.full_sort_peak_bytes:,.0f} B "
        f"({probe.peak_fraction:.1%}), rows "
        f"{'identical' if probe.rows_identical else 'DIVERGED'}"
    )
    lines.append("")
    lines.append(f"feedback check: {'ok' if report.ok() else 'FAILED'}")
    return "\n".join(lines)
