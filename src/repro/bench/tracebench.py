"""Estimate-accuracy benchmark (``repro-bench trace``).

Runs the paper's Gram / regression / distance workloads at mini scale in
both interpreter back ends, collects the per-operator
:class:`~repro.engine.OperatorTrace` of every statement, and reports the
operators with the worst cardinality q-error and the worst seconds
q-error (estimated seconds against charged ones) — the measured feedback
on the section-4 cost model that ``EXPLAIN ANALYZE`` gives for a single
query, aggregated over the whole evaluation workload.

``--check`` (smoke scales) fails the run when any statement's traced
root row count disagrees with the delivered result rows, when any
operator is missing its estimate annotations, or when the row and batch
back ends produce different traces (the equivalence contract of
``docs/ENGINE.md`` extends to tracing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import ClusterConfig, TEST_CLUSTER
from .execbench import EXEC_SCALES, EXEC_SCALES_SMOKE
from .harness import run_case
from .simsql import cases


@dataclass(frozen=True)
class WorstOperator:
    """One operator's estimate-vs-actual record, for the leaderboard."""

    case: str
    statement: int
    operator: str
    est_rows: float
    actual_rows: int
    q_error: float
    est_seconds: float
    wall_seconds: float
    seconds_q_error: float


@dataclass(frozen=True)
class TraceCaseResult:
    name: str
    statements: int
    operators: int
    mean_q_error: float
    max_q_error: float
    #: largest q-error of an operator's estimated against charged seconds
    max_seconds_q_error: float
    #: every statement's root trace rows_out == delivered len(rows),
    #: in both execution modes
    rows_consistent: bool
    #: every operator carries est_rows/est_bytes/est_seconds annotations
    fully_annotated: bool
    #: row and batch back ends produced identical traces
    modes_match: bool


@dataclass(frozen=True)
class TraceReport:
    cases: List[TraceCaseResult]
    worst: List[WorstOperator]
    #: the operators with the worst seconds q-error
    worst_seconds: List[WorstOperator]

    def ok(self) -> bool:
        """The --check criterion: traced row counts equal delivered row
        counts, every operator is annotated, and both execution modes
        trace identically."""
        return all(
            case.rows_consistent and case.fully_annotated and case.modes_match
            for case in self.cases
        )


def _flatten(trace) -> List[tuple]:
    """The mode-comparison digest of a trace: every measured field that
    the row/batch equivalence contract covers."""
    return [
        (
            node.name,
            node.op_index,
            node.rows_in,
            node.rows_out,
            node.bytes_out,
            node.wall_seconds,
            node.network_bytes,
        )
        for node in trace.walk()
    ]


def run_trace_bench(
    config: ClusterConfig = TEST_CLUSTER, smoke: bool = False
) -> TraceReport:
    scales = EXEC_SCALES_SMOKE if smoke else EXEC_SCALES
    results: List[TraceCaseResult] = []
    worst: List[WorstOperator] = []
    for case in cases(scales):
        # (trace, delivered row count) per statement
        row_traces, batch_traces = (
            [
                (result.metrics.trace, len(result.rows))
                for result in run_case(case, config, mode)[1]
            ]
            for mode in ("row", "batch")
        )
        rows_consistent = all(
            trace is not None and trace.rows_out == delivered
            for trace, delivered in row_traces + batch_traces
        )
        modes_match = len(row_traces) == len(batch_traces) and all(
            _flatten(row_trace) == _flatten(batch_trace)
            for (row_trace, _), (batch_trace, _) in zip(row_traces, batch_traces)
        )
        q_errors: List[float] = []
        seconds_q_errors: List[float] = []
        fully_annotated = True
        operators = 0
        for statement, (trace, _) in enumerate(row_traces):
            for node in trace.walk():
                operators += 1
                if (
                    node.est_rows is None
                    or node.est_bytes is None
                    or node.est_seconds is None
                ):
                    fully_annotated = False
                    continue
                q_errors.append(node.q_error)
                seconds_q_errors.append(node.seconds_q_error)
                worst.append(
                    WorstOperator(
                        case=case.name,
                        statement=statement,
                        operator=node.name,
                        est_rows=node.est_rows,
                        actual_rows=node.rows_out,
                        q_error=node.q_error,
                        est_seconds=node.est_seconds,
                        wall_seconds=node.wall_seconds,
                        seconds_q_error=node.seconds_q_error,
                    )
                )
        results.append(
            TraceCaseResult(
                name=case.name,
                statements=len(row_traces),
                operators=operators,
                mean_q_error=(
                    sum(q_errors) / len(q_errors) if q_errors else 0.0
                ),
                max_q_error=max(q_errors) if q_errors else 0.0,
                max_seconds_q_error=max(seconds_q_errors, default=0.0),
                rows_consistent=rows_consistent,
                fully_annotated=fully_annotated,
                modes_match=modes_match,
            )
        )
    by_seconds = sorted(worst, key=lambda op: op.seconds_q_error, reverse=True)
    worst.sort(key=lambda op: op.q_error, reverse=True)
    return TraceReport(cases=results, worst=worst[:8], worst_seconds=by_seconds[:8])


def format_trace(report: TraceReport) -> str:
    lines = [
        "Estimate-accuracy benchmark (per-operator q-error, row + batch)",
        "",
        f"{'workload':24} {'stmts':>5} {'ops':>5} {'mean q':>8} {'max q':>8} "
        f"{'max s-q':>8}  rows-ok annotated modes-match",
    ]
    for case in report.cases:
        lines.append(
            f"{case.name:24} {case.statements:>5} {case.operators:>5} "
            f"{case.mean_q_error:>8.2f} {case.max_q_error:>8.2f} "
            f"{case.max_seconds_q_error:>8.2f}  "
            f"{'yes' if case.rows_consistent else 'NO':>7} "
            f"{'yes' if case.fully_annotated else 'NO':>9} "
            f"{'yes' if case.modes_match else 'NO':>11}"
        )
    lines.append("")
    lines.append("worst-estimated operators:")
    for op in report.worst:
        lines.append(
            f"  q-error {op.q_error:8.2f}  est {op.est_rows:>12,.0f}  "
            f"actual {op.actual_rows:>10,}  {op.case} "
            f"stmt {op.statement}: {op.operator}"
        )
    lines.append("")
    lines.append("worst-estimated operator seconds (estimated vs charged):")
    for op in report.worst_seconds:
        lines.append(
            f"  s-q-error {op.seconds_q_error:6.2f}  est {op.est_seconds:.3g}s  "
            f"charged {op.wall_seconds:.3g}s  {op.case} "
            f"stmt {op.statement}: {op.operator}"
        )
    lines.append("")
    lines.append(
        "traced rows match delivered rows and modes agree: "
        f"{'yes' if report.ok() else 'NO'}"
    )
    return "\n".join(lines)
