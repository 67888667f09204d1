"""Command line entry point: ``repro-bench <target>``.

The figure targets (``fig1``–``fig4``, ``rst``, ``all``) regenerate the
paper's tables and figures: paper-scale simulated times for all six
platforms next to the paper's reported numbers, mini-scale real
executions with correctness checks, the Figure 4 operation breakdown,
and the section 4.1 optimizer ablation. The benchmark targets in
:data:`BENCHES` (``serve`` is the real-socket open-loop serving
benchmark) take ``--check``: a smaller run that exits nonzero when its
contract breaks.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from .figures import (
    figure,
    figure4,
    format_figure,
    format_figure4,
    format_rst,
    rst_experiment,
)
from .harness import write_snapshot


def _bench(module: str, run: str, fmt: str, *flags: str):
    """The runner of one ``repro.bench.<module>`` benchmark:
    ``runner(args) -> (report, report text)``. ``flags`` names the
    command-line options its ``run`` function takes besides ``smoke``
    (which is ``--check``). A report has ``ok()`` and, when the target
    has a snapshot, ``to_json()``."""

    def runner(args) -> "tuple":
        bench = import_module(f"{__package__}.{module}")
        options = {flag: getattr(args, flag) for flag in flags}
        report = getattr(bench, run)(smoke=args.check, **options)
        return report, getattr(bench, fmt)(report)

    return runner


#: paper artifacts: target -> text, given whether to run the mini scale
FIGURES = {
    "fig1": lambda run_mini: format_figure(figure("gram", run_mini=run_mini)),
    "fig2": lambda run_mini: format_figure(figure("regression", run_mini=run_mini)),
    "fig3": lambda run_mini: format_figure(figure("distance", run_mini=run_mini)),
    "fig4": lambda run_mini: format_figure4(figure4()),
    "rst": lambda run_mini: format_rst(rst_experiment()),
}

#: ``--check``-able benchmarks: target -> (runner, what a failed check
#: means, default ``--out`` or None for a benchmark with no snapshot)
BENCHES = {
    "serve": (
        _bench(
            "openloop",
            "run_serving_bench",
            "format_serving",
            "clients",
            "queries",
            "rate",
            "seed",
            "no_scaling",
        ),
        "no traffic got through or a concurrent result diverged from the "
        "serial baseline",
        "BENCH_serve.json",
    ),
    "exec": (
        _bench("execbench", "run_exec_bench", "format_exec", "repeats"),
        "modes diverged or batch lost its lead",
        None,
    ),
    "faults": (
        _bench("faultbench", "run_fault_bench", "format_faults", "seed"),
        "a fault-injected run failed, diverged from the fault-free "
        "baseline, or injected no faults",
        None,
    ),
    "trace": (
        _bench("tracebench", "run_trace_bench", "format_trace"),
        "traced row counts diverged from delivered results, an operator "
        "lacked estimates, or the two execution modes traced differently",
        None,
    ),
    "spill": (
        _bench("spillbench", "run_spill_bench", "format_spill"),
        "a constrained run diverged from the unconstrained baseline or "
        "never spilled",
        None,
    ),
    "recover": (
        _bench("recoverbench", "run_recovery_bench", "format_recovery", "seed"),
        "a recovered database diverged from the abandoned one, or a "
        "checkpoint failed to shed replay work",
        "BENCH_recover.json",
    ),
    "feedback": (
        _bench("feedbackbench", "run_feedback_bench", "format_feedback"),
        "q-error did not converge with feedback on, drifted with it off, "
        "rows changed, or Top-K held more than O(k) state",
        "BENCH_feedback.json",
    ),
    "views": (
        _bench("viewbench", "run_view_bench", "format_views"),
        "maintenance was not O(delta), the view never answered the query, "
        "the hit was not cheaper than the cold plan, rows diverged, or the "
        "scan after an append grew with the unsealed tail",
        "BENCH_views.json",
    ),
}

TARGETS = (*FIGURES, *BENCHES, "all")


def run_bench(target: str, *flags: str) -> "tuple":
    """``(report, report text)`` of the benchmark ``target`` run with
    the command-line ``flags``; writes no snapshot."""
    return BENCHES[target][0](_parser().parse_args([target, *flags]))


def run_target(target: str, run_mini: bool = True) -> str:
    if target in FIGURES:
        return FIGURES[target](run_mini)
    if target in BENCHES:
        return run_bench(target)[1]
    if target == "all":
        # "all" regenerates the paper artifacts; the serving benchmark
        # is its own target so the golden figure outputs stay stable.
        return "\n\n".join(FIGURES[name](run_mini) for name in FIGURES)
    raise ValueError(f"unknown target {target!r}; pick one of {TARGETS}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the evaluation of 'Scalable Linear Algebra "
        "on a Relational Database System' (ICDE 2017).",
    )
    parser.add_argument("target", choices=TARGETS, help="which artifact to regenerate")
    parser.add_argument(
        "--no-mini",
        action="store_true",
        help="skip the mini-scale real executions (priced tables only)",
    )
    serve_group = parser.add_argument_group("serve options")
    serve_group.add_argument(
        "--clients",
        type=int,
        default=100,
        help="concurrent socket clients, one persistent connection each (serve)",
    )
    serve_group.add_argument(
        "--queries",
        type=int,
        default=400,
        help="total queries on the Poisson schedule (serve)",
    )
    serve_group.add_argument(
        "--seed",
        type=int,
        default=0,
        help="workload RNG seed (serve, faults, recover)",
    )
    serve_group.add_argument(
        "--rate",
        type=float,
        default=200.0,
        help="offered load in arrivals per real second (serve)",
    )
    serve_group.add_argument(
        "--out",
        default=None,
        help="where to write the JSON snapshot; '' skips the write (default "
        + ", ".join(f"{out} for {name}" for name, (_, _, out) in BENCHES.items() if out)
        + ")",
    )
    serve_group.add_argument(
        "--no-scaling",
        action="store_true",
        help="skip the parallel-vs-serial scaling probe (serve)",
    )
    exec_group = parser.add_argument_group("benchmark options")
    exec_group.add_argument(
        "--check",
        action="store_true",
        help="smoke mode: smaller workloads, and a nonzero exit when: "
        + "; ".join(f"{why} ({name})" for name, (_, why, _) in BENCHES.items()),
    )
    exec_group.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="wall-clock repetitions per workload, best-of (exec)",
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.target not in BENCHES:
        print(run_target(args.target, run_mini=not args.no_mini))
        return 0
    runner, failure, default_out = BENCHES[args.target]
    report, text = runner(args)
    out = args.out if args.out is not None else default_out
    if out and default_out:
        write_snapshot(args.target, report.ok(), report.to_json(), out)
    print(text)
    if args.check and not report.ok():
        print(f"{args.target} check FAILED: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
