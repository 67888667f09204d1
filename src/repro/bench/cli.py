"""Command line entry point: ``repro-bench <target>``.

The figure targets (``fig1``–``fig4``, ``rst``, ``all``) regenerate the
paper's tables and figures: paper-scale simulated times for all six
platforms next to the paper's reported numbers, mini-scale real
executions with correctness checks, the Figure 4 operation breakdown,
and the section 4.1 optimizer ablation. ``serve`` runs the closed-loop
multi-client serving benchmark with the plan cache on and off. The
benchmark targets in :data:`BENCHES` (and ``serve --open-loop``) take
``--check``: a smaller run that exits nonzero when its contract breaks.
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


def run_serve_target(
    clients: int = 6,
    queries: int = 20,
    max_concurrency: int = 4,
    queue_limit: int = 8,
    think_time_s: float = 0.0,
    seed: int = 0,
) -> str:
    from ..service import ServiceConfig
    from .serve import ServeConfig, compare_cache, format_serve

    config = ServeConfig(
        clients=clients,
        queries_per_client=queries,
        think_time_s=think_time_s,
        seed=seed,
        service=ServiceConfig(
            max_concurrency=max_concurrency,
            admission_queue_limit=queue_limit,
        ),
    )
    with_cache, without_cache = compare_cache(config)
    return format_serve(with_cache, without_cache)


def _open_loop(args, out: str) -> "tuple":
    """``serve --open-loop``: (report text, ok) for the open-loop socket
    benchmark.

    ``--check`` shrinks the run for CI (still real sockets, still the
    serial bit-identity comparison, still the parallel scaling probe);
    ``out`` is where the JSON snapshot lands (empty string skips the
    write). The scaling probe's
    parallel-vs-serial throughput ratio is recorded but never gated on:
    it tracks the host's real core count (see
    ``repro.bench.openloop.measure_scaling``). ``ok`` does require both
    scaling probes to stay bit-identical to their serial baselines."""
    from . import openloop

    clients = args.clients if args.clients is not None else 100
    queries = args.queries if args.queries is not None else 400
    rate = args.rate
    small = {}
    if args.check:
        clients, queries, rate = min(clients, 16), min(queries, 64), min(rate, 120.0)
        small = dict(queries=8, clients=4, rows=128, dims=16)
    config = openloop.OpenLoopConfig(
        clients=clients, queries=queries, arrival_rate_qps=rate, seed=args.seed
    )
    report = openloop.run_open_loop(config)
    ok = report.ok()
    text = openloop.format_open_loop(report)
    scaling_block = None
    if not args.no_scaling:
        scaling_block = openloop.measure_scaling(seed=args.seed, **small)
        ok = ok and scaling_block["serial_ok"] and scaling_block["parallel_ok"]
        text = text + "\n\n" + openloop.format_scaling(scaling_block)
    if out:
        openloop.write_snapshot(report, out, scaling=scaling_block)
    return text, ok


def _bench(module: str, run: str, fmt: str, *flags: str):
    """The runner of one ``repro.bench.<module>`` benchmark:
    ``runner(args, out) -> (report text, ok)``. ``flags`` names the
    command-line options its ``run`` function takes besides ``smoke``
    (which is ``--check``); ``out`` is where the JSON snapshot lands
    ('' skips the write)."""

    def runner(args, out: str) -> "tuple":
        bench = import_module(f"{__package__}.{module}")
        options = {flag: getattr(args, flag) for flag in flags}
        report = getattr(bench, run)(smoke=args.check, **options)
        if out:
            bench.write_snapshot(report, out)
        return getattr(bench, fmt)(report), report.ok()

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
    "serve": (  # with --open-loop; the closed loop has nothing to check
        _open_loop,
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
        "the hit was not cheaper than the cold plan, or rows diverged",
        "BENCH_views.json",
    ),
}

TARGETS = (*FIGURES, *BENCHES, "all")


def run_target(target: str, run_mini: bool = True) -> str:
    if target in FIGURES:
        return FIGURES[target](run_mini)
    if target == "serve":
        return run_serve_target()
    if target in BENCHES:
        runner, _, default_out = BENCHES[target]
        return runner(_parser().parse_args([target]), default_out or "")[0]
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
        help="skip the mini-scale real executions (model tables only)",
    )
    serve_group = parser.add_argument_group("serve options")
    serve_group.add_argument(
        "--clients",
        type=int,
        default=None,
        help="concurrent clients (serve; default 6 closed-loop, "
        "100 open-loop)",
    )
    serve_group.add_argument(
        "--queries",
        type=int,
        default=None,
        help="queries per client closed-loop / total queries open-loop "
        "(serve; default 20 closed-loop, 400 open-loop)",
    )
    serve_group.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        help="execution gangs in the slot scheduler (serve)",
    )
    serve_group.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="admission queue bound before rejection (serve)",
    )
    serve_group.add_argument(
        "--think-time",
        type=float,
        default=0.0,
        help="simulated seconds a client waits between queries (serve)",
    )
    serve_group.add_argument(
        "--seed", type=int, default=0, help="workload RNG seed (serve)"
    )
    serve_group.add_argument(
        "--open-loop",
        action="store_true",
        help="run the real-socket open-loop benchmark instead of the "
        "simulated closed loop: start the HTTP server, fire Poisson "
        "arrivals from --clients persistent connections, report real "
        "wall-clock throughput and p50/p95/p99, and compare every "
        "result bit-for-bit against a serial baseline (serve)",
    )
    serve_group.add_argument(
        "--rate",
        type=float,
        default=200.0,
        help="offered load in arrivals per real second (serve --open-loop)",
    )
    serve_group.add_argument(
        "--out",
        default=None,
        help="where to write the JSON snapshot; '' skips the write (default "
        + ", ".join(f"{out} for {name}" for name, (_, _, out) in BENCHES.items() if out)
        + "; serve: with --open-loop)",
    )
    serve_group.add_argument(
        "--no-scaling",
        action="store_true",
        help="skip the parallel-vs-serial scaling probe "
        "(serve --open-loop)",
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
    if args.target == "serve" and not args.open_loop:
        print(
            run_serve_target(
                clients=args.clients if args.clients is not None else 6,
                queries=args.queries if args.queries is not None else 20,
                max_concurrency=args.max_concurrency,
                queue_limit=args.queue_limit,
                think_time_s=args.think_time,
                seed=args.seed,
            )
        )
        return 0
    if args.target not in BENCHES:
        print(run_target(args.target, run_mini=not args.no_mini))
        return 0
    runner, failure, default_out = BENCHES[args.target]
    out = args.out if args.out is not None else default_out
    text, ok = runner(args, out if default_out else "")
    print(text)
    if args.check and not ok:
        print(f"{args.target} check FAILED: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
