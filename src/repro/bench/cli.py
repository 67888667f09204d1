"""Command line entry point: ``repro-bench {fig1,fig2,fig3,fig4,rst,serve,all}``.

Regenerates the paper's tables and figures: paper-scale simulated times
for all six platforms next to the paper's reported numbers, mini-scale
real executions with correctness checks, the Figure 4 operation
breakdown, and the section 4.1 optimizer ablation. The ``serve`` target
runs the closed-loop multi-client serving benchmark with the plan cache
on and off.
"""

from __future__ import annotations

import argparse
import sys

from .figures import (
    figure,
    figure4,
    format_figure,
    format_figure4,
    format_rst,
    rst_experiment,
)

TARGETS = (
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "rst",
    "serve",
    "exec",
    "faults",
    "trace",
    "spill",
    "recover",
    "feedback",
    "views",
    "all",
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


def run_open_loop_target(
    clients: int = 100,
    queries: int = 400,
    rate: float = 200.0,
    seed: int = 0,
    check: bool = False,
    out: str = "BENCH_serve.json",
    parallelism: int = 4,
    scaling: bool = True,
) -> "tuple":
    """Returns (report text, ok) for the open-loop socket benchmark.

    ``check`` shrinks the run for CI (still real sockets, still the
    serial bit-identity comparison, still the parallel scaling probe at
    ``parallelism`` partition tasks); ``out`` is where the JSON snapshot
    lands (empty string skips the write). The scaling probe's
    parallel-vs-serial throughput ratio is recorded but never gated on:
    it tracks the host's real core count (see
    ``repro.bench.openloop.measure_scaling``). ``ok`` does require both
    scaling probes to stay bit-identical to their serial baselines."""
    from .openloop import (
        OpenLoopConfig,
        format_open_loop,
        format_scaling,
        measure_scaling,
        run_open_loop,
        write_snapshot,
    )

    if check:
        clients = min(clients, 16)
        queries = min(queries, 64)
        rate = min(rate, 120.0)
    config = OpenLoopConfig(
        clients=clients, queries=queries, arrival_rate_qps=rate, seed=seed
    )
    report = run_open_loop(config)
    ok = report.ok()
    text = format_open_loop(report)
    scaling_block = None
    if scaling:
        if check:
            scaling_block = measure_scaling(
                workers=4,
                parallelism=parallelism,
                queries=8,
                clients=4,
                rows=128,
                dims=16,
                seed=seed,
            )
        else:
            scaling_block = measure_scaling(
                workers=4, parallelism=parallelism, seed=seed
            )
        ok = ok and scaling_block["serial_ok"] and scaling_block["parallel_ok"]
        text = text + "\n\n" + format_scaling(scaling_block)
    if out:
        write_snapshot(report, out, scaling=scaling_block)
    return text, ok


def run_exec_target(repeats: int = 3, smoke: bool = False) -> "tuple":
    """Returns (report text, ok) for the execution-mode benchmark."""
    from .execbench import format_exec, run_exec_bench

    report = run_exec_bench(repeats=repeats, smoke=smoke)
    return format_exec(report), report.ok()


def run_faults_target(seed: int = 0, smoke: bool = False) -> "tuple":
    """Returns (report text, ok) for the fault-injection benchmark."""
    from .faultbench import format_faults, run_fault_bench

    report = run_fault_bench(seed=seed, smoke=smoke)
    return format_faults(report), report.ok()


def run_trace_target(smoke: bool = False) -> "tuple":
    """Returns (report text, ok) for the estimate-accuracy benchmark."""
    from .tracebench import format_trace, run_trace_bench

    report = run_trace_bench(smoke=smoke)
    return format_trace(report), report.ok()


def run_spill_target(smoke: bool = False) -> "tuple":
    """Returns (report text, ok) for the out-of-core benchmark."""
    from .spillbench import format_spill, run_spill_bench

    report = run_spill_bench(smoke=smoke)
    return format_spill(report), report.ok()


def run_recover_target(
    seed: int = 0, smoke: bool = False, out: str = "BENCH_recover.json"
) -> "tuple":
    """Returns (report text, ok) for the WAL recovery benchmark;
    ``out`` is where the JSON snapshot lands ('' skips the write)."""
    from .recoverbench import format_recovery, run_recovery_bench, write_snapshot

    report = run_recovery_bench(seed=seed, smoke=smoke)
    if out:
        write_snapshot(report, out)
    return format_recovery(report), report.ok()


def run_feedback_target(
    smoke: bool = False, out: str = "BENCH_feedback.json"
) -> "tuple":
    """Returns (report text, ok) for the cardinality-feedback benchmark;
    ``out`` is where the JSON snapshot lands ('' skips the write)."""
    from .feedbackbench import format_feedback, run_feedback_bench, write_snapshot

    report = run_feedback_bench(smoke=smoke)
    if out:
        write_snapshot(report, out)
    return format_feedback(report), report.ok()


def run_views_target(
    smoke: bool = False, out: str = "BENCH_views.json"
) -> "tuple":
    """Returns (report text, ok) for the materialized-view benchmark;
    ``out`` is where the JSON snapshot lands ('' skips the write)."""
    from .viewbench import format_views, run_view_bench, write_snapshot

    report = run_view_bench(smoke=smoke)
    if out:
        write_snapshot(report, out)
    return format_views(report), report.ok()


def run_target(target: str, run_mini: bool = True) -> str:
    if target == "fig1":
        return format_figure(figure("gram", run_mini=run_mini))
    if target == "fig2":
        return format_figure(figure("regression", run_mini=run_mini))
    if target == "fig3":
        return format_figure(figure("distance", run_mini=run_mini))
    if target == "fig4":
        return format_figure4(figure4())
    if target == "rst":
        return format_rst(rst_experiment())
    if target == "serve":
        return run_serve_target()
    if target == "exec":
        return run_exec_target()[0]
    if target == "faults":
        return run_faults_target()[0]
    if target == "trace":
        return run_trace_target()[0]
    if target == "spill":
        return run_spill_target()[0]
    if target == "recover":
        return run_recover_target()[0]
    if target == "feedback":
        return run_feedback_target()[0]
    if target == "views":
        return run_views_target()[0]
    if target == "all":
        # "all" regenerates the paper artifacts; the serving benchmark
        # is its own target so the golden figure outputs stay stable.
        return "\n\n".join(
            run_target(name, run_mini=run_mini)
            for name in ("fig1", "fig2", "fig3", "fig4", "rst")
        )
    raise ValueError(f"unknown target {target!r}; pick one of {TARGETS}")


def main(argv=None) -> int:
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
        help="where to write the JSON snapshot; '' skips the write "
        "(default BENCH_serve.json for serve --open-loop, "
        "BENCH_recover.json for recover)",
    )
    serve_group.add_argument(
        "--intra-parallelism",
        type=int,
        default=4,
        help="partition tasks per operator in the scaling probe "
        "(serve --open-loop)",
    )
    serve_group.add_argument(
        "--no-scaling",
        action="store_true",
        help="skip the parallel-vs-serial scaling probe "
        "(serve --open-loop)",
    )
    exec_group = parser.add_argument_group("exec/faults/trace options")
    exec_group.add_argument(
        "--check",
        action="store_true",
        help="smoke mode: smaller workloads, nonzero exit when the two "
        "execution modes diverge or batch regresses wall-clock (exec), "
        "when a fault-injected run fails or diverges from the "
        "fault-free baseline (faults), when operator traces disagree "
        "with delivered results or across modes (trace), or when a "
        "spill-forcing buffer pool changes results or never spills "
        "(spill)",
    )
    exec_group.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="wall-clock repetitions per workload, best-of (exec)",
    )
    args = parser.parse_args(argv)
    if args.target == "exec":
        text, ok = run_exec_target(repeats=args.repeats, smoke=args.check)
        print(text)
        if args.check and not ok:
            print("exec check FAILED: modes diverged or batch lost its lead")
            return 1
        return 0
    if args.target == "faults":
        text, ok = run_faults_target(seed=args.seed, smoke=args.check)
        print(text)
        if args.check and not ok:
            print(
                "faults check FAILED: a fault-injected run failed, "
                "diverged from the fault-free baseline, or injected "
                "no faults"
            )
            return 1
        return 0
    if args.target == "trace":
        text, ok = run_trace_target(smoke=args.check)
        print(text)
        if args.check and not ok:
            print(
                "trace check FAILED: traced row counts diverged from "
                "delivered results, an operator lacked estimates, or "
                "the two execution modes traced differently"
            )
            return 1
        return 0
    if args.target == "spill":
        text, ok = run_spill_target(smoke=args.check)
        print(text)
        if args.check and not ok:
            print(
                "spill check FAILED: a constrained run diverged from the "
                "unconstrained baseline or never spilled"
            )
            return 1
        return 0
    if args.target == "recover":
        text, ok = run_recover_target(
            seed=args.seed,
            smoke=args.check,
            out=args.out if args.out is not None else "BENCH_recover.json",
        )
        print(text)
        if args.check and not ok:
            print(
                "recover check FAILED: a recovered database diverged "
                "from the abandoned one, or a checkpoint failed to "
                "shed replay work"
            )
            return 1
        return 0
    if args.target == "feedback":
        text, ok = run_feedback_target(
            smoke=args.check,
            out=args.out if args.out is not None else "BENCH_feedback.json",
        )
        print(text)
        if args.check and not ok:
            print(
                "feedback check FAILED: q-error did not converge with "
                "feedback on, drifted with it off, rows changed, or "
                "Top-K held more than O(k) state"
            )
            return 1
        return 0
    if args.target == "views":
        text, ok = run_views_target(
            smoke=args.check,
            out=args.out if args.out is not None else "BENCH_views.json",
        )
        print(text)
        if args.check and not ok:
            print(
                "views check FAILED: maintenance was not O(delta), the "
                "view never answered the query, the hit was not cheaper "
                "than the cold plan, or rows diverged"
            )
            return 1
        return 0
    if args.target == "serve":
        if args.open_loop:
            text, ok = run_open_loop_target(
                clients=args.clients if args.clients is not None else 100,
                queries=args.queries if args.queries is not None else 400,
                rate=args.rate,
                seed=args.seed,
                check=args.check,
                out=args.out if args.out is not None else "BENCH_serve.json",
                parallelism=args.intra_parallelism,
                scaling=not args.no_scaling,
            )
            print(text)
            if args.check and not ok:
                print(
                    "serve check FAILED: no traffic got through or a "
                    "concurrent result diverged from the serial baseline"
                )
                return 1
            return 0
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
    print(run_target(args.target, run_mini=not args.no_mini))
    return 0


if __name__ == "__main__":
    sys.exit(main())
