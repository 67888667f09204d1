"""One benchmark child: sets one workload up in a fresh process, runs
its timed window or its traced replay, and prints one JSON object as
the last line of its standard output. ``run.py`` spawns these."""

from __future__ import annotations

import argparse
import json
import sys

from common import OUT_DIR, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    trace_path = str(OUT_DIR / f"trace_{args.workload}.jsonl")
    if args.workload == "serve_mix":
        from workloads import serve_mix

        if args.trace:
            result = serve_mix.run_traced(args.seed, args.seconds, trace_path)
        else:
            result = serve_mix.run_end_to_end(
                args.seed, args.seconds, args.spawned_at, args.setup_only
            )
    else:
        import embedded
        from workloads import embedded_workload

        workload = embedded_workload(args.workload, args.seed)
        if args.trace:
            result = embedded.run_traced(workload, args.seconds, trace_path)
        else:
            result = embedded.run_end_to_end(
                workload, args.seconds, args.spawned_at, args.setup_only
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
