"""The server process of ``serve_mix``: builds the tiny database from
the seed, starts ``repro.server.Server`` with default configs, prints
its address, and then obeys lines on standard input — ``stats`` prints
the server's counters and this process's peak memory, end of input stops
the server. Its parent is the load generator."""

from __future__ import annotations

import argparse
import json
import sys

from common import vm_hwm_mb
from repro.server import Server
from workloads.serve_mix import build_database


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    db = build_database(args.seed)
    server = Server(db)
    server.start()
    try:
        print(json.dumps({"address": list(server.address)}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                stats = server.stats()
                print(
                    json.dumps(
                        {
                            "plan_cache": stats["plan_cache"],
                            "server": stats["server"],
                            "queries": stats["queries"],
                            "rejected": stats["rejected"],
                            "peak_rss_mb": vm_hwm_mb(),
                        }
                    ),
                    flush=True,
                )
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
