"""The server entry point: ``python -m repro.server``.

Runs one :class:`~repro.server.Server` as a long-lived process and wires
the POSIX lifecycle around it:

* ``--data-dir DIR --durability wal`` opens (or crash-recovers) a
  durable database via :meth:`repro.Database.open`: an existing
  checkpoint + WAL in ``DIR`` is replayed before the socket binds, so a
  killed server comes back with every acknowledged statement intact.
* SIGTERM and SIGINT trigger a *graceful drain*
  (:meth:`~repro.server.Server.drain`): the listener closes, in-flight
  requests and detached jobs finish, a durable database takes a final
  checkpoint, then the process exits 0. A second signal while draining
  is ignored (the drain is already on its way); SIGKILL is of course
  not catchable — that path is covered by WAL recovery, and exercised
  by the kill-9 harness in ``tests/test_durability.py``.
* ``--init SCRIPT.sql`` seeds a fresh database from a SQL script before
  serving (ignored when the data dir recovered existing state).

The bound address is printed as ``listening on http://host:port`` on
stdout (flushed), so wrappers and tests can scrape it when ``--port 0``
picked an ephemeral port.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from ..config import ClusterConfig
from ..db import Database
from .app import Server, ServerConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a repro database over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="0 binds an ephemeral port (printed on stdout)",
    )
    parser.add_argument(
        "--data-dir", default=None,
        help="durability directory (wal.log + checkpoint.db); implies "
        "--durability wal unless given explicitly",
    )
    parser.add_argument(
        "--durability", choices=("off", "wal"), default=None,
        help="crash-safety mode (default: wal when --data-dir is set)",
    )
    parser.add_argument(
        "--storage-mode", choices=("memory", "disk"), default="memory"
    )
    parser.add_argument("--slots", type=int, default=None)
    parser.add_argument(
        "--init", default=None, metavar="SCRIPT",
        help="SQL script to seed a fresh database (skipped on recovery)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds a SIGTERM/SIGINT drain waits for in-flight work",
    )
    parser.add_argument("--max-inflight", type=int, default=64)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    durability = args.durability
    if durability is None:
        durability = "wal" if args.data_dir else "off"
    if durability == "wal" and not args.data_dir:
        print("--durability wal requires --data-dir", file=sys.stderr)
        return 2
    updates = {
        "storage_mode": args.storage_mode,
        "durability_mode": durability,
        "data_dir": args.data_dir,
    }
    if args.slots is not None:
        updates["slots"] = args.slots
    config = ClusterConfig().with_updates(**updates)

    from ..storage.wal import has_existing_state

    recovering = bool(
        durability == "wal"
        and args.data_dir
        and has_existing_state(args.data_dir)
    )
    db = Database.open(config)
    if recovering and db.durability is not None:
        print(
            f"recovered {db.durability.records_replayed} WAL record(s) "
            f"from {args.data_dir}",
            flush=True,
        )
    if args.init and not recovering:
        with open(args.init, "r", encoding="utf-8") as handle:
            db.execute_script(handle.read())

    server = Server(
        db,
        config=ServerConfig(
            host=args.host, port=args.port, max_inflight=args.max_inflight
        ),
    )

    # signal handlers only set the event: the drain itself must not run
    # on the signal frame (it joins the server's threads).
    # They are in place before the socket binds: a client that reads the
    # "listening on" line may signal at once, and must get a drain
    shutdown = threading.Event()
    received = []

    def on_signal(signum, frame) -> None:
        received.append(signum)
        shutdown.set()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    server.start()
    print(f"listening on {server.url}", flush=True)

    shutdown.wait()
    name = signal.Signals(received[0]).name if received else "shutdown"
    print(f"{name}: draining", flush=True)
    drained = False
    try:
        drained = server.drain(timeout=args.drain_timeout, checkpoint=True)
    finally:
        # even a failed drain must not leave the process wedged: close
        # the database (joins its pools) and report what happened
        db.close()
        print(f"drained cleanly: {drained}", flush=True)
    return 0 if drained else 1


if __name__ == "__main__":
    sys.exit(main())
