"""What every ``repro-bench`` target shares: the shape of a case, the
one loop that runs it, and the one writer of ``BENCH_<target>.json``.

A :class:`Case` is a catalogued program (``simsql.CASES``): untimed
setup, the statements whose metrics count, and a read-back of the
computed value. :func:`run_case` is the only "fresh ``Database`` →
setup → execute" loop in the package; digests, simulated seconds, spill
and fault counters and traces are all read off the ``Result`` objects it
returns.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ClusterConfig
from ..db import Database, Result
from ..engine.cluster import exact_hash


@dataclass(frozen=True)
class Case:
    """One program of the catalogue."""

    name: str
    #: schema, data and views; never timed, never counted in the metrics
    setup: Callable[[Database], None]
    #: the metric-bearing statements, in execution order
    queries: Tuple[str, ...]
    #: the computed value, read back from the statements' results
    value: Callable[[List[Result]], object]


def run_case(
    case: Case,
    config: ClusterConfig,
    mode: Optional[str] = None,
    repeats: int = 1,
) -> Tuple[float, List[Result]]:
    """Run ``case`` on a fresh database ``repeats`` times: the best
    wall clock of its statements (setup excluded) and their results,
    which are identical across repeats — execution is deterministic."""
    best = float("inf")
    results: List[Result] = []
    for _ in range(repeats):
        db = Database(config, execution_mode=mode)
        case.setup(db)
        start = time.perf_counter()
        results = [db.execute(sql) for sql in case.queries]
        best = min(best, time.perf_counter() - start)
    return best, results


def digest(results: Sequence[Result]) -> List[List[int]]:
    """Order-insensitive fingerprint of each statement's rows, for the
    bit-identity comparisons between configurations."""
    return [
        sorted(exact_hash(tuple(row)) for row in result.rows) for result in results
    ]


def host() -> Dict[str, object]:
    """The machine a snapshot's wall-clock numbers were taken on."""
    return {
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def write_snapshot(
    benchmark: str, ok: bool, payload: Dict[str, object], path: str
) -> None:
    """Write a benchmark's JSON snapshot atomically (``tmp`` +
    ``os.replace``), stamped with its name, verdict and host."""
    snapshot = {"benchmark": benchmark, "ok": ok, "host": host(), **payload}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
