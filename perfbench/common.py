"""Names, units and small helpers shared by every part of the benchmark.

The metric tables here are the single source of the names: the test
checks that ``BENCHMARK.json`` and every emitted result agree with them.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BASELINE_DIR = BENCH_DIR / "baseline"

WORKLOADS = ("la_vector", "rel_tuple", "serve_mix", "ingest_views")
#: workloads whose simulated clock must repeat exactly for a seed
EMBEDDED = ("la_vector", "rel_tuple", "ingest_views")

#: (name, unit, better) — reported by every workload with ``--trace 0``
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("write_p50_ms", "ms", "lower"),
    ("overhead_x", "ratio", "lower"),
    ("ok_share", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) — reported by every workload with ``--trace 1``;
#: a metric whose layer the workload never enters reads 0
PER_LAYER = (
    ("sql.parse_ms", "ms", "lower"),
    ("plan.bind_ms", "ms", "lower"),
    ("plan.optimize_ms", "ms", "lower"),
    ("plan.physical_ms", "ms", "lower"),
    ("engine.execute_ms", "ms", "lower"),
    ("engine.execute_share", "ratio", "lower"),
    ("engine.rows_in_per_s", "1/s", "higher"),
    ("engine.sim_seconds", "s", "lower"),
    ("engine.peak_memory_bytes", "B", "lower"),
    ("la.kernel_ms", "ms", "lower"),
    ("la.kernel_share", "ratio", "higher"),
    ("columnar.build_ms", "ms", "lower"),
    ("storage.segment_encode_ms", "ms", "lower"),
    ("storage.segment_decode_ms", "ms", "lower"),
    ("storage.pool_hit_rate", "ratio", "higher"),
    ("storage.pool_evictions", "count", "lower"),
    ("storage.segments_pruned_share", "ratio", "higher"),
    ("storage.spill_bytes", "B", "lower"),
    ("storage.bytes_per_user_byte", "ratio", "lower"),
    ("storage.wal_append_ms", "ms", "lower"),
    ("storage.wal_bytes_per_user_byte", "ratio", "lower"),
    ("persist.checkpoint_ms", "ms", "lower"),
    ("persist.checkpoint_bytes_per_user_byte", "ratio", "lower"),
    ("persist.recover_ms", "ms", "lower"),
    ("catalog.append_stats_ms", "ms", "lower"),
    ("catalog.collect_stats_ms", "ms", "lower"),
    ("views.fold_ms", "ms", "lower"),
    ("views.maintain_tax_x", "ratio", "lower"),
    ("views.folded_rows_per_append", "count", "lower"),
    ("views.hit_rate", "ratio", "higher"),
    ("service.session_ms", "ms", "lower"),
    ("service.plan_cache_hit_rate", "ratio", "higher"),
    ("service.rejected_share", "ratio", "lower"),
    ("server.decode_ms", "ms", "lower"),
    ("server.encode_ms", "ms", "lower"),
    ("server.wire_ms", "ms", "lower"),
    ("server.pages_per_query", "count", "lower"),
    ("server.shed_share", "ratio", "lower"),
    ("server.cursor_retry_share", "ratio", "lower"),
    ("server.sched_lag_p95_ms", "ms", "lower"),
    ("server.rate_low.p95_ms", "ms", "lower"),
    ("server.rate_mid.p95_ms", "ms", "lower"),
    ("server.rate_high.p95_ms", "ms", "lower"),
    ("server.max_rate_ok_qps", "1/s", "higher"),
    ("tail.read_p95_ms", "ms", "lower"),
    ("tail.write_p95_ms", "ms", "lower"),
    ("floor.numpy_ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

#: oracle tolerance: numpy closeness, not bit-identity — the float
#: contract of fused kernels is an open ROADMAP decision
RTOL = ATOL = 1e-9

#: a p95 needs this many samples to have ten beyond it
P95_MIN_SAMPLES = 200


# -- operations ---------------------------------------------------------------


@dataclass
class Op:
    """One statement of a workload's op stream.

    ``action`` is ``"sql"`` (``db.execute``), ``"load"`` (``db.load``) or
    ``"checkpoint"``. ``oracle`` does the same math on plain ndarrays: it
    is both the expected value and the numpy floor. ``check`` compares a
    result with the oracle's value."""

    cls: str
    kind: str  # "read", "write" or "aux" (timed, but in no latency mean)
    action: str = "sql"
    sql: Optional[str] = None
    params: Optional[Dict[str, object]] = None
    table: Optional[str] = None
    rows: Optional[List[tuple]] = None
    oracle: Callable[[], object] = lambda: None
    check: Callable[[object, object], bool] = lambda result, expected: True

    def signature(self) -> tuple:
        """What the program sees of this op (for the determinism test)."""
        return (self.cls, self.action, self.sql, _freeze(self.params),
                self.table, _freeze(self.rows))


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    data = getattr(value, "data", None)
    if isinstance(data, np.ndarray):
        return data.tobytes()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return value


def execute_op(db, op: Op):
    if op.action == "sql":
        return db.execute(op.sql, op.params)
    if op.action == "load":
        return db.load(op.table, op.rows)
    if op.action == "checkpoint":
        return db.checkpoint()
    raise ValueError(f"unknown op action {op.action!r}")


def as_array(value) -> np.ndarray:
    """A result cell (Vector, Matrix, number) as an ndarray."""
    data = getattr(value, "data", None)
    if isinstance(data, np.ndarray):
        return data
    inner = getattr(value, "value", None)  # LabeledScalar
    return np.asarray(value if inner is None else inner, dtype=np.float64)


def close(actual, expected) -> bool:
    actual, expected = as_array(actual), np.asarray(expected, dtype=np.float64)
    return actual.shape == expected.shape and bool(
        np.allclose(actual, expected, rtol=RTOL, atol=ATOL)
    )


def rows_close(rows: Sequence[Sequence], expected: Sequence[Sequence]) -> bool:
    """Row sets equal up to order: both sides sorted on their leading
    integer key columns, cells compared with the oracle tolerance."""
    if len(rows) != len(expected):
        return False

    def key(row):
        return tuple(v for v in row if isinstance(v, (int, np.integer)))

    for got, want in zip(sorted(rows, key=key), sorted(expected, key=key)):
        if len(got) != len(want):
            return False
        if not all(close(a, b) for a, b in zip(got, want)):
            return False
    return True


# -- judging ------------------------------------------------------------------

MAX_ERRORS_KEPT = 5


class Judge:
    """Counts attempts and failures; keeps the first few error texts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)


# -- statistics ---------------------------------------------------------------


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def class_stats(samples_ms: Sequence[float]) -> Dict[str, float]:
    array = np.asarray(samples_ms, dtype=np.float64)
    return {
        "n": int(array.size),
        "p50_ms": float(np.percentile(array, 50)),
        "p95_ms": float(np.percentile(array, 95)),
        "p95_supported": bool(array.size >= P95_MIN_SAMPLES),
    }


def latency_metrics(
    latencies: Dict[str, List[float]], kinds: Dict[str, str]
) -> Dict[str, object]:
    """Per-class stats plus the four end-to-end latency values: the
    geometric mean over the read (or write) classes of the per-class
    median (or p95), so a bimodal mix does not put the median on a
    cluster boundary."""
    classes = {cls: class_stats(samples) for cls, samples in latencies.items()}
    out: Dict[str, object] = {"classes": classes}
    for kind in ("read", "write"):
        chosen = [s for cls, s in classes.items() if kinds[cls] == kind]
        out[f"{kind}_p50_ms"] = geomean([s["p50_ms"] for s in chosen])
        out[f"{kind}_p95_ms"] = geomean([s["p95_ms"] for s in chosen])
    return out


def normalised_setup(spawned_at: float) -> Dict[str, float]:
    """``setup_s`` of a child whose set-up just ended: spawn to now,
    divided by the host factor of this moment."""
    raw = time.monotonic() - spawned_at
    calibrator = Calibrator()
    calibrator.tick(9)
    factor = calibrator.factor()
    return {"setup_s": raw / factor, "setup_raw_s": raw, "setup_factor": factor}


def metric(name: str, value: float) -> Dict[str, object]:
    return {"value": float(value), "unit": UNITS[name]}


# -- host-speed calibration --------------------------------------------------------

_CAL_ARRAY = np.linspace(0.0, 1.0, 256 * 64).reshape(256, 64)


def calibration_kernel() -> int:
    """A fixed piece of interpreter and small-array work, about 1 ms: the
    mix the program itself is made of. It calls nothing in ``repro``."""
    total = 0
    for i in range(12000):
        total += i * i % 7
    for _ in range(20):
        (_CAL_ARRAY * 1.0001 + 0.5).sum()
    return total


class Calibrator:
    """Tracks the host's speed while a run measures.

    The reference host's speed drifts by tens of percent over seconds
    and minutes (shared cores), which moves every timing of a run
    together. The kernel above is timed inline all through the window,
    always while the load is quiet — between the passes of an embedded
    workload, between the chunks of ``serve_mix``'s closed loop — so the
    program under test cannot move it. A *host factor* is the median of
    some kernel times over ``NOMINAL_MS``; timed values are divided by
    the factor of the ticks around them."""

    #: the kernel's time on the reference host at full speed. It only
    #: fixes the unit (normalised values read in reference-host
    #: milliseconds): two commits measured on one host share it.
    NOMINAL_MS = 0.87
    #: ticks in the rolling median of ``factors``
    WINDOW = 7

    def __init__(self) -> None:
        self.samples_ms: List[float] = []

    def tick(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            calibration_kernel()
            self.samples_ms.append((time.perf_counter() - start) * 1e3)

    def factor(self, first: int = 0, last: Optional[int] = None) -> float:
        """Host factor over the ticks ``first`` to ``last``."""
        return float(np.median(self.samples_ms[first:last])) / self.NOMINAL_MS

    def factors(self) -> np.ndarray:
        """Host factor at each tick: rolling median over ``WINDOW``."""
        half = self.WINDOW // 2
        return np.array([
            self.factor(max(0, i - half), i + half + 1)
            for i in range(len(self.samples_ms))
        ])

    def summary(self) -> Dict[str, float]:
        factors = self.factors()
        return {
            "nominal_kernel_ms": self.NOMINAL_MS,
            "median": float(np.median(factors)),
            "min": float(factors.min()),
            "max": float(factors.max()),
        }


# -- host ---------------------------------------------------------------------

#: every child runs single-threaded BLAS and a fixed hash seed
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env(tmp_dir: Path) -> Dict[str, str]:
    """The environment of a benchmark child: pinned threads and hash
    seed, ``repro`` importable, and every temp file the program makes
    (segment files, spills) kept inside the checkout."""
    env = dict(os.environ)
    env.update(PINS)
    env["TMPDIR"] = str(tmp_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")


def load_average() -> float:
    return os.getloadavg()[0]


def host_fingerprint() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "pins": dict(PINS),
    }
