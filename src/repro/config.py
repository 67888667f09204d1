"""Cluster and cost-model configuration.

The paper's experiments ran on 10 Amazon EC2 m2.4xlarge machines (8 cores
each) under Hadoop. We reproduce that setting with a simulated
shared-nothing cluster: real tuples flow through the operators, and each
operator charges simulated time to virtual workers using the rates below.
The defaults are calibrated to a Java-on-Hadoop system of the 2016 era
(SimSQL); the comparator simulators override individual rates (e.g. SciDB
is a compiled C++ engine, so its per-tuple and streaming costs are lower).

All rates are per *core* unless stated otherwise; a "slot" is one core of
one machine, and partitions are placed on slots, which is what makes the
paper's 100-blocks-on-80-cores skew effect reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults import FaultPlan


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and speed of the simulated cluster."""

    machines: int = 10
    cores_per_machine: int = 8

    #: BLAS-3 floating point rate (matrix multiply, inverse, solve):
    #: large gemms reuse cache and run fast even in Java
    flop_rate: float = 2.0e9
    #: BLAS-1/2 rate (dot products, outer products, matrix-vector):
    #: memory-bound, roughly half the BLAS-3 rate
    blas1_rate: float = 1.0e9
    #: memory-streaming rate for element-wise work and aggregation
    stream_rate: float = 0.35e9
    #: fixed CPU cost per tuple per operator (the iterator-model overhead
    #: at the heart of the paper's tuple-vs-vector experiment)
    tuple_cpu_s: float = 0.5e-6
    #: network bandwidth per machine (1 Gbit/s)
    network_rate: float = 125.0e6
    #: sequential scan bandwidth per machine
    disk_rate: float = 100.0e6
    #: fixed startup overhead charged per MapReduce-style job (a shuffle
    #: boundary); this is why SimSQL trails SciDB at low dimensionality
    job_startup_s: float = 12.0
    #: RAM available per machine (m2.4xlarge has ~68 GB)
    worker_memory: float = 60.0e9
    #: when True, partitions are placed round-robin (ideal balance); when
    #: False, hash placement is used and skew emerges naturally
    balanced_placement: bool = False
    #: interpreter back end: "batch" runs the columnar vectorized
    #: pipeline, "row" the original tuple-at-a-time loops. Both charge
    #: identical simulated costs and return identical rows (see
    #: docs/ENGINE.md); the knob only changes *real* wall-clock time.
    execution_mode: str = "batch"
    #: seeded deterministic fault injection (slot crashes, lost
    #: partitions, transient exchange errors, stragglers); None runs a
    #: healthy cluster. Faults perturb the simulated timeline only —
    #: result rows stay bit-identical (see docs/FAULTS.md).
    fault_plan: Optional["FaultPlan"] = None
    #: table storage back end: "memory" keeps partitions as Python row
    #: lists, "disk" lays them out as immutable columnar segment files
    #: read back through a budgeted buffer pool (see docs/STORAGE.md).
    #: Both back ends charge identical simulated costs and return
    #: identical rows; the knob changes where the bytes physically live.
    storage_mode: str = "memory"
    #: working-memory budget in bytes governing both the disk-mode
    #: buffer pool and the per-operator spill threshold (hash join
    #: build, aggregation state, exchange staging). None derives the
    #: default from ``memory_per_slot`` (half of it); spill decisions
    #: fire identically in both storage modes so simulated metrics stay
    #: comparable.
    buffer_pool_bytes: Optional[float] = None
    #: rows per columnar segment; each table partition is chunked into
    #: consecutive insert-order segments of this many rows (the zone-map
    #: pruning granule). Small values are useful in tests to force
    #: multi-segment partitions.
    segment_rows: int = 4096
    #: statements the network serving layer (``repro.server``) executes
    #: at once, over all connection threads and detached jobs; requests
    #: beyond it queue inside the server. Read-only statements admitted
    #: through the database's reader–writer gate genuinely overlap;
    #: DDL/DML takes the exclusive path.
    worker_threads: int = 8
    #: crash-safe durability: "off" keeps the historical behaviour (data
    #: lives in memory until an explicit ``save``); "wal" appends every
    #: committed DDL/DML statement to a checksummed, fsynced write-ahead
    #: log under ``data_dir`` and turns ``Database.save`` into an atomic
    #: checkpoint that truncates the log (see docs/DURABILITY.md).
    durability_mode: str = "off"
    #: home directory of the durability artifacts (``checkpoint.db`` +
    #: ``wal.log``); required when ``durability_mode="wal"``. Recover a
    #: crashed database with ``Database.restore(data_dir)`` (or
    #: ``Database.open(config)``), which replays the WAL on top of the
    #: latest checkpoint.
    data_dir: Optional[str] = None
    #: cardinality feedback: "on" folds per-operator actual row counts
    #: from every completed statement back into the catalog's feedback
    #: statistics (scan row counts, filter/join selectivities keyed by a
    #: normalized predicate fingerprint), so the optimizer's estimates
    #: converge on repeated workloads; "off" plans from static
    #: statistics only. Feedback never changes result rows — only
    #: estimates, and through them plan choice (see docs/ENGINE.md,
    #: "Adaptive optimization").
    feedback_mode: str = "on"

    #: materialized-view maintenance policy: "eager" folds appended rows
    #: into incremental views (and recomputes full views) inside the
    #: mutating statement, so every view is always fresh; "deferred"
    #: moves the incremental fold to the next read and marks full views
    #: stale until an explicit REFRESH MATERIALIZED VIEW (stale views
    #: are skipped by the optimizer's view matching). Either way,
    #: answering from a view is bit-identical to rescanning
    #: (docs/VIEWS.md).
    view_refresh_mode: str = "eager"

    @property
    def effective_buffer_pool_bytes(self) -> float:
        """The working-memory budget actually enforced: the explicit
        ``buffer_pool_bytes`` when set, else half of ``memory_per_slot``."""
        if self.buffer_pool_bytes is not None:
            return float(self.buffer_pool_bytes)
        return self.memory_per_slot / 2.0

    @property
    def slots(self) -> int:
        """Total parallel execution slots (cores) in the cluster."""
        return self.machines * self.cores_per_machine

    @property
    def network_rate_per_slot(self) -> float:
        return self.network_rate / self.cores_per_machine

    @property
    def disk_rate_per_slot(self) -> float:
        return self.disk_rate / self.cores_per_machine

    @property
    def memory_per_slot(self) -> float:
        return self.worker_memory / self.cores_per_machine

    def with_updates(self, **kwargs) -> "ClusterConfig":
        """A copy with some fields replaced."""
        return replace(self, **kwargs)


#: The paper's experimental cluster.
PAPER_CLUSTER = ClusterConfig()

#: A small configuration suitable for unit tests and examples.
TEST_CLUSTER = ClusterConfig(machines=2, cores_per_machine=2, job_startup_s=1.0)
