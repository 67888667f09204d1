"""The simulated shared-nothing cluster.

Physical operators process *real* tuples but charge their work to virtual
workers ("slots" — one per core, 80 of them in the paper's 10x8 setup).
An operator's simulated wall time is::

    max over slots of (per-slot seconds)  +  network seconds

A slot's seconds combine CPU and disk, at rates from
:class:`ClusterConfig`:

* ``tuple_cpu_s`` — fixed per-tuple iterator overhead (the cost that blows
  up the tuple-based implementations in the paper's Figure 1-3);
* ``flop_rate`` — dense kernels (matrix multiply, inverse, ...);
* ``blas1_rate`` — memory-bound dots and outer products;
* ``stream_rate`` — element-wise arithmetic and aggregation traffic;
* ``disk_rate_per_slot`` — scans, map-output spills, reduce-side reads
  and operator state spilled over the working-memory budget.

:class:`OperatorRun` is the only code that turns work into seconds (the
executor charges it per slot, the cost model the busiest slot's
estimated work); the comparison counts and the spill rule live beside it.

Because partitions are placed on slots by *hashing*, a computation with
only 100 blocks on 80 slots develops exactly the load imbalance the paper
reports for its blocked distance computation; setting
``balanced_placement=True`` in the config removes it (the ablation).
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading
from typing import List, Optional

import numpy as np

from ..config import ClusterConfig
from ..errors import ResourceExhaustedError
from ..types import LabeledScalar, Matrix, Vector, key_bytes
from .metrics import OperatorMetrics, QueryMetrics


_NAN = struct.pack("<d", float("nan"))


def stable_hash(values) -> int:
    """A deterministic, platform-independent hash of a tuple of SQL
    values, for placement: keys that are one key in GROUP BY and a join
    hash alike (docs/SQL.md). Python's builtin ``hash`` is salted per
    process for strings, which would make benchmark placement
    non-reproducible."""
    return _blake2b(values, key_bytes)


def exact_hash(values) -> int:
    """:func:`stable_hash` with each tensor hashed by its exact bits, so
    ``[0.0]`` and ``[-0.0]`` differ: the fingerprint of the bit-identity
    checks between configurations."""
    return _blake2b(values, np.ndarray.tobytes)


def _blake2b(values, tensor_bytes) -> int:
    hasher = hashlib.blake2b(digest_size=8)
    for value in values:
        if value is None:
            hasher.update(b"\x00N")
        elif isinstance(value, bool):
            hasher.update(b"\x01" + (b"1" if value else b"0"))
        elif isinstance(value, int):
            if -(2**63) <= value < 2**63:
                hasher.update(b"\x02" + struct.pack("<q", value))
            else:  # arbitrary-precision integers
                hasher.update(b"\x08" + str(value).encode("ascii"))
        elif isinstance(value, float):
            # integral floats hash like ints so 1 and 1.0 co-locate
            if value.is_integer() and -(2**63) <= value < 2**63:
                hasher.update(b"\x02" + struct.pack("<q", int(value)))
            else:
                # every NaN is one key (docs/SQL.md): sign and payload
                # bits must not spread NaN rows over slots
                hasher.update(
                    b"\x03" + (struct.pack("<d", value) if value == value else _NAN)
                )
        elif isinstance(value, str):
            hasher.update(b"\x04" + value.encode("utf-8"))
        elif isinstance(value, LabeledScalar):
            hasher.update(b"\x03" + struct.pack("<d", value.value))
        elif isinstance(value, Vector):
            hasher.update(b"\x05" + tensor_bytes(value.data))
        elif isinstance(value, Matrix):
            hasher.update(b"\x06" + struct.pack("<q", value.rows))
            hasher.update(tensor_bytes(value.data))
        else:
            hasher.update(b"\x07" + repr(value).encode("utf-8"))
    return int.from_bytes(hasher.digest(), "little")


def value_bytes(value) -> float:
    """Serialized size of one SQL value, for memory and network charges."""
    if value is None:
        return 1.0
    if isinstance(value, (bool,)):
        return 1.0
    if isinstance(value, (int, float)):
        return 8.0
    if isinstance(value, str):
        return float(len(value)) + 4.0
    if isinstance(value, LabeledScalar):
        return 16.0
    if isinstance(value, Vector):
        return float(value.size_bytes())
    if isinstance(value, Matrix):
        return float(value.size_bytes())
    return 64.0


#: per-row serialization overhead
ROW_OVERHEAD_BYTES = 16.0


def row_bytes(row) -> float:
    return ROW_OVERHEAD_BYTES + sum(value_bytes(value) for value in row)


def cell_bytes(column) -> Optional[float]:
    """``value_bytes`` of every non-NULL value of a ``ColumnData`` whose
    physical form fixes it; None for an object column."""
    if column.is_numeric:
        return 8.0
    if column.is_bool:
        return 1.0
    if column.is_block:
        return 8.0 * column.cell_elements + 8.0
    return None


def fixed_row_bytes(columns) -> Optional[float]:
    """``row_bytes`` shared by every row of columns whose physical form
    fixes it (typed or block, no NULL); None when any column is an
    object or masked column, whose rows are sized one by one."""
    total = ROW_OVERHEAD_BYTES
    for column in columns:
        fixed = cell_bytes(column)
        if fixed is None or column.nulls is not None:
            return None
        total += fixed
    return total


def _column_value_bytes(column) -> np.ndarray:
    """``value_bytes`` of every value in a ``ColumnData``."""
    n = len(column)
    fixed = cell_bytes(column)
    if fixed is None:
        return np.fromiter(
            (value_bytes(value) for value in column.pylist()),
            dtype=np.float64,
            count=n,
        )
    sizes = np.full(n, fixed)
    if column.nulls is not None:
        sizes[column.nulls] = 1.0  # NULL serializes to one byte
    return sizes


def columns_row_bytes(columns, count: int) -> np.ndarray:
    """``row_bytes`` of each of ``count`` rows stored column-wise."""
    total = np.full(count, ROW_OVERHEAD_BYTES)
    for column in columns:
        fixed = cell_bytes(column)
        if fixed is not None and column.nulls is None:
            total += fixed  # the same sum as adding an array of ``fixed``
        else:
            total += _column_value_bytes(column)
    return total


def state_fits(config: ClusterConfig, state_bytes: float) -> bool:
    """Whether ``state_bytes`` of one slot's operator state fit the share
    of its RAM operator state has by default (half, as
    ``ClusterConfig.effective_buffer_pool_bytes`` derives it): what a plan
    may assume a slot keeps in memory. It reads the RAM, never a
    configured spill budget, so a plan does not depend on the budget (the
    spill contract: results are the same under any budget)."""
    return state_bytes <= config.memory_per_slot / 2.0


def sort_comparisons(count: float) -> float:
    """Comparisons charged for sorting ``count`` rows, ``n·log2(n+1)``."""
    return count * max(1.0, math.log2(count + 1))


def top_k_comparisons(count: float, limit: int) -> float:
    """Comparisons charged for a bounded-heap selection of ``limit`` of
    ``count`` rows, ``n·log2(min(k, n)+1)``."""
    return count * max(1.0, math.log2(min(limit, count) + 1))


def disk_seconds(config: ClusterConfig, nbytes: float) -> float:
    """One slot moving ``nbytes`` through its share of its machine's disk."""
    return nbytes / config.disk_rate_per_slot


def refetch_seconds(config: ClusterConfig, nbytes: float, remote: bool) -> float:
    """A recovering task re-reading ``nbytes`` of its input from the
    lineage store: from its share of its machine's disk, and also of its
    network link when the partition was lost (``remote``)."""
    seconds = disk_seconds(config, nbytes)
    if remote:
        seconds += nbytes / config.network_rate_per_slot
    return seconds


class OperatorRun:
    """Cost accumulator for one operator execution; closed by the
    cluster, which converts charges into an OperatorMetrics record."""

    def __init__(self, name: str, config: ClusterConfig):
        self.name = name
        self._config = config
        self._slot_seconds: List[float] = [0.0] * config.slots
        self.network_bytes = 0.0
        self.rows_in = 0
        self.rows_out = 0
        self.bytes_out = 0.0
        # -- storage accounting (docs/STORAGE.md) --
        #: bytes of operator state written to spill files (reload doubles
        #: the disk charge but not this figure)
        self.spill_bytes = 0.0
        self.spill_events = 0
        #: zone-map pruning outcome of a scan
        self.segments_pruned = 0
        self.segments_scanned = 0
        #: buffer-pool outcomes of a disk-mode scan (zero in memory mode;
        #: excluded from the cross-mode metrics-equality contract)
        self.pool_hits = 0
        self.pool_misses = 0
        #: largest tracked per-slot working set (state + output bytes)
        self.peak_memory_bytes = 0.0

    # -- charging ---------------------------------------------------------

    def charge_cpu(
        self,
        slot: int,
        tuples: float = 0.0,
        flops: float = 0.0,
        blas1_flops: float = 0.0,
        stream_bytes: float = 0.0,
    ) -> None:
        config = self._config
        self._slot_seconds[slot % config.slots] += (
            tuples * config.tuple_cpu_s
            + flops / config.flop_rate
            + blas1_flops / config.blas1_rate
            + stream_bytes / config.stream_rate
        )

    def charge_eval(self, slot: int, tuples: float, cost) -> None:
        """Charge one partition's worth of tuples plus the measured
        expression-evaluation work (an EvalCost); each built-in function
        call costs one extra tuple overhead, like a UDF invocation."""
        self.charge_cpu(
            slot,
            tuples=tuples + cost.calls,
            flops=cost.flops,
            blas1_flops=cost.blas1_flops,
            stream_bytes=cost.stream_bytes,
        )

    def charge_disk(self, slot: int, scan_bytes: float) -> None:
        config = self._config
        self._slot_seconds[slot % config.slots] += disk_seconds(config, scan_bytes)

    def charge_network(self, transfer_bytes: float) -> None:
        self.network_bytes += transfer_bytes

    def note_peak(self, nbytes: float) -> None:
        """Track the largest per-slot working set this operator held."""
        if nbytes > self.peak_memory_bytes:
            self.peak_memory_bytes = nbytes

    def spills(self, state_bytes: float) -> bool:
        """Whether ``state_bytes`` of one slot's operator state exceed the
        working-memory budget."""
        budget = self._config.effective_buffer_pool_bytes
        return state_bytes > 0.0 and state_bytes > budget

    def charge_state(self, slot: int, state_bytes: float) -> bool:
        """Note one slot's operator state; over the budget it spills — a
        write plus a reload at disk rate, counted — and this returns True.
        The decision and the charge are pure byte accounting, identical
        in both storage modes (disk mode additionally round-trips the
        state through a physical spill file)."""
        self.note_peak(state_bytes)
        if not self.spills(state_bytes):
            return False
        self.charge_disk(slot, 2.0 * state_bytes)
        self.spill_bytes += state_bytes
        self.spill_events += 1
        return True

    # -- results -----------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """The busiest slot's seconds plus the network's, which every
        machine's link shares."""
        config = self._config
        network = self.network_bytes / (config.network_rate * config.machines)
        return max(self._slot_seconds) + network

    def finish(self) -> OperatorMetrics:
        busiest = max(self._slot_seconds)
        mean = sum(self._slot_seconds) / len(self._slot_seconds)
        return OperatorMetrics(
            name=self.name,
            rows_in=self.rows_in,
            rows_out=self.rows_out,
            bytes_out=self.bytes_out,
            wall_seconds=self.wall_seconds,
            max_worker_seconds=busiest,
            mean_worker_seconds=mean,
            network_bytes=self.network_bytes,
            slot_seconds=tuple(self._slot_seconds),
            spill_bytes=self.spill_bytes,
            spill_events=self.spill_events,
            segments_pruned=self.segments_pruned,
            segments_scanned=self.segments_scanned,
            pool_hits=self.pool_hits,
            pool_misses=self.pool_misses,
            peak_memory_bytes=self.peak_memory_bytes,
        )


class SlotTimeline:
    """Simulated-time occupancy of the cluster's execution capacity.

    The service layer carves the cluster's slots into ``gangs`` equal
    slot groups (one admitted query per gang, i.e. gang scheduling with
    max-concurrency = number of gangs). The timeline tracks, in
    simulated seconds, when each gang next becomes free, so concurrently
    admitted queries genuinely contend for slot-seconds: a query that
    arrives while every gang is busy accrues queueing delay until one
    frees up.
    """

    def __init__(self, gangs: int):
        if gangs < 1:
            raise ValueError("need at least one execution gang")
        self._free_at: List[float] = [0.0] * gangs
        #: total slot-seconds of service handed out (for utilisation)
        self.busy_seconds = 0.0

    @property
    def gangs(self) -> int:
        return len(self._free_at)

    def earliest_free(self) -> float:
        """The simulated time at which the next gang becomes free."""
        return min(self._free_at)

    def idle_gang(self, now: float) -> Optional[int]:
        """A gang that is free at simulated time ``now``, if any."""
        for gang, free_at in enumerate(self._free_at):
            if free_at <= now:
                return gang
        return None

    def occupy(self, gang: int, start: float, duration: float) -> float:
        """Mark a gang busy for ``duration`` starting at ``start``;
        returns the finish time."""
        if self._free_at[gang] > start:
            raise ValueError(
                f"gang {gang} is busy until {self._free_at[gang]:.3f}, "
                f"cannot start at {start:.3f}"
            )
        finish = start + duration
        self._free_at[gang] = finish
        self.busy_seconds += duration
        return finish

    def utilisation(self, horizon: float) -> float:
        """Fraction of gang-time busy over ``[0, horizon]``."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (horizon * self.gangs))


class Cluster:
    """A simulated cluster accumulating per-query metrics.

    The metrics accumulator is **thread-local**: the network serving
    layer (``repro.server``) drives the cluster from a pool of worker
    threads, and each thread's in-flight statement charges into its own
    :class:`QueryMetrics` record. Statements are admitted through the
    database's reader–writer gate (:class:`repro.admission.AdmissionGate`)
    — read-only statements genuinely overlap on the cluster while
    DDL/DML takes the exclusive path — and each statement runs on a
    fresh :class:`Executor`, so concurrent statements share nothing but
    the (thread-safe) storage engine and this cluster object.

    A statement itself is single-threaded: it runs, slot by slot, on the
    thread that admitted it (the concurrency model is in docs/ENGINE.md).
    """

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config or ClusterConfig()
        self._local = threading.local()

    @property
    def metrics(self) -> QueryMetrics:
        """The calling thread's current metrics accumulator."""
        current = getattr(self._local, "metrics", None)
        if current is None:
            current = self._local.metrics = QueryMetrics()
        return current

    def reset_metrics(self) -> QueryMetrics:
        """Start a fresh metrics record (for the calling thread),
        returning the previous one."""
        previous = self.metrics
        self._local.metrics = QueryMetrics()
        return previous

    def operator(self, name: str) -> OperatorRun:
        return OperatorRun(name, self.config)

    def record(self, run: OperatorRun) -> OperatorMetrics:
        metrics = run.finish()
        self.metrics.operators.append(metrics)
        return metrics

    def record_job(self) -> None:
        """Charge one MapReduce-style job startup."""
        self.metrics.jobs += 1
        self.metrics.startup_seconds += self.config.job_startup_s

    def check_memory(self, name: str, held) -> None:
        """Raise ResourceExhaustedError when any slot holds more bytes of
        an operator's output (``held``, per slot) than its RAM share —
        the engine-level behaviour behind the 'Fail' entries in the
        paper's Figure 3. The executor reads what each slot holds of a
        relation (``Executor._held``), the paper-scale pricer the
        estimate of it (``est_held_bytes``): one rule."""
        limit = self.config.memory_per_slot
        for slot, used in enumerate(held):
            if used > limit:
                raise ResourceExhaustedError(
                    f"operator {name}: partition on slot {slot} needs "
                    f"{used / 1e9:.2f} GB but slots have "
                    f"{limit / 1e9:.2f} GB"
                )
