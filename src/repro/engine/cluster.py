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
            hasher.update(b"\x04" + value.encode("utf-8", "surrogatepass"))
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


_WORDS = (np.dtype(np.float64), np.dtype(np.int64))
_BOOL = np.dtype(np.bool_)


def cell_bytes(column) -> Optional[float]:
    """``value_bytes`` of every non-NULL value of a ``ColumnData`` whose
    physical form fixes it, read off its array; None for an object column."""
    data = column.data
    dtype = data.dtype
    if data.ndim == 1 and dtype in _WORDS:
        return 8.0
    if dtype == _BOOL:
        return 1.0
    if data.ndim > 1:
        return 8.0 * math.prod(data.shape[1:]) + 8.0
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


class OperatorRun(OperatorMetrics):
    """One operator execution: its charges accumulate straight into the
    record itself, which :meth:`finish` closes and the cluster appends
    to the statement's metrics. The config's rates are read once, when
    the run starts."""

    def __init__(self, name: str, config: ClusterConfig):
        # every other field reads its dataclass default (a class
        # attribute) until the run first charges it
        self.name, self._config, self._slots = name, config, config.slots
        self._disk_rate = config.disk_rate_per_slot
        #: per-slot busy seconds; a tuple once the run is finished
        self.slot_seconds: List[float] = [0.0] * self._slots

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
        self.slot_seconds[slot % self._slots] += (
            tuples * config.tuple_cpu_s
            + flops / config.flop_rate
            + blas1_flops / config.blas1_rate
            + stream_bytes / config.stream_rate
        )

    def charge_eval(self, slot: int, tuples: float, cost) -> None:
        """:meth:`charge_ledger` of one slot and a plain EvalCost."""
        self.charge_ledger([tuples], cost, [slot])

    def charge_ledger(self, tuples, cost=None, slots=None) -> None:
        """Charge every slot in turn: slot ``slots[i]`` (by default ``i``)
        its ``tuples[i]`` plus entry ``i`` of the ledger ``cost`` (an
        ``EvalCost``, each field read once by ``entries``); a built-in
        function call costs one extra tuple, like a UDF invocation. With
        no ``cost`` the work terms would add +0.0 to the non-negative
        tuple term, so only that term is added."""
        seconds, wrap, config = self.slot_seconds, self._slots, self._config
        tuple_s = config.tuple_cpu_s
        slots = slots or range(len(tuples))
        if cost is None:
            for slot, n in zip(slots, tuples):
                seconds[slot % wrap] += n * tuple_s
            return
        flop_rate, blas1_rate = config.flop_rate, config.blas1_rate
        stream_rate = config.stream_rate
        flops, blas1, stream, calls = cost.entries()
        for slot, n, f, b, m, k in zip(slots, tuples, flops, blas1, stream, calls):
            seconds[slot % wrap] += (
                (n + k) * tuple_s + f / flop_rate + b / blas1_rate + m / stream_rate
            )

    def charge_disk(self, slot: int, scan_bytes: float) -> None:
        # ``disk_seconds``, the rate read once
        self.slot_seconds[slot % self._slots] += scan_bytes / self._disk_rate

    def charge_disks(self, nbytes) -> None:
        """:meth:`charge_disk` of every slot in turn, slot ``s`` moving
        ``nbytes[s]``."""
        seconds, wrap, rate = self.slot_seconds, self._slots, self._disk_rate
        for slot, moved in enumerate(nbytes):
            seconds[slot % wrap] += moved / rate

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

    def charge_states(self, state_bytes) -> List[int]:
        """Note each slot's operator state (``state_bytes[s]``); a state
        over the budget spills — a write plus a reload at disk rate,
        counted — and the slots that spilled are returned, after one test
        of the largest. The decision and the charge are pure byte
        accounting, identical in both storage modes (disk mode also
        round-trips the state through a physical spill file)."""
        peak = max(state_bytes, default=0.0)
        self.note_peak(peak)
        if not self.spills(peak):
            return []
        spilled = [slot for slot, nbytes in enumerate(state_bytes) if self.spills(nbytes)]
        for slot in spilled:
            self.charge_disk(slot, 2.0 * state_bytes[slot])
            self.spill_bytes += state_bytes[slot]
            self.spill_events += 1
        return spilled

    # -- results -----------------------------------------------------------

    def finish(self) -> "OperatorRun":
        """Close the run: its wall clock is the busiest slot's seconds
        plus the network's, which every machine's link shares."""
        config, slots = self._config, self.slot_seconds
        self.max_worker_seconds = busiest = max(slots)
        self.mean_worker_seconds = sum(slots) / len(slots)
        network = config.network_rate * config.machines
        self.wall_seconds = busiest + self.network_bytes / network
        self.slot_seconds = tuple(slots)
        return self


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
        self.metrics.operators.append(run.finish())
        return run

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
        if max(held, default=0.0) <= limit:
            return
        for slot, used in enumerate(held):
            if used > limit:
                raise ResourceExhaustedError(
                    f"operator {name}: partition on slot {slot} needs "
                    f"{used / 1e9:.2f} GB but slots have "
                    f"{limit / 1e9:.2f} GB"
                )
