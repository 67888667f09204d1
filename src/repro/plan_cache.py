"""The plan cache: compiled query plans keyed on normalized SQL.

One per :class:`~repro.db.Database`, shared by embedded ``db.execute``,
every service session and its prepared handles. For a workload of
repeated query *templates* parsing, binding and optimizing per call is
pure overhead — SimSQL-style systems pay seconds of compilation per
statement. The cache stores the optimized logical plan, the physical
plan, and the statement's runtime parameter cells, keyed on:

* the **normalized SQL text** (token-normalized: whitespace and keyword
  case insensitive, so ``select X`` and ``SELECT  x`` share a plan);
* the **parameter type signature** — plans bake in inferred vector and
  matrix dimensions (the paper's templated signatures), so ``:v`` bound
  to a length-10 vector compiles a different plan than a length-20 one;
* the **session scope** — empty for sessions without temp views, so
  plain queries share plans across sessions, while sessions that shadow
  names with temp views get isolated entries;
* the **execution fingerprint** and the **feedback version**.

An entry is *valid while what it read is unchanged*. It records two
kinds of catalog stamp (:class:`repro.catalog.Catalog`), and a lookup
revalidates both:

* the **shape** stamp of every relation it resolved — tables, inlined
  views, materialized views read by name and their base tables. DDL
  moves it, and so does whatever happens to a materialized view
  (created, dropped, refreshed, rebuilt, gone stale), which stamps its
  base tables, so plans that answer from it, or could, re-plan; so does
  a statistics refresh that changes a ``VECTOR[]`` / ``MATRIX[][]``
  dimension the binder refined a column with;
* the **statistics** stamp of only those tables whose statistics its
  estimates read (``CostModel.scan_rule``). Every statement that changes
  a table's rows moves it.

So an append to a table invalidates the plans that estimated from its
row count, and leaves a plan answered from an incremental view over it
— which reads no statistics — cached. Stamps are values of the catalog's
one monotonic version counter, so they never repeat for a name across
DROP / CREATE: an ``INSERT`` into table A, or a CTAS and DROP of table C,
leave plans that touch only table B hitting.

Bounded LRU; hit/miss/eviction counters feed the service metrics.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .sql import normalize_sql  # noqa: F401  (documented here and in repro.service)
from .types import LabeledScalar, Matrix, Vector


def param_type_key(value) -> Tuple:
    """A hashable tag of one parameter value's *type* (including LA
    dimensions), mirroring how the binder types literals. Values of the
    same tag can safely share a compiled plan."""
    if isinstance(value, bool):
        return ("bool",)
    if isinstance(value, int):
        return ("int",)
    if isinstance(value, float):
        return ("double",)
    if isinstance(value, str):
        return ("string",)
    if isinstance(value, LabeledScalar):
        return ("labeled_scalar",)
    if isinstance(value, Vector):
        return ("vector", value.length)
    if isinstance(value, Matrix):
        return ("matrix", value.rows, value.cols)
    if value is None:
        return ("null",)
    return ("opaque", type(value).__name__)


def param_signature(params: Dict[str, object]) -> Tuple:
    """The sorted (name, type tag) signature of a parameter set."""
    return tuple(
        (name, param_type_key(value)) for name, value in sorted(params.items())
    )


@dataclass(frozen=True)
class PlanCacheKey:
    #: normalised text of the statement the plan belongs to (for the
    #: query inside a CTAS or INSERT ... SELECT, the whole statement's)
    sql: str
    param_types: Tuple = ()
    scope: str = ""
    #: execution-relevant configuration baked into the compiled plan:
    #: (execution_mode, storage_mode). A plan
    #: compiled under one mode must never serve another — the physical
    #: plan shape and cost decisions can differ.
    exec_fingerprint: Tuple = ()
    #: version of the database's cardinality-feedback statistics at
    #: compile time; feedback that materially changes an estimate bumps
    #: it, so plans built from stale statistics miss and recompile
    feedback_version: int = 0


@dataclass
class CachedPlan:
    """One compiled statement: plans plus its runtime parameter cells.
    The physical plan's nodes carry the estimates it was compiled with
    (``CostModel.price_physical``): what they read moves a recorded
    shape or statistics stamp or the key's feedback version, so they
    hold while the entry hits."""

    logical: object  # plan.LogicalNode
    physical: object  # plan.PhysicalNode
    param_cells: Dict[str, object] = field(default_factory=dict)
    #: (relation name, shape stamp) for everything the plan resolved,
    #: captured at compile time; a lookup revalidates these, so a change
    #: to any of them invalidates exactly the plans that read it
    stamps: Tuple[Tuple[str, int], ...] = ()
    #: (table name, statistics stamp) for the tables whose statistics
    #: the compile's estimates read — none for a view-answered plan
    statistics: Tuple[Tuple[str, int], ...] = ()

    def bind(self, params: Dict[str, object]) -> None:
        """Write fresh parameter values into the plan's (thread-local)
        cells before an execution; the cache key carries the parameter
        names, so a hit always supplies every cell."""
        for name, cell in self.param_cells.items():
            cell.set(params[name])


def count_nodes(plan) -> int:
    """Plan size (physical operators), used to model compile cost."""
    return 1 + sum(count_nodes(child) for child in plan.children())


class PlanCache:
    """A bounded LRU mapping :class:`PlanCacheKey` to :class:`CachedPlan`."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanCacheKey, CachedPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        # assigned last: post-construction writes require the lock (see
        # repro.service.locking)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def resize(self, capacity: int) -> None:
        """Change the LRU bound, evicting the oldest entries past it."""
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        with self._lock:
            self.capacity = capacity
            self._evict()

    def _evict(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def lookup(
        self,
        key: PlanCacheKey,
        stamp_of: Optional[Callable[[str], int]] = None,
        statistics_of: Optional[Callable[[str], int]] = None,
    ) -> Optional[CachedPlan]:
        """Find a live entry. ``stamp_of`` and ``statistics_of``
        (normally ``catalog.stamp`` and ``catalog.statistics_stamp``)
        revalidate the entry's recorded stamps: a mismatch means
        something the plan read changed, so the entry is dropped and the
        lookup misses — plans over untouched relations keep hitting."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if (
                stamp_of is not None
                and any(stamp_of(name) != stamp for name, stamp in entry.stamps)
            ) or (
                statistics_of is not None
                and any(
                    statistics_of(name) != stamp
                    for name, stamp in entry.statistics
                )
            ):
                del self._entries[key]
                self.invalidated += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def store(self, key: PlanCacheKey, plan: CachedPlan) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            self._evict()

    def purge_stale(self, feedback_version: int) -> int:
        """Drop entries compiled against older feedback statistics; they
        can never hit again (the key embeds the version), so this only
        frees memory. Returns the number dropped."""
        with self._lock:
            stale = [
                key
                for key in self._entries
                if key.feedback_version != feedback_version
            ]
            for key in stale:
                del self._entries[key]
            self.invalidated += len(stale)
            return len(stale)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
                "evictions": self.evictions,
                "invalidated": self.invalidated,
            }
