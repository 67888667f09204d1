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
kinds of catalog stamp (:class:`repro.catalog.Catalog`), which a lookup
checks first:

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

Stamps are values of the catalog's one monotonic version counter, so
they never repeat for a name across DROP / CREATE: an ``INSERT`` into
table A, or a CTAS and DROP of table C, leave plans that touch only
table B hitting.

A stamp that moved says only that something *may* have changed, so the
entry also holds the **content** its compile read, and a lookup that
finds a moved stamp compares that before giving up on the entry
(:meth:`CachedPlan.renewed`):

* every relation's shape content (``Catalog.shape``: columns with their
  refined types, partitioning, the materialized views over a table and
  their state, a view's query) and every statistics read
  (``TableEntry.statistics_read``: row count and distinct counts) equal
  — the plan is **revalidated**: a hit, re-pointed at the live tables
  (a table dropped and created again alike is a new ``TableEntry``) and
  restamped;
* shapes equal, and the statistics that moved fed only the estimates
  written onto the plan — the plan is **re-priced**:
  ``CostModel.price_physical`` over a copy of its physical plan, with no
  bind, optimize or lower;
* otherwise — a shape moved, or moved statistics fed a **choice** —
  the entry is dropped and the statement compiles again. A choice is any
  place where optimizing or lowering branches on an estimate: the join
  order (``Optimizer``), ``CostModel.join_layout``, limit pushdown and
  the planner's sort-or-Top-K pick (``CostModel.choosing`` records the
  tables under each).

So an append to a table re-prices the plans that only estimated from
its row count, leaves a plan answered from an incremental view over it
— which reads no statistics — cached as it is, and recompiles a plan
whose join order read it. A renewed plan is a new entry: the cached one,
which another thread may be executing, is never written to. Each
recompile is logged on the ``repro.plan_cache`` logger at DEBUG with its
reason: a shape moved, a choice-feeding statistics read moved, or the
feedback version.

Bounded LRU; hit/miss/eviction/renewal counters feed the service
metrics.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from .engine.executor import PlanFacts
from .sql import normalize_sql  # noqa: F401  (documented here and in repro.service)
from .types import LabeledScalar, Matrix, Vector

_log = logging.getLogger(__name__)

#: why a cached plan compiles again, by the outcome :meth:`CachedPlan.renewed` names
RECOMPILE_REASONS = {
    "shape": "a shape it read moved",
    "choice": "a choice-feeding statistics read moved",
    "feedback": "the feedback version moved",
}


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
    (``CostModel.price_physical``). It is valid *by content*: while the
    shapes and statistics its compile read are equal it is the plan a
    compile would make now, whatever the stamps say; when only
    statistics that fed no choice moved, the same plan priced again is
    (:meth:`renewed`)."""

    logical: object  # plan.LogicalNode
    physical: object  # plan.PhysicalNode
    param_cells: Dict[str, object] = field(default_factory=dict)
    #: (relation name, shape stamp) for everything the plan resolved,
    #: captured at compile time; a lookup checks these first
    stamps: Tuple[Tuple[str, int], ...] = ()
    #: table name -> (statistics stamp, the statistics read) for the
    #: tables whose statistics the compile's estimates read — none for a
    #: view-answered plan; a lookup checks the stamp, and compares the
    #: statistics read (``TableEntry.statistics_read``) when it moved
    statistics: Dict[str, Tuple[int, Tuple]] = field(default_factory=dict)
    #: relation name -> its shape content at compile time
    #: (``Catalog.shape``), compared when a stamp moved
    shapes: Dict[str, object] = field(default_factory=dict)
    #: the tables among ``statistics`` whose statistics fed a choice
    #: (``CostModel.choosing``): when theirs move, the plan compiles again
    chose: FrozenSet[str] = frozenset()

    def __post_init__(self):
        # the plan's run-time facts, derived once it is priced and kept on
        # its root, never written again there (another thread may run it)
        if self.physical is not None and getattr(self.physical, "facts", None) is None:
            self.physical.facts = PlanFacts(self.physical)

    def bind(self, params: Dict[str, object]) -> None:
        """Write fresh parameter values into the plan's (thread-local)
        cells before an execution; the cache key carries the parameter
        names, so a hit always supplies every cell."""
        for name, cell in self.param_cells.items():
            cell.set(params[name])

    def renewed(self, catalog, price) -> Tuple[Optional["CachedPlan"], str]:
        """This plan brought up to date with ``catalog`` after a stamp it
        holds moved, and how: ``"revalidated"`` (everything it read is
        equal: the same plans, re-pointed at the live tables) or
        ``"repriced"`` (statistics that fed only estimates moved: a copy
        of the physical plan priced by ``price``,
        ``CostModel.price_physical``). ``(None, reason)`` when it must
        compile again: ``"shape"`` or ``"choice"``."""
        if any(catalog.shape(name) != shape for name, shape in self.shapes.items()):
            return None, "shape"
        tables = {name: catalog.table(name) for name in self.statistics}
        read = {name: table.statistics_read() for name, table in tables.items()}
        moved = {
            name for name, (_, fields) in self.statistics.items() if read[name] != fields
        }
        if moved & self.chose:
            return None, "choice"
        logical, physical = self.logical, self.physical
        if any(
            node.table is not tables[node.table.name.lower()]
            for node in _walk(physical)
            if hasattr(node, "table")
        ):
            logical, physical = _copied(logical, tables), _copied(physical, tables)
        elif moved:
            physical = _copied(physical, tables)
        if moved:
            price(physical)
        if physical is not self.physical:
            physical.facts = PlanFacts(physical, like=self.physical.facts)
        renewed = replace(
            self,
            logical=logical,
            physical=physical,
            stamps=tuple((name, catalog.stamp(name)) for name, _ in self.stamps),
            statistics={
                name: (catalog.statistics_stamp(name), fields)
                for name, fields in read.items()
            },
        )
        return renewed, "repriced" if moved else "revalidated"


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)


def _copied(node, tables):
    """A copy of the logical or physical plan under ``node``, every node
    copied and every scan reading the live table of its name in
    ``tables``; the nodes copied from are left as they are. A node's
    inputs are what its ``children()`` returns, found among its
    attributes by identity. A copy takes its original's attributes, the
    copied inputs and live table in place of theirs, in one update, and
    none of its facts (they name the original's nodes)."""
    inputs = {id(child) for child in node.children()}
    changed = {k: _copied(v, tables) for k, v in vars(node).items() if id(v) in inputs}
    assert len(changed) == len(inputs), f"{type(node).__name__} holds an input apart"
    table = getattr(node, "table", None)
    if table is not None:
        changed["table"] = tables.get(table.name.lower(), table)
    clone = object.__new__(type(node))
    clone.__dict__.update(vars(node), **changed)
    clone.__dict__.pop("facts", None)
    return clone


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
        #: hits on an entry whose stamps moved while what it read did not
        self.revalidated = 0
        #: hits on an entry priced again for statistics that moved
        self.repriced = 0
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
        renew: Callable[[CachedPlan], Tuple[Optional[CachedPlan], str]],
        stamp_of: Optional[Callable[[str], int]] = None,
        statistics_of: Optional[Callable[[str], int]] = None,
    ) -> Optional[CachedPlan]:
        """Find a live entry. ``stamp_of`` and ``statistics_of``
        (normally ``catalog.stamp`` and ``catalog.statistics_stamp``)
        check the entry's recorded stamps. When one moved, ``renew``
        (normally :meth:`CachedPlan.renewed` over the catalog) may still
        bring the entry up to date — a hit on the renewed entry, which
        replaces it; otherwise (``(None, reason)``, a key of
        :data:`RECOMPILE_REASONS`) the entry is dropped and the lookup
        misses. Plans over untouched relations keep hitting."""
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
                    for name, (stamp, _) in entry.statistics.items()
                )
            ):
                entry, outcome = renew(entry)
                if entry is None:
                    del self._entries[key]
                    self.invalidated += 1
                    self.misses += 1
                    _log.debug("recompiling %r: %s", key.sql, RECOMPILE_REASONS[outcome])
                    return None
                self._entries[key] = entry
                if outcome == "revalidated":
                    self.revalidated += 1
                else:
                    self.repriced += 1
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
                _log.debug("recompiling %r: %s", key.sql, RECOMPILE_REASONS["feedback"])
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
                "revalidated": self.revalidated,
                "repriced": self.repriced,
            }
