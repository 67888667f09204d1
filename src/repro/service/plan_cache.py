"""The plan cache: compiled query plans keyed on normalized SQL.

Every ``Database.execute`` re-parses, re-binds and re-optimizes its
statement. For a serving workload of repeated query *templates* that is
pure overhead — SimSQL-style systems pay seconds of compilation per
statement. The cache stores the optimized logical plan, the physical
plan, and the statement's runtime parameter cells, keyed on:

* the **normalized SQL text** (token-normalized: whitespace and keyword
  case insensitive, so ``select X`` and ``SELECT  x`` share a plan);
* the **DDL version** — bumped only when the set of relations changes
  (CREATE/DROP), so schema changes invalidate everything, while plain
  data changes do not touch the key at all;
* the **referenced-table versions** — each cached plan records the
  per-table version of every base table it scans at compile time, and
  a lookup revalidates them: an ``INSERT`` into table A bumps only A's
  version, so plans that touch only table B keep hitting (previously
  any catalog bump flushed the whole cache);
* the **parameter type signature** — plans bake in inferred vector and
  matrix dimensions (the paper's templated signatures), so ``:v`` bound
  to a length-10 vector compiles a different plan than a length-20 one;
* the **session scope** — empty for sessions without temp views, so
  plain queries share plans across sessions, while sessions that shadow
  names with temp views get isolated entries.

Bounded LRU; hit/miss/eviction counters feed the service metrics.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..sql.lexer import tokenize
from ..types import LabeledScalar, Matrix, Vector


def normalize_sql(sql: str) -> str:
    """A whitespace- and keyword-case-insensitive rendering of one SQL
    statement, used as the textual part of the cache key."""
    parts = []
    for token in tokenize(sql):
        if token.kind == "EOF":
            break
        if token.kind == "KEYWORD":
            parts.append(token.text.upper())
        elif token.kind == "IDENT":
            parts.append(token.text.lower())
        elif token.kind == "STRING":
            # re-quote so a string literal can never collide with an
            # identifier of the same spelling
            parts.append(repr(token.text))
        elif token.kind == "PARAM":
            parts.append(f":{token.text}")
        else:
            parts.append(token.text)
    return " ".join(parts)


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
    sql: str
    #: the catalog's *DDL* version (relation set), not its full version:
    #: data changes are validated per referenced table instead (see
    #: :attr:`CachedPlan.table_versions`), so an INSERT into one table
    #: no longer invalidates plans over unrelated tables
    ddl_version: int
    param_types: Tuple
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
    """One compiled statement: plans plus its runtime parameter cells."""

    logical: object  # plan.LogicalNode
    physical: object  # plan.PhysicalNode
    param_cells: Dict[str, object] = field(default_factory=dict)
    node_count: int = 0
    #: (table name, catalog table version) for every base table the plan
    #: reads — including the bases of any materialized view it answers
    #: from — captured at compile time; a lookup revalidates these so
    #: data changes invalidate exactly the plans that read them
    table_versions: Tuple[Tuple[str, int], ...] = ()

    def bind(self, params: Dict[str, object]) -> None:
        """Write fresh parameter values into the plan's cells before an
        execution; raises KeyError-free CompileError upstream if a used
        parameter is missing (the cache key makes that impossible for
        cache hits)."""
        for name, cell in self.param_cells.items():
            cell.set(params[name])


def count_nodes(plan) -> int:
    """Plan size (physical operators), used to model compile cost."""
    return 1 + sum(count_nodes(child) for child in plan.children())


def referenced_tables(logical) -> Tuple[str, ...]:
    """Sorted lowercase names of every base table a logical plan reads.
    A ViewScan contributes its view's base tables: the stored view state
    tracks those tables, so the plan is stale exactly when they move."""
    from ..plan.logical import ScanNode, ViewScanNode

    names = set()
    stack = [logical]
    while stack:
        node = stack.pop()
        if isinstance(node, ScanNode):
            names.add(node.table.name.lower())
        elif isinstance(node, ViewScanNode):
            names.update(node.view.base_tables)
        stack.extend(node.children())
    return tuple(sorted(names))


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

    def lookup(
        self, key: PlanCacheKey, table_version_of=None
    ) -> Optional[CachedPlan]:
        """Find a live entry. ``table_version_of`` (a ``name -> version``
        callable, normally ``catalog.table_version``) revalidates the
        entry's recorded base-table versions: a mismatch means the data
        under the plan moved, so the entry is dropped and the lookup
        misses — plans over untouched tables keep hitting."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if table_version_of is not None and any(
                table_version_of(name) != version
                for name, version in getattr(entry, "table_versions", ())
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
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def purge_stale(
        self,
        current_version: int,
        feedback_version: Optional[int] = None,
    ) -> int:
        """Drop entries compiled against an older DDL version (or, when
        ``feedback_version`` is given, older feedback statistics); they
        can never hit again (the key embeds both versions), so this only
        frees memory. Returns the number dropped."""
        with self._lock:
            stale = [
                key
                for key in self._entries
                if key.ddl_version != current_version
                or (
                    feedback_version is not None
                    and key.feedback_version != feedback_version
                )
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
