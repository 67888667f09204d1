"""The system catalog: tables, views, and their statistics.

Table payloads (partitioned tuple storage) live in the engine; the catalog
holds schemas and metadata and maps names to storage. Views are stored as
parsed query ASTs and expanded during binding, exactly like traditional
SQL views. Materialized views (``repro/views/``) additionally carry
stored state; the catalog tracks their base-table dependency graph so
``DROP TABLE`` cannot silently orphan them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import CatalogError, DependentViewError
from ..types import DataType
from .schema import Schema
from .statistics import TableStats


@dataclass
class TableEntry:
    """A base table: schema plus a reference to partitioned storage."""

    name: str
    schema: Schema
    storage: object = None  # engine.storage.PartitionedTable once loaded
    #: read by a compile only through ``CostModel.scan_rule``, which
    #: records the read (the plan then holds the statistics stamp)
    stats: TableStats = field(default_factory=TableStats)

    def refined_type(self, column) -> DataType:
        """``column``'s declared type with the dimensions its statistics
        observed filled in: part of the table's shape, so a statistics
        refresh that changes it moves the shape stamp."""
        return self.stats.column(column.name).refine_type(column.data_type)

    def shape(self) -> Tuple:
        """What binding and lowering read of this table besides its
        statistics: each column with its refined type, and the columns
        its storage is partitioned on. Equal shapes bind and lower a
        statement alike."""
        storage = self.storage
        return (
            self.schema.columns,
            tuple(self.refined_type(column) for column in self.schema),
            tuple(storage.partition_by or ()) if storage is not None else None,
        )

    def statistics_read(self) -> Tuple:
        """What an estimate reads of this table's statistics
        (``CostModel.scan_rule``): the row count and each column's
        distinct count — never the accumulator sets behind them."""
        stats = self.stats
        return (stats.row_count, *(stats.distinct(c.name) for c in self.schema))


@dataclass
class ViewEntry:
    """A view: the defining query's AST plus optional renamed columns,
    and the normalised text of the statement that created it (what a
    snapshot stores; a session's temp view has none)."""

    name: str
    query: object  # sql.ast.SelectStatement
    column_names: Optional[List[str]] = None
    text: Optional[str] = None


class Catalog:
    """Name-to-object mapping with case-insensitive SQL semantics.

    The catalog carries one monotonically increasing :attr:`version`,
    advanced once by every statement that changes it. Every relation
    carries two *stamps*, values of that counter (:meth:`touch`):

    * its **shape** stamp (:meth:`stamp`) moves when what a binder or
      view matcher resolves for it changes — DDL, a materialized view
      over it created, dropped, refreshed, rebuilt or gone stale, and a
      statistics refresh that changes a ``VECTOR[]`` / ``MATRIX[][]``
      dimension the binder refines its columns with;
    * its **statistics** stamp (:meth:`statistics_stamp`) moves with
      every statement that changes its rows, and with its shape.

    So caches invalidate selectively: a cached plan records the shape
    stamp of everything it resolved and the statistics stamp of the
    tables whose statistics it read, and is valid while those are
    unchanged. Because the counter never goes back, a name that is
    dropped and created again can never repeat a stamp.
    """

    def __init__(self):
        self._tables: Dict[str, TableEntry] = {}
        self._views: Dict[str, ViewEntry] = {}
        #: materialized views (repro.views.MaterializedView objects),
        #: keyed like every other relation
        self._matviews: Dict[str, object] = {}
        self.version = 0
        self._stamps: Dict[str, int] = {}
        self._statistics: Dict[str, int] = {}

    def bump_version(self) -> int:
        """Advance the catalog version; returns the new version."""
        self.version += 1
        return self.version

    # -- per-relation stamps ----------------------------------------------

    def touch(self, *names: str, shape: bool = True) -> None:
        """Relations ``names`` changed: stamp them with one fresh
        version. Every touch moves their statistics stamps; ``shape``
        (the default: created, a materialized view over them came, went
        or changed state, a refined dimension moved) moves their shape
        stamps too, and ``shape=False`` is a change of rows alone.
        Cached plans that read what moved are stale, others are not."""
        version = self.bump_version()
        for name in names:
            key = name.lower()
            self._statistics[key] = version
            if shape:
                self._stamps[key] = version

    def stamp(self, name: str) -> int:
        """The version at ``name``'s last change of shape; 0 for no such
        relation (a live relation's stamp is never 0)."""
        return self._stamps.get(name.lower(), 0)

    def statistics_stamp(self, name: str) -> int:
        """The version at ``name``'s last change of rows or shape; 0 for
        no such relation."""
        return self._statistics.get(name.lower(), 0)

    def shape(self, name: str):
        """The content behind ``name``'s shape stamp: what a binder, a
        view matcher and a planner read of the relation besides
        statistics — a table's :meth:`TableEntry.shape` with the state of
        every materialized view over it, a view's query, a materialized
        view's state. None for no such relation. A plan compiled against
        equal shapes (and equal statistics) is the plan a compile would
        make now, so it outlives a stamp that moved while nothing it
        read changed: a table dropped and created again alike."""
        key = name.lower()
        table = self._tables.get(key)
        if table is not None:
            views = tuple(
                self._matview_state(view)
                for view in self._matviews.values()
                if key in view.base_tables
            )
            return table.shape(), views
        view = self._views.get(key)
        if view is not None:
            return view.query, view.column_names
        matview = self._matviews.get(key)
        return None if matview is None else self._matview_state(matview)

    @staticmethod
    def _matview_state(view) -> Tuple:
        """The view itself (a plan may answer from it), whether it may
        answer, and the row count estimates read of it."""
        return view, view.fresh, view.estimated_rows()

    def _unstamp(self, name: str) -> None:
        key = name.lower()
        self._stamps.pop(key, None)
        self._statistics.pop(key, None)

    def _forget(self, name: str) -> None:
        """``name`` was dropped: it has no stamp until it exists again."""
        self._unstamp(name)
        self.bump_version()

    # -- tables -----------------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> TableEntry:
        key = name.lower()
        if self.has_relation(name):
            raise CatalogError(f"relation {name!r} already exists")
        entry = TableEntry(name=name, schema=schema)
        self._tables[key] = entry
        self.touch(name)
        return entry

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"no table named {name!r}")
        dependents = self.views_depending_on(name)
        if dependents:
            raise DependentViewError(
                f"cannot drop table {name!r}: materialized view(s) "
                f"{', '.join(repr(v) for v in dependents)} depend on it "
                f"(drop them first)",
                table=name,
                views=dependents,
            )
        del self._tables[key]
        self._forget(name)

    def table(self, name: str) -> TableEntry:
        entry = self._tables.get(name.lower())
        if entry is None:
            raise CatalogError(f"no table named {name!r}")
        return entry

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> List[TableEntry]:
        return list(self._tables.values())

    # -- views ------------------------------------------------------------

    def create_view(
        self,
        name: str,
        query,
        column_names: Optional[List[str]] = None,
        text: Optional[str] = None,
    ) -> ViewEntry:
        key = name.lower()
        if self.has_relation(name):
            raise CatalogError(f"relation {name!r} already exists")
        entry = ViewEntry(name, query, column_names, text)
        self._views[key] = entry
        self.touch(name)
        return entry

    def drop_view(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._views:
            if if_exists:
                return
            raise CatalogError(f"no view named {name!r}")
        del self._views[key]
        self._forget(name)

    def view(self, name: str) -> Optional[ViewEntry]:
        return self._views.get(name.lower())

    # -- materialized views ------------------------------------------------

    def create_materialized_view(self, view) -> None:
        """Register one :class:`repro.views.MaterializedView` under its
        name (which must be free across tables, views, and materialized
        views alike). Its base tables are stamped with it: plans over
        them re-plan and may now answer from the view."""
        if self.has_relation(view.name):
            raise CatalogError(f"relation {view.name!r} already exists")
        self._matviews[view.name.lower()] = view
        self.touch(view.name, *view.base_tables)

    def drop_materialized_view(self, name: str, if_exists: bool = False):
        key = name.lower()
        view = self._matviews.pop(key, None)
        if view is None:
            if if_exists:
                return None
            raise CatalogError(f"no materialized view named {name!r}")
        self._unstamp(key)
        # plans that answered from the view must re-plan without it
        self.touch(*view.base_tables)
        return view

    def materialized_view(self, name: str):
        return self._matviews.get(name.lower())

    def materialized_views(self) -> List[object]:
        return list(self._matviews.values())

    def views_depending_on(self, table: str) -> List[str]:
        """Names of materialized views that read ``table`` (registration
        order) — the dependency edges DROP TABLE refuses to cut."""
        key = table.lower()
        return [
            view.name
            for view in self._matviews.values()
            if key in view.base_tables
        ]

    def has_relation(self, name: str) -> bool:
        key = name.lower()
        return key in self._tables or key in self._views or key in self._matviews
