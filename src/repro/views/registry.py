"""The database-level materialized-view subsystem.

One :class:`ViewRegistry` per :class:`repro.Database`. It owns the
lifecycle (``CREATE``/``REFRESH``/``DROP MATERIALIZED VIEW``), reacts to
base-table changes from the DML paths, and keeps the cumulative counters
that ``QueryService.stats()["views"]`` serves.

Refresh-mode semantics (``ClusterConfig.view_refresh_mode``):

* ``"eager"`` (default) — incremental views fold the appended suffix at
  write time (O(delta), under the writer's exclusive admission); full
  views recompute immediately on any base-table change. Every view is
  always fresh.
* ``"deferred"`` — writes only invalidate: incremental views catch up
  lazily at the next read (the fold moves from the write path to the
  first read), full views go stale and are skipped by the optimizer
  until an explicit ``REFRESH MATERIALIZED VIEW``.
"""

from __future__ import annotations

import threading
from typing import Dict

from ..engine.executor import CHUNK_CLASSES
from ..errors import CatalogError, CompileError, ReproError
from .definition import MaterializedView


class ViewRegistry:
    """Creates, maintains, refreshes, and drops materialized views."""

    def __init__(self, db):
        self._db = db
        # reentrancy guard: a full refresh runs the view's own SELECT,
        # whose planning must not be answered from the view being
        # refreshed (or trigger further maintenance)
        self._refreshing = False
        #: per-statement maintenance summary, stashed by the DML hooks
        #: and picked up into that statement's QueryMetrics
        self.last_maintenance: Dict[str, int] = {}
        self._lock = threading.RLock()

    @property
    def refresh_mode(self) -> str:
        return self._db.config.view_refresh_mode

    @property
    def _chunks(self):
        """The chunk class of the database's current ``execution_mode``:
        maintenance folds with the kernel its queries run."""
        return CHUNK_CLASSES[self._db.execution_mode]

    # -- lifecycle -----------------------------------------------------------

    def create(self, statement, text: str, restored=None) -> MaterializedView:
        """Bind, classify, register, and initially populate the view a
        ``CREATE MATERIALIZED VIEW`` statement defines (``text``: its
        normalised text, what a snapshot stores of the view).
        ``restored`` is the ``(rows, stale)`` a snapshot saved for it: a
        full view gets both back verbatim instead of recomputing (a
        stale deferred view must stay stale). An incremental view folds
        the partitions either way (they are restored verbatim, so the
        per-slot fold reproduces bit for bit); one whose fold raises is
        refused when new and comes back stale from a snapshot."""
        from ..plan.binder import Binder

        db = self._db
        name = statement.name
        # bind with no parameters: a materialized view's state cannot
        # depend on per-query parameter values
        binder = Binder(db.catalog)
        try:
            plan = binder.bind_select(statement.query)
        except CompileError as exc:
            if "parameter" in str(exc):
                raise CompileError(
                    f"materialized view {name!r}: parameters are not "
                    f"allowed in the defining query"
                ) from exc
            raise
        view = MaterializedView(
            name, statement.query, statement.column_names, plan, db.config.slots, text
        )
        db.catalog.create_materialized_view(view)
        try:
            if view.incremental:
                try:
                    view.catch_up(self._chunks)
                except ReproError:
                    if restored is None:
                        raise
                    view.invalidate()
            elif restored is None:
                self._recompute(view)
            else:
                rows, view.stale = restored
                if rows is None:  # what a snapshot holds of an incremental view
                    raise CatalogError(
                        f"materialized view {name!r} is computed in full, "
                        "and its saved rows are missing"
                    )
                view.rows = [tuple(row) for row in rows]
        except Exception:
            db.catalog.drop_materialized_view(name)
            raise
        # the initial build is neither a refresh nor maintenance
        view.refresh_count = view.maintain_count = view.delta_rows = 0
        return view

    def drop(self, name: str, if_exists: bool = False) -> None:
        self._db.catalog.drop_materialized_view(name, if_exists=if_exists)

    def refresh(self, name: str) -> MaterializedView:
        """REFRESH MATERIALIZED VIEW: rebuild from the base tables —
        a from-scratch re-fold for incremental views, a recompute for
        full views (also how a stale deferred view becomes fresh)."""
        view = self._db.catalog.materialized_view(name)
        if view is None:
            raise CatalogError(f"no materialized view named {name!r}")
        if view.incremental:
            view.invalidate()
            view.catch_up(self._chunks)
        else:
            self._recompute(view)
        # a stale view turning fresh (or a refreshed one changing size)
        # is a change to the shape of what plans over its base tables
        # may answer from
        self._db.catalog.touch(*view.base_tables)
        return view

    # -- base-table change hooks ----------------------------------------------

    def rebuilds(self, table: str, append_only: bool) -> bool:
        """Whether :meth:`on_table_changed` with these arguments rebuilds
        (or leaves stale) a view over ``table``: any full view, or an
        incremental one unless rows were only appended. The caller then
        stamps the table's shape, so plans answering from it re-plan."""
        key = table.lower()
        return not self._refreshing and any(
            not (view.incremental and append_only)
            for view in self._db.catalog.materialized_views()
            if key in view.base_tables
        )

    def on_table_changed(self, table: str, append_only: bool) -> None:
        """``table`` changed: rows were appended (INSERT/CTAS/load — the
        O(delta) path for incremental views), or it changed
        non-incrementally (DELETE/truncate)."""
        with self._lock:
            if self._refreshing:
                return
            summary = {"maintained": 0, "delta_rows": 0, "refreshes": 0}
            key = table.lower()
            for view in self._db.catalog.materialized_views():
                if key not in view.base_tables:
                    continue
                rebuild = not (view.incremental and append_only)
                if rebuild:
                    # the caller stamped the shape of ``table``, one of
                    # the view's bases (``rebuilds``), so plans
                    # answering from the view re-plan
                    view.invalidate()
                if self.refresh_mode != "eager":
                    # deferred: an incremental view catches up at its
                    # next read, a full view waits for a REFRESH
                    continue
                try:
                    if view.incremental:
                        folded = view.catch_up(self._chunks)
                    else:
                        self._recompute(view)
                except ReproError:
                    # the write stands, and is logged, as with no view:
                    # the error belongs to the read that uses the view,
                    # which rebuilds it (or, it being a full view,
                    # rescans) and raises what a rescan of this data raises
                    view.invalidate()
                    continue
                if rebuild:
                    summary["refreshes"] += 1
                else:
                    summary["delta_rows"] += folded
                    summary["maintained"] += 1
            self.last_maintenance = summary

    # -- full recompute -------------------------------------------------------

    def _recompute(self, view: MaterializedView) -> None:
        """Re-run a full view's defining query (with view matching
        disabled, so a view never answers its own refresh) and install
        the result rows."""
        with self._lock:
            previous = self._refreshing
            self._refreshing = True
            try:
                result = self._db._run_select(
                    view.query, params=None, use_views=False
                )
            finally:
                self._refreshing = previous
            view.set_rows(result.rows)

    # -- introspection --------------------------------------------------------

    def take_last_maintenance(self) -> Dict[str, int]:
        """The maintenance summary of the most recent DML statement
        (consumed by the statement's Result metrics)."""
        with self._lock:
            summary = self.last_maintenance
            self.last_maintenance = {}
            return summary

    def stats(self) -> Dict[str, object]:
        views = self._db.catalog.materialized_views()
        per_view = {view.name: view.stats() for view in views}
        return {
            "count": len(views),
            "refresh_mode": self.refresh_mode,
            "hits": sum(view.hits for view in views),
            "maintenance_runs": sum(view.maintain_count for view in views),
            "delta_rows": sum(view.delta_rows for view in views),
            "refreshes": sum(view.refresh_count for view in views),
            "views": per_view,
        }
