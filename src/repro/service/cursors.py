"""Streaming result cursors: paginated fetch over a completed result.

A :class:`Cursor` is the session-side half of the wire protocol's
streaming fetch (``POST /query`` returns the first page plus an opaque
cursor token; ``POST /fetch`` drains the rest). It is a small state
machine in the style of opteryx's ``cursor.py``:

    open ──fetch*──▶ open (position advances, ``exhausted`` once past
    │                the last row; further fetches return empty pages)
    └─close()──────▶ closed (fetch raises :class:`CursorClosedError`)

Two events force-close a cursor from the outside:

* the owning **session closes** (explicitly or via TTL garbage
  collection) — every fetch afterwards raises
  :class:`CursorClosedError`;
* **a change to a relation the statement read** — the cursor is pinned
  to the shape and statistics stamps (:class:`repro.catalog.Catalog`)
  of every relation its statement read, as it executed
  (``Result.stamps``). DDL on one of them, a materialized view over one
  created, dropped or refreshed, or DML that changes one's rows moves a
  stamp: the snapshot can no longer be assumed consistent, and the next
  fetch raises :class:`CursorInvalidatedError` (and closes the cursor).
  Changes to other relations — an ``INSERT`` into another table, DDL
  of an unrelated one — leave the cursor open.

Pages are bounded: ``page_size`` is both the default and the *maximum*
rows per fetch — a client asking for more is clamped, so a single
response can never exceed the negotiated bound.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import CursorClosedError, CursorInvalidatedError


class Cursor:
    """Paginated, bounded fetch over one completed query result."""

    def __init__(self, session, result, page_size: int, cursor_id: int):
        if page_size < 1:
            raise ValueError("cursor page_size must be >= 1")
        self.session = session
        self.result = result
        self.page_size = page_size
        self.id = cursor_id
        self.state = "open"
        self._position = 0
        self.pages_served = 0

    # -- state -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.state == "closed"

    @property
    def position(self) -> int:
        """Rows already fetched."""
        return self._position

    @property
    def rows_total(self) -> int:
        return len(self.result.rows)

    @property
    def exhausted(self) -> bool:
        """True once every row has been fetched (an exhausted cursor is
        still open: fetches return empty pages until it is closed)."""
        return self._position >= self.rows_total

    @property
    def columns(self) -> List[str]:
        return self.result.columns

    def _check_fetchable(self) -> None:
        if self.state == "closed":
            raise CursorClosedError(
                f"cursor {self.id} on session "
                f"{self.session.name!r} is closed"
            )
        if self.session.closed:
            self.close()
            raise CursorClosedError(
                f"cursor {self.id}: owning session "
                f"{self.session.name!r} was closed"
            )
        catalog = self.session.catalog
        moved = [
            name
            for name, shape, statistics in self.result.stamps
            if catalog.stamp(name) != shape
            or catalog.statistics_stamp(name) != statistics
        ]
        if moved:
            self.close()
            raise CursorInvalidatedError(
                f"cursor {self.id}: {', '.join(sorted(moved))} changed "
                f"(DDL/DML since the result was computed)"
            )

    # -- fetching ----------------------------------------------------------

    def fetchmany(self, size: Optional[int] = None) -> List[tuple]:
        """The next page: at most ``min(size, page_size)`` rows (all
        remaining when fewer). Past the end, an empty list."""
        self._check_fetchable()
        if size is None:
            size = self.page_size
        if size < 1:
            raise ValueError(f"fetch size must be >= 1, got {size}")
        size = min(size, self.page_size)
        rows = self.result.rows[self._position : self._position + size]
        self._position += len(rows)
        self.pages_served += 1
        return list(rows)

    def fetchall(self) -> List[tuple]:
        """Every remaining row, page by page (each page stays bounded;
        this just loops for the caller)."""
        rows: List[tuple] = []
        while True:
            page = self.fetchmany()
            if not page:
                return rows
            rows.extend(page)

    def close(self) -> None:
        """Release the cursor; idempotent."""
        if self.state != "closed":
            self.state = "closed"
            self.session._cursor_closed(self)

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Cursor(#{self.id} session={self.session.name!r} "
            f"{self._position}/{self.rows_total} rows, {self.state})"
        )
