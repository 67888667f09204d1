"""The one partitioned table, the two partition kernels, and in-flight
distributed relations.

Every partition that flows through the executor is a *chunk*. There are
two chunk classes, and ``ClusterConfig.execution_mode`` selects which
one scans and ``from_rows`` produce:

* **row** — :class:`RowChunk`: a list of Python tuples plus their
  per-row serialized sizes, evaluating ``TypedExpr.evaluate`` row by
  row (the original interpreter, kept as the differential oracle);
* **batch** — :class:`Batch`: one :class:`~repro.columnar.ColumnData`
  per column (a typed scalar array, one contiguous tensor block for
  fixed-shape VECTOR/MATRIX cells, or objects) with cached per-row byte
  sizes, evaluating ``TypedExpr.evaluate_batch``, slicing with numpy
  and summing tensor blocks with one order-preserving reduce.

Both implement the same *chunk protocol* — ``len``, ``rows``,
``total_bytes``, ``slot_totals``, ``values``, ``keys``, ``row_keys``,
``keep``, ``filter``, ``project``, ``take``, ``slice``,
``join``, ``partial_aggregate`` and the constructors — and the
executor's handlers are written against it only; over a stage, the
``cost`` argument carries the slot offsets (``EvalCost``).
Everything that differs between the execution modes lives in this file;
both modes produce identical result rows and identical simulated costs,
and the batch kernels only change *real* wall-clock time (see
``docs/ENGINE.md``). How keys are bucketed, matched and ordered and how
an aggregate state advances is not decided here: ``keys`` only picks the
key class of :mod:`repro.engine.keys`, and ``partial_aggregate`` the fold
of :mod:`repro.engine.aggregation`, that fits the column form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..catalog import Schema
from ..columnar import (
    ChunkBuffer,
    ColumnData,
    canonical,
    columns_from_rows,
    rows_from_columns,
    slice_columns,
    truth,
)
from ..errors import ExecutionError
from ..la.aggregates import SumAggregate
from ..plan.expressions import ColumnVar, EvalCost, FuncExpr, slot_sums
from ..storage.disk import DiskSegment
from ..storage.segment import MemorySegment, chunk_offsets
from .aggregation import final_aggregate, fold, fused_sums, tile_extremes
from .cluster import (
    ROW_OVERHEAD_BYTES,
    cell_bytes,
    columns_row_bytes,
    fixed_row_bytes,
    row_bytes,
    stable_hash,
)
from .keys import Grouping, HashedKeys, index_list, typed_keys


def fused_call(spec) -> Optional[FuncExpr]:
    """The call a fused SUM folds — SUM (its ``folding`` aggregate, so
    not DISTINCT) over a builtin that registers a ``block_sum``
    (docs/ENGINE.md, "The float contract") — or None for every other
    aggregate."""
    call = spec.arg
    if (
        isinstance(spec.folding, SumAggregate)
        and isinstance(call, FuncExpr)
        and call.builtin.block_sum is not None
    ):
        return call
    return None


@dataclass(frozen=True)
class Partitioning:
    """How a distributed relation is spread over the cluster's slots.

    ``kind`` is one of:

    * ``roundrobin`` — rows dealt out in arrival order;
    * ``hash`` — co-located by ``stable_hash`` of the key expressions
      (``keys`` holds the structural keys of those expressions);
    * ``broadcast`` — every slot holds a full copy;
    * ``single`` — everything on slot 0 (gathered).
    """

    kind: str
    keys: Tuple = ()

    def co_partitioned_with(self, key_signature: Tuple) -> bool:
        return self.kind == "hash" and self.keys == tuple(key_signature)


ROUND_ROBIN = Partitioning("roundrobin")
BROADCAST = Partitioning("broadcast")
SINGLE = Partitioning("single")


class RowView:
    """Adapts a positional row tuple to the column-id lookups that
    :class:`~repro.plan.expressions.TypedExpr` evaluation performs."""

    __slots__ = ("values", "index")

    def __init__(self, values: Sequence, index: Dict[int, int]):
        self.values = values
        self.index = index

    def __getitem__(self, column_id: int):
        return self.values[self.index[column_id]]


class RowChunk:
    """The row-mode chunk: the tuples of one partition plus their
    per-row serialized sizes (computed lazily, then sliced along by
    ``take``/``filter``/``concat``). Immutable once built — a broadcast
    relation shares one chunk across every slot."""

    __slots__ = ("column_ids", "index", "_rows", "_row_bytes", "_total")

    def __init__(
        self,
        column_ids: Sequence[int],
        rows: Sequence[tuple],
        row_bytes: Optional[Sequence[float]] = None,
    ):
        self.column_ids = tuple(column_ids)
        self.index = {column_id: i for i, column_id in enumerate(self.column_ids)}
        self._rows = rows if isinstance(rows, list) else list(rows)
        self._row_bytes = row_bytes
        self._total: Optional[float] = None

    @classmethod
    def from_rows(cls, column_ids, rows, row_bytes=None) -> "RowChunk":
        return cls(column_ids, rows, row_bytes)

    @classmethod
    def from_columns(cls, column_ids, values: Sequence, length: int) -> "RowChunk":
        """The chunk of ``length`` rows whose columns hold ``values``."""
        return cls(column_ids, list(zip(*values)) if values else [()] * length)

    @classmethod
    def from_segment(
        cls, column_ids, segment, pool=None
    ) -> Tuple["RowChunk", Optional[str]]:
        """One segment of a base table as a chunk, plus the buffer-pool
        outcome of reading it (None, ``"hit"`` or ``"miss"``)."""
        rows, sizes, outcome = segment.read(pool)
        return cls(column_ids, rows, sizes), outcome

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> List[tuple]:
        return self._rows

    # -- byte accounting ----------------------------------------------------

    def row_bytes(self) -> Sequence[float]:
        if self._row_bytes is None:
            self._row_bytes = [row_bytes(row) for row in self._rows]
        return self._row_bytes

    def total_bytes(self) -> float:
        if self._total is None:
            self._total = float(sum(self.row_bytes()))
        return self._total

    def slot_totals(self, offsets) -> List[float]:
        """``total_bytes`` of each slot of a stage cut at ``offsets``."""
        sizes, bounds = self.row_bytes(), offsets.tolist()
        return [float(sum(sizes[a:b])) for a, b in zip(bounds, bounds[1:])]

    # -- expression kernels -------------------------------------------------

    def _each_row(self, cost, fn) -> list:
        """``fn(row, cost)`` on every row in order — over a stage, each
        slot's rows charging a plain cost of the slot's own, as a
        partition of its own would."""
        view, out = RowView((), self.index), []
        staged = cost is not None and cost.offsets is not None
        bounds = cost.offsets.tolist() if staged else [0, len(self._rows)]
        costs = cost.split() if staged else [cost]
        for start, stop, slot_cost in zip(bounds, bounds[1:], costs):
            for row in self._rows[start:stop]:
                view.values = row
                out.append(fn(view, slot_cost))
        if staged:
            cost.hold(costs)
        return out

    def values(self, expr, cost) -> list:
        """``expr`` evaluated on every row: a sequence of Python values
        in the chunk's native form (here a list), which is also what
        this chunk's ``partial_aggregate`` folds."""
        return self._each_row(cost, expr.evaluate)

    def keys(self, exprs, cost) -> HashedKeys:
        """``exprs`` evaluated on every row as the key columns of a
        GROUP BY, exchange, join side or ORDER BY key: the tuple/``dict``
        loops, whatever the values."""
        columns = [self.values(expr, cost) for expr in exprs]
        return HashedKeys(columns, len(self), None if cost is None else cost.offsets)

    def row_keys(self, offsets=None) -> HashedKeys:
        """Every column as a key (DISTINCT; over a stage, cut at
        ``offsets``)."""
        return HashedKeys(list(zip(*self._rows)), len(self), offsets)

    def keep(self, predicate, cost) -> np.ndarray:
        """Per row, whether ``predicate`` is true on it (NULL is false)."""
        flags = self.values(predicate, cost)
        return np.fromiter(map(bool, flags), dtype=np.bool_, count=len(flags))

    def filter(self, mask: np.ndarray) -> "RowChunk":
        return self if mask.all() else self.take(np.flatnonzero(mask))

    def project(self, column_ids, exprs, cost) -> "RowChunk":
        row = lambda view, cost: tuple(expr.evaluate(view, cost) for expr in exprs)
        return RowChunk(column_ids, self._each_row(cost, row))

    def partial_aggregate(self, spec, grouping, cost, carried=None) -> list:
        """One partial-aggregate state per group of ``grouping`` (a
        :class:`~repro.engine.keys.Grouping`, or plain per-group row
        positions), over ``spec.arg`` evaluated on this chunk (None:
        ``COUNT(*)``), each continuing from its ``carried`` state when
        one is given. A fused SUM stacks each call's checked arguments
        and folds them with the batch kernel's steps (``fused_sums``);
        every other aggregate folds its Python values through ``fold``
        (``COUNT(*)`` counts a literal 1 per row)."""
        grouping = Grouping.of(grouping, len(self))
        call = fused_call(spec)
        if call is not None:
            calls = self._each_row(cost, call.call_args)
            operands = [
                [None if values is None else values[i] for values in calls]
                for i in call.operand_args
            ]
            valid = np.array([values is not None for values in calls], dtype=bool)
            groups = grouping.positions()
            return fused_sums(call, operands, valid, groups, cost, carried)
        values = [1] * len(self) if spec.arg is None else self.values(spec.arg, cost)
        return fold(spec.folding, values, grouping, cost, carried)

    def final_aggregate(
        self, column_ids, specs, key_count: int, cost, scalar_on_empty=False
    ) -> Tuple["RowChunk", np.ndarray]:
        """FinalAggregate over rows of ``key + partial states``: the keys
        under the ``dict`` loop, each state column merged row by row
        (``final_aggregate``: the ``add`` chain over Python values). The
        finished rows and each group's first row."""
        columns = list(zip(*self._rows)) or [()] * (key_count + len(specs))
        grouping = HashedKeys(columns[:key_count], len(self), cost.offsets).grouping()
        states, first = final_aggregate(
            specs, grouping, columns[key_count:], cost, scalar_on_empty
        )
        keys = list(zip(*grouping.keys))
        return RowChunk.from_columns(column_ids, keys + states, len(first)), first

    # -- derivation ---------------------------------------------------------

    def with_ids(self, column_ids: Sequence[int]) -> "RowChunk":
        """The same rows under different plan column ids."""
        return RowChunk(column_ids, self._rows, self._row_bytes)

    def slice(self, start: int, stop: int) -> "RowChunk":
        """Rows ``[start, stop)``: one slot of a stage."""
        sizes = None if self._row_bytes is None else self._row_bytes[start:stop]
        return RowChunk(self.column_ids, self._rows[start:stop], sizes)

    def take(self, indices) -> "RowChunk":
        indices = index_list(indices)
        rows, sizes = self._rows, self._row_bytes
        return RowChunk(
            self.column_ids,
            [rows[i] for i in indices],
            None if sizes is None else [sizes[i] for i in indices],
        )

    def join(
        self, column_ids, build: "RowChunk", probe_indices, build_indices,
        probe_is_left: bool, only=None,
    ) -> "RowChunk":
        """Row ``probe_indices[n]`` of this chunk beside row
        ``build_indices[n]`` of ``build``, for every ``n`` (every column,
        whatever ``only`` names)."""
        probe_rows, build_rows = self._rows, build._rows
        pairs = zip(index_list(probe_indices), index_list(build_indices))
        if probe_is_left:
            return RowChunk(
                column_ids, [probe_rows[i] + build_rows[j] for i, j in pairs]
            )
        return RowChunk(
            column_ids, [build_rows[j] + probe_rows[i] for i, j in pairs]
        )

    @classmethod
    def concat(cls, column_ids, chunks: Sequence["RowChunk"]) -> "RowChunk":
        rows: List[tuple] = []
        for chunk in chunks:
            rows.extend(chunk._rows)
        sizes: Optional[List[float]] = None
        if all(chunk._row_bytes is not None for chunk in chunks):
            sizes = []
            for chunk in chunks:
                sizes.extend(chunk._row_bytes)
        return cls(column_ids, rows, sizes)


class Batch:
    """The batch-mode chunk: the rows of one partition stored
    column-wise.

    ``column_ids`` gives the plan-wide column id of every column, in
    positional order. Batches are immutable once built — operators
    derive new batches with :meth:`filter`, :meth:`take` and
    :meth:`concat`, which also slice the cached per-row byte sizes so
    they are computed at most once per row across the whole plan.
    """

    __slots__ = (
        "column_ids", "columns", "length", "index", "_row_bytes", "_rows", "_total"
    )

    def __init__(
        self,
        column_ids: Sequence[int],
        columns: List[ColumnData],
        length: int,
        row_bytes: Optional[np.ndarray] = None,
    ):
        self.column_ids = tuple(column_ids)
        self.columns = columns
        self.length = length
        self.index = {column_id: i for i, column_id in enumerate(self.column_ids)}
        self._row_bytes = row_bytes
        self._rows: Optional[List[tuple]] = None
        self._total: Optional[float] = None

    @classmethod
    def from_rows(
        cls,
        column_ids: Sequence[int],
        rows: Sequence[tuple],
        row_bytes: Optional[Sequence[float]] = None,
    ) -> "Batch":
        columns = columns_from_rows(rows, len(column_ids))
        if row_bytes is not None:
            row_bytes = np.asarray(row_bytes, dtype=np.float64)
        return cls(column_ids, columns, len(rows), row_bytes=row_bytes)

    @classmethod
    def from_columns(cls, column_ids, values: Sequence, length: int) -> "Batch":
        """The batch ``from_rows`` makes of ``length`` rows, from each
        column's values — a list, or a ``ColumnData`` already in the form
        ``ColumnData.from_values`` gives them: no row tuple is made."""
        if not length:
            return cls.from_rows(column_ids, [])
        columns = [
            column if isinstance(column, ColumnData) else ColumnData.from_values(column)
            for column in values
        ]
        return cls(column_ids, columns, length)

    @classmethod
    def from_segment(
        cls, column_ids, segment, pool=None
    ) -> Tuple["Batch", Optional[str]]:
        """One segment of a base table as a batch, plus the buffer-pool
        outcome of reading it (None, ``"hit"`` or ``"miss"``). An
        in-memory segment hands every scan the same cached columns."""
        columns, sizes, outcome = segment.columns(pool)
        return cls(column_ids, columns, len(sizes), row_bytes=sizes), outcome

    def __len__(self) -> int:
        return self.length

    def col(self, column_id: int) -> ColumnData:
        return self.columns[self.index[column_id]]

    def rows(self) -> List[tuple]:
        """Materialize Python row tuples (cached). Typed columns convert
        back to exact Python scalars."""
        if self._rows is None:
            self._rows = rows_from_columns(self.columns)
        return self._rows

    # -- byte accounting ----------------------------------------------------

    def row_bytes_array(self) -> np.ndarray:
        """Per-row serialized sizes, identical to ``cluster.row_bytes``
        per row; computed once and propagated through filter/take."""
        if self._row_bytes is None:
            self._row_bytes = columns_row_bytes(self.columns, self.length)
        return self._row_bytes

    def total_bytes(self) -> float:
        """The sum of the per-row sizes: ``length`` times the one size
        of rows whose columns fix it — the same sum exactly (integral
        floats far below 2⁵³) — with no per-row array."""
        if self._total is None:
            fixed = fixed_row_bytes(self.columns) if self.length else 0.0
            if fixed is None:
                self._total = float(np.sum(self.row_bytes_array()))
            else:
                self._total = self.length * fixed
        return self._total

    def slot_totals(self, offsets) -> List[float]:
        """``total_bytes`` of each slot of a stage cut at ``offsets``: a
        count times the one row size, or differences of the running sum of
        the sizes (integral floats, so each is the slot's own sum)."""
        fixed = fixed_row_bytes(self.columns) if self.length else 0.0
        if fixed is not None:
            return [count * fixed for count in slot_counts(offsets)]
        seen = np.zeros(self.length + 1)
        np.cumsum(self.row_bytes_array(), out=seen[1:])
        return (seen[offsets[1:]] - seen[offsets[:-1]]).tolist()

    # -- expression kernels -------------------------------------------------

    def values(self, expr, cost) -> ColumnData:
        """``expr`` evaluated on every row: a sequence of Python values
        in the chunk's native form (here a :class:`ColumnData`, which
        wraps tensor cells into Python values only when iterated), which
        is also what this chunk's ``partial_aggregate`` folds."""
        return expr.evaluate_batch(self, cost)

    def keys(self, exprs, cost):
        """``exprs`` evaluated on every row as the key columns of a
        GROUP BY, exchange, join side or ORDER BY key: sorted and
        factorised as arrays when every column is typed without NULLs,
        the ``RowChunk`` loops over their Python values otherwise."""
        columns = [self.values(expr, cost) for expr in exprs]
        return typed_keys(columns, self.length, None if cost is None else cost.offsets)

    def row_keys(self, offsets=None):
        """Every column as a key (DISTINCT; over a stage, cut at
        ``offsets``)."""
        return typed_keys(self.columns, self.length, offsets)

    def keep(self, predicate, cost) -> np.ndarray:
        """Per row, whether ``predicate`` is true on it (NULL is false)."""
        return truth(predicate.evaluate_batch(self, cost))

    def project(self, column_ids, exprs, cost) -> "Batch":
        columns = [expr.evaluate_batch(self, cost) for expr in exprs]
        return Batch(column_ids, columns, self.length)

    def partial_aggregate(self, spec, grouping, cost, carried=None) -> list:
        """One partial-aggregate state per group of ``grouping`` (a
        :class:`~repro.engine.keys.Grouping`, or plain per-group row
        positions), over ``spec.arg`` evaluated on this batch (None:
        ``COUNT(*)``), each continuing from its ``carried`` state when
        one is given. A fused SUM (``outer_product``) folds the argument
        rows — blocks or object columns — in ``fused_sums``' steps, never
        materializing a result cell; every other column goes to ``fold``,
        which picks its path from the column's form."""
        grouping = Grouping.of(grouping, self.length)
        call = fused_call(spec)
        if call is not None:
            operands, valid = call.sum_operands(self, cost)
            return fused_sums(
                call, operands, valid, grouping.positions(), cost, carried
            )
        column = None if spec.arg is None else self.values(spec.arg, cost)
        return fold(spec.folding, column, grouping, cost, carried)

    def final_aggregate(
        self, column_ids, specs, key_count: int, cost, scalar_on_empty=False
    ) -> Tuple["Batch", np.ndarray]:
        """FinalAggregate over columns of ``key + partial states``: typed
        keys grouped by their codes, each state column merged by the
        partial aggregate's fold, which takes its kernels where the
        column's form allows (``final_aggregate``). The finished groups
        as columns and each group's first row."""
        key_columns = self.columns[:key_count]
        grouping = typed_keys(key_columns, self.length, cost.offsets).grouping()
        states, first = final_aggregate(
            specs, grouping, self.columns[key_count:], cost, scalar_on_empty
        )
        keys = [canonical(column.take(grouping.first)) for column in key_columns]
        return Batch.from_columns(column_ids, keys + states, len(first)), first

    # -- derivation ---------------------------------------------------------

    def slice(self, start: int, stop: int) -> "Batch":
        """Rows ``[start, stop)`` as zero-copy views: one slot of a stage."""
        sizes = None if self._row_bytes is None else self._row_bytes[start:stop]
        columns = [column.slice(start, stop) for column in self.columns]
        return Batch(self.column_ids, columns, stop - start, row_bytes=sizes)

    def with_ids(self, column_ids: Sequence[int]) -> "Batch":
        """The same data under different plan column ids."""
        return Batch(
            column_ids, self.columns, self.length, row_bytes=self._row_bytes
        )

    def filter(self, mask: np.ndarray) -> "Batch":
        kept = int(np.count_nonzero(mask))
        if kept == self.length:
            return self
        return Batch(
            self.column_ids,
            [column.filter(mask) for column in self.columns],
            kept,
            row_bytes=None if self._row_bytes is None else self._row_bytes[mask],
        )

    def take(self, indices) -> "Batch":
        indices = np.asarray(indices, dtype=np.int64)
        return Batch(
            self.column_ids,
            [column.take(indices) for column in self.columns],
            len(indices),
            row_bytes=None
            if self._row_bytes is None
            else self._row_bytes[indices],
        )

    def join(
        self, column_ids, build: "Batch", probe_indices, build_indices,
        probe_is_left: bool, only=None,
    ) -> "Batch":
        """Row ``probe_indices[n]`` of this batch beside row
        ``build_indices[n]`` of ``build``, for every ``n`` — only of the
        columns ``only`` names, when given (all a residual reads)."""
        if only is not None:
            sides = [(self, probe_indices), (build, build_indices)]
            if not probe_is_left:
                sides.reverse()
            held = [(column, rows) for side, rows in sides for column in side.columns]
            kept = [p for p, column_id in enumerate(column_ids) if column_id in only]
            columns = [held[p][0].take(held[p][1]) for p in kept]
            return Batch([column_ids[p] for p in kept], columns, len(probe_indices))
        probe_take = self.take(probe_indices)
        build_take = build.take(build_indices)
        if probe_is_left:
            columns = list(probe_take.columns) + list(build_take.columns)
        else:
            columns = list(build_take.columns) + list(probe_take.columns)
        if fixed_row_bytes(columns) is not None:
            return Batch(column_ids, columns, probe_take.length)
        # a joined row's serialized size is both sides' sizes minus one
        # double-counted per-row overhead (sums of integral floats: exact)
        joined_bytes = (
            probe_take.row_bytes_array()
            + build_take.row_bytes_array()
            - ROW_OVERHEAD_BYTES
        )
        return Batch(column_ids, columns, probe_take.length, row_bytes=joined_bytes)

    @classmethod
    def concat(cls, column_ids: Sequence[int], batches: Sequence["Batch"]) -> "Batch":
        batches = [batch for batch in batches if batch.length]
        if not batches:
            return cls.from_rows(column_ids, [])
        if len(batches) == 1:
            return batches[0].with_ids(column_ids)
        columns = [
            ColumnData.concat([batch.columns[i] for batch in batches])
            for i in range(len(column_ids))
        ]
        if all(batch._row_bytes is not None for batch in batches):
            row_bytes = np.concatenate([batch._row_bytes for batch in batches])
        else:
            row_bytes = None
        return cls(
            column_ids,
            columns,
            sum(batch.length for batch in batches),
            row_bytes=row_bytes,
        )


def slot_offsets(counts) -> np.ndarray:
    """The offsets of a stage whose slots hold ``counts`` rows each."""
    counts = counts.tolist() if isinstance(counts, np.ndarray) else counts
    return np.array([0, *accumulate(counts)], dtype=np.int64)


def slot_counts(offsets: np.ndarray) -> List[int]:
    """The rows each slot of a stage cut at ``offsets`` holds."""
    return (offsets[1:] - offsets[:-1]).tolist()


class IndexPairs:
    """A join's output before its rows are built: row ``pairs[0][n]`` of
    the ``probe`` chunk beside row ``pairs[1][n]`` of ``build``, the
    stage cut at ``offsets``. What the hash join finds, and the row
    oracle's cross product; every consumer reads its joined chunk."""

    def __init__(self, column_ids, probe, build, pairs, offsets, probe_is_left):
        self.column_ids = tuple(column_ids)
        self.probe, self.build = probe, build
        self.pairs, self.offsets = pairs, offsets
        self.probe_is_left = probe_is_left
        self.count = len(pairs[0])

    def spread(self, column_ids):
        """The pairs joined on the columns ``column_ids`` names only (what
        a residual reads)."""
        return self.probe.join(
            self.column_ids, self.build, *self.pairs, self.probe_is_left, column_ids
        )

    def kept_by(self, keep: np.ndarray) -> "IndexPairs":
        """The pairs ``keep`` marks."""
        return IndexPairs(
            self.column_ids, self.probe, self.build,
            [side[keep] for side in self.pairs],
            slot_offsets(slot_sums(self.offsets, keep)), self.probe_is_left,
        )

    def chunk(self):
        """The joined rows, built."""
        return self.probe.join(
            self.column_ids, self.build, *self.pairs, self.probe_is_left
        )


class PairStage:
    """A nested-loop join's output before its rows are built: every row
    of the ``probe`` stage (a :class:`Batch` cut at ``probe_offsets``)
    beside every row of the shared ``build`` batch, probe row major, of
    which ``keep`` marks the pairs the residual kept (a flat mask; None:
    all). ``column_ids`` lays the output out: each column is a column of
    ``probe``, a column of ``build``, or one of ``tiles`` — a column a
    Project computed per pair (one flat :class:`ColumnData` over every
    pair, kept or not; ``FuncExpr.evaluate_tile``).

    Two consumers read it as it is: Project, which keeps column
    references and tiles the builtin calls it can, and PartialAggregate,
    which reduces a MIN/MAX of a tile grouped by probe columns. Every
    other consumer, and these two on anything else, reads :meth:`chunk`
    — the joined rows, built once. The per-slot counts (``offsets``) and
    byte totals (:meth:`slot_totals`) are those of the joined rows,
    computed from per-row sizes, so every charge, the memory check and
    the trace read what the built rows would give them."""

    def __init__(
        self, column_ids, probe, build, probe_offsets,
        keep=None, tiles=None, kept=None,
    ):
        self.column_ids = tuple(column_ids)
        self.probe, self.build = probe, build
        self.probe_offsets = probe_offsets
        self.keep = keep
        self.tiles = tiles or {}
        if kept is None:
            width = len(build)
            kept = (
                np.full(len(probe), width, dtype=np.int64) if keep is None
                else np.count_nonzero(keep.reshape(len(probe), width), axis=1)
            )
        #: each probe row's kept pairs
        self.kept = kept
        held = np.zeros(len(probe) + 1, dtype=np.int64)
        np.cumsum(kept, out=held[1:])
        #: the kept pairs' stage offsets: slot ``s`` holds the pairs of
        #: its own probe rows
        self.offsets = held[probe_offsets]
        self.count = int(held[-1])

    def _source(self, column_id):
        """``(side, column)``: 0 probe, 1 build, 2 a tile."""
        if column_id in self.tiles:
            return 2, self.tiles[column_id]
        if column_id in self.probe.index:
            return 0, self.probe.col(column_id)
        return 1, self.build.col(column_id)

    def spread(self, column_ids, row_bytes=None) -> Batch:
        """The columns ``column_ids`` names over every pair, kept or not,
        probe row major: a probe column repeats each row once per build
        row, a build column repeats whole — no pair index is made."""
        rows, width = len(self.probe), len(self.build)
        columns = []
        for column_id in column_ids:
            side, column = self._source(column_id)
            if side == 0:
                column = ColumnData(
                    np.repeat(column.data, width, axis=0),
                    None if column.nulls is None else np.repeat(column.nulls, width),
                )
            elif side == 1:
                column = ColumnData(*[
                    None if part is None
                    else np.broadcast_to(part, (rows,) + part.shape).reshape(
                        (rows * width,) + part.shape[1:]
                    )
                    for part in (column.data, column.nulls)
                ])
            columns.append(column)
        return Batch(column_ids, columns, rows * width, row_bytes=row_bytes)

    def kept_by(self, keep: np.ndarray) -> "PairStage":
        """The pairs ``keep`` (a flat mask over every pair) marks."""
        return PairStage(
            self.column_ids, self.probe, self.build, self.probe_offsets, keep
        )

    def _fixed_bytes(self) -> Optional[float]:
        """The one ``row_bytes`` of every joined row, or None when rows
        differ: ``fixed_row_bytes`` of the sides' columns, and of the
        tiles as the kept pairs hold them."""
        fixed = fixed_row_bytes(self.probe.columns + self.build.columns)
        for tile in self.tiles.values():
            size = cell_bytes(tile)
            if fixed is None or size is None:
                return None
            nulls = tile.nulls
            if nulls is not None and (self.keep is None or nulls[self.keep].any()):
                return None
            fixed += size
        return fixed

    def _pair_bytes(self) -> np.ndarray:
        """``row_bytes`` of every pair's joined row, kept or not: both
        sides' per-row sizes minus one double-counted row overhead, plus
        each tile's value size (integral floats: exact)."""
        probe = self.probe.row_bytes_array() - ROW_OVERHEAD_BYTES
        sizes = (self.build.row_bytes_array()[None] + probe[:, None]).reshape(-1)
        for tile in self.tiles.values():
            sizes += columns_row_bytes([tile], len(tile)) - ROW_OVERHEAD_BYTES
        return sizes

    def chunk(self) -> Batch:
        """The joined rows, built: every column spread over the pairs,
        the kept ones taken."""
        sizes = None if self._fixed_bytes() is not None else self._pair_bytes()
        joined = self.spread(self.column_ids, sizes)
        return joined if self.keep is None else joined.filter(self.keep)

    def slot_totals(self) -> List[float]:
        """Each slot's joined bytes, without the joined rows: a count
        times the one row size, or each probe row's kept pairs' sizes
        summed, then its slot's rows (integral floats: each sum is the
        one the joined rows' ``slot_totals`` makes)."""
        fixed = self._fixed_bytes() if self.count else 0.0
        if fixed is not None:
            return [count * fixed for count in slot_counts(self.offsets)]
        sizes = self._pair_bytes()
        if self.keep is not None:
            sizes = np.where(self.keep, sizes, 0.0)
        held = np.zeros(len(self.probe) + 1)
        np.cumsum(sizes.reshape(len(self.probe), -1).sum(axis=1), out=held[1:])
        offsets = self.probe_offsets
        return (held[offsets[1:]] - held[offsets[:-1]]).tolist()

    def project(self, column_ids, exprs, cost) -> Optional["PairStage"]:
        """Project's output as a pair stage: a column reference keeps its
        side, a builtin call becomes a tile (``cost``, a ledger over the
        kept pairs, is charged what evaluating it over the joined rows
        charges) — or None, at the first expression of any other kind:
        the joined rows must be built, and the caller drops ``cost``."""
        held = ([], []), ([], [])
        tiles = {}
        for column_id, expr in zip(column_ids, exprs):
            if isinstance(expr, ColumnVar):
                side, column = self._source(expr.column_id)
                if side == 2:
                    tiles[column_id] = column
                else:
                    held[side][0].append(column_id)
                    held[side][1].append(column)
                continue
            tile = None
            if isinstance(expr, FuncExpr):
                tile = expr.evaluate_tile(self.probe, self.build, self.keep, cost)
            if tile is None:
                return None
            tiles[column_id] = tile
        probe, build = (
            Batch(ids, columns, len(chunk))
            for (ids, columns), chunk in zip(held, (self.probe, self.build))
        )
        return PairStage(
            column_ids, probe, build, self.probe_offsets, self.keep, tiles, self.kept
        )

    def _valid(self, tile) -> np.ndarray:
        """The kept pairs whose value in ``tile`` is not NULL."""
        if tile.nulls is None:
            return np.ones(len(tile), np.bool_) if self.keep is None else self.keep
        valid = ~tile.nulls
        return valid if self.keep is None else valid & self.keep

    def _kept(self, pairs: np.ndarray):
        """A mask over every pair as rows of the joined stage: the kept
        pairs' entries, or the range of every row when that is all of them."""
        if np.count_nonzero(pairs) == self.count:
            return range(self.count)
        return pairs if self.keep is None else pairs[self.keep]

    def partial_aggregate(self, group_exprs, specs, cost) -> Optional[tuple]:
        """PartialAggregate without the joined rows, when it groups by
        probe columns and every aggregate is a MIN or MAX of a float64
        tile (a tiled column, or a call :meth:`FuncExpr.evaluate_tile`
        tiles): ``(keys, states per spec, groups per slot)``, each as a
        fold of the joined rows makes it (``tile_extremes``), and ``cost``
        (a ledger over the kept pairs) charged the same. None otherwise —
        a NaN among the values included — and the caller drops ``cost``."""
        if not all(
            isinstance(expr, ColumnVar) and expr.column_id in self.probe.index
            for expr in group_exprs
        ):
            return None
        tiles = []
        for spec in specs:
            arg, tile = spec.arg, None
            if spec.folding.name not in ("MIN", "MAX"):
                return None
            if isinstance(arg, ColumnVar):
                tile = self.tiles.get(arg.column_id)
            elif isinstance(arg, FuncExpr):
                tile = arg.evaluate_tile(self.probe, self.build, self.keep, cost)
            if tile is None or tile.data.dtype != np.float64 or tile.data.ndim != 1:
                return None
            tiles.append(tile)
        present = self.kept > 0
        offsets = self.probe_offsets
        if not present.all():
            offsets = slot_offsets(slot_sums(offsets, present))
        rows = self.probe.filter(present)
        grouping = rows.keys(group_exprs, EvalCost(offsets)).grouping()
        shape, states, live = (len(self.probe), len(self.build)), [], []
        for spec, tile in zip(specs, tiles):
            valid = self._valid(tile)
            folded = tile_extremes(
                spec.aggregate, tile.data.reshape(shape), valid.reshape(shape),
                present, grouping,
            )
            if folded is None:
                return None
            states.append(folded)
            live.append(self._kept(valid))
        for valid in live:
            # what fold charges the joined column: each non-NULL value
            cost.add("stream_bytes", 8.0, valid)
        groups = slot_sums(offsets, grouping.first).tolist()
        return grouping.keys, states, groups


class DistributedRelation:
    """Rows spread across the cluster's slots, held as one **stage**: a
    slot-ordered chunk and ``offsets``, slot ``s`` holding rows
    ``offsets[s]:offsets[s + 1]``. Every operator reads the stage (or
    zero-copy ``partition(slot)`` slices of it) and writes one. A
    broadcast relation is the one chunk every one of its ``slots``
    shares: its stage is that copy as one slot, and its per-slot lengths
    and totals repeat the copy's. A join's relation holds its ``pairs``
    instead and builds its stage from them on first use; a
    :class:`PairStage` answers the per-slot lengths and totals without
    building it.

    ``column_ids`` gives the positional layout: value ``j`` of every row
    belongs to plan column ``column_ids[j]``. Chunks memoize their
    serialized sizes, so every operator downstream of a materialization
    reuses — not recomputes — the same byte accounting for disk,
    network and spill charges; the relation keeps its per-slot totals as
    one list, made on first use, which the memory guard, the operator's
    peak and the trace's ``bytes_out`` all read.
    """

    def __init__(
        self,
        column_ids: Sequence[int],
        partitioning: Partitioning,
        stage: Optional[tuple] = None,
        pairs=None,
        slots: int = 1,
    ):
        self.column_ids = tuple(column_ids)
        self.partitioning = partitioning
        self._stage = stage
        #: a join's :class:`PairStage` or :class:`IndexPairs`, whose
        #: joined chunk is the stage, built on first use
        self.pairs = pairs
        #: the slots a broadcast relation's one chunk is copied to
        self._copies = slots if partitioning.kind == "broadcast" else 1
        self._totals: Optional[List[float]] = None

    def partition(self, slot: int):
        """One slot's chunk, without slicing the others."""
        chunk, offsets = self.stage
        if self._copies > 1:
            return chunk
        return chunk.slice(int(offsets[slot]), int(offsets[slot + 1]))

    @property
    def stage(self) -> tuple:
        """``(chunk, offsets)``."""
        if self._stage is None:
            self._stage = (self.pairs.chunk(), self.pairs.offsets)
            self.pairs = None  # built: let the pairs' arrays go
        return self._stage

    def partition_lengths(self) -> List[int]:
        """Each slot's row count, in slot order."""
        offsets = self.pairs.offsets if self._stage is None else self._stage[1]
        return slot_counts(offsets) * self._copies

    def all_rows(self) -> List[tuple]:
        return list(self.stage[0].rows())

    def partition_totals(self) -> List[float]:
        """Each slot's partition bytes, in slot order — of a pair stage's
        joined rows without building them."""
        if self._totals is None and isinstance(self.pairs, PairStage):
            self._totals = self.pairs.slot_totals()
        elif self._totals is None:
            chunk, offsets = self.stage
            self._totals = chunk.slot_totals(offsets) * self._copies
        return self._totals


class PartitionedTable:
    """Base-table storage: rows partitioned across slots at load time.

    Each slot holds a list of *sealed* segments — immutable chunks of
    exactly ``segment_rows`` consecutive rows in insert order — plus an
    append-only columnar tail of fewer rows. ``engine`` (the database's
    :class:`~repro.storage.engine.StorageEngine`) only decides what
    sealing produces: a :class:`~repro.storage.disk.DiskSegment`
    written under its directory in ``"disk"`` mode, a
    :class:`~repro.storage.segment.MemorySegment` otherwise. Slot choice,
    chunk boundaries and every read below are the same code for both,
    which is why pruning decisions and scan charges cannot differ
    between the storage modes. A statement's rows become columns, and
    are sized, once on the way in; every column held is in the form
    ``ColumnData.from_values`` picks for its values, however they arrived.
    """

    def __init__(
        self,
        schema: Schema,
        slots: int,
        partition_by: Optional[Sequence[str]] = None,
        segment_rows: int = 4096,
        engine=None,
        name: str = "table",
    ):
        self.schema = schema
        self.slots = slots
        self.engine = engine
        self.name = name
        self.width = len(schema.types)
        #: rows per sealed segment (the zone-map granule)
        self.segment_rows = max(1, int(segment_rows))
        #: column names the table is hash-partitioned on (None = round robin)
        self.partition_by = list(partition_by) if partition_by else None
        self._key_positions: Optional[List[int]] = None
        if self.partition_by:
            self._key_positions = []
            for column_name in self.partition_by:
                position = schema.index_of(column_name)
                if position is None:
                    raise ExecutionError(
                        f"cannot partition on unknown column {column_name!r}"
                    )
                self._key_positions.append(position)
        self._sealed: List[list] = [[] for _ in range(slots)]
        self._tails = [ChunkBuffer(self.width) for _ in range(slots)]
        #: the tail of each slot as a segment of prefix views, made on
        #: first read after an append (None: stale or empty)
        self._tail_views: List[Optional[MemorySegment]] = [None] * slots
        #: round-robin position of the next insert (saved in snapshots)
        self.insert_cursor = 0
        #: (segments, stage) of the last scan of in-memory segments only
        self._stage_memo: Optional[tuple] = None

    # -- mutation -----------------------------------------------------------

    def insert(self, row: Sequence) -> None:
        self.insert_many([row])

    def insert_many(self, rows: Iterable[Sequence]) -> int:
        rows = [tuple(row) for row in rows]
        self.append(self.columns_of(rows))
        return len(rows)

    def columns_of(self, rows: Sequence[tuple]) -> List[ColumnData]:
        """A statement's rows column-wise, as :meth:`append` takes them."""
        if any(len(row) != self.width for row in rows):
            raise ExecutionError(
                f"a row for table {self.name!r} does not have its "
                f"{self.width} column(s)"
            )
        return columns_from_rows(rows, self.width)

    def append(self, columns: Sequence[ColumnData]) -> None:
        """Append rows held column-wise: each slot takes its share — dealt
        round robin from ``insert_cursor`` (a strided view), or by
        ``stable_hash`` of the partitioning key — in arrival order."""
        count = len(columns[0])
        sizes = columns_row_bytes(columns, count)
        if self._key_positions is None:
            first = self.insert_cursor
            self.insert_cursor += count
            shares = [
                ((first + offset) % self.slots, slice(offset, count, self.slots))
                for offset in range(min(count, self.slots))
            ]
        else:
            keys = zip(*[columns[i].pylist() for i in self._key_positions])
            targets = np.array([stable_hash(key) % self.slots for key in keys])
            shares = [
                (slot, np.flatnonzero(targets == slot))
                for slot in np.unique(targets).tolist()
            ]
        if len(shares) == 1:  # one slot takes every row, as it is
            return self._extend(shares[0][0], columns, sizes)
        for slot, share in shares:
            taken = [canonical(column.take(share)) for column in columns]
            self._extend(slot, taken, sizes[share])

    def _extend(self, slot: int, columns, sizes: np.ndarray) -> None:
        """Put rows behind one slot's tail, then turn every full
        ``segment_rows`` chunk at its head into a sealed segment (a
        compact copy: a sealed segment must not pin the tail's spare
        capacity) and start a new tail from the rest."""
        tail = self._tails[slot]
        tail.extend(columns, sizes)
        self._tail_views[slot] = None
        self._stage_memo = None  # stale now: let it go before the next scan
        if len(tail) < self.segment_rows:
            return
        held, held_sizes = tail.view()
        full = len(tail) - len(tail) % self.segment_rows
        for start, stop in chunk_offsets(full, self.segment_rows):
            chunk = slice_columns(held, start, stop)
            chunk_sizes = held_sizes[start:stop].copy()
            if self.engine is not None and self.engine.mode == "disk":
                segment = DiskSegment(
                    self.engine.allocate_segment_path(self.name),
                    chunk,
                    chunk_sizes,
                    injector=self.engine.injector,
                )
            else:
                segment = MemorySegment(
                    [column.copy() for column in chunk], chunk_sizes
                )
            self._sealed[slot].append(segment)
        rest = self._tails[slot] = ChunkBuffer(self.width)
        rest.extend(slice_columns(held, full, len(tail)), held_sizes[full:])

    def _drop(self, slot: int) -> None:
        pool = self.engine.buffer_pool if self.engine is not None else None
        for segment in self._sealed[slot]:
            segment.unlink(pool)
        self._sealed[slot] = []
        self._tails[slot] = ChunkBuffer(self.width)
        self._tail_views[slot] = None
        self._stage_memo = None

    def truncate(self) -> None:
        for slot in range(self.slots):
            self._drop(slot)
        self.insert_cursor = 0

    def replace_partition(self, slot: int, rows: Sequence[tuple]) -> None:
        """Rewrite one partition (DELETE): the old immutable segments
        are dropped and the surviving rows are re-sealed with the same
        insert-order chunking rule."""
        self._drop(slot)
        columns = self.columns_of([tuple(row) for row in rows])
        self._extend(slot, columns, columns_row_bytes(columns, len(rows)))

    # -- reads --------------------------------------------------------------

    def segments(self, slot: int) -> list:
        """The partition as segments: the sealed ones (the same objects
        on every call) plus, when the tail holds rows, one in-memory
        segment of read-only prefix views over it — an O(1) relabel that
        lasts until the next append."""
        if not len(self._tails[slot]):
            return list(self._sealed[slot])
        view = self._tail_views[slot]
        if view is None:
            view = self._tail_views[slot] = MemorySegment(*self._tails[slot].view())
        return self._sealed[slot] + [view]

    def scan_stage(self, chunks, column_ids, slot_segments, pool=None):
        """``(stage, counts, outcomes)`` of a scan reading ``slot_segments``
        (per slot, its unpruned segments): their ``chunks`` in slot order
        as one chunk, each slot's row count, the buffer-pool outcome of
        every read. A stage of in-memory segments is kept until the table
        changes, and a scan of the same segments reads and copies nothing."""
        key = (chunks, *map(tuple, slot_segments))
        counts = [sum(segment.row_count for segment in kept) for kept in slot_segments]
        memo = self._stage_memo
        if memo is not None and memo[0] == key:
            return memo[1].with_ids(column_ids), counts, []
        segments = list(chain(*key[1:]))
        read = [chunks.from_segment(column_ids, segment, pool) for segment in segments]
        stage = chunks.concat(column_ids, [piece for piece, _ in read])
        if all(isinstance(segment, MemorySegment) for segment in segments):
            self._stage_memo = (key, stage)
        return stage, counts, [outcome for _, outcome in read]

    @property
    def row_count(self) -> int:
        return sum(self.partition_row_count(slot) for slot in range(self.slots))

    @property
    def partitions(self) -> List[List[tuple]]:
        """A read-only view: the rows of every partition, by slot."""
        return [self.partition_rows(slot) for slot in range(self.slots)]

    def partition_rows(self, slot: int) -> List[tuple]:
        """The rows of one partition (bypasses the buffer pool:
        maintenance reads — stats, persistence — are not scans)."""
        return [
            row for segment in self.segments(slot) for row in segment.read(None)[0]
        ]

    def partition_row_count(self, slot: int) -> int:
        sealed = sum(segment.row_count for segment in self._sealed[slot])
        return sealed + len(self._tails[slot])

    def partition_chunk(self, slot: int, start: int = 0) -> MemorySegment:
        """The rows of one partition from insert position ``start`` on,
        column-wise, as one in-memory segment. Sealed segments that end
        at or before ``start`` are skipped by their row count, never
        read — an incremental view folding one append reads a slice of
        the tail, plus only the segment files that append sealed."""
        pieces, offset = [], 0
        for segment in self.segments(slot):
            end = offset + segment.row_count
            if end > start:
                columns, sizes, _ = segment.columns(None)
                if start > offset:
                    columns = slice_columns(columns, start - offset, len(sizes))
                    sizes = sizes[start - offset :]
                pieces.append((columns, sizes))
            offset = end
        if len(pieces) == 1:
            return MemorySegment(*pieces[0])
        if not pieces:
            return MemorySegment(columns_from_rows([], self.width), np.empty(0))
        columns = [
            canonical(ColumnData.concat([columns[i] for columns, _ in pieces]))
            for i in range(self.width)
        ]
        return MemorySegment(columns, np.concatenate([sizes for _, sizes in pieces]))

    def all_rows(self) -> List[tuple]:
        out: List[tuple] = []
        for slot in range(self.slots):
            out.extend(self.partition_rows(slot))
        return out

    def total_bytes(self) -> float:
        return sum(
            segment.total_bytes
            for slot in range(self.slots)
            for segment in self.segments(slot)
        )
