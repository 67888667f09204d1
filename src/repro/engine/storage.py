"""Partitioned tuple storage, the two partition kernels, and in-flight
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
``total_bytes``, ``values``, ``select``, ``project``, ``take``,
``join``, ``partial_aggregate`` and the constructors ``from_rows``,
``from_table`` and ``concat`` — and the executor's operator handlers are
written against that protocol only. Everything that differs between
the execution modes lives in this file; both modes produce identical
result rows and identical simulated costs, and the batch kernels only
change *real* wall-clock time (see ``docs/ENGINE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..catalog import Schema
from ..columnar import ColumnData, truth, wrap_cell
from ..errors import ExecutionError
from ..la.aggregates import SumAggregate, sum_block
from ..plan.expressions import FuncExpr
from .cluster import row_bytes, stable_hash, value_bytes


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

#: per-row serialization overhead, shared with ``cluster.row_bytes``
ROW_OVERHEAD_BYTES = 16.0


class RowView:
    """Adapts a positional row tuple to the column-id lookups that
    :class:`~repro.plan.expressions.TypedExpr` evaluation performs."""

    __slots__ = ("values", "index")

    def __init__(self, values: Sequence, index: Dict[int, int]):
        self.values = values
        self.index = index

    def __getitem__(self, column_id: int):
        return self.values[self.index[column_id]]


def fold_groups(spec, values: Optional[list], group_indices, cost) -> list:
    """Partial-aggregate one column over pre-bucketed groups with the
    aggregate's own ``add`` chain, returning one state per group (in
    group-first-seen order). ``values`` is the list ``RowChunk.values``
    returned, or None for ``COUNT(*)``."""
    states = []
    if spec.distinct:
        for indices in group_indices:
            state = set()
            for i in indices:
                value = values[i] if values is not None else 1
                if value is not None:
                    state.add(value)
                    cost.stream_bytes += value_bytes(value)
            states.append(state)
        return states
    aggregate = spec.aggregate
    for indices in group_indices:
        state = aggregate.create()
        for i in indices:
            value = values[i] if values is not None else 1
            state = aggregate.add(state, value)
            if value is not None:
                cost.stream_bytes += value_bytes(value)
        states.append(state)
    return states


class RowChunk:
    """The row-mode chunk: the tuples of one partition plus their
    per-row serialized sizes (computed lazily, then sliced along by
    ``take``/``select``/``concat``). Immutable once built — a broadcast
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
    def from_table(cls, column_ids, table, slot: int) -> "RowChunk":
        """One whole partition of an in-memory base table."""
        rows: List[tuple] = []
        sizes: List[float] = []
        for segment in table.segments(slot):
            rows.extend(segment.rows)
            sizes.extend(segment.sizes())
        return cls(column_ids, rows, sizes)

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

    # -- expression kernels -------------------------------------------------

    def values(self, expr, cost) -> list:
        """``expr`` evaluated on every row: a sequence of Python values
        in the chunk's native form (here a list), which is also what
        this chunk's ``partial_aggregate`` folds."""
        view = RowView((), self.index)
        out = []
        for row in self._rows:
            view.values = row
            out.append(expr.evaluate(view, cost))
        return out

    def select(self, predicate, cost) -> "RowChunk":
        """The rows on which ``predicate`` is true (NULL is false)."""
        keep = [i for i, flag in enumerate(self.values(predicate, cost)) if flag]
        return self if len(keep) == len(self._rows) else self.take(keep)

    def project(self, column_ids, exprs, cost) -> "RowChunk":
        view = RowView((), self.index)
        out = []
        for row in self._rows:
            view.values = row
            out.append(tuple(expr.evaluate(view, cost) for expr in exprs))
        return RowChunk(column_ids, out)

    def partial_aggregate(self, spec, group_indices, cost) -> list:
        """One partial-aggregate state per group of row indices, over
        ``spec.arg`` evaluated on this chunk (None: ``COUNT(*)``)."""
        values = None if spec.arg is None else self.values(spec.arg, cost)
        return fold_groups(spec, values, group_indices, cost)

    # -- derivation ---------------------------------------------------------

    def take(self, indices) -> "RowChunk":
        indices = _index_list(indices)
        rows, sizes = self._rows, self._row_bytes
        return RowChunk(
            self.column_ids,
            [rows[i] for i in indices],
            None if sizes is None else [sizes[i] for i in indices],
        )

    def join(
        self, column_ids, build: "RowChunk", probe_indices, build_indices,
        probe_is_left: bool,
    ) -> "RowChunk":
        """Row ``probe_indices[n]`` of this chunk beside row
        ``build_indices[n]`` of ``build``, for every ``n``."""
        probe_rows, build_rows = self._rows, build._rows
        pairs = zip(_index_list(probe_indices), _index_list(build_indices))
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


def _index_list(indices) -> Sequence[int]:
    """Row positions as Python ints (list indexing by numpy scalars is
    slow)."""
    return indices.tolist() if isinstance(indices, np.ndarray) else indices


def _column_value_bytes(column: ColumnData) -> np.ndarray:
    """Serialized size of every value in a column (constant per row
    wherever the physical form fixes it); mirrors ``cluster.value_bytes``."""
    n = len(column)
    if column.is_numeric:
        sizes = np.full(n, 8.0)
    elif column.is_bool:
        sizes = np.full(n, 1.0)
    elif column.is_block:
        sizes = np.full(n, 8.0 * column.cell_elements + 8.0)
    else:
        return np.fromiter(
            (value_bytes(value) for value in column.pylist()),
            dtype=np.float64,
            count=n,
        )
    if column.nulls is not None:
        sizes[column.nulls] = 1.0  # NULL serializes to one byte
    return sizes


def _sum_blocks(fold, blocks, nulls, group_indices, cost) -> list:
    """SUM states, one per group, over the tensor cells ``fold`` makes
    of the operand ``blocks`` (NULL where ``nulls``): ``sum_block`` over
    a column's own block, or a builtin's fused ``block_sum`` over its
    argument blocks. Each group's rows are folded in row order,
    bit-identical to the ``SumAggregate.add`` chain over the wrapped
    values. The states are fresh arrays: nothing here writes into, or
    hands out, a block the table's columnar cache may share."""
    count = len(blocks[0])
    states = []
    for indices in group_indices:
        if nulls is None and indices == range(count):
            operands = blocks  # the whole partition, already in row order
        else:
            rows = np.asarray(indices, dtype=np.int64)
            if nulls is not None:
                rows = rows[~nulls[rows]]
            if not len(rows):
                states.append(None)
                continue
            operands = [block[rows] for block in blocks]
        total = fold(*operands)
        cost.stream_bytes += (8.0 * total.size + 8.0) * len(operands[0])
        states.append(wrap_cell(total))
    return states


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
        if rows:
            columns = [ColumnData.from_values(col) for col in zip(*rows)]
        else:
            columns = [
                ColumnData(np.empty(0, dtype=object)) for _ in column_ids
            ]
        if row_bytes is not None:
            row_bytes = np.asarray(row_bytes, dtype=np.float64)
        return cls(column_ids, columns, len(rows), row_bytes=row_bytes)

    @classmethod
    def from_table(cls, column_ids, table, slot: int) -> "Batch":
        """One whole partition of an in-memory base table, from the
        table's cached columnar form."""
        columns, sizes = table.columnar(slot)
        return cls(column_ids, columns, len(sizes), row_bytes=sizes)

    def __len__(self) -> int:
        return self.length

    def col(self, column_id: int) -> ColumnData:
        return self.columns[self.index[column_id]]

    def rows(self) -> List[tuple]:
        """Materialize Python row tuples (cached). Typed columns convert
        back to exact Python scalars."""
        if self._rows is None:
            if self.length == 0:
                self._rows = []
            else:
                self._rows = list(
                    zip(*[column.pylist() for column in self.columns])
                )
        return self._rows

    # -- byte accounting ----------------------------------------------------

    def row_bytes_array(self) -> np.ndarray:
        """Per-row serialized sizes, identical to ``cluster.row_bytes``
        per row; computed once and propagated through filter/take."""
        if self._row_bytes is None:
            total = np.full(self.length, ROW_OVERHEAD_BYTES)
            for column in self.columns:
                total += _column_value_bytes(column)
            self._row_bytes = total
        return self._row_bytes

    def total_bytes(self) -> float:
        if self._total is None:
            self._total = (
                float(np.sum(self.row_bytes_array())) if self.length else 0.0
            )
        return self._total

    # -- expression kernels -------------------------------------------------

    def values(self, expr, cost) -> ColumnData:
        """``expr`` evaluated on every row: a sequence of Python values
        in the chunk's native form (here a :class:`ColumnData`, which
        wraps tensor cells into Python values only when iterated), which
        is also what this chunk's ``partial_aggregate`` folds."""
        return expr.evaluate_batch(self, cost)

    def select(self, predicate, cost) -> "Batch":
        """The rows on which ``predicate`` is true (NULL is false)."""
        return self.filter(truth(predicate.evaluate_batch(self, cost)))

    def project(self, column_ids, exprs, cost) -> "Batch":
        columns = [expr.evaluate_batch(self, cost) for expr in exprs]
        return Batch(column_ids, columns, self.length)

    def partial_aggregate(self, spec, group_indices, cost) -> list:
        """One partial-aggregate state per group of row indices, over
        ``spec.arg`` evaluated on this batch (None: ``COUNT(*)``). SUM
        over a tensor block is one ``sum_block`` per group, and SUM over
        a builtin with a fused ``block_sum`` (``outer_product``) folds
        the argument blocks without materializing the result cells."""
        expr = spec.arg
        if expr is None:
            return fold_groups(spec, None, group_indices, cost)
        summing = not spec.distinct and isinstance(spec.aggregate, SumAggregate)
        if summing and isinstance(expr, FuncExpr) and expr.builtin.block_sum:
            column, blocks, nulls = expr.block_call(self, cost)
            if column is None:
                return _sum_blocks(
                    expr.builtin.block_sum, blocks, nulls, group_indices, cost
                )
        else:
            column = self.values(expr, cost)
        if summing and column.is_block:
            return _sum_blocks(
                sum_block, [column.data], column.nulls, group_indices, cost
            )
        return fold_groups(spec, column.pylist(), group_indices, cost)

    # -- derivation ---------------------------------------------------------

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
        probe_is_left: bool,
    ) -> "Batch":
        """Row ``probe_indices[n]`` of this batch beside row
        ``build_indices[n]`` of ``build``, for every ``n``."""
        probe_take = self.take(probe_indices)
        build_take = build.take(build_indices)
        if probe_is_left:
            columns = list(probe_take.columns) + list(build_take.columns)
        else:
            columns = list(build_take.columns) + list(probe_take.columns)
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


class DistributedRelation:
    """Rows spread across the cluster's slots, one chunk per slot.

    ``column_ids`` gives the positional layout: value ``j`` of every row
    belongs to plan column ``column_ids[j]``. Partitions are chunks of
    one class (:class:`RowChunk` or :class:`Batch`); plain row lists are
    wrapped into :class:`RowChunk` on construction. Chunks memoize their
    serialized sizes, so every operator downstream of a materialization
    reuses — not recomputes — the same byte accounting for disk,
    network, memory-guard and ``bytes_out`` charges.
    """

    def __init__(
        self,
        column_ids: Sequence[int],
        partitions: list,
        partitioning: Partitioning,
    ):
        self.column_ids = tuple(column_ids)
        self.partitions = [
            RowChunk(self.column_ids, part)
            if isinstance(part, (list, tuple))
            else part
            for part in partitions
        ]
        self.partitioning = partitioning
        self.index = {column_id: i for i, column_id in enumerate(self.column_ids)}

    @property
    def row_count(self) -> int:
        if self.partitioning.kind == "broadcast":
            return len(self.partitions[0]) if self.partitions else 0
        return sum(len(part) for part in self.partitions)

    def view(self, values: Sequence) -> RowView:
        return RowView(values, self.index)

    def all_rows(self) -> List[tuple]:
        parts = self.partitions
        if self.partitioning.kind == "broadcast":
            parts = parts[:1]
        out: List[tuple] = []
        for part in parts:
            out.extend(part.rows())
        return out

    def partition_total_bytes(self, slot: int) -> float:
        return self.partitions[slot].total_bytes()


class PartitionedTable:
    """Base-table storage: rows partitioned across slots at load time."""

    def __init__(
        self,
        schema: Schema,
        slots: int,
        partition_by: Optional[Sequence[str]] = None,
        segment_rows: int = 4096,
    ):
        self.schema = schema
        self.slots = slots
        #: rows per logical columnar segment (the zone-map granule);
        #: chunk boundaries match the disk back end's sealed segments
        self.segment_rows = max(1, int(segment_rows))
        #: column names the table is hash-partitioned on (None = round robin)
        self.partition_by = list(partition_by) if partition_by else None
        self._key_positions: Optional[List[int]] = None
        if self.partition_by:
            self._key_positions = []
            for name in self.partition_by:
                position = schema.index_of(name)
                if position is None:
                    raise ExecutionError(
                        f"cannot partition on unknown column {name!r}"
                    )
                self._key_positions.append(position)
        self.partitions: List[List[tuple]] = [[] for _ in range(slots)]
        self._next = 0
        #: bumped on every mutation; invalidates the columnar scan cache
        self._version = 0
        self._columnar_cache: Dict[int, Tuple[int, List[ColumnData], np.ndarray]] = {}
        self._segment_cache: Dict[int, Tuple[int, list]] = {}

    @property
    def row_count(self) -> int:
        return sum(len(part) for part in self.partitions)

    def insert(self, row: Sequence) -> None:
        values = tuple(row)
        if self._key_positions is None:
            slot = self._next % self.slots
            self._next += 1
        else:
            key = tuple(values[i] for i in self._key_positions)
            slot = stable_hash(key) % self.slots
        self.partitions[slot].append(values)
        self._version += 1

    def insert_many(self, rows: Iterable[Sequence]) -> int:
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def truncate(self) -> None:
        self.partitions = [[] for _ in range(self.slots)]
        self._next = 0
        self._version += 1

    def mutated(self) -> None:
        """Callers that rewrite ``partitions`` in place (DELETE) must
        invalidate the columnar cache."""
        self._version += 1

    def partition_rows(self, slot: int) -> List[tuple]:
        """The rows of one partition (shared storage-back-end API)."""
        return self.partitions[slot]

    def partition_row_count(self, slot: int) -> int:
        return len(self.partitions[slot])

    def partition_suffix(self, slot: int, start: int) -> List[tuple]:
        """The rows of one partition from insert position ``start`` on
        (shared storage-back-end API; incremental view maintenance)."""
        return self.partitions[slot][start:]

    def replace_partition(self, slot: int, rows: Sequence[tuple]) -> None:
        """Rewrite one partition (DELETE; shared storage-back-end API)."""
        self.partitions[slot] = [tuple(row) for row in rows]
        self.mutated()

    def segments(self, slot: int) -> list:
        """The partition as logical columnar segments: consecutive
        insert-order chunks of ``segment_rows`` rows, each carrying lazy
        zone maps and per-row serialized sizes. The chunk boundaries —
        and therefore pruning decisions and charged scan bytes — are
        identical to the disk back end's sealed segment files."""
        cached = self._segment_cache.get(slot)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        from ..storage.segment import MemorySegment, chunk_offsets

        rows = self.partitions[slot] if slot < len(self.partitions) else []
        width = len(self.schema.types)
        segments = [
            MemorySegment(rows[start:stop], width)
            for start, stop in chunk_offsets(len(rows), self.segment_rows)
        ]
        self._segment_cache[slot] = (self._version, segments)
        return segments

    def all_rows(self) -> List[tuple]:
        out: List[tuple] = []
        for part in self.partitions:
            out.extend(part)
        return out

    def total_bytes(self) -> float:
        return sum(row_bytes(row) for part in self.partitions for row in part)

    def columnar(self, slot: int) -> Tuple[List[ColumnData], np.ndarray]:
        """The columnar form of one partition plus its per-row byte
        sizes, cached until the table is mutated. Every query scans the
        same cached columns (tensor blocks included — they are
        read-only)."""
        cached = self._columnar_cache.get(slot)
        if cached is not None and cached[0] == self._version:
            return cached[1], cached[2]
        rows = self.partitions[slot] if slot < len(self.partitions) else []
        width = len(self.schema.types)
        if rows:
            columns = [ColumnData.from_values(col) for col in zip(*rows)]
        else:
            columns = [ColumnData(np.empty(0, dtype=object)) for _ in range(width)]
        sizes = np.full(len(rows), ROW_OVERHEAD_BYTES)
        for column in columns:
            sizes += _column_value_bytes(column)
        self._columnar_cache[slot] = (self._version, columns, sizes)
        return columns, sizes
