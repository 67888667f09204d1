"""The one fold: how an aggregate state advances over a run of rows, and
how states merge and finish.

Every aggregate accumulates value by value (:mod:`repro.la.aggregates`)
and its partial states merge, so partial aggregation can run before the
shuffle (paper sections 3.2–3.3). This module is the only caller of
those steps, and fixes the orders every bit-identity contract rests on
(docs/ENGINE.md, "The float contract"). *Advance*: a state moves over
its group's rows in row order. Every aggregate but a fused SUM follows
the canonical sequential chain ``((s + v0) + v1) + …`` — :func:`fold`
picks the path from the operand's form: the ``add`` chain in
:func:`fold_groups`, the same chain over tensor blocks in
:func:`sum_blocks`, and over a typed scalar column its kernels, which
work on a :class:`~repro.engine.keys.Grouping`'s integer codes. A
*fused SUM* — SUM over a builtin with a ``block_sum``,
``SUM(outer_product(a, b))`` — follows the blocked order instead: fixed
steps of :data:`STEP_ROWS` rows, one BLAS ``Aₛᵀ Bₛ`` per step, steps
added left to right (:func:`fused_sums`, :func:`advance`, the one kernel
:func:`sum_steps`), with the open step's rows carried in its state
(:class:`OpenSum`). All continue from an optional *carried* state per
group, so folding a partition in one run or in consecutive runs
performs the same arithmetic in the same order. *Merge and finish*
(:func:`final_aggregate`): a merge is one more :func:`fold` — a column
of partial states in received row order, under the aggregate's
``merger`` — then ``finish``: SUM, MIN and MAX states by their own
chain, COUNT's under SUM, AVG's ``(sum, count)`` pairs added pairwise,
label dicts and DISTINCT value sets united into a fresh dict or set.
``AGG(DISTINCT x)`` folds through its spec's
:class:`~repro.la.aggregates.Distinct` (``AggSpec.folding``): its state
is the group's value set, and its ``finish`` runs the inner aggregate's
chain over it. PartialAggregate
and FinalAggregate call these with no carried state; a materialized
view folds with its stored per-slot states and answers through
:func:`final_aggregate` itself, so view ≡ rescan holds.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..columnar import ColumnData, wrap_cell
from ..errors import RuntimeTypeError
from ..la.aggregates import check_carried, sum_block
from .cluster import cell_bytes, value_bytes
from .keys import index_list


def fold_groups(aggregate, values: Sequence, group_indices, cost, carried=None) -> list:
    """Fold Python ``values`` over pre-bucketed groups (each a sequence
    of ascending row positions) with the aggregate's own ``add`` chain,
    returning one state per group. The row oracle's fold, and the
    fallback for every column :func:`fold` has no kernel for — among
    them every column of states that are no values, under its merger.
    ``carried`` holds the state each group's chain starts from (None: a
    fresh one)."""
    states, add = [], aggregate.add
    firsts, streamed = [], []  # per group: its first row, its bytes
    for group, indices in enumerate(group_indices):
        picked = [values[i] for i in index_list(indices)]
        state = aggregate.create() if carried is None else carried[group]
        for value in picked:
            state = add(state, value)
        states.append(state)
        # sized in one pass after the chain (integral, so the total is
        # the one the per-value additions reached)
        firsts.append(indices[0])
        streamed.append(sum(value_bytes(v) for v in picked if v is not None))
    # a group lies in one slot (over a stage, its key holds the slot): each
    # group's bytes go to the slot of its first row, group by group
    cost.add("stream_bytes", streamed, np.array(firsts, dtype=np.int64))
    return states


def _live(column, grouping):
    """The non-NULL values of ``column``, their rows' group codes, and
    how many each group has."""
    if column.nulls is None:
        return column.data, grouping.codes, grouping.sizes()
    keep = ~column.nulls
    codes = grouping.codes[keep]
    return column.data[keep], codes, grouping.sizes(codes)


def _chain_sums(column, grouping, starts=None):
    """Per group, the canonical chain ``((start + v0) + v1) + …`` over
    the non-NULL values of a float64/int64 ``column`` (``starts`` None,
    or a group's start None: a fresh chain, which begins at ``v0``) and
    how many there were, as arrays — or None when no array form performs
    that chain exactly.

    float64: ``np.add.at`` into a buffer holding the starts, ``-0.0`` for
    a fresh chain (``-0.0 + v`` is ``v`` for every ``v``). ``ufunc.at``
    is unbuffered and applies the additions in index order, so each
    group's slot goes through exactly its chain. The look-alikes do not:
    ``np.bincount(weights=)`` starts from ``+0.0`` (a group of ``-0.0``
    comes out ``+0.0``), and ``np.add.reduceat`` / a contiguous
    ``np.add.reduce`` sum pairwise. int64: the same call, eligible only
    while no chain can leave int64 (Python ints do not wrap)."""
    if not column.is_numeric:
        return None
    values, codes, counts = _live(column, grouping)
    kind, fresh = (float, -0.0) if values.dtype == np.float64 else (int, 0)
    held = () if starts is None else [start for start in starts if start is not None]
    if any(type(start) is not kind for start in held):
        return None
    if kind is int:
        bound = max(map(abs, held), default=0)
        if len(values):
            bound += len(values) * max(int(values.max()), -int(values.min()))
        if bound >= 2**63:
            return None
    if starts is None:
        buffer = np.full(len(grouping), fresh, values.dtype)
    else:
        buffer = np.array(
            [fresh if start is None else start for start in starts], values.dtype
        )
    np.add.at(buffer, codes, values)
    return buffer, counts


def _sum_kernel(aggregate, column, grouping, carried):
    sums = _chain_sums(column, grouping, carried)
    if sums is None:
        return None
    starts = [None] * len(grouping) if carried is None else carried
    totals, counts = (array.tolist() for array in sums)
    return [
        total if count else start
        for total, count, start in zip(totals, counts, starts)
    ]


def _avg_kernel(aggregate, column, grouping, carried):
    """AVG's state is ``(chain total, count)``, None before any value."""
    before = [None] * len(grouping) if carried is None else carried
    sums = _chain_sums(
        column, grouping, [None if state is None else state[0] for state in before]
    )
    if sums is None:
        return None
    totals, counts = (array.tolist() for array in sums)
    return [
        (total, count + (state[1] if state else 0)) if count else state
        for total, count, state in zip(totals, counts, before)
    ]


def _count_kernel(aggregate, column, grouping, carried):
    """COUNT: rows per group, minus the NULLs; ``COUNT(*)`` (no column)
    counts a literal 1 per row."""
    if column is not None and cell_bytes(column) is None:
        return None
    nulls = None if column is None else column.nulls
    counts = grouping.sizes(None if nulls is None else grouping.codes[~nulls]).tolist()
    if carried is not None:
        counts = [start + count for start, count in zip(carried, counts)]
    return counts


def _extremes(aggregate, column, grouping):
    """MIN/MAX: per group, the **first** row in row order attaining the
    extreme — what the ``min(state, value)`` chain keeps on a ``±0.0``
    tie. Each group's extreme is folded by ``np.minimum.at`` /
    ``np.maximum.at`` from one of its own values, then the first row
    whose value ``==`` it (``±0.0`` are equal) is one more
    ``np.minimum.at`` over row positions. Returns the picks of the
    groups holding a non-NULL value, and those groups — or None: a NaN
    makes the chain's result order-dependent, so a column holding one
    takes the chain."""
    if not column.is_numeric:
        return None
    values, codes, counts = _live(column, grouping)
    if values.dtype == np.float64 and np.isnan(values).any():
        return None
    extreme = np.empty(len(grouping), dtype=values.dtype)
    extreme[codes] = values
    (np.maximum if aggregate.name == "MAX" else np.minimum).at(extreme, codes, values)
    ties = np.flatnonzero(values == extreme[codes])
    first = np.full(len(grouping), len(values))
    np.minimum.at(first, codes[ties], ties)
    present = np.flatnonzero(counts)
    return values[first[present]], present


def _extreme_kernel(aggregate, column, grouping, carried):
    """MIN/MAX states: each group's pick (:func:`_extremes`) meets its
    carried state through the aggregate's own ``add``."""
    extremes = _extremes(aggregate, column, grouping)
    if extremes is None:
        return None
    picks, present = (array.tolist() for array in extremes)
    states = [None] * len(grouping) if carried is None else list(carried)
    if carried is None:  # a fresh state's ``add`` of a number is the number
        for group, value in zip(present, picks):
            states[group] = value
        return states
    for group, value in zip(present, picks):
        states[group] = aggregate.add(states[group], value)
    return states


def tile_extremes(aggregate, tile, valid, rows, grouping) -> Optional[list]:
    """MIN/MAX states over a nested-loop join's pair stage, never its
    joined rows: ``tile`` is a float64 result per (probe row, build row)
    pair as a ``(p, b)`` array, ``valid`` its non-NULL kept pairs, and
    ``grouping`` groups the probe rows ``rows`` selects (each has a kept
    pair). Each probe row's extreme over its valid pairs is its first, in
    build order, that ``==`` the row's extreme; then
    :func:`_extreme_kernel` merges the rows of each group. A group's pick
    is that of its first row holding the group's extreme — the first
    pair, in the joined rows' order, whose value ``==`` it (``±0.0``
    alike): the kernel's own pick over the joined rows. None when a valid
    pair is NaN (the extreme of its row then is): the kernel takes the
    chain there, so the caller builds the joined rows."""
    if not rows.all():
        tile, valid = tile[rows], valid[rows]
    least = aggregate.name == "MIN"
    extreme = (np.minimum if least else np.maximum).reduce(
        tile, axis=1, where=valid, initial=np.inf if least else -np.inf
    )
    if np.isnan(extreme).any():
        return None
    first = (valid & (tile == extreme[:, None])).argmax(axis=1)
    picks = tile[np.arange(len(tile)), first]
    column = ColumnData(picks, ~valid.any(axis=1))
    return _extreme_kernel(aggregate, column, grouping, None)


#: aggregate name -> kernel(aggregate, column, grouping, carried) ->
#: states, or None when the column's form or values are outside what the
#: kernel computes bit-identically
_KERNELS = {
    "SUM": _sum_kernel,
    "AVG": _avg_kernel,
    "COUNT": _count_kernel,
    "MIN": _extreme_kernel,
    "MAX": _extreme_kernel,
}


def fold(aggregate, operand, grouping, cost, carried=None) -> list:
    """The one fold: a state per group of a
    :class:`~repro.engine.keys.Grouping` over ``operand`` — a chunk's
    ``values`` of the aggregate's input, or a column of partial states
    under their ``merger`` — each continuing from its ``carried`` state
    when one is given. The operand's form picks the path: SUM over a
    tensor block goes to :func:`sum_blocks`; SUM/AVG/COUNT/MIN/MAX over a
    typed column (None: ``COUNT(*)``) to arithmetic on the group codes;
    Python values, an object column and anything a kernel declines to
    the ``add`` chain (:func:`fold_groups`). Every path is bit-identical
    to that chain over the same rows and charged the same streamed bytes
    (``value_bytes`` per non-NULL value, fixed by a typed column's form)."""
    if operand is None or isinstance(operand, ColumnData):
        if aggregate.name == "SUM" and operand.is_block:
            positions = grouping.positions()
            return sum_blocks(operand.data, operand.nulls, positions, cost, carried)
        kernel = _KERNELS.get(aggregate.name)
        if kernel is not None:
            states = kernel(aggregate, operand, grouping, carried)
            if states is not None:  # a kernel's column form fixes a value's size
                nulls = None if operand is None else operand.nulls
                live = range(len(grouping.codes)) if nulls is None else ~nulls
                each = 8.0 if operand is None else cell_bytes(operand)
                cost.add("stream_bytes", each, live)
                return states
        operand = operand.pylist()
    return fold_groups(aggregate, operand, grouping.positions(), cost, carried)


def sum_blocks(block, nulls, group_indices, cost, carried=None) -> list:
    """SUM states, one per group, over a tensor ``block`` (NULL where
    ``nulls``) through ``sum_block``: each group's rows folded in row
    order, bit-identical to the ``SumAggregate.add`` chain over the
    wrapped values. A ``carried`` state is row 0 of that chain
    (``sum_block`` raises ``RuntimeTypeError`` unless it has the cells'
    shape) and is kept by a group with no non-NULL row. The states are
    fresh arrays: nothing here writes into, or hands out, a block a table
    segment's cached columns may share. (SUM over a builtin with a
    ``block_sum`` is a fused SUM, :func:`fused_sums`.)"""
    states, firsts, streamed = [], [], []
    for group, indices in enumerate(group_indices):
        start = None if carried is None else carried[group]
        if len(indices) == len(block):
            indices = range(len(block))  # the whole partition
        if nulls is None and isinstance(indices, range):
            rows = indices
            cells = block[rows.start : rows.stop]  # a run of rows: a view
        else:
            rows = np.asarray(indices, dtype=np.int64)
            if nulls is not None:
                rows = rows[~nulls[rows]]
            if not len(rows):
                states.append(start)
                continue
            cells = block[rows]
        total = sum_block(cells, None if start is None else start.data)
        firsts.append(rows[0])
        streamed.append((8.0 * total.size + 8.0) * len(cells))
        states.append(wrap_cell(total))
    cost.add("stream_bytes", streamed, np.array(firsts, dtype=np.int64))
    return states


#: rows per step of a fused SUM (docs/ENGINE.md, "The float contract"). A
#: constant, never a knob: a group's step boundaries are then a function
#: of its rows alone, so every door issues the same BLAS calls
STEP_ROWS = 128

#: bound on the step sums one BLAS call produces. Bit-neutral — each step
#: is its own product and the steps are added in order whichever call
#: computed them — it only keeps a long partition of wide cells from
#: holding every step's product at once
_CALL_BYTES = 1 << 21


def _result_cells(call, operands, lead: int) -> int:
    """Elements of one result cell of ``call`` — one per pair of
    argument elements (``block_sum``'s contract) — from its distinct
    ``operands``, whose first ``lead`` axes are not the cell's."""
    return math.prod(math.prod(operands[i].shape[lead:]) for i in call.operand_of)


def _cell_bits(array):
    return None if array is None else (array.shape, array.tobytes())


class OpenSum:
    """A fused SUM's partial state: ``total``, the sum of the group's
    complete steps (None before the first), and ``rows``, the operand
    rows of its open step — one ``(k, …)`` array per distinct argument
    expression of ``call``, ``k < STEP_ROWS``. PartialAggregate emits
    :meth:`finish` (:func:`finished`); a materialized view keeps the
    state itself and finishes it at each answer. Equality is bit for bit
    (two doors' states compared by a test)."""

    __slots__ = ("call", "total", "rows")

    def __init__(self, call, total, rows):
        self.call = call
        self.total = total
        self.rows = rows

    def finish(self):
        """The SUM of every row folded so far — the open step added as
        the last step — as a fresh cell; the state itself is unchanged."""
        if not len(self.rows[0]):
            return wrap_cell(self.total.copy())
        return wrap_cell(
            sum_steps(self.call, [rows[None] for rows in self.rows], self.total)
        )

    def __eq__(self, other):
        return (
            type(other) is OpenSum
            and _cell_bits(self.total) == _cell_bits(other.total)
            and list(map(_cell_bits, self.rows)) == list(map(_cell_bits, other.rows))
        )

    __hash__ = None


def finished(state):
    """What PartialAggregate emits for a state: a fused SUM finished, any
    other state as it is."""
    return state.finish() if type(state) is OpenSum else state


def sum_steps(call, steps, total=None):
    """The one fused-SUM kernel: ``total`` (None: none yet) continued,
    left to right, over the step sums of ``steps`` — per distinct operand
    of ``call``, an ``(m, s, …)`` stack of ``m`` steps — each one
    ``Aₛᵀ Bₛ`` of ``call.step_products``, then added by ``sum_block``
    (which raises ``RuntimeTypeError`` when ``total`` is not the steps'
    shape)."""
    count = len(steps[0])
    if count == 1:
        # one step (as when an open step is finished): sum_block's
        # -0.0 + P is P, and its (-0.0 + total) + P is total + P, bit for
        # bit — without its copy of the total
        (product,) = call.step_products(*steps)
        if total is None:
            return product
        check_carried(total, product.shape)
        return total + product
    per_call = max(1, _CALL_BYTES // (8 * _result_cells(call, steps, 2)))
    for start in range(0, count, per_call):
        stop = start + per_call
        products = call.step_products(*[step[start:stop] for step in steps])
        total = sum_block(products, total)
    return total


def _shape_error(left, right):
    return RuntimeTypeError(
        f"SUM: element-wise addition of tensors of different shapes: "
        f"operand cells {tuple(left)} vs {tuple(right)}"
    )


def advance(call, operands, state=None) -> OpenSum:
    """A fused SUM's state continued over more operand rows of ``call``
    — one ``(n, …)`` array per distinct argument, in row order: the open
    step's rows go in front, every complete step of :data:`STEP_ROWS`
    rows is added by :func:`sum_steps` and the rest is the new open step.
    Steps are counted from the group's first row whatever runs its rows
    arrive in, so folding in one run or over any number of appends makes
    the same BLAS products and additions."""
    total = None
    if state is not None:
        total, held = state.total, state.rows
        for before, after in zip(held, operands):
            if before.shape[1:] != after.shape[1:]:
                raise _shape_error(before.shape[1:], after.shape[1:])
        if len(held[0]):
            operands = [
                np.concatenate([before, after]) for before, after in zip(held, operands)
            ]
    count = len(operands[0])
    full = count - count % STEP_ROWS
    if full:
        steps = [
            np.require(operand[:full], np.float64, "CA").reshape(
                (full // STEP_ROWS, STEP_ROWS) + operand.shape[1:]
            )
            for operand in operands
        ]
        total = sum_steps(call, steps, total)
    # the open rows are copied: a state must not pin a table's block
    rest = [np.array(operand[full:], np.float64, order="C") for operand in operands]
    return OpenSum(call, total, tuple(rest))


def _stacked(operand, rows):
    """The cells of ``rows`` of one operand — a tensor block, or a list
    of Python tensor values — as one ``(len(rows), …)`` array; cells of
    two shapes raise the ``RuntimeTypeError`` the ``add`` chain raises on
    their products, never numpy's ``ValueError``."""
    if isinstance(operand, np.ndarray):
        return operand[rows]
    cells = [operand[i].data for i in rows.tolist()]
    shape = cells[0].shape
    for cell in cells:
        if cell.shape != shape:
            raise _shape_error(shape, cell.shape)
    return np.stack(cells)


def fused_sums(call, operands, valid, group_indices, cost, carried=None) -> list:
    """Fused SUM states (:class:`OpenSum`), one per group, over the
    calls of ``call`` — a ``FuncExpr`` whose builtin has a ``block_sum``
    — whose arguments are ``operands``: per distinct argument
    expression, an ``(n, …)`` tensor block or a list of ``n`` Python
    tensor values, read on the rows ``valid`` marks (None: every row).
    Every door stacks a group's operand rows in row order and continues
    its ``carried`` state (None: a fresh one) through :func:`advance` —
    the batch kernel and the row oracle alike — and a group with no
    non-NULL call keeps its state. Charges what the ``add`` chain over
    the result cells would: ``8·cells + 8`` streamed bytes per call."""
    count = len(operands[0])
    blocks = all(isinstance(operand, np.ndarray) for operand in operands)
    states, firsts, streamed = [], [], []
    for group, indices in enumerate(group_indices):
        state = None if carried is None else carried[group]
        if len(indices) == count:
            indices = range(count)  # the whole partition
        if blocks and valid is None and isinstance(indices, range):
            rows = indices
            stacks = [operand[rows.start : rows.stop] for operand in operands]
        else:
            rows = np.asarray(indices, dtype=np.int64)
            if valid is not None:
                rows = rows[valid[rows]]
            if not len(rows):
                states.append(state)
                continue
            stacks = [_stacked(operand, rows) for operand in operands]
        cells = _result_cells(call, stacks, 1)
        firsts.append(rows[0])
        streamed.append((8.0 * cells + 8.0) * len(stacks[0]))
        states.append(advance(call, stacks, state))
    cost.add("stream_bytes", streamed, np.array(firsts, dtype=np.int64))
    return states


def final_aggregate(
    specs: Sequence, grouping, columns: Sequence, cost, scalar_on_empty: bool = False
) -> Tuple[List[Sequence], np.ndarray]:
    """FinalAggregate's merge of ``columns``, one of partial states per
    spec — each a ``ColumnData`` or Python values — per group of
    ``grouping`` (over a stage, with ``cost`` a ledger over its offsets,
    ``(slot, key)`` groups). A merge is one more fold: each column is
    folded under its aggregate's ``merger`` (:func:`fold`, in received
    row order), each NULL state charged the ``value_bytes`` a fold skips,
    and each merged state finished. Returns one output column per spec
    and each group's first row. ``scalar_on_empty`` with no rows yields
    SQL's one row over empty input, every aggregate finished from
    ``create()``, as if at row 0."""
    aggregates = [spec.folding for spec in specs]
    if scalar_on_empty and not len(grouping):
        out = [[aggregate.finish(aggregate.create())] for aggregate in aggregates]
        return out, np.zeros(1, dtype=np.int64)
    out: List[Sequence] = []
    for aggregate, column in zip(aggregates, columns):
        if isinstance(column, ColumnData):
            nulls = column.nulls
        else:
            nulls = [i for i, state in enumerate(column) if state is None] or None
        if nulls is not None:
            cost.add("stream_bytes", value_bytes(None), nulls)
        merged = fold(aggregate.merger, column, grouping, cost)
        out.append(list(map(aggregate.finish, merged)))
    return out, grouping.first
