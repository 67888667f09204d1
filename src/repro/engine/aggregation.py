"""The one fold: how an aggregate state advances over a run of rows, and
how states merge and finish.

Every aggregate is an accumulate/merge pair (:mod:`repro.la.aggregates`)
so partial aggregation can run before the shuffle (paper sections
3.2–3.3). This module is the only caller of those pairs, and fixes the
two orders every bit-identity contract rests on. *Advance*: a state
moves over its group's rows in row order, the canonical sequential chain
``((s + v0) + v1) + …`` (docs/ENGINE.md, "The float contract") — the
``add`` chain in :func:`fold_groups`, the same chain over tensor blocks
in :func:`sum_blocks`. Both continue from an optional *carried* state per
group, so folding a partition in one run or in consecutive runs performs
the same additions in the same order. *Merge and finish*:
:func:`final_aggregate`. PartialAggregate and FinalAggregate call these
with no carried state; a materialized view calls them with its stored
per-slot states, which makes view ≡ rescan hold by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..columnar import wrap_cell
from .cluster import value_bytes


def fold_groups(
    spec, values: Optional[list], group_indices, cost, carried=None
) -> list:
    """Partial-aggregate one column over pre-bucketed groups with the
    aggregate's own ``add`` chain, returning one state per group (in
    group-first-seen order). ``values`` is the list ``RowChunk.values``
    returned, or None for ``COUNT(*)``. ``carried`` holds the state each
    group's chain starts from (None: a fresh one); a DISTINCT state is a
    value set only :func:`final_aggregate` folds, and is never carried."""
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
    for group, indices in enumerate(group_indices):
        state = aggregate.create() if carried is None else carried[group]
        for i in indices:
            value = values[i] if values is not None else 1
            state = aggregate.add(state, value)
            if value is not None:
                cost.stream_bytes += value_bytes(value)
        states.append(state)
    return states


def sum_blocks(fold, blocks, nulls, group_indices, cost, carried=None) -> list:
    """SUM states, one per group, over the tensor cells ``fold`` makes
    of the operand ``blocks`` (NULL where ``nulls``): ``sum_block`` over
    a column's own block, or a builtin's fused ``block_sum`` over its
    argument blocks. Each group's rows are folded in row order,
    bit-identical to the ``SumAggregate.add`` chain over the wrapped
    values; a ``carried`` state is row 0 of that chain (``fold`` raises
    ``RuntimeTypeError`` unless it has the cells' shape) and is kept by
    a group with no non-NULL row. The states are fresh arrays: nothing
    here writes into, or hands out, a block a table segment's cached
    columns may share."""
    count = len(blocks[0])
    states = []
    for group, indices in enumerate(group_indices):
        start = None if carried is None else carried[group]
        if nulls is None and indices == range(count):
            operands = blocks  # the whole partition, already in row order
        else:
            rows = np.asarray(indices, dtype=np.int64)
            if nulls is not None:
                rows = rows[~nulls[rows]]
            if not len(rows):
                states.append(start)
                continue
            operands = [block[rows] for block in blocks]
        total = fold(*operands, None if start is None else start.data)
        cost.stream_bytes += (8.0 * total.size + 8.0) * len(operands[0])
        states.append(wrap_cell(total))
    return states


def final_aggregate(
    specs: Sequence, key_count: int, rows, cost, scalar_on_empty: bool = False
) -> List[tuple]:
    """FinalAggregate over ``rows`` of ``key + partial states``: merge
    the states of each key in arrival order, fold each DISTINCT value
    set through the ``add`` chain, ``finish``. ``merge`` updates dict
    states (VECTORIZE/ROWMATRIX/COLMATRIX) in place, so a key's first
    such state is copied: the rows stay valid for a retried operator or
    a view's next answer. ``scalar_on_empty`` with no rows yields SQL's
    one row over empty input, every aggregate finished from ``create()``."""
    merged: Dict[tuple, list] = {}
    for row in rows:
        key = row[:key_count]
        states = row[key_count:]
        existing = merged.get(key)
        if existing is None:
            merged[key] = [
                dict(state) if isinstance(state, dict) else state
                for state in states
            ]
        else:
            for i, spec in enumerate(specs):
                if spec.distinct:
                    existing[i] |= states[i]
                else:
                    existing[i] = spec.aggregate.merge(existing[i], states[i])
        for state in states:
            cost.stream_bytes += value_bytes(state) if state is not None else 1.0
    out_rows: List[tuple] = []
    for key, states in merged.items():
        finished = []
        for spec, state in zip(specs, states):
            if spec.distinct:
                fold = spec.aggregate.create()
                for value in state:
                    fold = spec.aggregate.add(fold, value)
                state = fold
            finished.append(spec.aggregate.finish(state))
        out_rows.append(tuple(key) + tuple(finished))
    if scalar_on_empty and not out_rows:
        out_rows.append(
            tuple(spec.aggregate.finish(spec.aggregate.create()) for spec in specs)
        )
    return out_rows
