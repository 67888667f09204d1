"""Key kernels: what GROUP BY, DISTINCT, the hash exchange, the hash
join and ORDER BY do with the key columns of one chunk.

``chunk.keys(exprs, cost)`` (and ``chunk.row_keys()``, every column as a
key) answers with one of two classes that share an interface —
``grouping()``, ``pairs(build)`` and ``reorder(order, ascending)`` —
chosen only by the physical form of the key columns, exactly as
:class:`~repro.columnar.ColumnData` chooses its own form:

* :class:`HashedKeys` — Python value lists bucketed by tuple/``dict``
  loops. This is all a ``RowChunk`` ever produces (the differential
  oracle), and the fallback a ``Batch`` takes for any object,
  NULL-bearing or tensor key column;
* :class:`TypedKeys` — ``int64``/``bool_``/``float64`` arrays without a
  null mask, factorised into dense codes (``value - min`` where the span
  is narrow, ``np.unique`` otherwise) and matched by a stable sort (a
  radix sort where the span is narrow) and ``searchsorted``.

Both number groups in **first-seen order**, emit join pairs probe-row
major with build rows ascending within a key, and order rows by a
stable sort, so which class ran is invisible in the rows, their order
and every simulated charge (docs/ENGINE.md, "Key kernels").

One rule for NaN keys (docs/SQL.md): grouping, DISTINCT and placement
treat every NaN as **one** key whose representative is the first seen —
and tensors that differ only where both hold a NaN as one key
(:func:`~repro.la.aggregates.one_value`); an equi-join never matches a
NaN key or a tensor holding one, like NULL and like ``=``. ORDER BY over
NaN keeps Python's order-dependent comparison chain.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..la.aggregates import one_value
from ..types import Matrix, Vector


def _one_nan_column(values: Sequence) -> Sequence:
    """A key column as :func:`~repro.la.aggregates.one_value` looks it
    up; most columns hold no float or tensor and are their own."""
    kinds = set(map(type, values))
    if any(issubclass(kind, (float, Vector, Matrix)) for kind in kinds):
        return list(map(one_value, values))
    return values


def _matchable(key: tuple) -> bool:
    """False for a join key holding a NULL, a NaN or a tensor with a NaN
    cell: it equals nothing, not even itself (which a ``dict`` lookup
    would find by identity)."""
    for value in key:
        if value is None or value != value:
            return False
    return True


def index_list(indices) -> Sequence[int]:
    """Row positions as Python ints (list indexing by numpy scalars is
    slow)."""
    return indices.tolist() if isinstance(indices, np.ndarray) else indices


def _sort_key(value):
    if value is None:
        return (0, 0)
    if type(value) is Vector:
        # vectors carry no __lt__; order them lexicographically by
        # element so ORDER BY over a vector column is well-defined
        return (1, (0, tuple(value.data.tolist())))
    return (1, value)


def descending(array: np.ndarray) -> np.ndarray:
    """An array whose ascending stable sort is ``array``'s descending
    stable sort (what ``list.sort(reverse=True)`` yields: equal keys keep
    input order). Negation, not a reversed ascending sort, which would
    reverse the ties too; ``~x`` is ``-x - 1`` (logical not for bools),
    so the smallest int64 does not overflow."""
    return -array if array.dtype == np.float64 else ~array


class Grouping:
    """The rows of one chunk bucketed by key: ``codes[i]`` is the group
    of row ``i``, groups numbered in first-seen order; ``keys[g]`` is
    group ``g``'s key tuple (the values of its first row) and
    ``first[g]`` that row's position."""

    __slots__ = ("codes", "keys", "first", "_positions", "_sizes")

    def __init__(self, codes: np.ndarray, keys: List[tuple], first, positions=None):
        self.codes = codes
        self.keys = keys
        self.first = first
        self._positions = positions
        self._sizes: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def one(cls, count: int) -> "Grouping":
        """No key columns: every row in one group (none over no rows)."""
        groups = 1 if count else 0
        return cls(
            np.zeros(count, dtype=np.int64),
            [()] * groups,
            np.zeros(groups, dtype=np.int64),
            [range(count)] * groups,
        )

    @classmethod
    def runs(cls, offsets: np.ndarray) -> "Grouping":
        """No key columns over a stage cut at ``offsets``: one group per
        non-empty slot, its rows a run."""
        present = np.flatnonzero(offsets[1:] - offsets[:-1])
        starts, stops = offsets[present], offsets[present + 1]
        runs = list(map(range, starts.tolist(), stops.tolist()))
        codes = np.repeat(np.arange(len(runs)), stops - starts)
        return cls(codes, [()] * len(runs), starts, runs)

    @classmethod
    def of(cls, groups, count: int) -> "Grouping":
        """``groups`` itself, or — given plain per-group sequences of
        ascending row positions that put each of the ``count`` rows in
        exactly one group — the grouping they spell (keys unknown)."""
        if isinstance(groups, Grouping):
            return groups
        codes = np.zeros(count, dtype=np.int64)
        for code, rows in enumerate(groups):
            codes[np.asarray(rows, dtype=np.int64)] = code
        first = np.array([rows[0] for rows in groups], dtype=np.int64)
        return cls(codes, [()] * len(groups), first, list(groups))

    def sizes(self, codes: Optional[np.ndarray] = None) -> np.ndarray:
        """Rows per group — of this grouping's rows (made once, however
        many aggregates ask), or of a subset given by its ``codes``."""
        if codes is not None:
            return np.bincount(codes, minlength=len(self))
        if self._sizes is None:
            if len(self.keys) == 1:  # no array call for a scalar aggregate
                self._sizes = np.array([len(self.codes)])
            else:
                self._sizes = np.bincount(self.codes, minlength=len(self))
        return self._sizes

    def positions(self) -> list:
        """Per group, its row positions in ascending order (made on
        first use: the typed aggregate kernels never ask)."""
        if self._positions is None:
            self._positions = (
                rows_by_code(self.codes, len(self)) if self.keys else []
            )
        return self._positions


def rows_by_code(codes: np.ndarray, count: int) -> List[np.ndarray]:
    """For each code in ``range(count)`` (at least one), the positions of
    the rows holding it, ascending."""
    order = stable_argsort(codes)
    bounds = np.cumsum(np.bincount(codes, minlength=count))
    return np.split(order, bounds[:-1])


def slot_codes(offsets: np.ndarray) -> np.ndarray:
    """Per row of a stage cut at ``offsets``, the slot holding it."""
    return np.repeat(np.arange(len(offsets) - 1), offsets[1:] - offsets[:-1])


def stable_argsort(array: np.ndarray) -> np.ndarray:
    """``np.argsort(array, kind="stable")``. A stable sort's permutation
    is unique, so any stable sort returns it: an ``int64`` array spanning
    fewer than 2¹⁶ values is sorted as ``uint16`` offsets from its
    minimum, which numpy radix-sorts (a wider int takes its comparison
    mergesort). Up to 16 elements numpy's insertion sort is cheaper than
    the offsets."""
    if array.dtype == np.int64 and len(array) > 16:
        low = int(array.min())
        if int(array.max()) - low < 1 << 16:
            array = np.subtract(array, low).astype(np.uint16)
    return np.argsort(array, kind="stable")


def _column_codes(array: np.ndarray, bound: int) -> Tuple[np.ndarray, int]:
    """``(codes, size)``: per row an int64 code in ``range(size)``, equal
    exactly where the values are one key. An int or bool column whose
    span fits ``bound`` codes its values as ``value - min`` (the span is
    taken in Python ints, so ``-2⁶³ … 2⁶³-1`` cannot overflow); any other
    column takes ``np.unique``'s inverse — an unstable sort is enough,
    only the codes are used — under which ``±0.0`` are one key and every
    NaN is one key, the ``dict`` loop's rules."""
    if array.dtype != np.float64:
        low = int(array.min())
        size = int(array.max()) - low + 1
        if size <= bound:
            return np.subtract(array, low, dtype=np.int64), size
    uniques, inverse = np.unique(array, return_inverse=True)
    return inverse, len(uniques)


def _key_codes(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, int]:
    """:func:`_column_codes` of several key columns at once, folded
    pairwise; every table stays within ``4·rows + 64`` codes (a product
    past that is coded again), so no fold can overflow int64."""
    bound = 4 * len(arrays[0]) + 64
    codes, size = _column_codes(arrays[0], bound)
    for array in arrays[1:]:
        right, width = _column_codes(array, bound)
        codes, size = codes * width + right, size * width
        if size > bound:
            codes, size = _column_codes(codes, bound)
    return codes, size


class HashedKeys:
    """Key columns as lists of Python values, bucketed by ``dict`` — over
    a stage cut at ``offsets``, by ``(slot, key)``: each slot's own
    groups in first-seen order, slot by slot. Two stages' keys match by
    ``(slot, key)`` too, when both carry offsets."""

    #: no typed form: a typed probe side meets these keys as hashed ones
    dtypes = None

    def __init__(self, columns: Sequence[list], count: int, offsets=None):
        self.columns = columns
        self.count = count
        self.offsets = offsets
        self._table: Optional[dict] = None

    def hashed(self) -> "HashedKeys":
        return self

    def grouping(self, by_slot: bool = True) -> Grouping:
        """The rows bucketed by key — over a stage, by ``(slot, key)``
        unless not ``by_slot``."""
        slotted = by_slot and self.offsets is not None
        if not self.columns:
            return Grouping.runs(self.offsets) if slotted else Grouping.one(self.count)
        columns = list(map(_one_nan_column, self.columns))
        if slotted:
            columns.insert(0, slot_codes(self.offsets).tolist())
        index: dict = {}
        codes: List[int] = []
        first: List[int] = []
        for i, key in enumerate(zip(*columns)):
            code = index.setdefault(key, len(index))
            if code == len(first):
                first.append(i)
            codes.append(code)
        keys = [tuple(column[i] for column in self.columns) for i in first]
        return Grouping(
            np.array(codes, dtype=np.int64), keys, np.array(first, dtype=np.int64)
        )

    def _slotted(self, slotted: bool) -> list:
        """The key columns, led by each row's slot when ``slotted``."""
        if not slotted:
            return self.columns
        return [slot_codes(self.offsets).tolist(), *self.columns]

    def table(self, slotted: bool = False) -> dict:
        """Key tuple (led by the slot when ``slotted``) -> ascending row
        positions, over the rows whose key can match anything. Made on
        first probe and kept: a broadcast build side is hashed once."""
        if self._table is None:
            table: dict = {}
            for i, key in enumerate(zip(*self._slotted(slotted))):
                if _matchable(key):
                    table.setdefault(key, []).append(i)
            self._table = table
        return self._table

    def pairs(self, build) -> Tuple[list, list]:
        """``(probe_indices, build_indices)`` of every row of these keys
        beside every row of ``build`` with an equal key — in the same
        slot, when both sides are stages."""
        slotted = _by_slot(self, build)
        table = build.hashed().table(slotted)
        if not table:  # an empty build side: nothing to look up
            return [], []
        probe_indices: List[int] = []
        build_indices: List[int] = []
        # the table holds no NULL or NaN key, so such a probe finds nothing
        for i, key in enumerate(zip(*self._slotted(slotted))):
            for j in table.get(key, ()):
                probe_indices.append(i)
                build_indices.append(j)
        return probe_indices, build_indices

    def reorder(self, order, ascending: bool) -> list:
        """``order`` (row positions; None: input order) stably sorted by
        this single key column, NULLs first when ascending."""
        ranks = [_sort_key(value) for value in self.columns[0]]
        rows = list(range(self.count)) if order is None else index_list(order)
        rows.sort(key=ranks.__getitem__, reverse=not ascending)
        return rows


class TypedKeys:
    """Key columns as typed arrays (no NULLs), handled by sorting (over a
    stage, grouped by ``(slot, key)``)."""

    def __init__(self, arrays: Sequence[np.ndarray], count: int, offsets=None):
        self.arrays = arrays
        self.count = count
        self.offsets = offsets
        self.dtypes = tuple(array.dtype for array in arrays)
        self._hashed: Optional[HashedKeys] = None
        self._sorted: Optional[tuple] = None

    def hashed(self) -> HashedKeys:
        """These keys as Python values (exact), for what sorting cannot
        express: a probe side of another dtype, NaN sort keys."""
        if self._hashed is None:
            self._hashed = HashedKeys(
                [array.tolist() for array in self.arrays], self.count, self.offsets
            )
        return self._hashed

    def _slotted(self, slotted: bool) -> list:
        """The key arrays, led by each row's slot when ``slotted``."""
        if not slotted:
            return self.arrays
        return [slot_codes(self.offsets), *self.arrays]

    def grouping(self, by_slot: bool = True) -> Grouping:
        # first-seen numbering without a sort: each code's first row by
        # one ``np.minimum.at``; a row is its group's first when it is
        # that row, and the first rows, ascending, number the groups
        codes, size = _key_codes(self._slotted(by_slot and self.offsets is not None))
        rows = np.arange(self.count)
        table = np.full(size, self.count)
        np.minimum.at(table, codes, rows)
        first = np.flatnonzero(table[codes] == rows)
        table[codes[first]] = np.arange(len(first))
        keys = list(zip(*[array[first].tolist() for array in self.arrays]))
        return Grouping(table[codes], keys, first)

    def pairs(self, build) -> Tuple[np.ndarray, np.ndarray]:
        if build.dtypes != self.dtypes:
            # int = float keys compare exactly as Python numbers
            return self.hashed().pairs(build)
        slotted = _by_slot(self, build)
        if len(self.arrays) == 1 and not slotted:
            probe = self.arrays[0]
            order, haystack, run_stop = build._sorted_side()
        else:
            probe, theirs = _joint_codes(
                self._slotted(slotted), build._slotted(slotted)
            )
            order, haystack, run_stop = _sorted_runs(theirs)
        # one binary search per probe row: where its key's run of equal
        # build keys starts; the run's length was counted on the build side
        low = np.searchsorted(haystack, probe, side="left")
        at = np.minimum(low, len(haystack) - 1)
        hit = haystack[at] == probe
        if len(self.arrays) > 1 or slotted:  # joint codes made every NaN one code
            for array in self.arrays:
                if array.dtype == np.float64:
                    hit[np.isnan(array)] = False
        if run_stop is None:  # unique build keys: one pair per hit
            rows = np.flatnonzero(hit)
            return rows, order[at[rows]]
        # probe-row major, build rows ascending within a key (the build
        # side's sort is stable)
        counts = np.where(hit, run_stop[at] - low, 0)
        starts = np.cumsum(counts) - counts
        within = np.arange(int(counts.sum())) - np.repeat(starts, counts)
        return (
            np.repeat(np.arange(self.count), counts),
            order[np.repeat(low, counts) + within],
        )

    def _sorted_side(self) -> tuple:
        """The single key column's stable sort — this join's "hash
        table". Made on first probe and kept: a broadcast build side is
        sorted once."""
        if self._sorted is None:
            self._sorted = _sorted_runs(self.arrays[0])
        return self._sorted

    def reorder(self, order, ascending: bool):
        array = self.arrays[0]
        if array.dtype == np.float64 and np.isnan(array).any():
            return self.hashed().reorder(order, ascending)
        if not ascending:
            array = descending(array)
        if order is None:
            return stable_argsort(array)
        order = np.asarray(order, dtype=np.int64)
        return order[stable_argsort(array[order])]


def _by_slot(probe, build) -> bool:
    """Whether a join matches by ``(slot, key)``: both sides are stages."""
    return probe.offsets is not None and build.offsets is not None


def _sorted_runs(keys: np.ndarray) -> tuple:
    """``(order, sorted keys, run_stop)`` of a non-empty build side:
    its stable sort, and per sorted position where the run of keys equal
    to it ends — None when no key repeats (the build side of a key–
    foreign-key join). A NaN equals nothing, so each is a run of its own
    — and no probe finds it (``==`` again)."""
    order = stable_argsort(keys)
    haystack = keys[order]
    last = np.empty(len(haystack), dtype=np.bool_)  # last of its run
    last[-1] = True
    np.not_equal(haystack[1:], haystack[:-1], out=last[:-1])
    if last.all():
        return order, haystack, None
    stops = np.flatnonzero(last) + 1
    return order, haystack, np.repeat(stops, np.diff(stops, prepend=0))


def _joint_codes(probe: Sequence[np.ndarray], build: Sequence[np.ndarray]):
    """One int64 code per row of each side such that two rows agree on
    every key column exactly when their codes are equal."""
    split = len(probe[0])
    codes, _ = _key_codes(
        [np.concatenate([mine, theirs]) for mine, theirs in zip(probe, build)]
    )
    return codes[:split], codes[split:]


def typed_keys(columns: Sequence, count: int, offsets: Optional[np.ndarray] = None):
    """The keys of a batch (over a stage, cut at ``offsets``): typed when
    every key column is a typed scalar array without NULLs, hashed
    otherwise."""
    arrays = [column.typed_array() for column in columns]
    if count and arrays and all(array is not None for array in arrays):
        return TypedKeys(arrays, count, offsets)
    return HashedKeys([column.pylist() for column in columns], count, offsets)


def stable_order(count: int, keys_last_first):
    """Row positions under the composite ORDER BY: one stable sort per
    ``(keys, ascending)``, last key first, so earlier keys dominate and
    full ties keep input order (a bare LIMIT has no key at all). The one
    ordering body of ORDER BY, with or without a LIMIT."""
    order = None
    for keys, ascending in keys_last_first:
        order = keys.reorder(order, ascending)
    return range(count) if order is None else order


def top_order(count: int, keys_last_first, k: int):
    """``stable_order(count, keys_last_first)[:k]`` by selection: one
    ``np.partition`` finds the dominant (first ORDER BY) key's k-th
    ranked value, and the chain sorts only the rows ranked at or before
    it (ties included, in row order). Every other row ranks after all of
    them, and a stable sort of a subsequence under a total order is the
    full sort restricted to it, so the first k are the same rows in the
    same order — when every key is typed and NaN-free. A NaN (or an
    object key) makes the chain's order depend on the rows it sees, so
    such keys sort every row."""
    keys_last_first = list(keys_last_first)
    arrays = [
        keys.arrays[0] if isinstance(keys, TypedKeys) else None
        for keys, _ in keys_last_first
    ]
    if not arrays or not 0 < k < count or any(
        array is None or (array.dtype == np.float64 and np.isnan(array).any())
        for array in arrays
    ):
        return stable_order(count, keys_last_first)[:k]
    array, ascending = arrays[-1], keys_last_first[-1][1]
    ranked = array if ascending else descending(array)
    order = np.flatnonzero(ranked <= np.partition(ranked, k - 1)[k - 1])
    for keys, ascending in keys_last_first:
        order = keys.reorder(order, ascending)
    return order[:k]
