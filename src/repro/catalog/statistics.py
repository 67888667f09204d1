"""Table statistics for the cost-based optimizer.

Beyond the classical row counts and per-column distinct counts, the
catalog records *observed tensor dimensions* for columns whose VECTOR or
MATRIX type left dimensions unspecified in the schema. This lets the
optimizer cost plans over ``VECTOR[]`` data nearly as accurately as over
fully declared types (section 4.1 of the paper).

Statistics must track DML: every INSERT / INSERT ... SELECT / CTAS /
DELETE that changes rows refreshes them (``Database._refresh_stats``),
since stale row counts or tensor dims would silently mis-cost every
subsequent plan. A table starts with empty accumulators — an INTEGER,
DOUBLE or BOOLEAN column's distinct values are :class:`TypedDistinct`
runs — and :func:`append_stats` folds each append's columns into them,
reporting whether a refined type changed (a change of the table's shape).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Set, Tuple, Union

import numpy as np

from ..columnar import ColumnData, cast, columns_from_rows, wrap_cell
from ..types import BooleanType, DataType, DoubleType, IntegerType, Matrix
from ..types import MatrixType, Vector, VectorType

#: the dtype of each typed scalar column type's distinct values
_DTYPES = {IntegerType: np.int64, DoubleType: np.float64, BooleanType: np.bool_}
_SHORT = 1024  #: the least length of a run but the last
_TAIL = 4096  #: the most values the tail holds (boxed: a few rows at a time)


class TypedDistinct:
    """A typed column's distinct values (every NaN one, ±0.0 one, NULL one):
    sorted, disjoint runs, each at least twice the next and merged like a
    binary counter (an update of Δ values is O(Δ log N) amortized, with no
    search above ``high``), and a sorted ``tail`` of few-row appends' values."""

    __slots__ = ("dtype", "runs", "tail", "high", "null", "nan")

    def __init__(self, values: np.ndarray) -> None:
        self.dtype, self.runs, self.tail, self.high = values.dtype, [], [], None
        self.null = self.nan = False
        self.update(ColumnData(values))

    def __len__(self) -> int:
        return sum(map(len, self.runs)) + len(self.tail) + self.null + self.nan

    def __iter__(self):
        return iter(self.column().pylist())

    def update(self, column: ColumnData) -> None:
        """Add a column's values (past int64 an ``OverflowError``)."""
        data = column.data
        if column.nulls is not None:
            self.null, data = True, data[~column.nulls]
        values = data if data.dtype == self.dtype else cast(data, self.dtype)
        if len(values) <= 8:  # a few: each searched alone, into the tail
            tail, runs = self.tail, self.runs
            for value in values.tolist():
                at = bisect_left(tail, value)
                if value != value:
                    self.nan = True
                elif (at == len(tail) or tail[at] != value) and not (runs and value <= self.high and any(
                    run[min(run.searchsorted(value), len(run) - 1)] == value for run in runs
                )):
                    tail.insert(at, value)
            if len(tail) < _TAIL:
                return
            values, self.tail = np.array(tail, self.dtype), []
        else:  # with the tail, sorted: the first of each run of equals, NaNs last
            values = np.sort(np.concatenate([self.tail, values]) if self.tail else values)
            self.tail = []
            first = np.ones(len(values), np.bool_)
            first[1:] = values[1:] != values[:-1]
            values = values[first]
            if values[-1] != values[-1]:
                self.nan, values = True, values[values == values]
            if self.runs and len(values) and values[0] <= self.high:
                for run in self.runs:
                    values = values[run.take(run.searchsorted(values), mode="clip") != values]
        if len(values):
            self._push(values)

    def _push(self, values: np.ndarray) -> None:
        """A sorted run of new values, merged in like a binary counter."""
        runs = self.runs
        self.high = max(self.high, values[-1].item()) if runs else values[-1].item()
        runs.append(values)
        while len(runs) > 1 and len(runs[-2]) < max(2 * len(runs[-1]), _SHORT):
            last, before = runs.pop(), runs.pop()
            runs.append(np.concatenate([before, last]))
            if before[-1] > last[0]:
                runs[-1].sort(kind="stable")

    def column(self) -> ColumnData:
        """Every value as one column (a NaN and a NULL row last, when seen)."""
        extra = np.array([*self.tail, *[np.nan] * self.nan, *[0] * self.null], self.dtype)
        data = np.concatenate([*self.runs, extra])
        return ColumnData(data, np.arange(len(data)) == len(data) - 1 if self.null else None)


@dataclass
class ColumnStats:
    """Statistics for a single column."""

    distinct: Optional[int] = None
    #: observed average vector length / matrix dims for under-specified types
    observed_length: Optional[int] = None
    observed_rows: Optional[int] = None
    observed_cols: Optional[int] = None
    #: accumulators carried for incremental refresh on append; ``None``
    #: means "not tracked" (e.g. an unhashable scalar column)
    values: Optional[Union[TypedDistinct, Set]] = field(default=None, repr=False, compare=False)
    length_set: Optional[Set[int]] = field(default=None, repr=False, compare=False)
    shape_set: Optional[Set[tuple]] = field(default=None, repr=False, compare=False)
    #: the busiest slot's share of ``values`` under hash placement, and
    #: what it was computed for (``engine.executor.busiest_share``)
    placed: Optional[tuple] = field(default=None, repr=False, compare=False)

    def refine_type(self, declared: DataType) -> DataType:
        """The declared type with unknown dimensions filled from observed
        statistics, when available."""
        if isinstance(declared, VectorType) and declared.length is None:
            if self.observed_length is not None:
                return VectorType(self.observed_length)
        if isinstance(declared, MatrixType):
            rows, cols = declared.rows, declared.cols
            if rows is None and self.observed_rows is not None:
                rows = self.observed_rows
            if cols is None and self.observed_cols is not None:
                cols = self.observed_cols
            if (rows, cols) != (declared.rows, declared.cols):
                return MatrixType(rows, cols)
        return declared


@dataclass
class TableStats:
    """Statistics for a table."""

    row_count: int = 0
    columns: Dict[str, ColumnStats] = field(default_factory=dict)
    #: True when the per-column accumulators are populated, so
    #: :func:`append_stats` can refresh incrementally
    incremental: bool = field(default=False, repr=False, compare=False)

    def column(self, name: str) -> ColumnStats:
        return self.columns.setdefault(name.lower(), ColumnStats())

    def distinct(self, name: str) -> Optional[int]:
        stats = self.columns.get(name.lower())
        return stats.distinct if stats else None


def _tensor_observed(col_stats: ColumnStats) -> None:
    """Re-derive the observed dims from the accumulator sets: dims are
    only trusted when every value agrees on them."""
    lengths, shapes = col_stats.length_set or set(), col_stats.shape_set or set()
    col_stats.observed_length = next(iter(lengths)) if len(lengths) == 1 else None
    col_stats.observed_rows, col_stats.observed_cols = (
        next(iter(shapes)) if len(shapes) == 1 else (None, None)
    )


def collect_stats(schema, appended=None) -> TableStats:
    """Statistics of rows in one pass (row count, distinct counts, observed
    tensor dims); with ``appended=None`` (a new table) empty accumulators."""
    stats = TableStats(incremental=True)
    for column in schema:
        col_stats = stats.column(column.name)
        if isinstance(column.data_type, (VectorType, MatrixType)):
            col_stats.length_set = set()
            col_stats.shape_set = set()
        else:
            dtype = _DTYPES.get(type(column.data_type))
            col_stats.values = TypedDistinct(np.empty(0, dtype)) if dtype else set()
    if appended is not None:
        append_stats(stats, schema, appended)
    return stats


class Appended(NamedTuple):
    """What :func:`append_stats` folded: whether a column's refined type
    (``ColumnStats.refine_type`` of its declared type) changed."""

    refined_changed: bool


def append_stats(stats: TableStats, schema, appended) -> Optional[Appended]:
    """Fold appended rows (``ColumnData`` per column, as the table took them,
    or row tuples) into ``stats`` without rescanning the table. Returns None
    when the stats carry no accumulators (e.g. hand-built fixtures) —
    callers then fall back to a full :func:`collect_stats` pass."""
    if not stats.incremental:
        return None
    columns = list(appended)
    if not columns or not isinstance(columns[0], ColumnData):
        columns = columns_from_rows(columns, len(schema))
    refined_changed = False
    for column, data in zip(schema, columns):
        col_stats = stats.columns.get(column.name.lower()) or stats.column(column.name)
        declared = column.data_type
        if isinstance(declared, (VectorType, MatrixType)):
            if col_stats.length_set is None or col_stats.shape_set is None:
                return None
            refined = col_stats.refine_type(declared)
            if data.is_block:  # one cell shape (unless every row is NULL)
                data = [] if data.nulls is not None and data.nulls.all() else [wrap_cell(data.data[0])]
            for value in data:
                if isinstance(value, Vector):
                    col_stats.length_set.add(value.length)
                elif isinstance(value, Matrix):
                    col_stats.shape_set.add(value.shape)
            _tensor_observed(col_stats)
            refined_changed |= col_stats.refine_type(declared) != refined
        elif col_stats.values is not None:
            try:
                col_stats.values.update(data)
                col_stats.distinct = len(col_stats.values)
            except (TypeError, ValueError, OverflowError):  # no number, or past int64
                col_stats.values = col_stats.distinct = None
    stats.row_count += len(columns[0]) if columns else 0
    return Appended(refined_changed)


# -- cardinality feedback ---------------------------------------------------
#
# After every completed statement the database folds the observed
# per-operator actual row counts (``Result.metrics.trace``) back into the
# structures below. Estimates consult them through the cost model, so a
# predicate the static statistics mis-costed on the first run is planned
# from its *observed* selectivity on the next one, and repeated workloads
# converge toward q-error 1. Feedback never changes result rows — only
# estimates.


def predicate_fingerprint(expr, scope: str = "") -> Optional[Tuple]:
    """A normalized, compile-independent fingerprint of a predicate.

    Column references are rendered by (lower-cased) column *name* rather
    than by the binder's per-statement column ids, so the same SQL text
    compiled twice fingerprints identically. Commutative structure is
    normalized: the two sides of ``AND``/``OR`` and of an equality are
    sorted, so ``a = b`` and ``b = a`` (and reordered conjuncts) share a
    fingerprint. ``scope`` qualifies the fingerprint with the table a
    filter sits directly above, keeping same-named columns of different
    tables apart.

    Returns ``None`` for predicates containing query parameters: their
    selectivity depends on the bound value, so one binding's observation
    would mislead the next — and recording them would churn the feedback
    version (and through it the plan cache) on every prepared-statement
    execution.
    """

    rendered = _render_expr(expr)
    if rendered is None:
        return None
    return ("pred", scope.lower(), rendered)


def join_fingerprint(equi_pairs, residual=None) -> Optional[Tuple]:
    """A normalized fingerprint for a join: the set of equi-key pairs
    (each pair orientation-insensitive, the set order-insensitive) plus
    the residual predicate, if any. Returns ``None`` when any component
    contains a query parameter."""

    pairs = []
    for left, right in equi_pairs:
        left_r = _render_expr(left)
        right_r = _render_expr(right)
        if left_r is None or right_r is None:
            return None
        pairs.append(tuple(sorted((left_r, right_r))))
    residual_r: Tuple = ()
    if residual is not None:
        rendered = _render_expr(residual)
        if rendered is None:
            return None
        residual_r = rendered
    return ("join", tuple(sorted(pairs)), residual_r)


_COMMUTATIVE_OPS = {"=", "<>", "!=", "+", "*", "and", "or"}


def _render_expr(expr) -> Optional[Tuple]:
    """Duck-typed structural rendering of a ``TypedExpr`` tree (avoids a
    catalog -> plan import cycle). Stable across compilations of the same
    SQL text; ``None`` marks a parameter somewhere in the tree."""

    cls = type(expr).__name__
    if cls == "ParamExpr":
        return None
    if cls == "ColumnVar":
        name = (getattr(expr, "name", "") or "").lower()
        return ("col", name if name else f"#{getattr(expr, 'column_id', '?')}")
    if cls == "LiteralExpr":
        return ("lit", repr(getattr(expr, "value", None)))
    parts = [cls]
    op = getattr(expr, "op", None)
    if op is not None:
        parts.append(str(op).lower())
    if hasattr(expr, "negated"):
        parts.append(bool(expr.negated))
    builtin = getattr(expr, "builtin", None)
    if builtin is not None:
        parts.append(getattr(builtin, "name", type(builtin).__name__))
    children = []
    for child in expr.children():
        rendered = _render_expr(child)
        if rendered is None:
            return None
        children.append(rendered)
    if op is not None and str(op).lower() in _COMMUTATIVE_OPS:
        children.sort()
    return tuple(parts) + tuple(children)


#: Observed values within this relative factor of the stored one do not
#: update the store (and so do not bump the feedback version): repeated
#: identical workloads converge to a stable version and the plan cache
#: keeps hitting.
_FEEDBACK_TOLERANCE = 0.10

#: Estimates already within this q-error of the observation are "right
#: enough": recording them would add nothing and would invalidate cached
#: plans for no benefit.
_RECORD_THRESHOLD = 1.5


@dataclass
class _FeedbackEntry:
    """One learned value plus how often it was (re-)observed."""

    value: float
    observations: int = 1


class FeedbackStatistics:
    """Observed-cardinality overrides learned from completed queries.

    Three stores, all keyed independently of any single compilation:

    - ``row_counts``: table name -> actual rows delivered by an unpruned
      scan (normally agrees with ``TableStats.row_count``; diverges only
      for hand-built fixtures whose stats were never refreshed);
    - ``selectivities``: :func:`predicate_fingerprint` -> observed
      ``rows_out / rows_in`` of a filter;
    - ``join_selectivities``: :func:`join_fingerprint` -> observed
      ``rows_out / (left_rows * right_rows)`` of a join.

    ``version`` increases monotonically whenever a recording *changes*
    the store (new key, or value drifted beyond ``_FEEDBACK_TOLERANCE``);
    the service's plan-cache key includes it, so cached plans built from
    stale estimates are invalidated exactly when new knowledge arrives —
    and a converged workload stops invalidating. All methods are
    thread-safe: concurrent SELECTs absorb feedback under shared
    admission.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._version = 0
        self._row_counts: Dict[str, _FeedbackEntry] = {}
        self._selectivities: Dict[Tuple, _FeedbackEntry] = {}
        self._join_selectivities: Dict[Tuple, _FeedbackEntry] = {}

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    # -- recording (executor side) -----------------------------------------

    def record_scan_rows(self, table: str, rows: float) -> bool:
        return self._record(self._row_counts, table.lower(), float(rows))

    def record_selectivity(self, fingerprint: Tuple, observed: float) -> bool:
        return self._record(self._selectivities, fingerprint, observed)

    def record_join_selectivity(self, fingerprint: Tuple, observed: float) -> bool:
        return self._record(self._join_selectivities, fingerprint, observed)

    def _record(self, store: Dict, key, value: float) -> bool:
        with self._lock:
            entry = store.get(key)
            if entry is not None:
                entry.observations += 1
                if _within_tolerance(entry.value, value):
                    return False
                entry.value = value
            else:
                store[key] = _FeedbackEntry(value)
            self._version += 1
            return True

    # -- lookup (estimator side) -------------------------------------------

    def scan_rows(self, table: str) -> Optional[float]:
        with self._lock:
            entry = self._row_counts.get(table.lower())
            return entry.value if entry else None

    def selectivity(self, fingerprint: Optional[Tuple]) -> Optional[float]:
        if fingerprint is None:
            return None
        with self._lock:
            entry = self._selectivities.get(fingerprint)
            return entry.value if entry else None

    def join_selectivity(self, fingerprint: Optional[Tuple]) -> Optional[float]:
        if fingerprint is None:
            return None
        with self._lock:
            entry = self._join_selectivities.get(fingerprint)
            return entry.value if entry else None

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        """Forget everything learned (bumps the version so cached plans
        built on the learned estimates are invalidated too)."""
        with self._lock:
            if self._row_counts or self._selectivities or self._join_selectivities:
                self._row_counts.clear()
                self._selectivities.clear()
                self._join_selectivities.clear()
                self._version += 1

    def snapshot(self) -> Dict[str, object]:
        """Counters for ``QueryService.stats()`` / debugging."""
        with self._lock:
            return {
                "version": self._version,
                "tables": len(self._row_counts),
                "predicates": len(self._selectivities),
                "joins": len(self._join_selectivities),
                "observations": sum(
                    entry.observations
                    for store in (
                        self._row_counts,
                        self._selectivities,
                        self._join_selectivities,
                    )
                    for entry in store.values()
                ),
            }


def _within_tolerance(stored: float, observed: float) -> bool:
    if stored == observed:
        return True
    baseline = max(abs(stored), abs(observed), 1e-12)
    return abs(stored - observed) / baseline <= _FEEDBACK_TOLERANCE


def estimate_needs_feedback(estimated: float, observed: float) -> bool:
    """True when the estimate was wrong enough (q-error beyond the
    recording threshold) that learning the observation is worthwhile."""
    est = max(float(estimated), 1.0)
    act = max(float(observed), 1.0)
    return max(est / act, act / est) > _RECORD_THRESHOLD
