"""An operator pays once for its bookkeeping: byte totals come from the
column form. That is a shortcut to the same numbers, so it is held
against the long way."""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, TEST_CLUSTER
from repro.engine import storage as engine_storage
from repro.engine.cluster import columns_row_bytes, row_bytes
from repro.engine.storage import Batch
from repro.types import LabeledScalar, Matrix, Vector

# -- byte totals by column form -----------------------------------------------


def _cell(kind, rng):
    """One value of a column that ``ColumnData.from_values`` forms as
    ``kind`` (NULLs aside: a masked column holds some)."""
    if kind in ("masked block", "masked float") and rng.random() < 0.3:
        return None
    if kind == "int":
        return rng.randint(-(2**40), 2**40)
    if kind in ("float", "masked float"):
        return rng.choice([rng.uniform(-1e6, 1e6), math.nan, -0.0, math.inf])
    if kind == "bool":
        return rng.random() < 0.5
    if kind in ("block", "masked block"):
        return Vector([rng.random() for _ in range(3)])
    if kind == "matrix":
        return Matrix(np.full((2, 2), rng.random()))
    return rng.choice(["", "text", 7, 2.5, LabeledScalar(1.5, 2), Vector([1.0])])


KINDS = (
    "int", "float", "bool", "block", "matrix", "object",
    "masked block", "masked float",
)


def _batch(kinds, count, rng, sized):
    rows = [tuple(_cell(kind, rng) for kind in kinds) for _ in range(count)]
    sizes = [row_bytes(row) for row in rows] if sized else None
    return Batch.from_rows(range(len(kinds)), rows, sizes)


def _assert_exact(batch):
    """``total_bytes`` is the per-row sizes' sum, bit for bit, by either
    long way: the column sizing kernel, or one ``row_bytes`` per row."""
    total = batch.total_bytes()
    by_columns = float(np.sum(columns_row_bytes(batch.columns, len(batch))))
    by_rows = float(sum(row_bytes(row) for row in batch.rows()))
    assert total.hex() == by_columns.hex() == by_rows.hex()


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    count=st.integers(0, 9),
    seed=st.integers(0, 2**16),
)
def test_total_bytes_is_the_sum_of_the_row_sizes(kinds, count, seed):
    rng = random.Random(seed)
    for sized in (False, True):
        batch = _batch(kinds, count, rng, sized)
        other = _batch(kinds, rng.randint(0, 5), rng, not sized)
        _assert_exact(batch)
        picks = [rng.randrange(count) for _ in range(rng.randint(0, 6) if count else 0)]
        _assert_exact(batch.take(picks))
        mask = np.array([rng.random() < 0.5 for _ in range(count)], dtype=bool)
        _assert_exact(batch.filter(mask))
        _assert_exact(Batch.concat(batch.column_ids, [batch, other]))
        pairs = [
            (rng.randrange(count), rng.randrange(len(other)))
            for _ in range(rng.randint(0, 6))
            if count and len(other)
        ]
        for probe_is_left in (True, False):
            _assert_exact(
                batch.join(
                    range(2 * len(kinds)),
                    other,
                    [i for i, _ in pairs],
                    [j for _, j in pairs],
                    probe_is_left,
                )
            )


def test_fixed_width_statements_never_size_rows_one_by_one(monkeypatch):
    """Over typed and block columns no operator builds a per-row size
    array: the vector Gram on memory storage, and the tuple Gram's join
    and the range count on disk storage, cold and from the plan cache."""
    vectors = Database(TEST_CLUSTER)
    vectors.execute("CREATE TABLE gram_x (id INTEGER, value VECTOR[])")
    vectors.load("gram_x", [(i, np.arange(8.0) + i) for i in range(64)])
    tuples = Database(TEST_CLUSTER.with_updates(storage_mode="disk", segment_rows=32))
    tuples.execute("CREATE TABLE big (row_index INTEGER, col_index INTEGER, value DOUBLE)")
    tuples.load("big", [(i // 4 + 1, i % 4 + 1, i / 7.0) for i in range(256)])
    sized = []
    monkeypatch.setattr(
        engine_storage,
        "columns_row_bytes",
        lambda *args: sized.append(args) or columns_row_bytes(*args),
    )
    for db, sql in (
        (vectors, "SELECT SUM(outer_product(x.value, x.value)) FROM gram_x AS x"),
        (tuples, "SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value) "
                 "FROM big AS x1, big AS x2 WHERE x1.row_index = x2.row_index "
                 "GROUP BY x1.col_index, x2.col_index"),
        (tuples, "SELECT COUNT(value) FROM big WHERE row_index >= 9 AND row_index < 30"),
    ):
        # a misestimate recompiles once, as feedback arrives
        runs = [db.execute(sql) for _ in range(3)]
        assert runs[0].rows and runs[-1].metrics.plan_cached
    assert sized == []
    tuples.close()

