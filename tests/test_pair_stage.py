"""The nested-loop join's pair stage (docs/ENGINE.md, "Pair stages").

Over batches a nested-loop join hands its consumers the probe stage, the
shared build chunk and the residual's keep mask instead of the joined
rows. Project keeps column references and tiles a builtin call over
(probe × build); PartialAggregate reduces MIN/MAX of such a tile per probe
row, then across the rows of a group. Everything else builds the pairs.
The row oracle (``execution_mode="row"``) always builds them, so it is the
independent differential: every row and every simulated figure — each
``OperatorMetrics`` field and trace node, floats by ``.hex()`` — must
agree with it. The numbers are checked against numpy's ``X M Xᵀ`` too.
"""

import dataclasses

import numpy as np
import pytest

from repro import PAPER_CLUSTER, TEST_CLUSTER, Database
from repro.columnar import ColumnData
from repro.engine import storage
from repro.engine.aggregation import _extreme_kernel, tile_extremes
from repro.engine.keys import typed_keys
from repro.engine.storage import Batch, PairStage
from repro.errors import ResourceExhaustedError
from repro.la import lookup, lookup_aggregate
from repro.plan.expressions import ColumnVar, FuncExpr
from repro.types import DOUBLE, Vector, VectorType

SLOTS = (1, 3, 4, 80)


def _config(slots, **updates):
    if slots == 80:
        return PAPER_CLUSTER.with_updates(**updates)
    return TEST_CLUSTER.with_updates(
        machines=slots // 2 or 1,
        cores_per_machine=min(slots, 2) if slots % 2 == 0 else slots,
        **updates,
    )


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(map(_hex, value))
    if isinstance(value, Vector):
        return ("vector", value.data.tobytes())
    return value


def _run(db, sql):
    """The rows in order, every field of every operator and every field
    of every trace node, floats by ``.hex()``."""
    result = db.execute(sql)
    ops = tuple(
        tuple((field.name, _hex(getattr(op, field.name))) for field in dataclasses.fields(op))
        for op in result.metrics.operators
    )
    nodes, stack = [], [result.metrics.trace]
    while stack:
        node = stack.pop()
        nodes.append(repr(sorted(
            (name, _hex(value)) for name, value in vars(node).items() if name != "children"
        )))
        stack.extend(node.children)
    return tuple(_hex(tuple(row)) for row in result.rows), ops, tuple(nodes)


@pytest.fixture
def paths(monkeypatch):
    """Counts of the pair stage's three exits: ``tiled`` MIN/MAX
    reductions, ``declined`` ones (a NaN: the chain) and ``built`` pairs."""
    counts = {"tiled": 0, "declined": 0, "built": 0}
    reduce, chunk = storage.tile_extremes, PairStage.chunk

    def counted_reduce(*args):
        states = reduce(*args)
        counts["declined" if states is None else "tiled"] += 1
        return states

    def counted_chunk(self):
        counts["built"] += 1
        return chunk(self)

    monkeypatch.setattr(storage, "tile_extremes", counted_reduce)
    monkeypatch.setattr(PairStage, "chunk", counted_chunk)
    return counts


# -- the distance: X M Xᵀ, the diagonal masked --------------------------------


def _distance_db(mode, slots, dim, count=24):
    rng = np.random.default_rng([dim, count])
    points = rng.normal(size=(count, dim))
    base = rng.normal(size=(dim, dim))
    metric = base @ base.T / dim + np.eye(dim)
    db = Database(_config(slots), execution_mode=mode)
    db.execute("CREATE TABLE x (id INTEGER, value VECTOR[])")
    db.load("x", [(i, points[i]) for i in range(count)])
    db.execute("CREATE TABLE metric (mat MATRIX[][])")
    db.load("metric", [(metric,)])
    db.execute(
        "CREATE VIEW mx (id, mx_data) AS SELECT x.id, "
        "matrix_vector_multiply(mm.mat, x.value) FROM x, metric AS mm"
    )
    return db, points @ metric @ points.T


DISTANCES = [
    (aggregate, args, residual)
    for aggregate in ("MIN", "MAX")
    # the build side's argument first (the paper's listing), then the probe's
    for args in ("m.mx_data, a.value", "a.value, m.mx_data")
    for residual in (True, False)
]


def _distance_sql(aggregate, args, residual):
    where = " WHERE a.id <> m.id" if residual else ""
    return (
        f"SELECT a.id, {aggregate}(inner_product({args})) "
        f"FROM x AS a, mx AS m{where} GROUP BY a.id"
    )


class TestDistanceDifferential:
    @pytest.mark.parametrize("slots", SLOTS)
    @pytest.mark.parametrize("dim", (1, 3, 8, 17, 100))
    def test_numpy_and_the_row_oracle_agree(self, dim, slots, paths):
        batch, product = _distance_db("batch", slots, dim)
        row, _ = _distance_db("row", slots, dim)
        for aggregate, args, residual in DISTANCES:
            sql = _distance_sql(aggregate, args, residual)
            got = _run(batch, sql)
            assert got == _run(row, sql), sql
            masked = product.copy()
            if residual:
                np.fill_diagonal(masked, np.inf if aggregate == "MIN" else -np.inf)
            want = masked.min(axis=1) if aggregate == "MIN" else masked.max(axis=1)
            result = {key: float.fromhex(value) for key, value in got[0]}
            assert sorted(result) == list(range(len(want)))
            assert np.allclose([result[i] for i in range(len(want))], want, rtol=1e-9)
        assert paths["tiled"] == len(DISTANCES) and not paths["declined"]


# -- the corners, against the row oracle ---------------------------------------


def _tables(mode, slots, probe_rows, build_rows):
    """``p`` (id, g, h, v) is the probe side, ``q`` (id, k, w) the smaller,
    broadcast build side."""
    db = Database(_config(slots), execution_mode=mode)
    db.execute("CREATE TABLE p (id INTEGER, g INTEGER, h INTEGER, v VECTOR[])")
    db.execute("CREATE TABLE q (id INTEGER, k INTEGER, w VECTOR[])")
    if probe_rows:
        db.load("p", probe_rows)
    if build_rows:
        db.load("q", build_rows)
    return db


def _agree(slots, probe_rows, build_rows, statements):
    batch = _tables("batch", slots, probe_rows, build_rows)
    row = _tables("row", slots, probe_rows, build_rows)
    out = []
    for sql in statements:
        got = _run(batch, sql)
        assert got == _run(row, sql), (slots, sql)
        out.append(got[0])
    return out


def _probe(count, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return [(i, i % 4, i % 3, Vector(rng.normal(size=dim))) for i in range(count)]


def _build(count, dim=3, seed=1):
    rng = np.random.default_rng(seed)
    return [(i, i % 2, Vector(rng.normal(size=dim))) for i in range(count)]


MIN_BY_ID = "SELECT p.id, MIN(inner_product(q.w, p.v)) FROM p, q WHERE p.id <> q.id GROUP BY p.id"
MAX_BY_ID = "SELECT p.id, MAX(inner_product(p.v, q.w)) FROM p, q GROUP BY p.id"


class TestCorners:
    @pytest.mark.parametrize("seed", range(12))
    def test_the_first_pair_wins_a_signed_zero_tie(self, seed):
        """``inner_product``'s dot never returns ``-0.0`` (its sum starts
        at ``+0.0``), so the first-pair rule is pinned on the kernel:
        over tiles of ``±0.0``, ``±1`` and ``±inf`` with NULL and dropped
        pairs, ``tile_extremes`` keeps, per group of probe rows, the very
        state ``_extreme_kernel`` keeps over the joined column — the
        first pair in joined order whose value ``==`` the extreme."""
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 7, size=2))
        tile = rng.choice([-0.0, 0.0, 1.0, -1.0, np.inf, -np.inf], size=shape)
        kept = rng.random(shape) < 0.8
        valid = kept & (rng.random(shape) < 0.8)
        keys = rng.integers(0, 3, size=shape[0])
        present = kept.any(axis=1)
        rows = typed_keys([ColumnData(keys[present])], int(present.sum())).grouping()
        pair_keys = np.repeat(keys, shape[1]).reshape(shape)[kept]
        pairs = typed_keys([ColumnData(pair_keys)], len(pair_keys)).grouping()
        column = ColumnData(tile[kept], ~valid[kept])
        for name in ("MIN", "MAX"):
            aggregate = lookup_aggregate(name)
            got = tile_extremes(aggregate, tile, valid, present, rows)
            want = _extreme_kernel(aggregate, column, pairs, None)
            assert _hex(got) == _hex(want), (name, tile, valid)

    @pytest.mark.parametrize("slots", (1, 4))
    def test_nan_cells_fall_back_to_the_chain(self, slots, paths):
        """A NaN makes the MIN/MAX chain's result depend on the order it
        meets the values, so a tile holding one declines (``tile_extremes``
        returns None) and PartialAggregate folds the built pairs."""
        probe = _probe(12)
        probe[5] = (5, 1, 2, Vector([np.nan, 1.0, 2.0]))
        _agree(slots, probe, _build(5), [MIN_BY_ID, MAX_BY_ID])
        assert paths == {"tiled": 0, "declined": 2, "built": 2}

    @pytest.mark.parametrize("slots", SLOTS)
    def test_null_vectors_and_null_ids(self, slots, paths):
        """NULL ids drop out of ``<>`` and of nothing else; a NULL vector
        makes its pairs' calls NULL. A slot whose vectors are all NULL
        holds them as objects, and a stage with one such slot is an object
        column (as at 3 and 80 slots here): then the pairs are built."""
        probe = [
            (None if i % 6 == 2 else i, i % 3, i % 2, None if i % 5 == 1 else vector)
            for i, (_, _, _, vector) in enumerate(_probe(14))
        ]
        build = [
            (None if j % 4 == 3 else j, j % 2, None if j % 3 == 1 else vector)
            for j, (_, _, vector) in enumerate(_build(7))
        ]
        statements = [
            MIN_BY_ID,
            MAX_BY_ID,
            "SELECT p.g, MIN(inner_product(p.v, q.w)) FROM p, q "
            "WHERE p.id <> q.id GROUP BY p.g",
        ]
        _agree(slots, probe, build, statements)
        assert paths["tiled"] + paths["built"] == len(statements)
        if slots in (1, 4):
            assert paths["tiled"] == len(statements)

    @pytest.mark.parametrize("slots", (1, 4, 80))
    def test_an_empty_side(self, slots):
        """An empty table's columns are objects, so these build their (no)
        pairs; what matters is that nothing else changes."""
        statements = [
            MIN_BY_ID,
            MAX_BY_ID,
            "SELECT MIN(inner_product(p.v, q.w)) FROM p, q WHERE p.id <> q.id",
        ]
        for probe, build in (([], _build(5)), (_probe(9), [])):
            _agree(slots, probe, build, statements)

    @pytest.mark.parametrize("slots", SLOTS)
    def test_group_keys(self, slots, paths):
        """No key, one probe column, two, and a probe key repeated over
        several probe rows (``g``), so one group spans rows of its slot."""
        probe = _probe(21) + [(21 + i, 1, 1, v) for i, (_, _, _, v) in enumerate(_probe(6))]
        statements = [
            "SELECT MIN(inner_product(q.w, p.v)), MAX(inner_product(p.v, q.w)) "
            "FROM p, q WHERE p.id <> q.id",
            "SELECT p.g, MIN(inner_product(q.w, p.v)) FROM p, q "
            "WHERE p.id <> q.id GROUP BY p.g",
            "SELECT p.g, p.h, MAX(inner_product(q.w, p.v)), MIN(inner_product(p.v, q.w)) "
            "FROM p, q WHERE p.id < q.id GROUP BY p.g, p.h",
        ]
        _agree(slots, probe, _build(8), statements)
        assert paths["tiled"] == 5 and not paths["built"]

    def test_one_kernel_call_per_tiled_call(self, monkeypatch):
        """Each tiled call is one kernel call over (probe × build), however
        many slots: the tile is the stage's, not a slot's (and the row
        oracle never calls the block kernel)."""
        calls = []
        inner = lookup("inner_product")
        kernel = inner.block_impl
        monkeypatch.setattr(
            inner,
            "block_impl",
            lambda *blocks: calls.append([b.shape for b in blocks]) or kernel(*blocks),
        )
        _agree(80, _probe(30), _build(6), [MIN_BY_ID])
        assert calls == [[(1, 6, 3), (30, 1, 3)]]


# -- what stays the same: structure, who builds the pairs, budgets -----------


def _distance_ctas_db(count=48):
    rng = np.random.default_rng([1, 1])
    points = rng.normal(size=(count, 8))
    base = rng.normal(size=(8, 8))
    db = Database(_config(4))
    db.execute("CREATE TABLE dist_x (id INTEGER, value VECTOR[])")
    db.load("dist_x", [(i, points[i]) for i in range(count)])
    db.execute("CREATE TABLE metric (mat MATRIX[][])")
    db.load("metric", [(base @ base.T / 8 + np.eye(8),)])
    db.execute(
        "CREATE VIEW mx (id, mx_data) AS SELECT x.id, "
        "matrix_vector_multiply(mm.mat, x.value) FROM dist_x AS x, metric AS mm"
    )
    return db


class TestStructure:
    def test_the_distance_builds_no_pair(self, monkeypatch, paths):
        """The paper's distance CTAS joins no rows by index: ``Batch.join``
        never runs and no index array spans (probe × build) pairs. Its
        inner join (every point × the one metric row) is built once, by
        spreading columns, for the broadcast exchange that ships it."""
        count = 48
        db = _distance_ctas_db(count)
        joins, taken = [], []
        join, take = Batch.join, ColumnData.take
        monkeypatch.setattr(
            Batch,
            "join",
            lambda self, *args, **kwargs: joins.append(1) or join(self, *args, **kwargs),
        )
        monkeypatch.setattr(
            ColumnData,
            "take",
            lambda self, indices: taken.append(np.size(indices)) or take(self, indices),
        )
        db.execute(
            "CREATE TABLE distances AS SELECT a.id AS id, "
            "MIN(inner_product(mxx.mx_data, a.value)) AS dist "
            "FROM dist_x AS a, mx AS mxx WHERE a.id <> mxx.id GROUP BY a.id"
        )
        assert joins == []
        assert max(taken, default=0) < count * (count - 1)
        assert paths == {"tiled": 1, "declined": 0, "built": 1}
        assert db.execute("SELECT COUNT(*) FROM distances").scalar() == count

    CONSUMERS = (
        # rows out of the join
        "SELECT p.id, q.id FROM p, q WHERE p.id <> q.id",
        # a sort over the join, and over a tiled column
        "SELECT p.id AS i, q.id AS j FROM p, q WHERE p.id <> q.id ORDER BY i, j",
        "SELECT p.id, inner_product(p.v, q.w) AS d FROM p, q "
        "WHERE p.id <> q.id ORDER BY d LIMIT 5",
        # a build-side key: the pairs cross a hash exchange
        "SELECT q.k, MIN(inner_product(p.v, q.w)) FROM p, q WHERE p.id <> q.id GROUP BY q.k",
        # aggregates the pair stage does not reduce
        "SELECT p.id, SUM(inner_product(p.v, q.w)), COUNT(*) FROM p, q "
        "WHERE p.id <> q.id GROUP BY p.id",
        "SELECT p.id, COUNT(DISTINCT q.k) FROM p, q WHERE p.id <> q.id GROUP BY p.id",
        "SELECT p.id, MIN(q.id) FROM p, q GROUP BY p.id",
        # a call the tile does not take
        "SELECT p.id, MIN(inner_product(p.v, q.w) + 1.0) FROM p, q GROUP BY p.id",
    )

    @pytest.mark.parametrize("slots", (1, 4))
    def test_every_other_consumer_builds_the_pairs_once(self, slots, paths):
        probe, build = _probe(13), _build(6)
        for sql in self.CONSUMERS:
            paths["built"] = 0
            _agree(slots, probe, build, [sql])
            assert paths["built"] == 1, sql

    def test_an_object_column_builds_the_pairs_once(self, paths):
        """A ragged VECTOR column is an object column: no tile over it."""
        build = [(j, j % 2, Vector(np.arange(1.0, 2.0 + j % 2))) for j in range(5)]
        _agree(4, _probe(9), build, [
            "SELECT p.id, MIN(inner_product(q.w, q.w)) FROM p, q GROUP BY p.id"
        ])
        assert paths == {"tiled": 0, "declined": 0, "built": 1}

    def test_a_worker_memory_budget_fails_at_the_join(self):
        """Budgets read what a slot holds while the join runs — its probe
        rows beside the broadcast build copy (1120 + 2880 bytes on the
        busiest slot here) — never the joined rows, built or not: the
        same error surfaces at the same NestedLoopJoin operator in both
        modes, and a budget that holds the inputs runs, though the joined
        rows (51568 bytes on the busiest slot) would not fit it."""
        errors = []
        for mode in ("row", "batch"):
            for worker_memory in (7000.0, 20000.0):  # 3500 / 10000 a slot
                db = Database(
                    _config(4, worker_memory=worker_memory), execution_mode=mode
                )
                db.execute(
                    "CREATE TABLE p (id INTEGER, g INTEGER, h INTEGER, v VECTOR[])"
                )
                db.execute("CREATE TABLE q (id INTEGER, k INTEGER, w VECTOR[])")
                db.load("p", _probe(40, dim=8))
                db.load("q", _build(30, dim=8))
                if worker_memory > 10000.0:
                    assert len(db.execute(MIN_BY_ID)) == 40
                    continue
                with pytest.raises(ResourceExhaustedError) as caught:
                    db.execute(MIN_BY_ID)
                errors.append((str(caught.value), caught.value.plan_position))
                assert caught.value.operator.startswith("NestedLoopJoin")
        assert errors[0] == errors[1]


class TestByteTotals:
    @pytest.mark.parametrize("seed", range(6))
    def test_slot_totals_are_the_built_rows(self, seed):
        """A pair stage's per-slot bytes, from per-row sizes, equal those
        of its built rows: NULLs on either side, a residual's mask, a tile
        with NULL pairs, empty slots."""
        rng = np.random.default_rng(seed)
        probe_rows = [
            (int(i), None if rng.random() < 0.2 else Vector(rng.normal(size=2)))
            for i in range(int(rng.integers(0, 9)))
        ]
        build_rows = [
            (None if rng.random() < 0.2 else "x" * int(j), float(j))
            for j in range(int(rng.integers(1, 6)))
        ]
        probe = Batch.from_rows((0, 1), probe_rows)
        build = Batch.from_rows((2, 3), build_rows)
        counts = rng.multinomial(len(probe_rows), [0.25] * 4)
        offsets = storage.slot_offsets(counts.tolist())
        stage = PairStage((0, 1, 2, 3), probe, build, offsets)
        if rng.random() < 0.7:
            stage = stage.kept_by(rng.random(stage.count) < 0.6)
        projected = stage.project((5, 6, 7), [_col(1), _col(3), _norm(1)], None)
        for held in filter(None, (stage, projected)):
            built = held.chunk()
            assert len(built) == held.count
            assert held.slot_totals() == built.slot_totals(held.offsets)


def _col(column_id):
    return ColumnVar(column_id, DOUBLE)


def _norm(column_id):
    """``inner_product(v, v)``: a tile over one side's column, NULL where
    the vector is."""
    v = ColumnVar(column_id, VectorType(2))
    return FuncExpr(lookup("inner_product"), [v, v])
