"""Engine-level ablation benchmarks for the design decisions DESIGN.md
calls out: hash-placement skew, job-startup overhead, co-partitioning,
and the raw per-tuple vs per-vector cost gap.
"""

import numpy as np
import pytest

from repro import Database
from repro.bench.simsql import price
from repro.bench.workloads import PAPER_BLOCK_SIZE, Shape
from repro.config import PAPER_CLUSTER


def _gram_db(config, n, d, seed=0):
    db = Database(config)
    db.execute("CREATE TABLE x (vec VECTOR[])")
    rng = np.random.default_rng(seed)
    db.load("x", [[rng.normal(size=d)] for _ in range(n)])
    return db


GRAM_SQL = "SELECT SUM(outer_product(vec, vec)) FROM x"


def _priced(computation, style, n, d, config=PAPER_CLUSTER):
    return price(computation, style, Shape(n, d), config, PAPER_BLOCK_SIZE)


class TestAblationSkew:
    def test_balanced_placement_reduces_simulated_time(self):
        balanced_config = PAPER_CLUSTER.with_updates(balanced_placement=True)
        skewed = _priced("distance", "block", 100_000, 1000).seconds
        balanced = _priced("distance", "block", 100_000, 1000, balanced_config)
        assert balanced.seconds < 0.8 * skewed


class TestAblationJobStartup:
    def test_startup_dominates_small_queries(self):
        """Why SimSQL trails SciDB at 10 dims: fixed Hadoop overhead."""
        priced = _priced("gram", "vector", 1_000_000, 10)
        fixed = priced.breakdown["compile"] + priced.breakdown["startup"]
        assert fixed > 0.9 * (priced.seconds - fixed)

    def test_startup_negligible_at_1000_dims(self):
        priced = _priced("gram", "vector", 1_000_000, 1000)
        fixed = priced.breakdown["compile"] + priced.breakdown["startup"]
        assert fixed < 0.2 * priced.seconds


class TestAblationCopartitioning:
    def test_prepartitioned_join_avoids_shuffle(self):
        shared = [("k", "INTEGER"), ("x", "DOUBLE")]
        rows = [[i, float(i)] for i in range(200)]

        def run(partition_by):
            db = Database(PAPER_CLUSTER.with_updates(job_startup_s=0.0))
            db.create_table("l", shared, partition_by=partition_by)
            db.create_table("r", shared, partition_by=partition_by)
            db.load("l", rows)
            db.load("r", rows)
            result = db.execute("SELECT l.x FROM l, r WHERE l.k = r.k")
            assert len(result) == 200
            return sum(op.network_bytes for op in result.metrics.operators)

        colocated = run(["k"])
        scattered = run(None)
        assert colocated < scattered


def test_bench_tuple_vs_vector_simulated_gap(benchmark):
    """The per-tuple-overhead story at mini scale: the simulated time of
    the tuple Gram must exceed the vector Gram on identical data."""
    from repro.bench.simsql import SimSQLPlatform
    from repro.bench.workloads import generate

    # d must be large enough that the tuple style's n*d^2 aggregation
    # inputs dominate its simulated time, as at paper scale
    workload = generate(128, 32, seed=9)
    config = PAPER_CLUSTER.with_updates(job_startup_s=0.0)

    def both():
        tuple_out = SimSQLPlatform("tuple", config).gram(workload)
        vector_out = SimSQLPlatform("vector", config).gram(workload)
        return tuple_out, vector_out

    tuple_out, vector_out = benchmark.pedantic(both, rounds=1, iterations=1)

    def compute_seconds(metrics):
        hot = ("HashJoin", "NestedLoopJoin", "PartialAggregate", "Project")
        return sum(
            op.wall_seconds for op in metrics.operators if op.name in hot
        )

    # the per-tuple compute work (join + aggregate) is where the tuple
    # style loses, exactly as in Figure 4
    assert compute_seconds(tuple_out.metrics) > 5 * compute_seconds(
        vector_out.metrics
    )


@pytest.mark.parametrize("n", [50, 200])
def test_bench_engine_gram_query(benchmark, n):
    """Raw engine throughput on the one-liner Gram query."""
    db = _gram_db(PAPER_CLUSTER.with_updates(job_startup_s=0.0), n, 8)
    result = benchmark(db.execute, GRAM_SQL)
    assert result.scalar().shape == (8, 8)
