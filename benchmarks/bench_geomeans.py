"""The paper's closing quantitative claim (section 5): over the three
1000-dimensional computations, SimSQL, SystemML and SciDB had geometric
mean running times of 5m07, 6m05 and 4m41 — i.e. *no clear winner*, which
is the paper's whole argument that a relational engine is competitive.

This benchmark recomputes those geometric means from the reproduction's
priced plans (SimSQL) and simulators (the others) and asserts the
claim's shape: the three systems land within a small factor of each
other, while Spark mllib is far behind.
"""

import math

import pytest

from repro.bench.paperdata import PAPER_GEOMEANS_1000D
from repro.bench.simsql import price
from repro.bench.workloads import PAPER_BLOCK_SIZE, Shape
from repro.comparators import SciDB, SparkMllib, SystemML
from repro.config import PAPER_CLUSTER

N = {"gram": 1_000_000, "regression": 1_000_000, "distance": 100_000}
COMPUTATIONS = ("gram", "regression", "distance")


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _priced(computation, style):
    shape = Shape(N[computation], 1000)
    return price(computation, style, shape, PAPER_CLUSTER, PAPER_BLOCK_SIZE)


@pytest.fixture(scope="module")
def geomeans():
    simsql = geomean([_priced(c, "block").seconds for c in COMPUTATIONS])
    out = {"SimSQL": simsql}
    for cls, name in ((SystemML, "SystemML"), (SciDB, "SciDB"), (SparkMllib, "Spark")):
        platform = cls(PAPER_CLUSTER)
        out[name] = geomean(
            [platform.simulate(c, N[c], 1000).total for c in COMPUTATIONS]
        )
    return out


class TestGeomeans:
    def test_no_clear_winner_among_the_three(self, geomeans):
        """The paper's point: SimSQL, SystemML and SciDB are within a
        small factor of each other at 1000 dimensions."""
        trio = [geomeans["SimSQL"], geomeans["SystemML"], geomeans["SciDB"]]
        assert max(trio) < 2.0 * min(trio)

    def test_spark_clearly_behind(self, geomeans):
        trio_worst = max(
            geomeans["SimSQL"], geomeans["SystemML"], geomeans["SciDB"]
        )
        assert geomeans["Spark"] > 3.0 * trio_worst

    def test_within_2x_of_paper_geomeans(self, geomeans):
        for name, paper_value in PAPER_GEOMEANS_1000D.items():
            ours = geomeans[name]
            assert 0.5 <= ours / paper_value <= 2.0, (name, ours, paper_value)


def test_bench_geomean_grid(benchmark, geomeans):
    def grid():
        return [
            _priced(c, style) for c in COMPUTATIONS for style in ("vector", "block")
        ]

    assert len(benchmark(grid)) == 6
