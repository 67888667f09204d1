"""Blocking-granularity ablation (the trade-off behind the paper's
vector-vs-block crossover).

The paper stores 1000 data points per block. This sweep prices the
block-based Gram computation at paper scale for different block sizes,
from its plans over statistics-only tables (``bench.simsql.price``):
tiny blocks behave like the vector representation (per-tuple overheads
dominate), huge blocks hurt parallelism (fewer blocks than cores means
idle slots and skew).
"""

import numpy as np
import pytest

from repro.bench.simsql import price
from repro.bench.workloads import Shape
from repro.catalog.statistics import ColumnStats, TypedDistinct
from repro.config import PAPER_CLUSTER
from repro.engine.executor import busiest_share

N = 1_000_000
D = 1000
BLOCK_SIZES = (10, 100, 1000, 10_000, 100_000)


def _block_gram(block):
    return price("gram", "block", Shape(N, D), PAPER_CLUSTER, block).seconds


def _skew(blocks):
    """The busiest slot's blocks over the mean, hash-placed."""
    known = TypedDistinct(np.arange(blocks))
    share = busiest_share(ColumnStats(values=known), PAPER_CLUSTER)
    return share * PAPER_CLUSTER.slots


@pytest.fixture(scope="module")
def sweep():
    return {block: _block_gram(block) for block in BLOCK_SIZES}


class TestBlockingTradeoff:
    def test_paper_block_size_is_sensible(self, sweep):
        """1000-per-block (the paper's choice) must be within 25% of the
        best block size in the sweep."""
        best = min(sweep.values())
        assert sweep[1000] <= 1.25 * best

    def test_huge_blocks_lose_parallelism(self, sweep):
        """100k-per-block leaves only 10 blocks for 80 cores: the skew
        factor makes it slower than the paper's 1000."""
        assert sweep[100_000] > sweep[1000]

    def test_monotone_skew_with_block_size(self):
        skew_small = _skew(N // 1000)  # 1000 blocks
        skew_large = _skew(N // 100_000)  # 10 blocks
        assert skew_large > skew_small


def test_bench_blocking_sweep(benchmark):
    def run():
        return [_block_gram(b) for b in BLOCK_SIZES]

    values = benchmark(run)
    assert len(values) == len(BLOCK_SIZES)
