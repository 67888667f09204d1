"""Figure 1 — Gram matrix computation.

Regenerates the paper's Figure 1 table (six platforms x three
dimensionalities), checks the paper's shape claims, and benchmarks the
mini-scale real executions of the three SimSQL styles on the engine.
"""

import pytest

from repro.bench.figures import figure, format_figure
from repro.bench.simsql import SimSQLPlatform, price
from repro.bench.workloads import PAPER_BLOCK_SIZE, Shape, generate
from repro.config import PAPER_CLUSTER

N_PAPER = 1_000_000


class TestFigure1Shape:
    """The qualitative claims of Figure 1 must hold in the reproduction."""

    def test_table_prints(self, gram_figure):
        text = format_figure(gram_figure)
        assert "Tuple SimSQL" in text and "SciDB" in text

    def test_orderings_match_paper(self, gram_figure):
        assert gram_figure.orderings_match_paper(), gram_figure.ordering_violations()

    def test_vector_dominates_tuple_everywhere(self, gram_figure):
        for vec, tup in zip(
            gram_figure.rows["Vector SimSQL"], gram_figure.rows["Tuple SimSQL"]
        ):
            assert vec.predicted_seconds < tup.predicted_seconds

    def test_tuple_blowup_at_1000_dims(self, gram_figure):
        """The paper's headline: tuple-based is ~50x+ slower at 1000 dims."""
        tup = gram_figure.rows["Tuple SimSQL"][2].predicted_seconds
        vec = gram_figure.rows["Vector SimSQL"][2].predicted_seconds
        assert tup / vec > 30

    def test_vector_block_crossover(self, gram_figure):
        """Vector wins at 10/100 dims (blocking isn't worth it); block
        wins at 1000 dims — the crossover the paper reports."""
        vec = [cell.predicted_seconds for cell in gram_figure.rows["Vector SimSQL"]]
        blk = [cell.predicted_seconds for cell in gram_figure.rows["Block SimSQL"]]
        assert vec[0] < blk[0] and vec[1] < blk[1]
        assert blk[2] < vec[2]

    def test_spark_not_competitive_at_1000(self, gram_figure):
        spark = gram_figure.rows["Spark mllib"][2].predicted_seconds
        for other in ("Vector SimSQL", "Block SimSQL", "SystemML", "SciDB"):
            assert spark > 2 * gram_figure.rows[other][2].predicted_seconds

    def test_predictions_within_2x_of_paper(self, gram_figure):
        for name, cells in gram_figure.rows.items():
            for cell in cells:
                assert cell.ratio is not None
                assert 0.5 <= cell.ratio <= 2.0, (name, cell)

    def test_mini_scale_results_correct(self, gram_figure):
        for name, (ok, _) in gram_figure.verification.items():
            assert ok, f"{name} produced a wrong Gram matrix"


@pytest.mark.parametrize("style", ["tuple", "vector", "block"])
def test_bench_mini_gram(benchmark, style):
    """Wall-clock benchmark of the real engine running the Gram matrix
    computation in each SimSQL style at mini scale."""
    workload = generate(48, 6, seed=3)
    platform = SimSQLPlatform(
        style, PAPER_CLUSTER.with_updates(job_startup_s=1.0), block_size=8
    )
    outcome = benchmark(platform.gram, workload)
    assert outcome.seconds > 0


def test_bench_paper_scale_pricing(benchmark):
    """The full 3x3 SimSQL grid, compiled and priced over statistics-only
    tables, should be near-instant."""

    def grid():
        return [
            price("gram", style, Shape(N_PAPER, d), PAPER_CLUSTER, PAPER_BLOCK_SIZE)
            for style in ("tuple", "vector", "block")
            for d in (10, 100, 1000)
        ]

    results = benchmark(grid)
    assert len(results) == 9
