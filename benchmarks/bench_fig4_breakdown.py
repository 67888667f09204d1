"""Figure 4 — per-operation breakdown of tuple vs vector Gram.

The paper's finding: in the tuple-based computation, the dominant cost
is not the join but the *aggregation* — even a tiny fixed cost per tuple
is magnified by the 5x10^11 tuples pushed through it. The paper-scale
panels are the priced plans' operators: the join is the HashJoin, the
aggregation the PartialAggregate (the product the SUM folds is a Project
over the join's pairs, per-tuple work too).
"""

import pytest

from repro.bench.figures import figure4, format_figure4


@pytest.fixture(scope="module")
def breakdowns():
    return figure4()


class TestFigure4Shape:
    def test_prints(self, breakdowns):
        text = format_figure4(breakdowns)
        assert "PartialAggregate" in text

    def test_tuple_aggregation_dominates_join(self, breakdowns):
        """The paper: 'the dominant cost is not the join ... but the
        aggregation'."""
        tuple_priced = breakdowns["tuple (paper-scale priced)"]
        assert tuple_priced["PartialAggregate"] > tuple_priced["HashJoin"]

    def test_tuple_join_and_agg_dominate_everything(self, breakdowns):
        tuple_priced = breakdowns["tuple (paper-scale priced)"]
        total = sum(tuple_priced.values())
        per_tuple = ("HashJoin", "Project", "PartialAggregate")
        assert sum(tuple_priced[name] for name in per_tuple) > 0.9 * total

    def test_vector_orders_of_magnitude_cheaper(self, breakdowns):
        tuple_total = sum(breakdowns["tuple (paper-scale priced)"].values())
        vector_total = sum(breakdowns["vector (paper-scale priced)"].values())
        assert tuple_total > 30 * vector_total

    def test_mini_measured_mirrors_priced(self, breakdowns):
        """At mini scale on the real engine, the tuple computation's
        hash-join + aggregation must dominate its CPU profile too."""
        mini = breakdowns["tuple (mini measured)"]
        total = sum(mini.values())
        hot = mini.get("HashJoin", 0.0) + mini.get("PartialAggregate", 0.0)
        assert hot > 0.3 * total


def test_bench_figure4_pipeline(benchmark):
    result = benchmark.pedantic(figure4, rounds=1, iterations=1)
    assert "tuple (mini measured)" in result
