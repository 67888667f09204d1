"""The paper's figures priced from the engine's own plans.

The SimSQL rows of Figures 1-4 come from ``bench.simsql.price``: each
catalogued listing compiles over tables that hold only the paper-scale
statistics, and a cell is its plans' estimated seconds plus one job
startup per job and the SimSQL compile constant per statement. These
tests pin that recipe, restate the figures' shape claims over it, and
check that the pricer is the executor's own model: at mini scale the
price of a run over its data's statistics is the run's simulated
seconds, bit for bit.
"""

import numpy as np
import pytest

from repro.bench.figures import figure, figure4
from repro.bench.paperdata import DIMENSIONS
from repro.bench.simsql import COMPILE_S, STYLES, SimSQLPlatform, operators, price
from repro.bench.workloads import PAPER_BLOCK_SIZE, Shape, generate
from repro.catalog.statistics import ColumnStats, TypedDistinct
from repro.config import PAPER_CLUSTER, TEST_CLUSTER
from repro.engine import count_job_boundaries
from repro.engine.executor import busiest_share

N_GRAM = 1_000_000
N_DIST = 100_000
N = {"gram": N_GRAM, "regression": N_GRAM, "distance": N_DIST}


def _price(computation, style, n, d, config=PAPER_CLUSTER):
    return price(computation, style, Shape(n, d), config, PAPER_BLOCK_SIZE)


def _share(blocks: range, config=PAPER_CLUSTER):
    known = TypedDistinct(np.arange(blocks.start, blocks.stop))
    return busiest_share(ColumnStats(values=known), config)


@pytest.fixture(scope="module")
def grid():
    return {
        (computation, style, d): _price(computation, style, N[computation], d)
        for computation in N
        for style in STYLES
        for d in DIMENSIONS
    }


class TestPricedFromPlans:
    def test_every_cell_is_its_plans_over_tables_without_rows(self, grid):
        """Each priced cell is Σ est_seconds over its statements' plans (in
        execution order) + jobs × job_startup_s + statements × the compile
        constant, over tables that store no rows; the figures print it."""
        figures = {c: figure(c, run_mini=False) for c in N}
        for (computation, style, d), priced in grid.items():
            cell = figures[computation].rows[f"{style.capitalize()} SimSQL"]
            cell = cell[DIMENSIONS.index(d)]
            if priced is None:
                assert cell.predicted_seconds is None
                continue
            tables = priced.database.catalog.tables()
            assert tables and all(t.storage.row_count == 0 for t in tables)
            seconds, jobs = 0.0, 0
            for plan in priced.plans:
                for node in operators(plan):
                    seconds += node.est_seconds
                jobs += max(1, count_job_boundaries(plan))
            seconds += jobs * PAPER_CLUSTER.job_startup_s
            seconds += len(priced.plans) * COMPILE_S
            assert priced.seconds.hex() == seconds.hex(), (computation, style, d)
            assert cell.predicted_seconds.hex() == seconds.hex()

    def test_only_the_tuple_distance_fails(self, grid):
        for (computation, style, d), priced in grid.items():
            fails = (computation, style) == ("distance", "tuple")
            assert (priced is None) == fails, (computation, style, d)

    def test_figure4_is_the_priced_breakdown(self):
        five = PAPER_CLUSTER.with_updates(machines=5)
        panels = figure4(mini_points=64, mini_dim=8)
        for style in ("tuple", "vector"):
            priced = _price("gram", style, 500_000, 1000, five)
            assert panels[f"{style} (paper-scale priced)"] == priced.breakdown

    def test_orderings_match_paper(self):
        for computation in N:
            result = figure(computation, run_mini=False)
            assert result.orderings_match_paper(), result.ordering_violations()


class TestShapes:
    def test_vector_beats_tuple_everywhere(self, grid):
        for computation in ("gram", "regression"):
            for d in DIMENSIONS:
                tup = grid[(computation, "tuple", d)].seconds
                vec = grid[(computation, "vector", d)].seconds
                assert vec < tup

    def test_vector_block_crossover(self, grid):
        for d, winner in ((10, "vector"), (100, "vector"), (1000, "block")):
            vec = grid[("gram", "vector", d)].seconds
            blk = grid[("gram", "block", d)].seconds
            assert ("vector" if vec < blk else "block") == winner, d

    def test_tuple_distance_fails(self, grid):
        """The n² aggregation state (DIST groups by (i, j)) outgrows a
        slot's memory at the paper's scale."""
        for d in DIMENSIONS:
            assert grid[("distance", "tuple", d)] is None

    def test_tuple_distance_would_succeed_tiny(self):
        # with few points the n^2 hash state fits and the listing is priced
        tiny = _price("distance", "tuple", 1000, 10)
        assert tiny is not None and tiny.seconds > 0

    def test_block_distance_beats_vector(self, grid):
        for d in DIMENSIONS:
            blk = grid[("distance", "block", d)].seconds
            vec = grid[("distance", "vector", d)].seconds
            assert blk < vec

    def test_monotone_in_dimensionality(self, grid):
        for style in STYLES:
            times = [grid[("gram", style, d)].seconds for d in DIMENSIONS]
            assert times[0] <= times[1] <= times[2]

    def test_monotone_in_points(self):
        small = _price("gram", "vector", 100_000, 100).seconds
        large = _price("gram", "vector", 1_000_000, 100).seconds
        assert small < large


class TestMechanisms:
    def test_fixed_overheads_floor(self):
        """Even the smallest query pays compile + job startup — the
        reason SimSQL trails SciDB at 10 dims."""
        priced = _price("gram", "vector", 1000, 10)
        assert priced.seconds >= COMPILE_S + PAPER_CLUSTER.job_startup_s

    def test_tuple_gram_dominated_by_per_tuple_work(self, grid):
        """The join, the product the SUM folds (evaluated in a Project
        over the join's pairs) and the aggregation are ~all of it."""
        priced = grid[("gram", "tuple", 1000)]
        hot = ("HashJoin", "Project", "PartialAggregate")
        assert sum(priced.breakdown[name] for name in hot) > 0.9 * priced.seconds

    def test_aggregation_beats_join_in_tuple_gram(self, grid):
        """Figure 4's headline."""
        breakdown = grid[("gram", "tuple", 1000)].breakdown
        assert breakdown["PartialAggregate"] > breakdown["HashJoin"]

    def test_skew_factor_matches_paper_anecdote(self):
        """100 blocks hashed onto 80 cores: the paper saw 4-5 blocks on
        the busiest core (mean 1.25 => skew 3.2-4)."""
        assert 3.0 <= _share(range(100)) * 80 <= 4.5

    def test_balanced_placement_flattens_skew(self):
        balanced = PAPER_CLUSTER.with_updates(balanced_placement=True)
        assert _share(range(100), balanced) * 80 == pytest.approx(2 / 1.25)
        assert _share(range(160), balanced) * 80 == pytest.approx(1.0)

    def test_skew_shrinks_with_more_groups(self):
        assert _share(range(10_000)) < _share(range(100))

    def test_breakdown_sums_to_total(self, grid):
        for style in STYLES:
            priced = grid[("regression", style, 100)]
            assert priced.seconds == pytest.approx(sum(priced.breakdown.values()))

    def test_unknown_style_or_computation_raises(self):
        with pytest.raises(ValueError):
            _price("gram", "chunky", N_GRAM, 10)
        with pytest.raises(ValueError):
            _price("sorting", "vector", N_GRAM, 10)


class TestSameModel:
    @pytest.mark.parametrize("config", [TEST_CLUSTER, PAPER_CLUSTER], ids=["4", "80"])
    def test_vector_gram_price_is_the_executed_seconds(self, config):
        """The vector Gram at mini scale, n a multiple of the slot count:
        priced over the loaded data's statistics, its plan's estimated
        seconds plus its job startups are the executed run's simulated
        seconds, bit for bit (the compile constant is the platform's, not
        the engine's)."""
        workload = generate(4 * config.slots, 6, seed=3)
        priced = price("gram", "vector", workload, config)
        executed = SimSQLPlatform("vector", config).run("gram", workload).metrics
        (plan,) = priced.plans
        seconds = 0.0
        for node in operators(plan):
            seconds += node.est_seconds
        seconds += max(1, count_job_boundaries(plan)) * config.job_startup_s
        assert seconds.hex() == executed.total_seconds.hex()
