"""Tests for the figure-reproduction harness itself."""

import pytest

from repro.bench.figures import (
    Cell,
    FigureResult,
    figure,
    figure4,
    format_figure,
    format_figure4,
    format_rst,
    rst_experiment,
)
from repro.bench.paperdata import (
    DIMENSIONS,
    GRAM,
    PAPER_GEOMEANS_1000D,
    PLATFORMS,
    format_hms,
)


class TestPaperData:
    def test_hms_roundtrip(self):
        assert format_hms(5 * 3600 + 4 * 60 + 45) == "05:04:45"
        assert format_hms(None) == "Fail"

    def test_gram_values(self):
        assert GRAM["Vector SimSQL"] == (37, 43, 343)
        assert GRAM["Tuple SimSQL"][2] == 5 * 3600 + 4 * 60 + 45

    def test_paper_geomeans_recorded(self):
        assert PAPER_GEOMEANS_1000D["SciDB"] == 281


class TestFigureHarness:
    @pytest.fixture(scope="class")
    def gram(self):
        return figure("gram", run_mini=False)

    def test_all_platforms_present(self, gram):
        assert list(gram.rows) == list(PLATFORMS)
        for cells in gram.rows.values():
            assert len(cells) == len(DIMENSIONS)

    def test_cells_have_paper_numbers(self, gram):
        for name, cells in gram.rows.items():
            for cell, expected in zip(cells, GRAM[name]):
                assert cell.paper_seconds == expected

    def test_ratio_property(self):
        assert Cell(100.0, 50.0).ratio == 2.0
        assert Cell(None, 50.0).ratio is None

    def test_formatting(self, gram):
        text = format_figure(gram)
        assert "Figure 1" in text
        for name in PLATFORMS:
            assert name in text

    def test_ordering_violation_reporting(self):
        rows = {
            "fast": [Cell(100.0, 1.0)] * 3,
            "slow": [Cell(1.0, 100.0)] * 3,
        }
        result = FigureResult("t", "gram", rows)
        assert not result.orderings_match_paper()
        assert len(result.ordering_violations()) == 3

    def test_near_ties_ignored(self):
        rows = {
            "a": [Cell(5.0, 3.0)] * 3,
            "b": [Cell(4.0, 4.0)] * 3,  # paper gap 3 vs 4: insignificant
        }
        result = FigureResult("t", "gram", rows)
        assert result.orderings_match_paper()

    def test_fail_sorts_last(self):
        rows = {
            "works": [Cell(10.0, 10.0)] * 3,
            "fails": [Cell(None, None)] * 3,
        }
        result = FigureResult("t", "gram", rows)
        assert result.orderings_match_paper()


class TestFigure4AndRst:
    def test_figure4_contains_four_panels(self):
        panels = figure4(mini_points=64, mini_dim=8)
        assert set(panels) == {
            "tuple (paper-scale priced)",
            "vector (paper-scale priced)",
            "tuple (mini measured)",
            "vector (mini measured)",
        }
        assert "PartialAggregate" in panels["tuple (paper-scale priced)"]
        assert "Figure 4" in format_figure4(panels)

    def test_rst_experiment(self):
        result = rst_experiment(scale=200)
        assert result.results_match
        assert result.aware_estimate_s < result.blind_estimate_s
        assert result.aware_mini_network_bytes <= result.blind_mini_network_bytes
        assert "4.1" in format_rst(result)


class TestCli:
    def test_cli_targets(self, capsys):
        from repro.bench.cli import main

        assert main(["fig1", "--no-mini"]) == 0
        out = capsys.readouterr().out
        assert "Gram matrix" in out

    def test_cli_rejects_unknown(self):
        from repro.bench.cli import main

        with pytest.raises(SystemExit):
            main(["fig9"])


class TestDocsGenerator:
    def test_function_docs_render(self):
        from repro.tools.gen_function_docs import render

        text = render()
        assert "matrix_multiply" in text
        assert "VECTORIZE" in text
        # every registered builtin appears
        from repro.la import all_builtins

        for fn in all_builtins():
            assert f"`{fn.name}`" in text
