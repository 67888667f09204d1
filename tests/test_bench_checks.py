"""The ``repro-bench`` contracts tier-1 guards: every ``--check`` smoke
keeps its equivalence flags, and ``repro-bench all`` still prints the
committed paper artefact byte for byte."""

from pathlib import Path

import pytest

from repro.bench.cli import BENCHES, run_bench, run_target

GOLDEN = Path(__file__).resolve().parents[1] / "results_repro_bench_all.txt"


@pytest.mark.parametrize("target", sorted(BENCHES))
def test_check_contract_holds(target, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a stray snapshot would land here
    report, text = run_bench(target, "--check")
    assert text
    if target == "exec":
        # rows and simulated metrics identical in both modes; the
        # wall-clock geomean that ok() also gates on is CI's business
        assert report.all_match
    else:
        assert report.ok()
    assert list(tmp_path.iterdir()) == []


def test_all_target_equals_the_committed_golden_output():
    """Figures 1-4 and the section 4.1 ablation, as ``repro-bench all``
    prints them: the "column orderings match paper" lines and the R,S,T
    table cannot drift unseen."""
    assert run_target("all") + "\n" == GOLDEN.read_text(encoding="utf-8")


def test_run_target_rejects_an_unknown_target():
    with pytest.raises(ValueError):
        run_target("bogus")
