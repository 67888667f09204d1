"""Reproduction of the paper's Figures 1-4 and the section 4.1 example.

Each ``figure*`` function returns a :class:`FigureResult` carrying

* **paper-scale simulated times** for every platform row (the SimSQL
  styles priced from the engine's own plans, compiled over tables that
  hold only the paper-scale statistics — ``simsql.price`` — the
  comparison platforms by their behavioural simulators), next to the
  paper's reported numbers;
* **mini-scale real executions** of the SimSQL styles on the actual
  engine (and of the comparators' strategy-faithful numpy paths), with
  every result checked against ground truth.

``format_figure`` renders the same rows the paper prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import ClusterConfig, PAPER_CLUSTER
from ..comparators import SciDB, SparkMllib, SystemML
from ..db import Database
from ..sql import parse_statement
from . import paperdata
from .paperdata import DIMENSIONS, PLATFORMS, format_hms
from .simsql import STYLES, SimSQLPlatform, operators, price
from .workloads import (
    PAPER_BLOCK_SIZE,
    PAPER_DISTANCE_POINTS_PER_MACHINE,
    PAPER_GRAM_POINTS_PER_MACHINE,
    Shape,
    Workload,
    distance_truth_ids,
    generate,
    gram_truth,
    regression_truth,
)

#: mini-scale shape used for the real executions (divisible by the mini
#: block size, with at least two blocks)
MINI_POINTS = {"gram": 48, "regression": 48, "distance": 24}
MINI_DIMS = (3, 6)
MINI_BLOCK = 8


@dataclass
class Cell:
    """One (platform, dimensionality) entry of a figure."""

    predicted_seconds: Optional[float]  # None = Fail
    paper_seconds: Optional[float]
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def ratio(self) -> Optional[float]:
        if self.predicted_seconds is None or self.paper_seconds is None:
            return None
        return self.predicted_seconds / self.paper_seconds


@dataclass
class FigureResult:
    title: str
    computation: str
    rows: Dict[str, List[Cell]]
    #: mini-scale verification outcomes: platform -> (ok, simulated seconds)
    verification: Dict[str, Tuple[bool, float]] = field(default_factory=dict)

    def orderings_match_paper(self, significance: float = 2.0) -> bool:
        """For every platform pair the paper separates by at least a
        ``significance`` factor (within one dimensionality column), are
        the priced times in the same order? Near-ties in the paper
        (e.g. SciDB's 3s vs SystemML's 5s) are not meaningful shape
        claims and are ignored. Fail sorts after everything."""
        return not self.ordering_violations(significance)

    def ordering_violations(self, significance: float = 2.0) -> List[str]:
        """Human-readable list of significant pairwise order mismatches."""
        violations = []
        names = list(self.rows)
        big = float("inf")
        for index, dims in enumerate(DIMENSIONS):
            for i, first in enumerate(names):
                for second in names[i + 1 :]:
                    paper_a = self.rows[first][index].paper_seconds
                    paper_b = self.rows[second][index].paper_seconds
                    pred_a = self.rows[first][index].predicted_seconds
                    pred_b = self.rows[second][index].predicted_seconds
                    pa = big if paper_a is None else paper_a
                    pb = big if paper_b is None else paper_b
                    if pa == pb or max(pa, pb) < significance * min(pa, pb):
                        continue  # not a meaningful gap in the paper
                    qa = big if pred_a is None else pred_a
                    qb = big if pred_b is None else pred_b
                    if (pa < pb) != (qa < qb):
                        violations.append(
                            f"{dims} dims: paper has {first} vs {second} "
                            f"as {pa:.0f}/{pb:.0f}, priced {qa:.0f}/{qb:.0f}"
                        )
        return violations


def _verify(computation: str, value, workload: Workload) -> bool:
    if computation == "gram":
        return np.allclose(np.asarray(value), gram_truth(workload))
    if computation == "regression":
        return np.allclose(np.asarray(value), regression_truth(workload))
    return value in distance_truth_ids(workload)


def figure(
    computation: str,
    config: ClusterConfig = PAPER_CLUSTER,
    run_mini: bool = True,
    mini_seed: int = 7,
) -> FigureResult:
    """Build Figure 1 (gram), 2 (regression) or 3 (distance)."""
    per_machine = (
        PAPER_DISTANCE_POINTS_PER_MACHINE
        if computation == "distance"
        else PAPER_GRAM_POINTS_PER_MACHINE
    )
    n = per_machine * config.machines
    comparators = {
        "SystemML": SystemML(config),
        "Spark mllib": SparkMllib(config),
        "SciDB": SciDB(config),
    }
    paper_table = paperdata.PAPER_TABLES[computation]

    rows: Dict[str, List[Cell]] = {}
    for style in STYLES:
        name = f"{style.capitalize()} SimSQL"
        cells = []
        for index, d in enumerate(DIMENSIONS):
            priced = price(computation, style, Shape(n, d), config, PAPER_BLOCK_SIZE)
            cells.append(
                Cell(
                    None if priced is None else priced.seconds,
                    paper_table[name][index],
                    {} if priced is None else priced.breakdown,
                )
            )
        rows[name] = cells
    for name, comparator in comparators.items():
        cells = []
        for index, d in enumerate(DIMENSIONS):
            sim = comparator.simulate(computation, n, d)
            cells.append(
                Cell(sim.total, paper_table[name][index], dict(sim.breakdown))
            )
        rows[name] = cells

    result = FigureResult(
        title={
            "gram": "Figure 1: Gram matrix computation",
            "regression": "Figure 2: Linear regression",
            "distance": "Figure 3: Distance computation",
        }[computation],
        computation=computation,
        rows={name: rows[name] for name in PLATFORMS},
    )

    if run_mini:
        mini_cluster = config.with_updates(job_startup_s=1.0)
        workload = generate(MINI_POINTS[computation], MINI_DIMS[1], seed=mini_seed)
        for style in STYLES:
            # the tuple distance too: it fails only at the paper's scale
            platform = SimSQLPlatform(style, mini_cluster, block_size=MINI_BLOCK)
            outcome = platform.run(computation, workload)
            ok = _verify(computation, outcome.value, workload)
            result.verification[f"{style.capitalize()} SimSQL"] = (
                ok,
                outcome.seconds,
            )
        for name, comparator in comparators.items():
            value = comparator.compute(computation, workload)
            ok = _verify(computation, value, workload)
            result.verification[name] = (ok, float("nan"))
    return result


def figure4(
    config: ClusterConfig = PAPER_CLUSTER, mini_points: int = 320, mini_dim: int = 32
) -> Dict[str, Dict[str, float]]:
    """Figure 4: per-operation breakdown of the tuple-based vs
    vector-based Gram matrix computation, on a 5-machine cluster (half
    the paper's cluster, as in the paper).

    Returns the paper-scale priced plans' per-operator seconds (plus
    their fixed startup and compile costs) and mini-scale measured
    per-operator seconds from the real engine.
    """
    five = config.with_updates(machines=config.machines // 2 or 1)
    shape = Shape(PAPER_GRAM_POINTS_PER_MACHINE * five.machines, 1000)
    out: Dict[str, Dict[str, float]] = {}
    for style in ("tuple", "vector"):
        priced = price("gram", style, shape, five, PAPER_BLOCK_SIZE)
        out[f"{style} (paper-scale priced)"] = priced.breakdown

    mini_cluster = five.with_updates(job_startup_s=1.0)
    workload = generate(mini_points, mini_dim, seed=11)
    for style in ("tuple", "vector"):
        platform = SimSQLPlatform(style, mini_cluster, block_size=MINI_BLOCK)
        outcome = platform.gram(workload)
        assert _verify("gram", outcome.value, workload)
        out[f"{style} (mini measured)"] = outcome.metrics.seconds_by_operator()
    return out


RST_SQL = """
SELECT matrix_multiply(r_matrix, s_matrix)
FROM R, S, T
WHERE r_rid = t_rid AND s_sid = t_sid
"""


def _rst_database(config: ClusterConfig, size_blind: bool) -> Database:
    db = Database(config, size_blind_optimizer=size_blind)
    db.execute("CREATE TABLE R (r_rid INTEGER, r_matrix MATRIX[10][100000])")
    db.execute("CREATE TABLE S (s_sid INTEGER, s_matrix MATRIX[100000][100])")
    db.execute("CREATE TABLE T (t_rid INTEGER, t_sid INTEGER)")
    for name, count in (("R", 100), ("S", 100), ("T", 1000)):
        db.catalog.table(name).stats.row_count = count
    for table, column in (("R", "r_rid"), ("S", "s_sid"), ("T", "t_rid"), ("T", "t_sid")):
        db.catalog.table(table).stats.column(column).distinct = 100
    return db


@dataclass
class RstResult:
    """Section 4.1 ablation: LA-aware vs size-blind optimization."""

    aware_estimate_s: float
    blind_estimate_s: float
    aware_mini_s: float
    blind_mini_s: float
    aware_mini_network_bytes: float
    blind_mini_network_bytes: float
    results_match: bool


def rst_experiment(
    config: ClusterConfig = PAPER_CLUSTER, scale: int = 100
) -> RstResult:
    """Run the R,S,T example of section 4.1.

    Plans are produced at the paper's declared scale (matrices of
    10x100000 and 100000x100) and each physical plan — the joins as it
    runs them — is priced with the honest LA-aware model; mini-scale runs
    execute the same query over ``scale``-times smaller matrices so the
    byte movement difference is directly measurable.
    """
    from ..plan import CostModel

    honest = CostModel(config)
    estimates = {}
    for blind in (False, True):
        db = _rst_database(config, blind)
        physical = db._compile(parse_statement(RST_SQL), None).physical
        honest.price_physical(physical)
        estimates[blind] = sum(node.est_seconds for node in operators(physical))

    # mini-scale real execution (same seed => identical data per run)
    inner = 100000 // scale
    mini: Dict[bool, Tuple[float, float, list]] = {}
    for blind in (False, True):
        rng = np.random.default_rng(5)
        db = Database(config.with_updates(job_startup_s=0.0), size_blind_optimizer=blind)
        db.execute(f"CREATE TABLE R (r_rid INTEGER, r_matrix MATRIX[10][{inner}])")
        db.execute(f"CREATE TABLE S (s_sid INTEGER, s_matrix MATRIX[{inner}][100])")
        db.execute("CREATE TABLE T (t_rid INTEGER, t_sid INTEGER)")
        db.load("R", [(i, rng.normal(size=(10, inner))) for i in range(20)])
        db.load("S", [(i, rng.normal(size=(inner, 100))) for i in range(20)])
        db.load("T", [(i % 20, (i * 7) % 20) for i in range(50)])
        result = db.execute(RST_SQL)
        network = sum(op.network_bytes for op in result.metrics.operators)
        digest = sorted(
            round(float(np.sum(matrix.data)), 6) for (matrix,) in result.rows
        )
        mini[blind] = (result.metrics.total_seconds, network, digest)

    return RstResult(
        aware_estimate_s=estimates[False],
        blind_estimate_s=estimates[True],
        aware_mini_s=mini[False][0],
        blind_mini_s=mini[True][0],
        aware_mini_network_bytes=mini[False][1],
        blind_mini_network_bytes=mini[True][1],
        results_match=mini[False][2] == mini[True][2],
    )


# -- rendering ----------------------------------------------------------------


def format_figure(result: FigureResult) -> str:
    lines = [result.title, "=" * len(result.title)]
    header = f"{'Platform':<14}" + "".join(
        f"  {d:>6} dims (priced/paper)" for d in DIMENSIONS
    )
    lines.append(header)
    for name, cells in result.rows.items():
        parts = [f"{name:<14}"]
        for cell in cells:
            parts.append(
                f"  {format_hms(cell.predicted_seconds):>10}/{format_hms(cell.paper_seconds):>9}"
            )
        lines.append("".join(parts))
    if result.verification:
        lines.append("")
        lines.append("mini-scale real runs (results checked against numpy):")
        for name, (ok, seconds) in result.verification.items():
            status = "OK" if ok else "WRONG RESULT"
            timing = "" if seconds != seconds else f" ({seconds:.2f}s simulated)"
            lines.append(f"  {name:<14} {status}{timing}")
    lines.append("")
    lines.append(
        "column orderings match paper: "
        + ("yes" if result.orderings_match_paper() else "NO")
    )
    return "\n".join(lines)


def format_figure4(breakdowns: Dict[str, Dict[str, float]]) -> str:
    lines = [
        "Figure 4: tuple vs vector Gram, per-operation time (5 machines, 1000 dims)",
        "=" * 74,
    ]
    for label, ops in breakdowns.items():
        lines.append(f"{label}:")
        total = sum(ops.values())
        for op, seconds in sorted(ops.items(), key=lambda kv: -kv[1]):
            share = 100.0 * seconds / total if total else 0.0
            lines.append(f"    {op:<22} {seconds:>12.4f}s  {share:5.1f}%")
        lines.append(f"    {'total':<22} {total:>12.4f}s")
    return "\n".join(lines)


def format_rst(result: RstResult) -> str:
    lines = [
        "Section 4.1: R,S,T optimizer example (LA-aware vs size-blind)",
        "=" * 62,
        f"paper-scale estimated time, LA-aware plan:   {result.aware_estimate_s:10.1f}s",
        f"paper-scale estimated time, size-blind plan: {result.blind_estimate_s:10.1f}s",
        f"advantage: {result.blind_estimate_s / result.aware_estimate_s:.1f}x",
        "",
        f"mini-scale measured (simulated) time, aware: {result.aware_mini_s:10.2f}s",
        f"mini-scale measured (simulated) time, blind: {result.blind_mini_s:10.2f}s",
        f"network bytes moved, aware: {result.aware_mini_network_bytes:14.0f}",
        f"network bytes moved, blind: {result.blind_mini_network_bytes:14.0f}",
        f"identical results from both plans: {'yes' if result.results_match else 'NO'}",
    ]
    return "\n".join(lines)
