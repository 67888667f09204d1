"""A tour of the LA-aware optimizer (paper section 4).

Shows how templated type signatures give the optimizer exact sizes for
every linear algebra intermediate, and replays the paper's R,S,T
example: with size information the optimizer evaluates the matrix
multiply early and never ships the 80 MB matrices; priced blind, it
picks a plan that moves gigabytes.

Run:  python examples/optimizer_tour.py
"""

import numpy as np

from repro import Database
from repro.plan import CostModel

RST_SQL = """
SELECT matrix_multiply(r_matrix, s_matrix)
FROM R, S, T
WHERE r_rid = t_rid AND s_sid = t_sid
"""


def build(size_blind):
    db = Database(size_blind_optimizer=size_blind)
    db.execute("CREATE TABLE R (r_rid INTEGER, r_matrix MATRIX[10][100000])")
    db.execute("CREATE TABLE S (s_sid INTEGER, s_matrix MATRIX[100000][100])")
    db.execute("CREATE TABLE T (t_rid INTEGER, t_sid INTEGER)")
    # the paper's statistics: |R| = |S| = 100, |T| = 1000
    for name, count in (("R", 100), ("S", 100), ("T", 1000)):
        db.catalog.table(name).stats.row_count = count
    for table, column in (
        ("R", "r_rid"),
        ("S", "s_sid"),
        ("T", "t_rid"),
        ("T", "t_sid"),
    ):
        db.catalog.table(table).stats.column(column).distinct = 100
    return db


def main():
    # -- signatures drive size inference -------------------------------------
    db = build(size_blind=False)
    print("templated signature in action:")
    print("  matrix_multiply(MATRIX[10][100000], MATRIX[100000][100])")
    print("  -> the optimizer knows each input is 80 MB / 8 MB wide and")
    print("     the output is only 8 KB, before running anything.\n")

    print("LA-aware plan for the section 4.1 query:")
    print(db.explain(RST_SQL))

    blind = build(size_blind=True)
    print("\nsize-blind plan for the same query:")
    print(blind.explain(RST_SQL))

    honest = CostModel(db.config)
    from repro.sql import parse_statement

    aware_cost = honest.plan_cost(db._compile(parse_statement(RST_SQL), None).logical)
    blind_cost = honest.plan_cost(blind._compile(parse_statement(RST_SQL), None).logical)
    print(f"\nhonestly-priced cost, LA-aware plan:   {aware_cost:8.1f}s")
    print(f"honestly-priced cost, size-blind plan: {blind_cost:8.1f}s")
    print(f"-> the blind plan is {blind_cost / aware_cost:.1f}x more expensive")

    # -- run both for real at 1/100 scale and compare bytes moved --------------
    print("\nrunning both plans for real at 1/100 scale...")
    inner = 1000
    for label, blind_flag in (("aware", False), ("blind", True)):
        rng = np.random.default_rng(5)
        runner = Database(
            db.config.with_updates(job_startup_s=0.0), size_blind_optimizer=blind_flag
        )
        runner.execute(f"CREATE TABLE R (r_rid INTEGER, r_matrix MATRIX[10][{inner}])")
        runner.execute(f"CREATE TABLE S (s_sid INTEGER, s_matrix MATRIX[{inner}][100])")
        runner.execute("CREATE TABLE T (t_rid INTEGER, t_sid INTEGER)")
        runner.load("R", [(i, rng.normal(size=(10, inner))) for i in range(20)])
        runner.load("S", [(i, rng.normal(size=(inner, 100))) for i in range(20)])
        runner.load("T", [(i % 20, (i * 7) % 20) for i in range(50)])
        result = runner.execute(RST_SQL)
        moved = sum(op.network_bytes for op in result.metrics.operators)
        print(
            f"  {label}: {len(result)} results, "
            f"{moved / 1e6:8.1f} MB over the network, "
            f"{result.metrics.total_seconds:6.2f}s simulated"
        )


if __name__ == "__main__":
    main()
