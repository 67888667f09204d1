"""Benchmark harness: workloads, the paper's SimSQL implementations,
paper-scale pricing from their compiled plans, figure reproduction, and
the CLI."""

from .figures import FigureResult, figure, figure4, rst_experiment
from .simsql import STYLES, Priced, RunOutcome, SimSQLPlatform, price
from .workloads import Workload, generate

__all__ = [
    "FigureResult",
    "Priced",
    "RunOutcome",
    "STYLES",
    "SimSQLPlatform",
    "Workload",
    "figure",
    "figure4",
    "generate",
    "price",
    "rst_experiment",
]
