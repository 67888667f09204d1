"""Benchmark harness: workloads, the paper's SimSQL implementations,
the paper-scale cost model, figure reproduction, and the CLI."""

from .figures import FigureResult, figure, figure4, rst_experiment
from .model import SimSQLModel
from .simsql import STYLES, RunOutcome, SimSQLPlatform
from .workloads import Workload, generate

__all__ = [
    "FigureResult",
    "RunOutcome",
    "STYLES",
    "SimSQLModel",
    "SimSQLPlatform",
    "Workload",
    "figure",
    "figure4",
    "generate",
    "rst_experiment",
]
