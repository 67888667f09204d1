"""Synthetic workloads for the paper's three computations (section 5).

The paper uses dense synthetic data: 10^5 points per machine for Gram
matrix and regression, 10^4 per machine for the distance computation, at
10 / 100 / 1000 dimensions on 10 machines. Benchmarks here run the same
generators at a reduced scale (real execution, results checked against
numpy); the full scale is a :class:`Shape`, priced from the statistics
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The paper's experimental grid.
PAPER_DIMENSIONS = (10, 100, 1000)
PAPER_GRAM_POINTS_PER_MACHINE = 100_000
PAPER_DISTANCE_POINTS_PER_MACHINE = 10_000
PAPER_BLOCK_SIZE = 1000


@dataclass
class Workload:
    """A dense synthetic data set."""

    X: np.ndarray  # n x d data points
    y: np.ndarray  # n outcomes (regression)
    A: np.ndarray  # d x d symmetric positive-definite metric (distance)
    beta: np.ndarray  # the true regression coefficients behind y

    @property
    def n(self) -> int:
        return int(self.X.shape[0])

    @property
    def d(self) -> int:
        return int(self.X.shape[1])


@dataclass(frozen=True)
class Shape:
    """A workload's size without its data: the paper-scale figures
    compile the catalogue's listings over tables holding only the
    statistics of this many points (``simsql.price``)."""

    n: int
    d: int


def generate(n: int, d: int, seed: int = 0, noise: float = 0.1) -> Workload:
    """Generate a dense workload of ``n`` points in ``d`` dimensions."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    beta = rng.normal(size=d)
    y = X @ beta + noise * rng.normal(size=n)
    # a well-conditioned SPD metric
    base = rng.normal(size=(d, d))
    A = base @ base.T / d + np.eye(d)
    return Workload(X=X, y=y, A=A, beta=beta)


# -- ground truths -----------------------------------------------------------


def gram_truth(workload: Workload) -> np.ndarray:
    """G = X^T X."""
    return workload.X.T @ workload.X


def regression_truth(workload: Workload) -> np.ndarray:
    """beta_hat = (X^T X)^{-1} X^T y."""
    X, y = workload.X, workload.y
    return np.linalg.solve(X.T @ X, X.T @ y)


def distance_truth(workload: Workload) -> int:
    """The paper's section 5 computation: for each point x_i take the
    minimum of d(x_i, x') = x_i^T A x' over all x' != x_i, then return
    the (1-based) index of the point whose minimum is largest."""
    X, A = workload.X, workload.A
    all_dist = X @ A @ X.T
    np.fill_diagonal(all_dist, np.inf)
    mins = all_dist.min(axis=1)
    return int(np.argmax(mins)) + 1


def distance_truth_ids(workload: Workload) -> set:
    """All (1-based) argmax indices, for tie-tolerant comparison."""
    X, A = workload.X, workload.A
    all_dist = X @ A @ X.T
    np.fill_diagonal(all_dist, np.inf)
    mins = all_dist.min(axis=1)
    best = mins.max()
    return {int(i) + 1 for i in np.flatnonzero(mins == best)}
