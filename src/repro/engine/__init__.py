"""Simulated-cluster execution engine."""

from .cluster import (
    Cluster,
    OperatorRun,
    SlotTimeline,
    exact_hash,
    row_bytes,
    stable_hash,
    value_bytes,
)
from .executor import CheckpointStore, Executor, count_job_boundaries
from .metrics import OperatorMetrics, OperatorTrace, QueryMetrics
from .storage import (
    BROADCAST,
    ROUND_ROBIN,
    SINGLE,
    DistributedRelation,
    PartitionedTable,
    Partitioning,
    RowView,
)

__all__ = [
    "BROADCAST",
    "CheckpointStore",
    "Cluster",
    "DistributedRelation",
    "Executor",
    "OperatorMetrics",
    "OperatorRun",
    "OperatorTrace",
    "PartitionedTable",
    "Partitioning",
    "QueryMetrics",
    "ROUND_ROBIN",
    "RowView",
    "SINGLE",
    "SlotTimeline",
    "count_job_boundaries",
    "exact_hash",
    "row_bytes",
    "stable_hash",
    "value_bytes",
]
