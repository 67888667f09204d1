"""repro — scalable linear algebra on a relational database system.

A from-scratch Python reproduction of Luo, Gao, Gubanov, Perez &
Jermaine, *"Scalable Linear Algebra on a Relational Database System"*
(ICDE 2017): an extended-SQL relational engine with LABELED_SCALAR,
VECTOR and MATRIX attribute types, templated LA type signatures driving a
size-aware cost-based optimizer, and a simulated shared-nothing cluster
execution engine, plus behavioural simulators of the paper's comparison
systems (SystemML, SciDB, Spark mllib).

Public entry point::

    from repro import Database
"""

from .config import PAPER_CLUSTER, TEST_CLUSTER, ClusterConfig
from .db import Database, Result
from .errors import (
    CatalogError,
    CompileError,
    DurabilityError,
    ExecutionError,
    FaultRecoveryExhaustedError,
    NameResolutionError,
    QueryTimeoutError,
    ReproError,
    ResourceExhaustedError,
    RuntimeTypeError,
    ServiceError,
    ServiceOverloadedError,
    SessionClosedError,
    SimulatedCrashError,
    SnapshotCorruptError,
    SqlSyntaxError,
    StatementTooLargeError,
    TransientClusterError,
    TypeCheckError,
)
from .faults import DEFAULT_FAULT_PLAN, FaultInjector, FaultPlan
from .types import LabeledScalar, Matrix, Vector

__version__ = "1.0.0"

__all__ = [
    "CatalogError",
    "ClusterConfig",
    "CompileError",
    "DEFAULT_FAULT_PLAN",
    "Database",
    "ExecutionError",
    "FaultInjector",
    "FaultPlan",
    "FaultRecoveryExhaustedError",
    "LabeledScalar",
    "Matrix",
    "NameResolutionError",
    "PAPER_CLUSTER",
    "QueryTimeoutError",
    "ReproError",
    "DurabilityError",
    "SimulatedCrashError",
    "SnapshotCorruptError",
    "ResourceExhaustedError",
    "Result",
    "RuntimeTypeError",
    "ServiceError",
    "ServiceOverloadedError",
    "SessionClosedError",
    "SqlSyntaxError",
    "StatementTooLargeError",
    "TEST_CLUSTER",
    "TransientClusterError",
    "TypeCheckError",
    "Vector",
    "__version__",
]
