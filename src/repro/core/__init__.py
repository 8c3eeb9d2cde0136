"""Core substrate: oracle accounting, partial graph, bounds, resolver."""

from repro.core.bounds import (
    BaseBoundProvider,
    BoundProvider,
    Bounds,
    IntersectionBounder,
    TrivialBounder,
    UNBOUNDED,
)
from repro.core.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    InvalidObjectError,
    JobBudgetExhaustedError,
    JobCancelledError,
    MetricViolationError,
    OracleResolutionError,
    ReproError,
    SnapshotMismatchError,
    SolverError,
    UnknownDistanceError,
)
from repro.core.csr_store import CSRStore
from repro.core.locking import ReadWriteLock
from repro.core.oracle import (
    DistanceOracle,
    OracleStats,
    WallClockOracle,
    canonical_pair,
)
from repro.core.partial_graph import PartialDistanceGraph
from repro.core.tiering import TieredOracle, WeakBand, WeakBoundProvider, WeakOracle
from repro.core.persistence import (
    ColumnSet,
    GraphArchive,
    load_archive,
    load_columns,
    load_graph,
    resume_resolver,
    save_columns,
    save_graph,
    seed_oracle_cache,
)
from repro.core.validation import ValidatingOracle
from repro.core.resolver import ResolverStats, SmartResolver

__all__ = [
    "BaseBoundProvider",
    "BoundProvider",
    "Bounds",
    "BudgetExceededError",
    "CSRStore",
    "ColumnSet",
    "ConfigurationError",
    "DistanceOracle",
    "GraphArchive",
    "IntersectionBounder",
    "InvalidObjectError",
    "JobBudgetExhaustedError",
    "JobCancelledError",
    "MetricViolationError",
    "OracleResolutionError",
    "OracleStats",
    "PartialDistanceGraph",
    "ReadWriteLock",
    "ReproError",
    "ResolverStats",
    "SmartResolver",
    "SnapshotMismatchError",
    "SolverError",
    "TieredOracle",
    "TrivialBounder",
    "UNBOUNDED",
    "UnknownDistanceError",
    "ValidatingOracle",
    "WeakBand",
    "WeakBoundProvider",
    "WeakOracle",
    "load_archive",
    "load_columns",
    "load_graph",
    "resume_resolver",
    "save_columns",
    "save_graph",
    "seed_oracle_cache",
    "WallClockOracle",
    "canonical_pair",
]
