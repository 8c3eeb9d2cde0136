"""The persistent proximity-query service layer.

Everything below builds on the same invariant the rest of the library
enforces: resolved distances are exact and never change, so sharing one
:class:`~repro.core.partial_graph.PartialDistanceGraph` across concurrent
queries can only *save* oracle calls — it can never alter an answer.

Every engine carries a :class:`~repro.obs.registry.MetricsRegistry`
(``engine.registry``); :class:`AsyncProximityServer` exposes it as
``{"op": "metrics"}`` and as a scrapeable HTTP ``GET /metrics``.
"""

from repro.service.aserver import AsyncProximityServer, engine_backend
from repro.service.engine import (
    DEFAULT_JOB_WORKERS,
    EngineStats,
    ProximityEngine,
    space_fingerprint,
)
from repro.service.jobs import (
    JOB_KINDS,
    Job,
    JobResult,
    JobSpec,
    JobStatus,
    TERMINAL_STATUSES,
)
from repro.service.queue import JobQueue
from repro.service.server import dispatch, parse_target, send_request
from repro.service.sharding import ShardedEngine, ShardPlan, plan_shards

__all__ = [
    "AsyncProximityServer",
    "DEFAULT_JOB_WORKERS",
    "EngineStats",
    "JOB_KINDS",
    "Job",
    "JobQueue",
    "JobResult",
    "JobSpec",
    "JobStatus",
    "ProximityEngine",
    "ShardPlan",
    "ShardedEngine",
    "TERMINAL_STATUSES",
    "dispatch",
    "engine_backend",
    "parse_target",
    "plan_shards",
    "send_request",
    "space_fingerprint",
]
