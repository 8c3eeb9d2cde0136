"""Job model for the proximity-query engine.

A *job* is one proximity query (kNN, range, nearest, medoid, kNN-graph, or
MST) submitted to a long-lived :class:`~repro.service.engine.ProximityEngine`.
Submission returns a :class:`Job` handle immediately; the engine's worker
pool executes jobs by priority and delivers a :class:`JobResult` that always
exists — a job that exhausts its oracle budget, misses its deadline, or is
cancelled resolves to a *partial/cancelled* result instead of raising into
the engine.
"""

from __future__ import annotations

import enum
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.resolver import ResolverStats

Pair = Tuple[int, int]

#: Query kinds the engine serves, with their required parameters.
JOB_KINDS: Dict[str, Tuple[str, ...]] = {
    "knn": ("query", "k"),
    "range": ("query", "radius"),
    "nearest": ("query",),
    "medoid": (),
    "knng": (),
    "mst": (),
    "build_index": ("graph",),
    "search_index": ("query", "k"),
}


class JobStatus(str, enum.Enum):
    """Lifecycle states of a job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    #: Finished early because the per-job oracle budget ran out; the result
    #: carries the refused pairs in ``unresolved``.
    PARTIAL = "partial"
    CANCELLED = "cancelled"
    #: Deadline passed before (or while) the job ran.
    EXPIRED = "expired"
    FAILED = "failed"


#: Statuses that end a job's lifecycle.
TERMINAL_STATUSES = frozenset(
    {
        JobStatus.COMPLETED,
        JobStatus.PARTIAL,
        JobStatus.CANCELLED,
        JobStatus.EXPIRED,
        JobStatus.FAILED,
    }
)


@dataclass(frozen=True)
class JobSpec:
    """What to compute and under which constraints.

    Parameters
    ----------
    kind:
        One of :data:`JOB_KINDS`.
    params:
        Kind-specific parameters (``query``/``k``/``radius``/``l``/...).
    priority:
        Higher runs first; ties run in submission order.
    oracle_budget:
        Optional cap on *charged* oracle calls this job may spend.  On
        exhaustion the job ends with :attr:`JobStatus.PARTIAL` and the
        refused pairs listed in :attr:`JobResult.unresolved`.
    deadline:
        Optional wall-clock allowance in seconds, measured from submission.
        An expired job is skipped (or aborted at its next resolution point)
        with :attr:`JobStatus.EXPIRED`.
    label:
        Free-form tag surfaced in stats and oracle-trace phase labels.
    stretch:
        Approximation budget (default ``1.0`` — exact).  With ``stretch >
        1``, this job may answer a distance with its current upper bound
        whenever the bound interval certifies ``ub <= stretch · lb`` —
        guaranteed within the budget of the true distance — without
        charging the oracle.  Realised stretch per accepted answer is
        observed into the engine's ``repro_answer_stretch`` histogram.
        At the default the job is byte-identical to the pre-stretch engine.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    oracle_budget: Optional[int] = None
    deadline: Optional[float] = None
    label: str = ""
    stretch: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; choose from {sorted(JOB_KINDS)}"
            )
        missing = [p for p in JOB_KINDS[self.kind] if p not in self.params]
        if missing:
            raise ValueError(
                f"job kind {self.kind!r} requires parameter(s) {missing}"
            )
        if self.oracle_budget is not None and self.oracle_budget < 0:
            raise ValueError("oracle_budget must be non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (seconds from submission)")
        if self.stretch < 1.0:
            raise ValueError("stretch budget must be >= 1.0 (1.0 = exact)")


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job — always delivered, never raised.

    ``value`` is the query answer for completed jobs and ``None`` otherwise.
    ``charged_calls`` counts oracle calls this job actually paid for;
    ``warm_resolutions`` counts resolutions it got for free because an
    earlier job (or a restored snapshot) had already bought the pair — the
    per-job view of the engine's cross-query compounding.
    """

    status: JobStatus
    value: Any = None
    #: Pairs whose resolution was refused by the budget (empty otherwise).
    unresolved: Tuple[Pair, ...] = ()
    charged_calls: int = 0
    warm_resolutions: int = 0
    latency_seconds: float = 0.0
    resolver_stats: Optional[ResolverStats] = field(repr=False, default=None)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True for a complete, exact answer."""
        return self.status is JobStatus.COMPLETED


class Job:
    """Handle to a submitted job: wait, poll, or cancel."""

    def __init__(self, job_id: int, spec: JobSpec) -> None:
        self.id = job_id
        self.spec = spec
        self.submitted_at = time.monotonic()
        self.deadline_at = (
            math.inf if spec.deadline is None else self.submitted_at + spec.deadline
        )
        self._status = JobStatus.PENDING
        self._result: Optional[JobResult] = None
        self._done = threading.Event()
        self._cancel = threading.Event()
        self._lock = threading.Lock()

    # -- observation --------------------------------------------------------

    @property
    def status(self) -> JobStatus:
        return self._status

    def done(self) -> bool:
        """True once a terminal :class:`JobResult` is available."""
        return self._done.is_set()

    def expired(self, now: Optional[float] = None) -> bool:
        """True when the deadline has passed."""
        return (now if now is not None else time.monotonic()) >= self.deadline_at

    def result(self, timeout: Optional[float] = None) -> JobResult:
        """Block until the job finishes and return its result.

        Raises ``TimeoutError`` when ``timeout`` elapses first.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.id} did not finish within {timeout}s")
        assert self._result is not None
        return self._result

    # -- control ------------------------------------------------------------

    def cancel(self) -> bool:
        """Request cancellation.

        A pending job is dropped at dequeue; a running job aborts at its
        next oracle-resolution point.  Returns False when the job had
        already reached a terminal state.
        """
        with self._lock:
            if self._done.is_set():
                return False
            self._cancel.set()
            return True

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    # -- engine-side transitions -------------------------------------------

    def _mark_running(self) -> bool:
        """Claim the job for execution; False when already cancelled/done."""
        with self._lock:
            if self._done.is_set() or self._cancel.is_set():
                return False
            self._status = JobStatus.RUNNING
            return True

    def _finish(self, result: JobResult) -> None:
        with self._lock:
            if self._done.is_set():  # pragma: no cover - defensive
                return
            self._result = result
            self._status = result.status
            self._done.set()
