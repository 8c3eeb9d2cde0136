"""Distance oracle abstraction with call accounting.

The paper's central cost model charges every *distance oracle* invocation —
a Google Maps request, an edit-distance computation on long sequences, an
image comparison — far more than any local CPU work.  :class:`DistanceOracle`
wraps an arbitrary symmetric distance function over integer object ids and

* counts calls (the paper's primary evaluation metric),
* caches results so a pair is never charged twice,
* accumulates *simulated* oracle latency on a virtual clock, which lets the
  "vary the oracle cost" experiments (Figures 7d, 8a, 8b) run instantly, and
* optionally enforces a hard call budget.

Two resolution paths exist.  :meth:`DistanceOracle.__call__` evaluates the
distance function inline — the classic synchronous path.  :meth:`record`
commits an *externally computed* value with identical validation and
accounting; it is the commit half of the batched execution pipeline
(:mod:`repro.exec`), which evaluates the distance function on worker threads
and commits results in deterministic order on the caller's thread.  Both
paths funnel through one charging routine, so subclasses observing charges
(:class:`~repro.harness.tracing.TracingOracle`,
:class:`~repro.core.validation.ValidatingOracle`) override the single
:meth:`_on_charged` hook instead of ``__call__``.

:class:`DistanceOracle` is the one meter: resolvers, batchers and engines
all charge through it.  The weak tier of :mod:`repro.core.tiering` is a
:class:`DistanceOracle` subclass that only ever feeds bound providers.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.core.exceptions import BudgetExceededError, InvalidObjectError

DistanceFn = Callable[[int, int], float]

Pair = Tuple[int, int]


def canonical_pair(i: int, j: int) -> Tuple[int, int]:
    """Return ``(min(i, j), max(i, j))`` — the canonical undirected pair key."""
    if i <= j:
        return (i, j)
    return (j, i)


@dataclass(frozen=True)
class OracleStats:
    """Immutable snapshot of an oracle's accounting counters.

    The classic three-field constructor ``OracleStats(calls, cache_hits,
    simulated_seconds)`` is still accepted; the fault-tolerance counters
    (``retries``, ``timeouts``) default to zero so snapshots taken before
    and after the batched-execution pipeline remain subtractable.
    """

    calls: int
    cache_hits: int
    simulated_seconds: float
    retries: int = 0
    timeouts: int = 0

    def __sub__(self, other: "OracleStats") -> "OracleStats":
        return OracleStats(
            calls=self.calls - other.calls,
            cache_hits=self.cache_hits - other.cache_hits,
            simulated_seconds=self.simulated_seconds - other.simulated_seconds,
            retries=self.retries - other.retries,
            timeouts=self.timeouts - other.timeouts,
        )


class DistanceOracle:
    """Expensive-distance-call accountant over ``n`` objects.

    Parameters
    ----------
    distance_fn:
        Symmetric, non-negative distance function over object ids
        ``0 .. n - 1``.  It is only consulted on the first request for a pair.
    n:
        Number of objects in the universe.
    cost_per_call:
        Simulated latency, in seconds, charged to the virtual clock per
        uncached call.  Defaults to 0 (count-only accounting).  Keyword-only.
    budget:
        Optional hard cap on uncached calls; exceeding it raises
        :class:`~repro.core.exceptions.BudgetExceededError`.  Keyword-only.
    """

    def __init__(
        self,
        distance_fn: DistanceFn,
        n: int,
        *,
        cost_per_call: float = 0.0,
        budget: int | None = None,
    ) -> None:
        if n <= 0:
            raise InvalidObjectError(0, n)
        if cost_per_call < 0:
            raise ValueError("cost_per_call must be non-negative")
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        self._fn = distance_fn
        self._n = n
        self._cost_per_call = cost_per_call
        self._budget = budget
        self._cache: Dict[Tuple[int, int], float] = {}
        self._calls = 0
        self._cache_hits = 0
        self._simulated_seconds = 0.0
        self._retries = 0
        self._timeouts = 0
        self._listeners: List[Callable[[int, int, float], None]] = []
        #: Identifier of the batch currently being committed (None outside
        #: batched commits); surfaced by tracing.
        self.active_batch: int | None = None

    # -- accounting -------------------------------------------------------

    @property
    def n(self) -> int:
        """Size of the object universe."""
        return self._n

    @property
    def calls(self) -> int:
        """Number of uncached (charged) oracle invocations so far."""
        return self._calls

    @property
    def cache_hits(self) -> int:
        """Number of requests answered from the cache (not charged)."""
        return self._cache_hits

    @property
    def simulated_seconds(self) -> float:
        """Virtual oracle latency accumulated so far."""
        return self._simulated_seconds

    @property
    def cost_per_call(self) -> float:
        """Simulated latency charged per uncached call."""
        return self._cost_per_call

    @property
    def retries(self) -> int:
        """Failed attempts that were retried by an execution pipeline."""
        return self._retries

    @property
    def timeouts(self) -> int:
        """Attempts that timed out in an execution pipeline."""
        return self._timeouts

    @property
    def distance_fn(self) -> DistanceFn:
        """The raw distance function (for executors that evaluate off-thread).

        The function must be safe to call from worker threads when paired
        with a concurrent executor; all accounting stays on the committing
        thread.
        """
        return self._fn

    def stats(self) -> OracleStats:
        """Snapshot the counters (subtract two snapshots to meter a phase)."""
        return OracleStats(
            self._calls,
            self._cache_hits,
            self._simulated_seconds,
            self._retries,
            self._timeouts,
        )

    def reset(self) -> None:
        """Zero every counter and drop the cache (listeners are kept)."""
        self._cache.clear()
        self._calls = 0
        self._cache_hits = 0
        self._simulated_seconds = 0.0
        self._retries = 0
        self._timeouts = 0

    def note_retries(self, count: int = 1) -> None:
        """Account ``count`` retried attempts (called by executors)."""
        if count < 0:
            raise ValueError("retry count must be non-negative")
        self._retries += count

    def note_timeouts(self, count: int = 1) -> None:
        """Account ``count`` timed-out attempts (called by executors)."""
        if count < 0:
            raise ValueError("timeout count must be non-negative")
        self._timeouts += count

    def refund_simulated(self, seconds: float) -> None:
        """Credit the virtual clock (used when calls overlap in a batch).

        Concurrent executors charge a batch of ``B`` fresh calls
        ``ceil(B / workers)`` latency units instead of ``B``; the difference
        is refunded through this method so ``simulated_seconds`` reflects
        the *elapsed* (wall-clock) latency, not the summed per-call latency.
        """
        if seconds < 0:
            raise ValueError("refund must be non-negative")
        self._simulated_seconds -= seconds

    def subscribe(self, listener: Callable[[int, int, float], None]) -> None:
        """Register ``listener(i, j, distance)`` to run on every charged call.

        Used by write-through cache backends; listeners survive
        :meth:`reset`.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[int, int, float], None]) -> None:
        """Remove a previously registered charge listener."""
        self._listeners.remove(listener)

    # -- distance access ---------------------------------------------------

    def is_resolved(self, i: int, j: int) -> bool:
        """Return True when the pair's distance is already cached."""
        return canonical_pair(i, j) in self._cache

    def __call__(self, i: int, j: int) -> float:
        """Return ``dist(i, j)``, charging the oracle on the first request."""
        self._check_index(i)
        self._check_index(j)
        if i == j:
            return 0.0
        key = canonical_pair(i, j)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache_hits += 1
            return cached
        self._check_budget()
        value = float(self._fn(key[0], key[1]))
        return self._charge(key, value)

    def record(self, i: int, j: int, value: float) -> float:
        """Commit an externally computed distance with full accounting.

        The charged-call counter, budget, simulated clock, validation, and
        observer hooks behave exactly as for :meth:`__call__`; only the
        evaluation of the distance function is skipped.  Committing a pair
        that is already cached is an idempotent no-op returning the cached
        value.  This is the commit half of :class:`repro.exec.BatchOracle`.
        """
        self._check_index(i)
        self._check_index(j)
        if i == j:
            return 0.0
        key = canonical_pair(i, j)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self._check_budget()
        return self._charge(key, float(value))

    def seed(self, i: int, j: int, value: float) -> bool:
        """Pre-fill the cache with a known distance, free of charge.

        Returns True when the pair was newly seeded.  Used when resuming
        from persisted distance sets — the run never re-pays for a pair a
        previous session already bought.
        """
        self._check_index(i)
        self._check_index(j)
        if i == j:
            return False
        key = canonical_pair(i, j)
        if key in self._cache:
            return False
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise ValueError(
                f"cannot seed invalid distance {value} for {key}; "
                "distances must be finite and non-negative"
            )
        self._cache[key] = value
        return True

    def forget(self, i: int) -> int:
        """Drop every cached pair touching object ``i``; return the count.

        Required when an object id is removed or recycled: the cache must
        never answer for a new object with the old incarnation's distances.
        Counters are untouched — the history of charged calls stands.
        """
        self._check_index(i)
        stale = [key for key in self._cache if key[0] == i or key[1] == i]
        for key in stale:
            del self._cache[key]
        return len(stale)

    def grow(self, new_n: int) -> None:
        """Extend the object universe to ``new_n`` ids (growth only)."""
        if new_n < self._n:
            raise ValueError(
                f"cannot shrink the universe from {self._n} to {new_n}; "
                "removed ids are tombstoned, not dropped"
            )
        self._n = new_n

    def peek(self, i: int, j: int) -> float | None:
        """Return the cached distance for ``(i, j)`` or None, free of charge."""
        if i == j:
            return 0.0
        return self._cache.get(canonical_pair(i, j))

    @contextlib.contextmanager
    def in_batch(self, batch_id: int):
        """Label charges committed inside the context with ``batch_id``.

        Tracing oracles surface the label, which lets traces distinguish
        batched commits from inline resolutions.
        """
        previous = self.active_batch
        self.active_batch = batch_id
        try:
            yield self
        finally:
            self.active_batch = previous

    # -- internals ----------------------------------------------------------

    def _charge(self, key: Pair, value: float) -> float:
        """Validate, count, cache, and notify observers of one fresh call."""
        if not math.isfinite(value) or value < 0:
            raise ValueError(
                f"distance_fn returned invalid distance {value} for {key}; "
                "distances must be finite and non-negative"
            )
        self._calls += 1
        self._simulated_seconds += self._cost_per_call
        self._cache[key] = value
        self._on_charged(key, value)
        for listener in self._listeners:
            listener(key[0], key[1], value)
        return value

    def _on_charged(self, key: Pair, value: float) -> None:
        """Subclass hook: observe one charged call (tracing, validation)."""

    def _check_budget(self) -> None:
        if self._budget is not None and self._calls >= self._budget:
            raise BudgetExceededError(self._budget)

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self._n:
            raise InvalidObjectError(i, self._n)


class WallClockOracle(DistanceOracle):
    """Oracle variant that also meters *real* seconds spent in the metric.

    Useful when the underlying distance function is genuinely expensive (e.g.
    edit distance on long strings) and the experiment wants the measured
    oracle time rather than a simulated one.
    """

    def __init__(self, distance_fn: DistanceFn, n: int, budget: int | None = None) -> None:
        super().__init__(distance_fn, n, cost_per_call=0.0, budget=budget)
        self._wall_seconds = 0.0
        self._inner = distance_fn
        # Route calls through the timing shim without re-plumbing __call__.
        self._fn = self._timed

    def _timed(self, i: int, j: int) -> float:
        start = time.perf_counter()
        value = self._inner(i, j)
        self._wall_seconds += time.perf_counter() - start
        return value

    @property
    def wall_seconds(self) -> float:
        """Real seconds spent inside the distance function."""
        return self._wall_seconds


class ComparisonOracle:
    """Comparison-only oracle mode: answers orderings but never a number.

    *Comparison Based Nearest Neighbor Search* (arXiv 1704.01460) shows that
    navigable-graph search needs only ordering queries — "is ``d(*a) <
    d(*b)``?" — never a distance magnitude.  This wrapper is that mode: it
    exposes :meth:`less`/:meth:`compare`/:meth:`rank_less` over pairs of
    object ids while keeping every numeric distance private, and it counts
    the ordering queries it answers (``comparisons``; surfaced as the
    ``repro_comparison_calls_total`` metric via
    :func:`repro.obs.bridge.comparison_call_counter`).

    Two sources are accepted.  A :class:`~repro.core.resolver.SmartResolver`
    (anything exposing pair-predicate ``compare``/``less`` methods) is the
    bound-accelerated path: orderings settled by triangle-inequality bounds
    or the provider's ``decide_less`` joint test cost no oracle call at all.
    A plain numeric source — a :class:`DistanceOracle` or bare ``(i, j) ->
    float`` callable — is the reference path: distances are evaluated
    internally and immediately reduced to a sign, so the caller still never
    sees a magnitude.
    """

    def __init__(self, source: Any) -> None:
        compare = getattr(source, "compare", None)
        less = getattr(source, "less", None)
        if callable(compare) and callable(less):
            self._compare_pairs: Callable[[Pair, Pair], int] = compare
            self._less_pairs: Callable[[Pair, Pair], bool] = less
        elif callable(source):
            self._compare_pairs = self._numeric_compare
            self._less_pairs = self._numeric_less
            self._fn = source
        else:
            raise TypeError(
                "ComparisonOracle needs a resolver with compare/less pair "
                "predicates or a numeric (i, j) -> float source"
            )
        #: Ordering queries answered so far — this mode's cost metric.
        self.comparisons = 0

    def _numeric_distance(self, pair: Pair) -> float:
        i, j = pair
        if i == j:
            return 0.0
        return float(self._fn(i, j))

    def _numeric_compare(self, a: Pair, b: Pair) -> int:
        da = self._numeric_distance(a)
        db = self._numeric_distance(b)
        return (da > db) - (da < db)

    def _numeric_less(self, a: Pair, b: Pair) -> bool:
        return self._numeric_distance(a) < self._numeric_distance(b)

    def less(self, a: Pair, b: Pair) -> bool:
        """Exact answer to ``d(*a) < d(*b)`` — one ordering query."""
        self.comparisons += 1
        return self._less_pairs(a, b)

    def compare(self, a: Pair, b: Pair) -> int:
        """Exact sign of ``d(*a) - d(*b)`` — one ordering query."""
        self.comparisons += 1
        return self._compare_pairs(a, b)

    def rank_less(self, q: int, x: int, y: int) -> bool:
        """Does ``x`` rank strictly before ``y`` as a neighbour of ``q``?

        Orders by ``(d(q, ·), id)``: distance first, object id breaking exact
        ties, so comparison-only search visits nodes in the same order as
        numeric search resolving the same ties.  Counts as one ordering
        query.
        """
        c = self.compare((q, x), (q, y))
        return c < 0 or (c == 0 and x < y)
