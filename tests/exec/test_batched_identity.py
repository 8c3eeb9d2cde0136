"""Batched execution must be invisible: outputs identical to the serial path.

The guarantee under test is the PR's core contract — routing resolutions
through ``repro.exec`` (any executor, with or without injected faults) never
changes what an algorithm computes, because workers only *evaluate*
distances and every commit happens on the calling thread in canonical-pair
sorted order.
"""

import threading

import pytest

from repro.algorithms import (
    knn_graph,
    knn_graph_brute,
    kruskal_mst,
    pam,
    prim_mst,
    prim_mst_comparisons,
)
from repro.core.exceptions import OracleResolutionError
from repro.bounds.tri import TriScheme
from repro.core.oracle import DistanceOracle
from repro.core.resolver import SmartResolver
from repro.exec import BatchOracle, RetryPolicy, SerialExecutor, ThreadedExecutor
from repro.spaces.matrix import MatrixSpace, random_metric_matrix

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.0)


@pytest.fixture
def space(rng):
    return MatrixSpace(random_metric_matrix(24, rng))


def build_serial(space, bounded):
    oracle = space.oracle()
    resolver = SmartResolver(oracle)
    if bounded:
        resolver.bounder = TriScheme(resolver.graph, space.diameter_bound())
    return oracle, resolver, None


def build_batched(space, bounded, executor_cls=ThreadedExecutor, distance_fn=None):
    fn = distance_fn or space.distance
    oracle = DistanceOracle(fn, space.n)
    if executor_cls is ThreadedExecutor:
        executor = ThreadedExecutor(workers=4, retry=FAST_RETRY)
    else:
        executor = executor_cls(retry=FAST_RETRY)
    batcher = BatchOracle(oracle, executor=executor)
    resolver = SmartResolver(oracle, batcher=batcher)
    if bounded:
        resolver.bounder = TriScheme(resolver.graph, space.diameter_bound())
    return oracle, resolver, batcher


class FlakyDistance:
    """Wraps a distance fn; every third first-attempt call times out once."""

    def __init__(self, fn):
        self.fn = fn
        self.attempts = {}
        self.injected = 0
        self._lock = threading.Lock()

    def __call__(self, i, j):
        key = (min(i, j), max(i, j))
        with self._lock:
            seen = self.attempts.get(key, 0)
            self.attempts[key] = seen + 1
            if seen == 0 and (key[0] + key[1]) % 3 == 0:
                self.injected += 1
                raise TimeoutError(f"injected timeout for {key}")
        return self.fn(i, j)


def assert_identical(space, bounded, executor_cls, run):
    """Assert ``run`` returns the inline resolver's output through a batcher.

    A serial batcher resolves one-candidate waves — the serial scan itself —
    so it pays exactly the inline calls.  A 4-worker batcher may resolve a
    few candidates a finished wave would have pruned: at most 10% more.
    Returns ``(batched calls, inline calls)``.
    """
    _, serial, _ = build_serial(space, bounded)
    expected = run(serial)
    oracle, batched, batcher = build_batched(space, bounded, executor_cls)
    try:
        assert run(batched) == expected
    finally:
        batcher.close()
    if executor_cls is SerialExecutor:
        assert oracle.calls == serial.oracle.calls
    else:
        assert oracle.calls <= 1.10 * serial.oracle.calls
    return oracle.calls, serial.oracle.calls


@pytest.mark.parametrize("bounded", [False, True], ids=["none", "tri"])
@pytest.mark.parametrize("executor_cls", [SerialExecutor, ThreadedExecutor])
class TestByteIdenticalOutputs:
    def test_knn_graph(self, space, bounded, executor_cls):
        calls, serial_calls = assert_identical(
            space, bounded, executor_cls, lambda r: knn_graph(r, k=4)
        )
        if not bounded:
            # Uninformative bounds prune no unknown pair, so waves of any
            # width resolve the serial scan's set.
            assert calls == serial_calls

    def test_pam(self, space, bounded, executor_cls):
        assert_identical(space, bounded, executor_cls, lambda r: pam(r, l=4, seed=3))

    def test_pam_build_init(self, space, bounded, executor_cls):
        assert_identical(
            space, bounded, executor_cls, lambda r: pam(r, l=3, init="build")
        )

    def test_prim_mst(self, space, bounded, executor_cls):
        assert_identical(space, bounded, executor_cls, prim_mst)

    def test_knn_graph_brute(self, space, bounded, executor_cls):
        assert_identical(
            space, bounded, executor_cls, lambda r: knn_graph_brute(r, k=4)
        )


@pytest.mark.parametrize("executor_cls", [SerialExecutor, ThreadedExecutor])
class TestIdenticalUnderInjectedTimeouts:
    """Retried/timed-out attempts must not leak into results or accounting."""

    def test_knn_graph(self, space, executor_cls):
        _, serial, _ = build_serial(space, bounded=True)
        expected = knn_graph(serial, k=4)
        flaky = FlakyDistance(space.distance)
        oracle, batched, batcher = build_batched(
            space, bounded=True, executor_cls=executor_cls, distance_fn=flaky
        )
        try:
            assert knn_graph(batched, k=4) == expected
        finally:
            batcher.close()
        assert flaky.injected > 0  # faults actually fired
        assert oracle.timeouts == flaky.injected
        assert oracle.retries == flaky.injected

    def test_pam(self, space, executor_cls):
        _, serial, _ = build_serial(space, bounded=True)
        expected = pam(serial, l=4, seed=3)
        flaky = FlakyDistance(space.distance)
        oracle, batched, batcher = build_batched(
            space, bounded=True, executor_cls=executor_cls, distance_fn=flaky
        )
        try:
            assert pam(batched, l=4, seed=3) == expected
        finally:
            batcher.close()
        assert flaky.injected > 0
        assert oracle.retries == flaky.injected

    def test_prim_mst(self, space, executor_cls):
        _, serial, _ = build_serial(space, bounded=True)
        expected = prim_mst(serial)
        flaky = FlakyDistance(space.distance)
        oracle, batched, batcher = build_batched(
            space, bounded=True, executor_cls=executor_cls, distance_fn=flaky
        )
        try:
            assert prim_mst(batched) == expected
        finally:
            batcher.close()
        assert flaky.injected > 0

    @pytest.mark.parametrize(
        "algorithm", [kruskal_mst, prim_mst_comparisons], ids=["kruskal", "prim_cmp"]
    )
    def test_comparison_fallbacks_retry(self, space, executor_cls, algorithm):
        """``less``/``compare`` fallbacks charge through the batcher too."""
        _, serial, _ = build_serial(space, bounded=True)
        expected = algorithm(serial)
        flaky = FlakyDistance(space.distance)
        oracle, batched, batcher = build_batched(
            space, bounded=True, executor_cls=executor_cls, distance_fn=flaky
        )
        try:
            assert algorithm(batched) == expected
        finally:
            batcher.close()
        assert flaky.injected > 0
        assert oracle.retries == flaky.injected

    def test_exhausted_retries_surface_as_resolution_errors(self, space, executor_cls):
        def down(i, j):
            raise TimeoutError("oracle down")

        _, batched, batcher = build_batched(
            space, bounded=True, executor_cls=executor_cls, distance_fn=down
        )
        try:
            with pytest.raises(OracleResolutionError):
                kruskal_mst(batched)
        finally:
            batcher.close()


class TestResolverBatchedEntryPoints:
    def test_resolve_many_matches_serial_state(self, space):
        pairs = [(0, 5), (5, 0), (2, 9), (1, 1), (3, 7)]
        _, serial, _ = build_serial(space, bounded=True)
        serial_out = serial.resolve_many(pairs)
        _, batched, batcher = build_batched(space, bounded=True)
        try:
            batched_out = batched.resolve_many(pairs)
        finally:
            batcher.close()
        assert batched_out == serial_out
        assert sorted(batched.graph.edges()) == sorted(serial.graph.edges())
        assert serial.stats.batched_resolutions == 0
        assert batched.stats.batched_resolutions == len(batched_out)

    def test_batcher_must_share_oracle(self, space):
        o1 = space.oracle()
        o2 = space.oracle()
        batcher = BatchOracle(o2)
        with pytest.raises(ValueError):
            SmartResolver(o1, batcher=batcher)
