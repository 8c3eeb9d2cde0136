"""Property-based tests (hypothesis) for the vectorized bound engine.

Two contracts the engine must never break:

* ``bounds_many(pairs)`` is element-for-element identical to per-pair
  ``bounds`` for every provider with a batch kernel (Tri, SPLUB, LAESA);
* an epoch-cached (possibly stale) resolver interval always contains the
  true distance, at every interleaving of queries and resolutions.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bounds import Laesa, Splub, TriScheme
from repro.core.resolver import SmartResolver
from repro.spaces.matrix import MatrixSpace, random_metric_matrix

COMMON_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def partial_metric_instances(draw, min_n=4, max_n=12):
    """A ground-truth metric, a resolved subset, and a query-pair order."""
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    matrix = random_metric_matrix(n, rng)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picker = np.random.default_rng(seed + 1)
    picker.shuffle(pairs)
    num_resolved = draw(st.integers(0, len(pairs)))
    return matrix, pairs[:num_resolved], pairs


def _assert_batch_matches_single(provider, batches):
    for pairs in batches:
        for (i, j), b in zip(pairs, provider.bounds_many(pairs)):
            single = provider.bounds(i, j)
            assert b.lower == single.lower, provider.name
            assert b.upper == single.upper, provider.name


def _provider_matrix(space, resolver, cls):
    provider = cls(resolver.graph, space.diameter_bound())
    if cls is Laesa:
        provider.bootstrap(resolver)
    return provider


class TestBatchEquivalence:
    @given(partial_metric_instances(max_n=20), st.sampled_from([1.0, 2.0]))
    @settings(**COMMON_SETTINGS)
    def test_bounds_many_equals_bounds(self, instance, relaxation):
        matrix, resolved, all_pairs = instance
        space = MatrixSpace(matrix, validate=False)
        resolver = SmartResolver(space.oracle())
        for i, j in resolved:
            resolver.distance(i, j)
        cap = float(matrix.max()) or 1.0
        graph = resolver.graph
        tri = TriScheme(graph, cap, relaxation=relaxation)
        splub = Splub(graph, cap)
        queries = all_pairs + [(j, i) for i, j in all_pairs[:3]]
        # Shared-endpoint frontiers — each u against all of its unknown
        # pairs, in mixed orientation — reach Tri's CSR frontier sweep once
        # they are large enough.  They are taken before LAESA's bootstrap
        # resolves every landmark row.
        n = matrix.shape[0]
        frontiers = [
            [(u, c) if c % 2 else (c, u) for c in range(n)
             if c != u and graph.get(u, c) is None]
            for u in range(n)
        ]
        frontiers = [f for f in frontiers if f]
        for provider in (tri, splub):
            _assert_batch_matches_single(provider, [queries, *frontiers])
        for frontier in frontiers:
            before = tri.triangles_inspected
            tri.bounds_many(frontier)
            swept = tri.triangles_inspected - before
            for i, j in frontier:
                tri.bounds(i, j)
            assert tri.triangles_inspected - before == 2 * swept
        laesa = Laesa(graph, cap)
        laesa.bootstrap(resolver)
        for provider in (tri, splub, laesa):
            _assert_batch_matches_single(provider, [queries])

    @given(partial_metric_instances())
    @settings(**COMMON_SETTINGS)
    def test_resolver_bounds_many_equals_bounds(self, instance):
        matrix, resolved, all_pairs = instance
        space = MatrixSpace(matrix, validate=False)
        resolver = SmartResolver(space.oracle())
        resolver.bounder = TriScheme(resolver.graph, float(matrix.max()) or 1.0)
        for i, j in resolved:
            resolver.distance(i, j)
        batch = resolver.bounds_many(all_pairs)
        for (i, j), b in zip(all_pairs, batch):
            single = resolver.bounds(i, j)
            assert b.lower == single.lower
            assert b.upper == single.upper


class TestCachedBoundValidity:
    @given(partial_metric_instances(), st.integers(2, 5))
    @settings(**COMMON_SETTINGS)
    def test_epoch_cached_bounds_contain_truth(self, instance, stride):
        """Interleave queries and resolutions; every served interval is valid."""
        matrix, resolved, all_pairs = instance
        space = MatrixSpace(matrix, validate=False)
        resolver = SmartResolver(space.oracle())
        resolver.bounder = TriScheme(resolver.graph, float(matrix.max()) or 1.0)
        for step, (i, j) in enumerate(all_pairs):
            b = resolver.bounds(i, j)
            truth = float(matrix[i, j])
            assert b.lower - 1e-9 <= truth <= b.upper + 1e-9
            if step % stride == 0:
                resolver.distance(i, j)
        # Second sweep: a mix of fresh memo hits and recomputations (tiny
        # instances may legitimately have every entry go stale in between).
        for i, j in all_pairs:
            b = resolver.bounds(i, j)
            truth = float(matrix[i, j])
            assert b.lower - 1e-9 <= truth <= b.upper + 1e-9

    @given(partial_metric_instances())
    @settings(**COMMON_SETTINGS)
    def test_memo_never_changes_oracle_sequence(self, instance):
        """Same predicate stream, memo on vs off: identical calls and edges."""
        matrix, resolved, all_pairs = instance
        space = MatrixSpace(matrix, validate=False)
        threshold = float(np.median(matrix[matrix > 0])) if (matrix > 0).any() else 0.5
        outcomes = {}
        for flag in (True, False):
            oracle = space.oracle()
            resolver = SmartResolver(oracle, bound_cache=flag)
            resolver.bounder = TriScheme(resolver.graph, float(matrix.max()) or 1.0)
            verdicts = []
            for step, (i, j) in enumerate(all_pairs):
                verdicts.append(resolver.is_at_least(i, j, threshold))
                if step % 3 == 0 and len(all_pairs) > 1:
                    other = all_pairs[(step + 1) % len(all_pairs)]
                    verdicts.append(resolver.less((i, j), other))
            outcomes[flag] = (verdicts, oracle.calls, sorted(resolver.graph.edges()))
        assert outcomes[True] == outcomes[False]
