"""Property-based tests (hypothesis) for the stretch budget over LAESA.

Three contracts the approximate mode must never break:

* a bootstrapped LAESA interval, the one that certifies stretch answers,
  always contains the true distance — for random metrics, any landmark
  count, and any resolution prefix;
* for any ``stretch >= 1``, every answer the resolver returns is within
  ``[true, stretch * true]`` and never commits an edge into the graph;
* at ``stretch = 1.0`` the resolver is byte-identical to the exact one —
  same answers, same oracle-call count, same resolved-edge sequence
  (pinned against a TriScheme run, the repo's reference configuration).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bounds import Laesa, TriScheme
from repro.core.resolver import SmartResolver
from repro.spaces.matrix import MatrixSpace, random_metric_matrix

COMMON_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def laesa_instances(draw, min_n=4, max_n=12):
    """A metric, a landmark count, a resolution prefix, and a stretch."""
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    matrix = random_metric_matrix(n, rng)
    num_landmarks = draw(st.integers(1, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picker = np.random.default_rng(seed + 1)
    picker.shuffle(pairs)
    num_resolved = draw(st.integers(0, len(pairs)))
    stretch = draw(st.floats(1.0, 4.0, allow_nan=False))
    return matrix, num_landmarks, pairs[:num_resolved], pairs, stretch


class TestLaesaBoundValidity:
    @given(laesa_instances())
    @settings(**COMMON_SETTINGS)
    def test_exact_rows_bracket_the_distance(self, instance):
        matrix, num_landmarks, resolved, all_pairs, _ = instance
        space = MatrixSpace(matrix, validate=False)
        resolver = SmartResolver(space.oracle())
        laesa = Laesa(
            resolver.graph, float(matrix.max()) or 1.0, num_landmarks=num_landmarks
        )
        laesa.bootstrap(resolver)
        resolver.bounder = laesa
        for i, j in resolved:
            resolver.distance(i, j)
        for i, j in all_pairs:
            b = laesa.bounds(i, j)
            true = matrix[i, j]
            assert b.lower <= true + 1e-9
            assert true <= b.upper + 1e-9
        for b, (i, j) in zip(laesa.bounds_many(all_pairs), all_pairs):
            assert b.lower <= matrix[i, j] + 1e-9 <= b.upper + 2e-9


class TestStretchBudget:
    @given(laesa_instances())
    @settings(**COMMON_SETTINGS)
    def test_answers_within_stretch_and_no_graph_commits(self, instance):
        matrix, num_landmarks, _, all_pairs, stretch = instance
        space = MatrixSpace(matrix, validate=False)
        resolver = SmartResolver(space.oracle(), stretch=stretch)
        laesa = Laesa(
            resolver.graph, float(matrix.max()) or 1.0, num_landmarks=num_landmarks
        )
        laesa.bootstrap(resolver)
        resolver.bounder = laesa
        for i, j in all_pairs:
            value = resolver.distance(i, j)
            true = matrix[i, j]
            assert true - 1e-9 <= value <= stretch * true + 1e-9
        assert resolver.max_realized_stretch <= stretch + 1e-12
        # Approximate answers never enter the exact-distance graph.
        for key, estimate in resolver._approx_cache.items():
            assert resolver.graph.get(*key) is None
        # Repeat reads see one stable value per pair.
        for i, j in all_pairs:
            assert resolver.distance(i, j) == resolver.distance(j, i)

    @given(laesa_instances())
    @settings(**COMMON_SETTINGS)
    def test_resolve_many_matches_budget_too(self, instance):
        matrix, num_landmarks, _, all_pairs, stretch = instance
        space = MatrixSpace(matrix, validate=False)
        resolver = SmartResolver(space.oracle(), stretch=stretch)
        laesa = Laesa(
            resolver.graph, float(matrix.max()) or 1.0, num_landmarks=num_landmarks
        )
        laesa.bootstrap(resolver)
        resolver.bounder = laesa
        for (i, j), value in resolver.resolve_many(all_pairs).items():
            true = matrix[i, j]
            assert true - 1e-9 <= value <= stretch * true + 1e-9


class TestExactModeIsByteIdentical:
    @given(laesa_instances())
    @settings(**COMMON_SETTINGS)
    def test_stretch_one_equals_exact_tri_run(self, instance):
        matrix, _, _, all_pairs, _ = instance
        space = MatrixSpace(matrix, validate=False)

        def run(**kwargs):
            resolver = SmartResolver(space.oracle(), **kwargs)
            resolver.bounder = TriScheme(resolver.graph, float(matrix.max()) or 1.0)
            answers = [resolver.distance(i, j) for i, j in all_pairs]
            i, j, w = resolver.graph.edge_arrays()
            edges = list(zip(i.tolist(), j.tolist(), w.tolist()))
            return answers, resolver.oracle.calls, edges, resolver.stats

        base_answers, base_calls, base_edges, base_stats = run()
        one_answers, one_calls, one_edges, one_stats = run(stretch=1.0)
        assert one_answers == base_answers
        assert one_calls == base_calls
        assert one_edges == base_edges
        assert one_stats.approx_answers == 0
