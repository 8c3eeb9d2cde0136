"""Property-based tests, wave 2: invariants of the extension subsystems.

Covers the algorithms, indexes, and infrastructure added beyond the paper's
§5 scope — the same exactness discipline, under randomly generated metric
instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import k_center, single_linkage
from repro.algorithms.dbscan import dbscan
from repro.algorithms.queries import farthest_neighbor, range_query
from repro.algorithms.tsp import nearest_neighbor_tour, two_opt
from repro.bounds import TriScheme
from repro.core.partial_graph import PartialDistanceGraph
from repro.core.persistence import load_graph, save_graph
from repro.core.resolver import SmartResolver
from repro.index import Gnat, MTree, VpTree
from repro.spaces.graphs import random_ultrametric
from repro.spaces.matrix import MatrixSpace, random_metric_matrix

COMMON = dict(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def metric_spaces(draw, min_n=5, max_n=12):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    matrix = random_metric_matrix(n, np.random.default_rng(seed))
    return MatrixSpace(matrix, validate=False), matrix


def _pair(space):
    oracle = space.oracle()
    vanilla = SmartResolver(oracle)
    tri_oracle = space.oracle()
    tri = SmartResolver(tri_oracle)
    tri.bounder = TriScheme(tri.graph, space.diameter_bound())
    return vanilla, tri


class TestExtensionAlgorithmExactness:
    @given(metric_spaces(), st.floats(0.05, 0.9), st.integers(2, 5))
    @settings(**COMMON)
    def test_dbscan_labels_invariant(self, instance, eps_frac, min_pts):
        space, matrix = instance
        eps = eps_frac * float(matrix.max())
        vanilla, tri = _pair(space)
        a = dbscan(vanilla, eps=eps, min_pts=min_pts)
        b = dbscan(tri, eps=eps, min_pts=min_pts)
        assert a.labels == b.labels
        assert a.core == b.core

    @given(metric_spaces(), st.integers(1, 4))
    @settings(**COMMON)
    def test_k_center_invariant(self, instance, k):
        space, _ = instance
        if k > space.n:
            return
        vanilla, tri = _pair(space)
        a = k_center(vanilla, k=k)
        b = k_center(tri, k=k)
        assert a.centers == b.centers
        assert a.radius == pytest.approx(b.radius)

    @given(metric_spaces())
    @settings(**COMMON)
    def test_tour_invariant(self, instance):
        space, _ = instance
        vanilla, tri = _pair(space)
        a = nearest_neighbor_tour(vanilla)
        b = nearest_neighbor_tour(tri)
        assert a.order == b.order
        assert a.length == pytest.approx(b.length)

    @given(metric_spaces(min_n=5, max_n=9))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_two_opt_invariant_and_improving(self, instance):
        space, _ = instance
        vanilla, tri = _pair(space)
        a0 = nearest_neighbor_tour(vanilla)
        b0 = nearest_neighbor_tour(tri)
        a = two_opt(vanilla, a0)
        b = two_opt(tri, b0)
        assert a.order == b.order
        assert a.length <= a0.length + 1e-9

    @given(metric_spaces())
    @settings(**COMMON)
    def test_linkage_heights_invariant(self, instance):
        space, _ = instance
        vanilla, tri = _pair(space)
        a = single_linkage(vanilla)
        b = single_linkage(tri)
        assert a.heights() == pytest.approx(b.heights())

    @given(metric_spaces(), st.floats(0.0, 1.0), st.integers(0, 11))
    @settings(**COMMON)
    def test_range_query_matches_brute(self, instance, radius_frac, q):
        space, matrix = instance
        if q >= space.n:
            return
        radius = radius_frac * float(matrix.max())
        _, tri = _pair(space)
        hits = range_query(tri, q, radius)
        brute = sorted(
            c for c in range(space.n) if c != q and matrix[q, c] <= radius
        )
        assert hits == brute

    @given(metric_spaces(), st.integers(0, 11))
    @settings(**COMMON)
    def test_farthest_matches_brute(self, instance, q):
        space, matrix = instance
        if q >= space.n:
            return
        _, tri = _pair(space)
        _, dist = farthest_neighbor(tri, q)
        assert dist == pytest.approx(max(matrix[q, c] for c in range(space.n) if c != q))


class TestIndexCorrectness:
    @given(metric_spaces(min_n=6, max_n=14), st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_vptree_nearest_matches_brute(self, instance, seed):
        space, matrix = instance
        tree = VpTree(space.oracle(), rng=np.random.default_rng(seed))
        for q in range(space.n):
            _, dist = tree.nearest(q)
            assert dist == pytest.approx(
                min(matrix[q, c] for c in range(space.n) if c != q)
            )

    @given(metric_spaces(min_n=6, max_n=14), st.integers(0, 2**16), st.floats(0.0, 1.0))
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mtree_range_matches_brute(self, instance, seed, frac):
        space, matrix = instance
        radius = frac * float(matrix.max())
        tree = MTree(space.oracle(), capacity=3, rng=np.random.default_rng(seed))
        for q in (0, space.n // 2):
            hits = tree.range(q, radius)
            brute = sorted(c for c in range(space.n) if matrix[q, c] <= radius)
            assert hits == brute

    @given(metric_spaces(min_n=6, max_n=14), st.integers(0, 2**16), st.floats(0.0, 1.0))
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_gnat_range_matches_brute(self, instance, seed, frac):
        space, matrix = instance
        radius = frac * float(matrix.max())
        tree = Gnat(space.oracle(), arity=3, leaf_size=3, rng=np.random.default_rng(seed))
        for q in (0, space.n - 1):
            hits = tree.range(q, radius)
            brute = sorted(c for c in range(space.n) if matrix[q, c] <= radius)
            assert hits == brute


class TestInfrastructureProperties:
    @given(metric_spaces(), st.integers(0, 2**16))
    @settings(**COMMON)
    def test_persistence_round_trip(self, instance, seed):
        import tempfile

        space, _ = instance
        resolver = SmartResolver(space.oracle())
        rng = np.random.default_rng(seed)
        for _ in range(20):
            i, j = int(rng.integers(space.n)), int(rng.integers(space.n))
            if i != j:
                resolver.distance(i, j)
        with tempfile.NamedTemporaryFile(suffix=".npz") as handle:
            save_graph(resolver.graph, handle.name)
            loaded = load_graph(handle.name)
        assert set(loaded.edges()) == set(resolver.graph.edges())

    @given(st.integers(2, 20), st.integers(0, 2**31 - 1))
    @settings(**COMMON)
    def test_random_ultrametric_is_ultrametric(self, n, seed):
        matrix = random_ultrametric(n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        for _ in range(30):
            i, j, k = rng.integers(n, size=3)
            assert matrix[i, j] <= max(matrix[i, k], matrix[k, j]) + 1e-9
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)

    @given(metric_spaces(), st.floats(1.0, 3.0))
    @settings(**COMMON)
    def test_relaxed_tri_is_looser_but_sound(self, instance, c):
        space, matrix = instance
        graph = PartialDistanceGraph(space.n)
        rng = np.random.default_rng(1)
        for _ in range(30):
            i, j = int(rng.integers(space.n)), int(rng.integers(space.n))
            if i != j and not graph.has_edge(i, j):
                graph.add_edge(i, j, float(matrix[i, j]))
        strict = TriScheme(graph, float(matrix.max()))
        relaxed = TriScheme(graph, float(matrix.max()), relaxation=c)
        for i in range(space.n):
            for j in range(i + 1, space.n):
                if graph.has_edge(i, j):
                    continue
                bs = strict.bounds(i, j)
                br = relaxed.bounds(i, j)
                # A metric is also a c-relaxed metric, so both are sound,
                # and the relaxed interval can never be tighter.
                assert br.lower <= bs.lower + 1e-9
                assert br.upper >= bs.upper - 1e-9
                assert br.lower - 1e-9 <= matrix[i, j] <= br.upper + 1e-9
