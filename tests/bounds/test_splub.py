"""Unit tests for SPLUB (Algorithm 1) — exact tightest bounds."""

import math

import numpy as np
import pytest

from repro.bounds import kernels
from repro.bounds.splub import Splub, dijkstra_distances
from repro.core.partial_graph import PartialDistanceGraph

from tests.bounds.conftest import unknown_pairs


class TestDijkstra:
    def test_simple_path(self):
        g = PartialDistanceGraph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(0, 2, 5.0)
        dist = dijkstra_distances(g, 0)
        assert dist[0] == 0.0
        assert dist[1] == 1.0
        assert dist[2] == 3.0  # through node 1, not the direct 5.0 edge
        assert math.isinf(dist[3])

    def test_matches_scipy(self, partially_resolved):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

        _, resolver = partially_resolved
        g = resolver.graph
        n = g.n
        dense = np.zeros((n, n))
        for i, j, w in g.edges():
            dense[i, j] = dense[j, i] = w
        ref = scipy_dijkstra(csr_matrix(dense), directed=False, indices=0)
        ours = dijkstra_distances(g, 0)
        assert np.allclose(ours, ref)

    def test_csr_kernel_matches_reference_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            g = PartialDistanceGraph(n)
            for _ in range(int(rng.integers(0, 3 * n))):
                i, j = (int(v) for v in rng.integers(0, n, 2))
                if i != j and g.get(i, j) is None:
                    g.add_edge(i, j, float(rng.uniform(0.1, 1.0)))
            indptr, indices, weights = g.csr_arrays()
            for s in range(n):
                assert np.array_equal(
                    kernels.sssp(indptr, indices, weights, n, s), dijkstra_distances(g, s)
                )


class TestRunningExample:
    def test_upper_bound_is_shortest_path(self, running_example_graph):
        splub = Splub(running_example_graph, max_distance=2.0)
        # sp(1, 2) = 1→0→2 = 0.3 + 0.4 = 0.7.
        assert splub.bounds(1, 2).upper == pytest.approx(0.7)

    def test_lower_bound_wraps_longest_edge(self, running_example_graph):
        splub = Splub(running_example_graph, max_distance=2.0)
        # Edge (1,3)=0.8 wrapped through sp(2,3)=0.5 gives 0.3.
        assert splub.bounds(1, 2).lower == pytest.approx(0.3)

    def test_disconnected_pair_keeps_cap(self, running_example_graph):
        splub = Splub(running_example_graph, max_distance=2.0)
        b = splub.bounds(0, 6)
        # sp(0, 6) = 0→2→5→6 = 0.4 + 0.6 + 0.2 = 1.2.
        assert b.upper == pytest.approx(1.2)
        assert b.lower == 0.0

    def test_known_edge_exact(self, running_example_graph):
        splub = Splub(running_example_graph, max_distance=2.0)
        assert splub.bounds(3, 4).is_exact


class TestTightness:
    def test_bounds_contain_ground_truth(self, partially_resolved):
        matrix, resolver = partially_resolved
        splub = Splub(resolver.graph, max_distance=float(matrix.max()))
        for i, j in unknown_pairs(resolver.graph):
            b = splub.bounds(i, j)
            assert b.lower - 1e-9 <= matrix[i, j] <= b.upper + 1e-9

    def test_upper_bound_is_attained_by_some_metric(self, partially_resolved):
        """Tightness of TUB: setting the edge to its UB stays a metric.

        The shortest-path completion of the partial graph realises every
        upper bound simultaneously, so each TUB must be achievable.
        """
        import numpy as np

        matrix, resolver = partially_resolved
        g = resolver.graph
        n = g.n
        cap = float(matrix.max())
        splub = Splub(g, max_distance=cap * n)
        # Shortest-path completion of the known edges.
        big = np.full((n, n), np.inf)
        np.fill_diagonal(big, 0.0)
        for i, j, w in g.edges():
            big[i, j] = big[j, i] = w
        for k in range(n):
            np.minimum(big, big[:, k][:, None] + big[k, :][None, :], out=big)
        for i, j in unknown_pairs(g)[:30]:
            ub = splub.bounds(i, j).upper
            if np.isfinite(big[i, j]):
                assert ub == pytest.approx(big[i, j])

    def test_lemma_4_1_lower_bound_tightest(self, running_example_graph):
        """Brute-force check of Lemma 4.1 on the running example.

        Enumerate every simple path between the endpoints and every choice
        of 'longest edge' on it; SPLUB's LB must equal the best residue.
        """
        g = running_example_graph
        splub = Splub(g, max_distance=2.0)

        def best_residue(src, dst):
            # max over known edges (k, l) of w − (sp(src,k) + sp(dst,l)).
            from repro.bounds.splub import dijkstra_distances

            sp_s = dijkstra_distances(g, src)
            sp_d = dijkstra_distances(g, dst)
            best = 0.0
            for k, l, w in g.edges():
                best = max(
                    best,
                    w - (sp_s[k] + sp_d[l]),
                    w - (sp_s[l] + sp_d[k]),
                )
            return best

        for i, j in [(1, 2), (0, 3), (1, 4), (0, 4), (2, 6)]:
            if g.has_edge(i, j):
                continue
            assert splub.bounds(i, j).lower == pytest.approx(best_residue(i, j))


class TestTreeCache:
    def test_shared_endpoint_pays_one_dijkstra(self, running_example_graph):
        splub = Splub(running_example_graph, max_distance=2.0)
        splub.bounds(1, 2)
        runs_after_first = splub.dijkstra_runs
        assert runs_after_first == 2  # one tree per endpoint
        splub.bounds(1, 4)
        splub.bounds(1, 6)
        # Node 1's tree is reused; only the new endpoints cost a run.
        assert splub.dijkstra_runs == runs_after_first + 2

    def test_insert_invalidates_all_trees(self, running_example_graph):
        splub = Splub(running_example_graph, max_distance=2.0)
        splub.bounds(1, 2)
        running_example_graph.add_edge(0, 5, 0.3)
        splub.bounds(1, 2)
        assert splub.dijkstra_runs == 4  # both trees recomputed

    def test_cache_off_matches_cache_on(self, partially_resolved):
        matrix, resolver = partially_resolved
        cap = float(matrix.max())
        cached = Splub(resolver.graph, max_distance=cap)
        uncached = Splub(resolver.graph, max_distance=cap, cache_trees=False)
        queries = unknown_pairs(resolver.graph)[:25]
        for i, j in queries:
            assert cached.bounds(i, j) == uncached.bounds(i, j)
        # The uncached provider pays two fresh trees per query.
        assert uncached.dijkstra_runs == 2 * len(queries)
        assert cached.dijkstra_runs < uncached.dijkstra_runs


class TestUpdateIsFree:
    def test_no_stale_state_after_insert(self, running_example_graph):
        splub = Splub(running_example_graph, max_distance=2.0)
        before = splub.bounds(0, 6)
        running_example_graph.add_edge(0, 5, 0.3)
        splub.notify_resolved(0, 5, 0.3)
        after = splub.bounds(0, 6)
        # New edge creates path 0→5→6 = 0.5 < old 1.2.
        assert after.upper == pytest.approx(0.5)
        assert after.upper < before.upper
