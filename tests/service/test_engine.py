"""Unit tests for the ProximityEngine."""

import pytest

from repro.algorithms import k_nearest, knn_graph, prim_mst, range_query
from repro.bounds import TriScheme
from repro.core import SnapshotMismatchError
from repro.core.exceptions import ConfigurationError
from repro.core.resolver import SmartResolver
from repro.service import JobStatus, ProximityEngine
from repro.spaces.matrix import MatrixSpace, random_metric_matrix
from repro.spaces.vector import EuclideanSpace


@pytest.fixture
def space(rng):
    return MatrixSpace(random_metric_matrix(30, rng))


@pytest.fixture
def engine(space):
    eng = ProximityEngine.for_space(space, provider="tri", job_workers=2)
    yield eng
    eng.close(snapshot=False)


def _serial_resolver(space):
    oracle = space.oracle()
    resolver = SmartResolver(oracle)
    resolver.bounder = TriScheme(resolver.graph, space.diameter_bound())
    return oracle, resolver


class TestJobKinds:
    def test_knn_matches_serial(self, engine, space):
        result = engine.submit_job("knn", query=3, k=4).result(30)
        assert result.ok
        _, resolver = _serial_resolver(space)
        assert result.value == k_nearest(resolver, 3, 4)

    def test_range_matches_serial(self, engine, space):
        result = engine.submit_job("range", query=5, radius=0.6).result(30)
        assert result.ok
        _, resolver = _serial_resolver(space)
        assert result.value == range_query(resolver, 5, 0.6)

    def test_nearest(self, engine):
        result = engine.submit_job("nearest", query=0).result(30)
        assert result.ok
        obj, dist = result.value
        assert obj != 0 and dist > 0

    def test_mst_matches_serial(self, engine, space):
        result = engine.submit_job("mst").result(30)
        assert result.ok
        _, resolver = _serial_resolver(space)
        expected = prim_mst(resolver)
        assert result.value.total_weight == pytest.approx(expected.total_weight)
        assert result.value.edges == expected.edges

    def test_knng_matches_serial(self, engine, space):
        result = engine.submit_job("knng", k=3).result(60)
        assert result.ok
        _, resolver = _serial_resolver(space)
        assert result.value == knn_graph(resolver, k=3)

    def test_medoid_runs(self, engine):
        result = engine.submit_job("medoid", l=2, seed=0).result(60)
        assert result.ok
        assert len(result.value.medoids) == 2

    def test_out_of_range_query_rejected_at_submit(self, engine):
        with pytest.raises(ValueError, match="out of range"):
            engine.submit_job("knn", query=999, k=3)

    def test_failed_job_does_not_kill_worker(self, engine):
        bad = engine.submit_job("knng", k=29_000)  # k >= n inside the job
        result = bad.result(30)
        assert result.status is JobStatus.FAILED
        assert "k must be" in result.error
        # The worker survives and serves the next job.
        assert engine.submit_job("nearest", query=1).result(30).ok


class TestWarmReuse:
    def test_repeat_query_charges_nothing(self, engine):
        first = engine.submit_job("knn", query=2, k=5).result(30)
        again = engine.submit_job("knn", query=2, k=5).result(30)
        assert again.value == first.value
        assert again.charged_calls == 0
        assert again.warm_resolutions > 0

    def test_warm_total_aggregates(self, engine):
        engine.submit_job("mst").result(60)
        engine.submit_job("mst").result(60)
        stats = engine.snapshot_stats()
        assert stats.warm_resolutions > 0
        assert stats.jobs_completed == 2


class TestBudgets:
    def test_budget_exhaustion_yields_partial(self, engine):
        result = engine.submit_job("mst", oracle_budget=3).result(30)
        assert result.status is JobStatus.PARTIAL
        assert result.charged_calls <= 3
        assert len(result.unresolved) > 0
        assert all(i < j for i, j in result.unresolved)

    def test_partial_leaves_engine_consistent(self, engine, space):
        engine.submit_job("mst", oracle_budget=5).result(30)
        # A later unbudgeted job still gets the exact answer.
        result = engine.submit_job("mst").result(60)
        assert result.ok
        _, resolver = _serial_resolver(space)
        assert result.value.total_weight == pytest.approx(
            prim_mst(resolver).total_weight
        )

    def test_budget_large_enough_completes(self, engine):
        result = engine.submit_job("nearest", query=4, oracle_budget=10_000).result(30)
        assert result.ok


class TestCancellation:
    def test_cancel_pending_job(self, space):
        # Single worker + a long job in front keeps the victim pending.
        eng = ProximityEngine.for_space(space, provider="tri", job_workers=1)
        try:
            blocker = eng.submit_job("knng", k=5)
            victim = eng.submit_job("mst")
            assert victim.cancel()
            assert blocker.result(60).ok
            assert victim.result(30).status is JobStatus.CANCELLED
        finally:
            eng.close(snapshot=False)

    def test_expired_deadline(self, space):
        eng = ProximityEngine.for_space(space, provider="tri", job_workers=1)
        try:
            blocker = eng.submit_job("knng", k=5)
            victim = eng.submit_job("mst", deadline=1e-6)
            assert blocker.result(60).ok
            assert victim.result(30).status is JobStatus.EXPIRED
        finally:
            eng.close(snapshot=False)

    def test_close_cancels_queued_jobs(self, space):
        eng = ProximityEngine.for_space(space, provider="tri", job_workers=1)
        eng.submit_job("knng", k=5)
        tail = [eng.submit_job("mst") for _ in range(3)]
        eng.close(snapshot=False)
        statuses = {j.result(1).status for j in tail}
        assert statuses <= {JobStatus.CANCELLED, JobStatus.COMPLETED}

    def test_submit_after_close_rejected(self, space):
        eng = ProximityEngine.for_space(space, provider="tri")
        eng.close(snapshot=False)
        with pytest.raises(RuntimeError, match="closed"):
            eng.submit_job("mst")


class TestPriorities:
    def test_higher_priority_runs_first(self, space):
        eng = ProximityEngine.for_space(space, provider="tri", job_workers=1)
        try:
            blocker = eng.submit_job("knng", k=5)
            low = eng.submit_job("nearest", query=1, priority=0)
            high = eng.submit_job("nearest", query=2, priority=9)
            blocker.result(60)
            low_result = low.result(30)
            high_result = high.result(30)
            assert low_result.ok and high_result.ok
        finally:
            eng.close(snapshot=False)


class TestPersistence:
    def test_snapshot_restore_pays_zero(self, space, tmp_path):
        path = tmp_path / "warm.npz"
        eng = ProximityEngine.for_space(space, provider="tri", snapshot_path=str(path))
        baseline = eng.submit_job("knn", query=1, k=6).result(30)
        eng.close()  # writes the final snapshot
        assert path.exists()

        eng2 = ProximityEngine.for_space(
            space, provider="tri", restore_from=str(path)
        )
        try:
            replay = eng2.submit_job("knn", query=1, k=6).result(30)
            assert replay.value == baseline.value
            assert replay.charged_calls == 0
            assert eng2.oracle.calls == 0
            assert eng2.snapshot_stats().restored_edges > 0
        finally:
            eng2.close(snapshot=False)

    def test_fingerprint_mismatch_rejected(self, space, rng, tmp_path):
        path = tmp_path / "warm.npz"
        eng = ProximityEngine.for_space(space, provider="tri", snapshot_path=str(path))
        eng.submit_job("nearest", query=0).result(30)
        eng.close()

        other = MatrixSpace(random_metric_matrix(30, rng))
        eng2 = ProximityEngine.for_space(other, provider="tri")
        try:
            with pytest.raises(SnapshotMismatchError):
                eng2.restore(str(path))
        finally:
            eng2.close(snapshot=False)

    def test_size_mismatch_rejected(self, space, rng, tmp_path):
        path = tmp_path / "warm.npz"
        eng = ProximityEngine.for_space(space, provider="tri", snapshot_path=str(path))
        eng.submit_job("nearest", query=0).result(30)
        eng.close()

        small = MatrixSpace(random_metric_matrix(10, rng))
        eng2 = ProximityEngine.for_space(small, provider="tri")
        try:
            with pytest.raises(SnapshotMismatchError):
                eng2.restore(str(path))
        finally:
            eng2.close(snapshot=False)

    def test_periodic_snapshots(self, space, tmp_path):
        path = tmp_path / "periodic.npz"
        eng = ProximityEngine.for_space(
            space, provider="tri", snapshot_path=str(path), snapshot_every=10
        )
        try:
            eng.submit_job("mst").result(60)
            stats = eng.snapshot_stats()
            assert stats.snapshots_written >= 1
            assert path.exists()
        finally:
            eng.close(snapshot=False)

    def test_snapshot_without_path_rejected(self, engine):
        with pytest.raises(ConfigurationError, match="snapshot path"):
            engine.snapshot()


class TestStats:
    def test_snapshot_stats_coherent(self, engine):
        engine.submit_job("knn", query=0, k=3).result(30)
        engine.submit_job("knn", query=0, k=3).result(30)
        stats = engine.snapshot_stats()
        assert stats.jobs_submitted == 2
        assert stats.jobs_completed == 2
        assert stats.oracle_calls == engine.oracle.calls
        assert stats.graph_edges == engine.graph.num_edges
        assert stats.graph_epoch == engine.graph.epoch
        assert stats.latency_p50_s > 0
        assert stats.latency_p95_s >= stats.latency_p50_s
        assert 0 <= stats.bound_memo_hit_rate <= 1
        d = stats.to_dict()
        assert d["jobs_completed"] == 2
        assert isinstance(d["resolver"], dict)

    def test_engine_validates_workers(self, space):
        with pytest.raises(ConfigurationError, match="at least 1"):
            ProximityEngine.for_space(space, job_workers=0)


class TestLandmarkBootstrap:
    def test_laesa_engine_bootstraps_and_serves(self, space):
        eng = ProximityEngine.for_space(
            space, provider="laesa", num_landmarks=3, job_workers=2
        )
        try:
            assert eng.bootstrap_calls > 0
            result = eng.submit_job("nearest", query=2).result(30)
            assert result.ok
            stats = eng.snapshot_stats()
            assert stats.bootstrap_calls == eng.bootstrap_calls
        finally:
            eng.close(snapshot=False)


class TestExecutorWaves:
    """An oracle executor overlaps calls; it must not buy extra ones."""

    @staticmethod
    def _run(space, kind, executor):
        engine = ProximityEngine.for_space(
            space, provider="tri", job_workers=1, executor=executor, oracle_workers=4
        )
        try:
            params = {"knn": {"k": 5}, "range": {"radius": 0.15}}.get(kind, {})
            jobs = [engine.submit_job(kind, query=q, **params) for q in range(40)]
            results = [job.result(60) for job in jobs]
            assert all(result.ok for result in results)
            return [result.value for result in results], engine.oracle.calls
        finally:
            engine.close(snapshot=False)

    @pytest.mark.parametrize("kind", ["knn", "nearest", "range"])
    def test_threaded_pays_at_most_ten_percent_more(self, rng, kind):
        space = EuclideanSpace(rng.random((100, 2)))
        answers, calls = self._run(space, kind, None)
        threaded_answers, threaded_calls = self._run(space, kind, "threaded")
        assert threaded_answers == answers
        assert threaded_calls <= 1.10 * calls
