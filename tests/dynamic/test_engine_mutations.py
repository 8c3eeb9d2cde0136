"""Engine-level tests: atomic mutation batches and standing queries."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.resolver import SmartResolver
from repro.dynamic import DynamicObjectSet, Insert, Remove, churn_batch
from repro.service import ProximityEngine
from repro.spaces.matrix import MatrixSpace, random_metric_matrix


@pytest.fixture
def space(rng):
    return MatrixSpace(random_metric_matrix(30, rng))


@pytest.fixture
def objects(space):
    # 24 live ids; 24..29 form the insertable reserve.
    return DynamicObjectSet.wrap(space, initial=24)


@pytest.fixture
def engine(objects):
    eng = ProximityEngine.for_space(objects, provider="tri", job_workers=1)
    yield eng
    eng.close(snapshot=False)


def _fresh_knng(objects, k):
    """The standing result an engine built cold on the live set would hold.

    ``knearest`` is exact, so the reference rows are provider-independent.
    """
    resolver = SmartResolver(objects.oracle())
    alive = objects.alive_ids()
    rows = {}
    for u in alive:
        pool = [c for c in alive if c != u]
        rows[u] = tuple(tuple(e) for e in resolver.knearest(u, pool, k))
    return rows


class TestApplyMutations:
    def test_batch_accounting(self, engine, objects):
        result = engine.apply_mutations([Remove(3), Insert(24)])
        assert result.removed_ids == [3]
        assert result.inserted_ids == [3]  # slot 3 recycled in-batch
        assert result.epoch == engine.graph.epoch
        assert objects.payload(3) == 24
        assert engine.graph.mutated

    def test_empty_batch_is_a_noop(self, engine):
        epoch = engine.graph.epoch
        result = engine.apply_mutations([])
        assert result.epoch == epoch
        assert not engine.graph.mutated

    def test_immutable_space_rejected(self, space):
        eng = ProximityEngine.for_space(space, provider="tri", job_workers=1)
        try:
            with pytest.raises(ConfigurationError, match="mutable space"):
                eng.apply_mutations([Remove(0)])
        finally:
            eng.close(snapshot=False)

    def test_unpatchable_provider_rejected(self, objects):
        eng = ProximityEngine.for_space(objects, provider="aesa", job_workers=1)
        try:
            with pytest.raises(ConfigurationError, match="does not support"):
                eng.apply_mutations([Remove(0)])
        finally:
            eng.close(snapshot=False)

    def test_removed_id_rejected_in_queries(self, engine):
        engine.apply_mutations([Remove(5)])
        with pytest.raises(ValueError, match="removed"):
            engine.submit_job("knn", query=5, k=3)

    def test_full_scan_kinds_rejected_after_mutation(self, engine):
        engine.apply_mutations([Remove(5)])
        for kind in ("medoid", "knng", "mst"):
            job = engine.submit_job(kind, **({"k": 3} if kind == "knng" else
                                             {"l": 2, "seed": 0} if kind == "medoid"
                                             else {}))
            result = job.result(30)
            assert not result.ok
            assert "mutated" in result.error

    def test_point_queries_skip_tombstones(self, engine, space):
        engine.apply_mutations([Remove(5)])
        result = engine.submit_job("knn", query=0, k=23).result(30)
        assert result.ok
        assert all(obj != 5 for _, obj in result.value)

    def test_oracle_cache_purged_for_recycled_id(self, engine, objects):
        engine.submit_job("knn", query=3, k=5).result(30)  # warm edges at 3
        engine.apply_mutations([Remove(3), Insert(24)])
        # Slot 3 now holds payload 24; a query through it must resolve
        # payload-24 distances, not the dead incarnation's.
        result = engine.submit_job("knn", query=3, k=3).result(30)
        assert result.ok
        d, obj = result.value[0]
        assert d == pytest.approx(objects.distance(3, obj))


class TestWeakTierRejection:
    def test_weak_engine_rejects_mutations(self, rng):
        from repro.spaces.vector import EuclideanSpace

        pts = rng.uniform(0, 1, size=(20, 3))
        space = EuclideanSpace(pts)
        dyn = DynamicObjectSet.wrap(space)
        dyn.weak_oracle = space.weak_oracle  # expose the native weak tier
        eng = ProximityEngine.for_space(
            dyn, provider="tri", job_workers=1, weak_oracle=True
        )
        try:
            with pytest.raises(ConfigurationError, match="weak"):
                eng.apply_mutations([Remove(0)])
        finally:
            eng.close(snapshot=False)


@pytest.mark.parametrize("provider", ["tri", "splub", "laesa"])
class TestStandingQueries:
    def test_knng_tracks_churn_exactly(self, space, provider):
        objects = DynamicObjectSet.wrap(space, initial=24)
        engine = ProximityEngine.for_space(
            objects, provider=provider, job_workers=1
        )
        try:
            sub = engine.subscribe_knng(3)
            for batch_no in range(3):
                batch = churn_batch(objects, fraction=0.2, seed=batch_no)
                engine.apply_mutations(batch)
            standing = engine.subscriptions.get(sub.sub_id).result
            assert standing == _fresh_knng(objects, 3)
        finally:
            engine.close(snapshot=False)

    def test_knn_member_removal_recomputes(self, space, provider):
        objects = DynamicObjectSet.wrap(space, initial=24)
        engine = ProximityEngine.for_space(
            objects, provider=provider, job_workers=1
        )
        try:
            sub = engine.subscribe_knn(0, 3)
            victim = sub.result[0][1]
            engine.apply_mutations([Remove(victim)])
            refreshed = engine.subscriptions.get(sub.sub_id).result
            assert all(obj != victim for _, obj in refreshed)
            deltas = engine.subscription_deltas(sub.sub_id)
            assert deltas and victim in deltas[-1].left
        finally:
            engine.close(snapshot=False)


class TestBoundsFirstRefresh:
    def test_far_insert_costs_no_strong_calls_for_standing_knn(self, rng):
        from repro.spaces.vector import EuclideanSpace

        pts = rng.uniform(0, 1, size=(20, 2)).tolist()
        pts.append([100.0, 100.0])  # reserve payload, far from everything
        space = EuclideanSpace(pts)
        objects = DynamicObjectSet.wrap(space, initial=20)
        engine = ProximityEngine.for_space(
            objects, provider="laesa", job_workers=1
        )
        try:
            sub = engine.subscribe_knn(0, 3)
            result = engine.apply_mutations([Insert(20)])
            # LAESA refills the new column (L calls) but the standing query
            # itself is screened bounds-first: the far insert's lower bound
            # clears the kth distance, so no extra strong resolutions.
            refill = result.invalidation.get("landmark_cols_refilled", 0)
            assert refill == 1
            assert result.strong_calls <= len(engine.bounder.landmarks)
            refreshed = engine.subscriptions.get(sub.sub_id).result
            assert refreshed == sub.result  # unchanged neighbours
            assert engine.subscription_deltas(sub.sub_id) == []
        finally:
            engine.close(snapshot=False)


class TestQueryRemovalEndsSubscription:
    def test_dead_query_empties_result(self, engine):
        sub = engine.subscribe_knn(2, 3)
        engine.apply_mutations([Remove(2)])
        assert engine.subscriptions.get(sub.sub_id).result == []
        deltas = engine.subscription_deltas(sub.sub_id)
        assert deltas and deltas[-1].left


class TestMetrics:
    def test_mutation_counters_exported(self, engine):
        engine.apply_mutations([Remove(1), Insert(25)])
        page = engine.registry.render_prometheus()
        assert 'repro_mutations_total{kind="remove"} 1' in page
        assert 'repro_mutations_total{kind="insert"} 1' in page
        assert "repro_subscription_delta_size" in page

    def test_stats_report_mutations_and_subscriptions(self, engine):
        engine.subscribe_knng(3)
        engine.apply_mutations([Remove(1)])
        stats = engine.snapshot_stats()
        assert stats.mutations_applied == 1
        assert stats.subscriptions_active == 1
