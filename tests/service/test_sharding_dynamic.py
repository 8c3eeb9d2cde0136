"""Tests for dynamic (mutable) mode of the sharded multi-process engine."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.datasets.facades import flickr_space
from repro.dynamic import DynamicObjectSet, Insert, Remove
from repro.service import ProximityEngine, ShardedEngine
from repro.service.jobs import JobSpec
from repro.spaces.handles import handle_for

N = 36


@pytest.fixture(scope="module")
def handle():
    return handle_for(flickr_space, n=N, dim=4, seed=11)


@pytest.fixture(scope="module")
def dynamic(handle):
    engine = ShardedEngine(handle, num_shards=2, provider="tri", dynamic=True)
    yield engine
    engine.close()


class TestStaticModeGuard:
    def test_static_coordinator_rejects_mutations(self, handle):
        engine = ShardedEngine(handle, num_shards=2, provider="none")
        try:
            with pytest.raises(ConfigurationError, match="dynamic=True"):
                engine.apply_mutations([Remove(0)])
        finally:
            engine.close()


class TestBroadcastMutations:
    def test_batch_applies_identically_on_every_shard(self, dynamic):
        result = dynamic.apply_mutations([Remove(4), Remove(21), Insert(4)])
        assert result.removed_ids == [4, 21]
        assert result.inserted_ids == [4]  # deterministic min-slot recycle
        # Every shard reports the same post-batch graph epoch.
        stats = dynamic.stats()
        epochs = {row["graph_epoch"] for row in stats["shards"]
                  if "graph_epoch" in row}
        assert len(epochs) <= 1

    def test_mutation_marks_store_stale(self, dynamic):
        assert dynamic.stats()["store_stale"] is True

    def test_tombstone_leaves_routing_regions(self, dynamic):
        regions = [list(r) for r in dynamic._regions]
        flat = [obj for region in regions for obj in region]
        assert 21 not in flat
        assert 4 in flat  # recycled slot rejoined its owner's region

    def test_point_query_skips_tombstones(self, dynamic):
        result = dynamic.run(JobSpec(kind="knn", params={"query": 0, "k": 30}))
        assert result.ok
        assert all(obj != 21 for _, obj in result.value)

    def test_snapshot_skips_stale_store(self, dynamic, tmp_path):
        base = str(tmp_path / "snap")
        files = dynamic.snapshot(base)
        assert not any(path.endswith(".store.npz") for path in files)


class TestStaleStoreAfterMutation:
    def test_recycled_slot_never_merges_its_old_distances(self, handle):
        # The first query leaves the victim's old distances to both
        # regions in the store, each shard holding only its own half.  Once
        # the slot is removed and recycled with another payload, merging
        # the peer's half would seed the new object with the old object's
        # distances; answers must instead match a single engine's.
        space = handle.space()
        victim = 4
        payload = max(range(N), key=lambda obj: space.distance(victim, obj))
        batch = [Remove(victim), Insert(payload)]
        engine = ShardedEngine(handle, num_shards=2, provider="tri", dynamic=True)
        single = ProximityEngine.for_space(
            DynamicObjectSet.wrap(space), provider="none", job_workers=1
        )
        try:
            engine.run(JobSpec(kind="knn", params={"query": victim, "k": 3}))
            assert engine.store.num_edges == N - 1
            assert engine.apply_mutations(batch).inserted_ids == [victim]
            single.apply_mutations(batch)
            queries = [victim] + [
                obj for region in engine.plan.regions for obj in region[:3]
                if obj != victim
            ]
            for query in queries:
                spec = JobSpec(kind="knn", params={"query": query, "k": N - 1})
                assert engine.run(spec).value == single.run(spec).value
            assert engine.store.num_edges == N - 1  # stale: nothing drained
        finally:
            single.close(snapshot=False)
            engine.close()


class TestShardedSubscriptions:
    def test_subscribe_and_deltas_round_trip(self, dynamic):
        sub = dynamic.subscribe_knn(0, 3)
        assert sub.sub_id >= 1 and len(sub.result) == 3
        victim = int(sub.result[0][1])
        dynamic.apply_mutations([Remove(victim), Insert(victim)])
        polled = dynamic.subscription_deltas(sub.sub_id, since=0)
        assert polled  # the victim's removal surfaced a delta
        assert dynamic.subscriptions[sub.sub_id].seq == polled[-1].seq
        dynamic.unsubscribe(sub.sub_id)
        assert sub.sub_id not in dynamic.subscriptions

    def test_unknown_sub_id_raises(self, dynamic):
        with pytest.raises(KeyError):
            dynamic.subscription_deltas(9999, since=0)


class TestStatsLabels:
    def test_per_shard_rows_carry_shard_index(self, dynamic):
        stats = dynamic.stats()
        assert stats["dynamic"] is True
        assert [row["shard"] for row in stats["shards"]] == [0, 1]
        assert "mutations_applied" in stats["aggregate"]

    def test_metric_labels_match_stats_rows(self, dynamic):
        page = dynamic.render_metrics()
        stats = dynamic.stats()
        for row in stats["shards"]:
            assert f'shard="{row["shard"]}"' in page

    def test_handle_request_verbs(self, dynamic):
        assert dynamic.handle_request({"op": "ping"})["ok"]
        reply = dynamic.handle_request(
            {"op": "mutate", "mutations": [{"kind": "remove", "id": 7},
                                           {"kind": "insert", "payload": 7}]}
        )
        assert reply["ok"] and reply["result"]["removed_ids"] == [7]
        sub = dynamic.handle_request(
            {"op": "subscribe", "kind": "knn", "query": 0, "k": 2}
        )
        assert sub["ok"]
        polled = dynamic.handle_request(
            {"op": "deltas", "sub_id": sub["sub_id"], "since": 0}
        )
        assert polled["ok"]
        assert dynamic.handle_request(
            {"op": "unsubscribe", "sub_id": sub["sub_id"]}
        )["ok"]
