"""Tests for the sharded multi-process engine and its landmark plan."""

import os
import sys
import threading

import pytest

from repro.core.exceptions import ConfigurationError
from repro.datasets.facades import flickr_space
from repro.service import ProximityEngine, ShardedEngine, plan_shards
from repro.service.jobs import JobSpec, JobStatus
from repro.spaces.handles import handle_for

N = 48


@pytest.fixture(scope="module")
def handle():
    return handle_for(flickr_space, n=N, dim=6, seed=11)


@pytest.fixture(scope="module")
def space(handle):
    return handle.space()


@pytest.fixture(scope="module")
def sharded(handle):
    engine = ShardedEngine(handle, num_shards=2, provider="none")
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def reference(space):
    engine = ProximityEngine.for_space(space, provider="none", job_workers=1)
    yield engine
    engine.close(snapshot=False)


class TestShardPlan:
    def test_regions_partition_universe(self, space):
        plan = plan_shards(N, 3, space=space)
        seen = sorted(obj for region in plan.regions for obj in region)
        assert seen == list(range(N))
        for region in plan.regions:
            assert list(region) == sorted(region)  # ascending within a shard

    def test_block_partition_without_space(self):
        plan = plan_shards(10, 3)
        assert [len(r) for r in plan.regions] == [3, 3, 4]
        assert plan.regions[0] == tuple(range(3))

    def test_single_shard_owns_everything(self):
        plan = plan_shards(7, 1)
        assert plan.num_shards == 1
        assert plan.regions[0] == tuple(range(7))

    def test_digest_is_deterministic_and_plan_sensitive(self, space):
        a = plan_shards(N, 2, space=space)
        b = plan_shards(N, 2, space=space)
        c = plan_shards(N, 3, space=space)
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_shard_fingerprint_encodes_position(self, space):
        plan = plan_shards(N, 2, space=space)
        fp = plan.shard_fingerprint("base-fp", 1)
        assert fp == f"base-fp|plan={plan.digest}|shard=1/2"
        assert plan.shard_fingerprint("base-fp", 0) != fp


class TestScatterIdentity:
    @pytest.mark.parametrize("query", [0, 7, 29, N - 1])
    def test_knn_matches_single_engine(self, sharded, reference, query):
        spec = JobSpec(kind="knn", params={"query": query, "k": 5})
        got = sharded.run(spec)
        want = reference.run(spec)
        assert got.status is JobStatus.COMPLETED
        assert got.value == want.value

    def test_range_matches_single_engine(self, sharded, reference, space):
        radius = space.distance(4, 5) * 1.1
        spec = JobSpec(kind="range", params={"query": 4, "radius": radius})
        assert sharded.run(spec).value == reference.run(spec).value

    def test_range_include_query(self, sharded, reference, space):
        radius = space.distance(9, 10) * 1.1
        spec = JobSpec(
            kind="range",
            params={"query": 9, "radius": radius, "include_query": True},
        )
        got = sharded.run(spec).value
        assert 9 in got
        assert got == reference.run(spec).value

    def test_nearest_matches_single_engine(self, sharded, reference):
        spec = JobSpec(kind="nearest", params={"query": 17})
        assert tuple(sharded.run(spec).value) == tuple(reference.run(spec).value)

    def test_explicit_candidates_respected(self, sharded, reference):
        candidates = [1, 3, 20, 30, 41]  # spans both regions
        spec = JobSpec(
            kind="knn", params={"query": 2, "k": 3, "candidates": candidates}
        )
        got = sharded.run(spec)
        assert got.value == reference.run(spec).value
        assert {obj for _, obj in got.value} <= set(candidates)

    def test_repeat_query_is_fully_warm(self, sharded):
        spec = JobSpec(kind="knn", params={"query": 11, "k": 4})
        first = sharded.run(spec)
        again = sharded.run(spec)
        assert again.value == first.value
        # Every pair the first run resolved is in each shard's graph now.
        assert again.charged_calls == 0


class TestGlobalKinds:
    def test_medoid_routes_whole(self, sharded, reference):
        spec = JobSpec(kind="medoid", params={})
        assert sharded.run(spec).value == reference.run(spec).value

    def test_mst_completes(self, sharded):
        result = sharded.run(JobSpec(kind="mst", params={}))
        assert result.status is JobStatus.COMPLETED


class TestCoordinatorSurface:
    def test_stats_shape(self, sharded):
        stats = sharded.stats()
        assert stats["sharded"] is True
        assert len(stats["shards"]) == 2
        assert stats["plan"]["num_shards"] == 2
        assert stats["aggregate"]["graph_edges"] == sum(
            s["graph_edges"] for s in stats["shards"]
        )

    def test_store_accumulates_resolved_edges(self, sharded):
        sharded.run(JobSpec(kind="knn", params={"query": 23, "k": 3}))
        assert sharded.store.num_edges > 0
        # The coordinator dedups: store size never exceeds all pairs.
        assert sharded.store.num_edges <= N * (N - 1) // 2

    def test_metrics_carry_shard_labels(self, sharded):
        text = sharded.render_metrics()
        assert 'shard="0"' in text and 'shard="1"' in text
        assert "repro_router_jobs_total" in text
        # Families merged across pages: one TYPE header per family.
        assert text.count("# TYPE repro_jobs_submitted_total") == 1

    def test_handle_request_matches_server_protocol(self, sharded):
        assert sharded.handle_request({"op": "ping"})["ok"]
        assert sharded.plan.num_shards == 2
        reply = sharded.handle_request(
            {"op": "submit", "spec": {"kind": "knn", "params": {"query": 3, "k": 2}}}
        )
        assert reply["ok"] and reply["result"]["status"] == "completed"
        assert sharded.handle_request({"op": "bogus"})["ok"] is False

    def test_rejects_zero_shards(self, handle):
        with pytest.raises(ConfigurationError):
            ShardedEngine(handle, num_shards=0)


def _substream(spec, region):
    params = dict(spec.params)
    params["candidates"] = list(region)
    return JobSpec(kind=spec.kind, params=params)


class TestPerShardByteIdentity:
    def test_shard_edge_sequences_replay_substream(self, handle, space):
        # Each shard must resolve exactly the edges (in exactly the order)
        # that a single-process engine produces on the same candidate
        # substream when it is seeded with the same store prefix before
        # each job — the acceptance bar for answer/provenance parity.
        # Several jobs, so every shard merges peer rows between them.
        radius = space.distance(4, 5) * 1.1
        workload = [
            JobSpec(kind="knn", params={"query": 5, "k": 4}),
            JobSpec(kind="range", params={"query": 30, "radius": radius}),
            JobSpec(kind="knn", params={"query": 40, "k": 6}),
            JobSpec(kind="nearest", params={"query": 12}),
            JobSpec(kind="knn", params={"query": 5, "k": 8}),
        ]
        engine = ShardedEngine(handle, num_shards=2, provider="tri")
        try:
            prefixes = []
            for spec in workload:
                prefixes.append(engine.store.num_edges)
                engine.run(spec)
            assert prefixes[-1] > 0
            for shard, region in zip(engine._shards, engine.plan.regions):
                rows = engine._call(shard, {"op": "edges", "start": 0})["edges"]
                ref = ProximityEngine.for_space(space, provider="tri", job_workers=1)
                try:
                    merged = 0
                    for spec, prefix in zip(workload, prefixes):
                        ref.adopt_store(engine.store, start=merged, stop=prefix)
                        merged = prefix
                        ref.run(_substream(spec, region))
                    i, j, w = ref.graph.edge_arrays()
                    want = list(zip(i.tolist(), j.tolist(), w.tolist()))
                finally:
                    ref.close(snapshot=False)
                assert [tuple(r) for r in rows] == want
        finally:
            engine.close()


class TestStoreDrain:
    def test_store_holds_exactly_the_charged_edges(self, handle):
        # Replies carry only what a job charged, never merged peer rows,
        # so the store grows by exactly the distinct charged edges.  The
        # jobs run one after another and shards own disjoint candidates,
        # so every charged pair is distinct.
        engine = ShardedEngine(handle, num_shards=2, provider="tri")
        try:
            charged = 0
            for query in (3, 25, 3, 44, 10):
                result = engine.run(JobSpec(kind="knn", params={"query": query, "k": 5}))
                charged += result.charged_calls
            assert charged == engine.store.num_edges
            assert engine.stats()["aggregate"]["oracle_calls"] == charged
            assert engine._m_drained.value == charged
            pairs = [(i, j) for i, j, _ in engine.store.iter_edges()]
            assert len(set(pairs)) == len(pairs)
        finally:
            engine.close()

    def test_peer_rows_spare_the_oracle(self, handle):
        # Query 3 pays (3, c) on every shard; a later query from c in the
        # other region finds (c, 3) merged and pays nothing for it.
        engine = ShardedEngine(handle, num_shards=2, provider="none")
        try:
            engine.run(JobSpec(kind="knn", params={"query": 3, "k": 5}))
            other = next(r for r in engine.plan.regions if 3 not in r)
            spec = JobSpec(
                kind="knn", params={"query": other[0], "k": 1, "candidates": [3]}
            )
            result = engine.run(spec)
            assert result.ok and result.charged_calls == 0
        finally:
            engine.close()


class TestConcurrentScatter:
    def test_more_threads_than_cores_match_single_engine(self, handle, space, reference):
        # Scatters from many client threads interleave their submits and
        # store appends; each shard must still merge only exact rows (a
        # weight conflict would fail the job) and every answer must stay
        # the single engine's.
        radius = space.distance(4, 5) * 1.1
        num_threads = 2 * (os.cpu_count() or 1) + 2
        per_thread = 6
        specs = []
        for idx in range(num_threads * per_thread):
            query = (idx * 7) % N
            kind = ("knn", "range", "nearest")[idx % 3]
            params = {"query": query}
            if kind == "knn":
                params["k"] = 3 + idx % 4
            elif kind == "range":
                params["radius"] = radius
            specs.append(JobSpec(kind=kind, params=params))
        want = [reference.run(spec).value for spec in specs]
        got = [None] * len(specs)
        errors = []
        engine = ShardedEngine(handle, num_shards=2, provider="tri")
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def client(first):
                for idx in range(first, len(specs), num_threads):
                    try:
                        got[idx] = engine.run(specs[idx])
                    except Exception as exc:  # noqa: BLE001 - reported below
                        errors.append(f"{specs[idx]}: {exc}")

            threads = [
                threading.Thread(target=client, args=(t,), daemon=True)
                for t in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "client thread hung"
        finally:
            sys.setswitchinterval(previous)
            engine.close()
        assert errors == []
        for spec, result, expected in zip(specs, got, want):
            assert result.status is JobStatus.COMPLETED
            if spec.kind == "nearest":
                assert tuple(result.value) == tuple(expected)
            else:
                assert result.value == expected


class TestSnapshotRestore:
    def test_round_trip_with_per_shard_fingerprints(self, handle, tmp_path):
        base = str(tmp_path / "warm")
        first = ShardedEngine(handle, num_shards=2, provider="none")
        try:
            first.run(JobSpec(kind="knn", params={"query": 2, "k": 4}))
            first.run(JobSpec(kind="nearest", params={"query": 40}))
            edges_before = first.stats()["aggregate"]["graph_edges"]
            store_edges = first.store.num_edges
            paths = first.snapshot(base)
            assert os.path.exists(paths["store"])
            assert len(paths["shards"]) == 2
        finally:
            first.close()
        assert edges_before > 0

        second = ShardedEngine(handle, num_shards=2, provider="none")
        try:
            added = second.restore(base)
            assert added == edges_before
            assert second.stats()["aggregate"]["graph_edges"] == edges_before
            # Shard graphs overlap once they merge peer rows, so the store
            # (their deduplicated union) matches the first engine's store.
            assert second.store.num_edges == store_edges
        finally:
            second.close()

    def test_restore_rejects_swapped_shard_archives(self, handle, tmp_path):
        # Shard archives carry per-shard fingerprints (dataset + plan digest
        # + position); feeding shard 1's archive to shard 0 must fail.
        base = str(tmp_path / "warm")
        engine = ShardedEngine(handle, num_shards=2, provider="none")
        try:
            engine.run(JobSpec(kind="knn", params={"query": 2, "k": 4}))
            engine.snapshot(base)
            p0, p1 = engine.shard_snapshot_paths(base)
            os.rename(p0, p0 + ".tmp")
            os.rename(p1, p0)
            os.rename(p0 + ".tmp", p1)
            with pytest.raises(RuntimeError, match="[Ss]napshot[Mm]ismatch"):
                engine.restore(base)
        finally:
            engine.close()

    def test_warm_from_attaches_store_archive(self, handle, tmp_path):
        base = str(tmp_path / "warm")
        first = ShardedEngine(handle, num_shards=2, provider="none")
        try:
            first.run(JobSpec(kind="knn", params={"query": 2, "k": 4}))
            first.snapshot(base)
            edges = first.store.num_edges
        finally:
            first.close()
        warmed = ShardedEngine(
            handle, num_shards=2, provider="none", warm_from=f"{base}.store.npz"
        )
        try:
            assert warmed.store.num_edges == edges
            # Warm edges pre-seed every shard: re-running the same query
            # must charge nothing new.
            result = warmed.run(JobSpec(kind="knn", params={"query": 2, "k": 4}))
            assert result.charged_calls == 0
        finally:
            warmed.close()
