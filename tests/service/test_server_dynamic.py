"""JSON-lines protocol tests for the dynamic verbs (insert/remove/subscribe)."""

import pytest

from repro.dynamic import DynamicObjectSet
from repro.service import AsyncProximityServer, ProximityEngine, send_request
from repro.service.server import mutation_from_dict
from repro.spaces.matrix import MatrixSpace, random_metric_matrix


@pytest.fixture
def space(rng):
    return MatrixSpace(random_metric_matrix(20, rng))


@pytest.fixture
def served(space, tmp_path):
    objects = DynamicObjectSet.wrap(space, initial=16)
    engine = ProximityEngine.for_space(objects, provider="tri", job_workers=1)
    sock = str(tmp_path / "dyn.sock")
    with AsyncProximityServer(engine, socket_path=sock):
        yield engine, objects, sock
    engine.close(snapshot=False)


class TestMutationVerbs:
    def test_insert_returns_assigned_id(self, served):
        _, objects, sock = served
        reply = send_request(sock, {"op": "insert", "payload": 16})
        assert reply["ok"]
        assert reply["id"] == 16  # fresh slot appended
        assert objects.payload(16) == 16

    def test_remove_then_recycled_insert(self, served):
        _, objects, sock = served
        assert send_request(sock, {"op": "remove", "id": 3})["ok"]
        assert not objects.is_alive(3)
        reply = send_request(sock, {"op": "insert", "payload": 17})
        assert reply["id"] == 3  # lowest tombstone recycled

    def test_mutate_batch_is_atomic(self, served):
        _, objects, sock = served
        reply = send_request(
            sock,
            {
                "op": "mutate",
                "mutations": [
                    {"kind": "remove", "id": 5},
                    {"kind": "insert", "payload": 18},
                ],
            },
        )
        assert reply["ok"]
        assert reply["result"]["removed_ids"] == [5]
        assert reply["result"]["inserted_ids"] == [5]

    def test_remove_unknown_id_answers_error(self, served):
        _, _, sock = served
        reply = send_request(sock, {"op": "remove", "id": 99})
        assert not reply["ok"]


class TestSubscriptionVerbs:
    def test_subscribe_knn_and_poll_deltas(self, served):
        _, _, sock = served
        sub = send_request(
            sock, {"op": "subscribe", "kind": "knn", "query": 0, "k": 3}
        )
        assert sub["ok"] and sub["kind"] == "knn"
        assert len(sub["result"]["neighbors"]) == 3
        victim = sub["result"]["neighbors"][0][1]
        send_request(sock, {"op": "remove", "id": int(victim)})
        polled = send_request(
            sock, {"op": "deltas", "sub_id": sub["sub_id"], "since": 0}
        )
        assert polled["ok"] and polled["deltas"]
        assert int(victim) in polled["deltas"][-1]["left"]
        assert all(
            int(obj) != int(victim)
            for _, obj in polled["result"]["neighbors"]
        )

    def test_subscribe_knng_rows_cover_live_set(self, served):
        engine, objects, sock = served
        sub = send_request(sock, {"op": "subscribe", "kind": "knng", "k": 2})
        assert sub["ok"]
        rows = sub["result"]["rows"]
        assert sorted(int(u) for u in rows) == objects.alive_ids()

    def test_unsubscribe_stops_tracking(self, served):
        engine, _, sock = served
        sub = send_request(
            sock, {"op": "subscribe", "kind": "knn", "query": 1, "k": 2}
        )
        reply = send_request(sock, {"op": "unsubscribe", "sub_id": sub["sub_id"]})
        assert reply["ok"]
        assert engine.subscriptions.active == 0

    def test_unknown_subscription_kind_answers_error(self, served):
        _, _, sock = served
        reply = send_request(sock, {"op": "subscribe", "kind": "mst"})
        assert not reply["ok"]


class TestMutationFromDict:
    def test_accepts_id_and_obj_id_spellings(self):
        assert mutation_from_dict({"kind": "remove", "id": 4}).obj_id == 4
        assert mutation_from_dict({"kind": "remove", "obj_id": 9}).obj_id == 9

    def test_insert_payload_passthrough(self):
        mut = mutation_from_dict({"kind": "insert", "payload": {"x": 1}})
        assert mut.kind == "insert" and mut.payload == {"x": 1}
