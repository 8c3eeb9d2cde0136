"""Unit tests for the Unix-socket server and its JSON-lines protocol."""

import json
import socket

import pytest

from repro.service import AsyncProximityServer, ProximityEngine, send_request
from repro.service.server import jsonable, result_to_dict, spec_from_dict
from repro.service.jobs import JobResult, JobStatus
from repro.spaces.matrix import MatrixSpace, random_metric_matrix


@pytest.fixture
def space(rng):
    return MatrixSpace(random_metric_matrix(20, rng))


@pytest.fixture
def served(space, tmp_path):
    engine = ProximityEngine.for_space(space, provider="tri", job_workers=2)
    sock = str(tmp_path / "engine.sock")
    with AsyncProximityServer(engine, socket_path=sock) as server:
        yield engine, server, sock
    engine.close(snapshot=False)


class TestProtocol:
    def test_ping(self, served):
        _, _, sock = served
        assert send_request(sock, {"op": "ping"}) == {"ok": True, "op": "ping"}

    def test_submit_round_trip(self, served, space):
        engine, _, sock = served
        response = send_request(
            sock,
            {"op": "submit", "spec": {"kind": "knn", "params": {"query": 2, "k": 3}}},
        )
        assert response["ok"]
        assert response["result"]["status"] == "completed"
        assert len(response["result"]["value"]) == 3
        # The engine really warmed up from the socket-submitted job.
        assert engine.graph.num_edges > 0

    def test_stats(self, served):
        _, _, sock = served
        response = send_request(sock, {"op": "stats"})
        assert response["ok"]
        assert "oracle_calls" in response["stats"]
        assert "resolver" in response["stats"]

    def test_snapshot_op(self, served, tmp_path):
        _, _, sock = served
        target = str(tmp_path / "via-socket.npz")
        send_request(
            sock, {"op": "submit", "spec": {"kind": "nearest", "params": {"query": 0}}}
        )
        response = send_request(sock, {"op": "snapshot", "path": target})
        assert response["ok"]
        assert response["path"] == target

    def test_unknown_op(self, served):
        _, _, sock = served
        response = send_request(sock, {"op": "fly"})
        assert not response["ok"]
        assert "unknown op" in response["error"]

    def test_invalid_spec_answers_instead_of_crashing(self, served):
        _, _, sock = served
        response = send_request(sock, {"op": "submit", "spec": {"kind": "teleport"}})
        assert not response["ok"]
        assert "unknown job kind" in response["error"]

    def test_malformed_json_answers_error(self, served):
        _, _, sock_path = served
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.settimeout(10)
            client.connect(sock_path)
            client.sendall(b"this is not json\n")
            line = client.makefile().readline()
        response = json.loads(line)
        assert not response["ok"]

    def test_many_requests_one_connection(self, served):
        _, _, sock_path = served
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.settimeout(10)
            client.connect(sock_path)
            stream = client.makefile("rwb")
            for _ in range(3):
                stream.write(b'{"op": "ping"}\n')
                stream.flush()
                assert json.loads(stream.readline())["ok"]


class TestSerialisation:
    def test_jsonable_handles_result_shapes(self):
        from repro.algorithms.base import MstResult

        mst = MstResult(edges=((0, 1, 0.5),), total_weight=0.5)
        data = jsonable(mst)
        assert data["total_weight"] == 0.5
        assert data["edges"] == [[0, 1, 0.5]]
        assert jsonable({(0, 1): 2.0}) == {"(0, 1)": 2.0}
        assert jsonable(None) is None
        json.dumps(jsonable(object()))  # falls back to repr, stays encodable

    def test_result_to_dict(self):
        result = JobResult(
            status=JobStatus.PARTIAL,
            unresolved=((0, 3), (1, 2)),
            charged_calls=7,
            error="budget",
        )
        data = result_to_dict(result)
        assert data["status"] == "partial"
        assert data["unresolved"] == [[0, 3], [1, 2]]
        assert data["charged_calls"] == 7
        json.dumps(data)

    def test_spec_from_dict_defaults(self):
        spec = spec_from_dict({"kind": "mst"})
        assert spec.kind == "mst"
        assert spec.priority == 0
        spec = spec_from_dict(
            {"kind": "knn", "params": {"query": 1, "k": 2}, "oracle_budget": 5}
        )
        assert spec.oracle_budget == 5
