"""Tests for the asyncio front-end on Unix and TCP transports."""

import json
import os
import socket

import pytest

from repro.service import AsyncProximityServer, ProximityEngine, send_request
from repro.service.aserver import MAX_LINE_BYTES
from repro.service.server import parse_target
from repro.spaces.matrix import MatrixSpace, random_metric_matrix


@pytest.fixture
def engine(rng):
    built = ProximityEngine.for_space(
        MatrixSpace(random_metric_matrix(20, rng)), provider="tri", job_workers=2
    )
    yield built
    built.close(snapshot=False)


@pytest.fixture
def served(engine, tmp_path):
    sock = str(tmp_path / "aserve.sock")
    with AsyncProximityServer(engine, socket_path=sock, port=0) as server:
        yield server, sock


class TestParseTarget:
    def test_host_port(self):
        assert parse_target("example.org:9000") == ("tcp", ("example.org", 9000))

    def test_bare_port_means_localhost(self):
        assert parse_target(":9000") == ("tcp", ("127.0.0.1", 9000))

    def test_paths_are_unix(self):
        assert parse_target("/tmp/engine.sock") == ("unix", "/tmp/engine.sock")
        # Even with a colon in the name: a path containing "/" stays unix.
        assert parse_target("/tmp/a:b.sock") == ("unix", "/tmp/a:b.sock")

    def test_non_numeric_port_is_a_path(self):
        assert parse_target("engine.sock:main") == ("unix", "engine.sock:main")


class TestTransports:
    def test_requires_some_transport(self, engine):
        with pytest.raises(ValueError):
            AsyncProximityServer(engine)

    def test_ephemeral_port_is_reported(self, served):
        server, _ = served
        assert server.port not in (None, 0)

    def test_ping_over_unix(self, served):
        _, sock = served
        assert send_request(sock, {"op": "ping"}) == {"ok": True, "op": "ping"}

    def test_ping_over_tcp(self, served):
        server, _ = served
        reply = send_request(f"127.0.0.1:{server.port}", {"op": "ping"})
        assert reply == {"ok": True, "op": "ping"}

    def test_submit_identical_on_both_transports(self, served):
        server, sock = served
        request = {
            "op": "submit",
            "spec": {"kind": "knn", "params": {"query": 2, "k": 3}},
        }
        over_unix = send_request(sock, request)["result"]["value"]
        over_tcp = send_request(f"127.0.0.1:{server.port}", request)["result"]["value"]
        assert over_unix == over_tcp

    def test_many_requests_per_connection(self, served):
        server, _ = served
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as c:
            stream = c.makefile("rwb")
            for _ in range(3):
                stream.write((json.dumps({"op": "ping"}) + "\n").encode())
                stream.flush()
                assert json.loads(stream.readline())["ok"]

    def test_socket_file_removed_on_close(self, engine, tmp_path):
        sock = str(tmp_path / "gone.sock")
        with AsyncProximityServer(engine, socket_path=sock):
            assert os.path.exists(sock)
        assert not os.path.exists(sock)

    def test_bind_conflict_raises_in_caller(self, engine):
        first = AsyncProximityServer(engine, port=0).start()
        try:
            with pytest.raises(OSError):
                AsyncProximityServer(engine, port=first.port).start()
        finally:
            first.close()


class TestProtocolErrors:
    def test_unknown_op(self, served):
        _, sock = served
        reply = send_request(sock, {"op": "frobnicate"})
        assert reply["ok"] is False

    def test_malformed_json_answers_error(self, served):
        server, _ = served
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as c:
            c.sendall(b"{not json}\n")
            reply = json.loads(c.makefile("rb").readline())
        assert reply["ok"] is False
        assert "JSONDecodeError" in reply["error"]

    def test_handler_exception_answers_error(self, served):
        _, sock = served
        # A submit spec without a kind raises inside the backend; the
        # connection must answer with ok=False rather than reset.
        reply = send_request(sock, {"op": "submit", "spec": {}})
        assert reply["ok"] is False
        assert "KeyError" in reply["error"]


class TestLongLines:
    def test_accepts_a_million_candidate_submit(self, served):
        _, sock = served
        # As long as a submit naming every object of a Flickr1M-scale
        # dataset, far past asyncio's default 64 KiB line limit.
        submit = {"op": "submit", "spec": {"kind": "knn", "params": {
            "query": 0, "k": 5, "candidates": list(range(1_000_000))}}}
        pad = "x" * len(json.dumps(submit))
        assert len(pad) < MAX_LINE_BYTES
        reply = send_request(sock, {"op": "ping", "pad": pad})
        assert reply == {"ok": True, "op": "ping"}

    def test_over_limit_answers_error_then_closes(self, served):
        _, sock = served
        line = json.dumps({"op": "ping", "pad": "x" * MAX_LINE_BYTES}) + "\n"
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.settimeout(30)
            client.connect(sock)
            client.sendall(line.encode())
            stream = client.makefile("rb")
            reply = json.loads(stream.readline())
            assert stream.readline() == b""  # the server closed the connection
        assert reply["ok"] is False
        assert "longer than" in reply["error"]
        # The server itself is unharmed.
        assert send_request(sock, {"op": "ping"})["ok"]


def _http_get(port, path, method="GET"):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as c:
        c.sendall(
            f"{method} {path} HTTP/1.0\r\nHost: localhost\r\n\r\n".encode()
        )
        payload = b""
        while True:
            chunk = c.recv(65536)
            if not chunk:
                break
            payload += chunk
    head, _, body = payload.partition(b"\r\n\r\n")
    return head.decode(), body.decode()


class TestHttpMetrics:
    def test_get_metrics(self, served):
        server, _ = served
        head, body = _http_get(server.port, "/metrics")
        assert "200 OK" in head
        assert "repro_jobs_submitted_total" in body

    def test_head_metrics_has_no_body(self, served):
        server, _ = served
        head, body = _http_get(server.port, "/metrics", method="HEAD")
        assert "200 OK" in head
        assert body == ""

    def test_unknown_path_404(self, served):
        server, _ = served
        head, _ = _http_get(server.port, "/nope")
        assert "404" in head
