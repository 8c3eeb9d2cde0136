"""The engine/server metrics surface must reconcile exactly with EngineStats.

Three layers are pinned here:

* the registry totals equal the engine's own accounting after a concurrent
  soak (no lost updates, no double counts),
* the ``{"op": "metrics"}`` socket verb returns the same exposition text as
  ``engine.render_metrics()``, and
* a raw HTTP ``GET /metrics`` over the Unix socket answers 200 with a
  parseable Prometheus body whose samples match the stats op.
"""

import socket
import threading

import pytest

from repro.obs import MetricsRegistry, registry_totals
from repro.service import (
    AsyncProximityServer,
    JobSpec,
    ProximityEngine,
    send_request,
)
from repro.spaces.matrix import MatrixSpace, random_metric_matrix


@pytest.fixture
def space(rng):
    return MatrixSpace(random_metric_matrix(24, rng))


@pytest.fixture
def engine(space):
    eng = ProximityEngine.for_space(space, provider="tri", job_workers=3)
    yield eng
    eng.close(snapshot=False)


def parse_prometheus(text):
    """Parse exposition text into ``{sample_name{labels}: float}``."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, raw = line.rpartition(" ")
        out[name] = float("inf") if raw == "+Inf" else float(raw)
    return out


def soak(engine, jobs_per_thread=4, threads=3):
    """Submit a mixed workload from several threads and wait it out."""
    handles = []
    lock = threading.Lock()

    def work(tid):
        for k in range(jobs_per_thread):
            if k % 2 == 0:
                job = engine.submit_job("knn", query=(tid * 5 + k) % 24, k=3)
            else:
                job = engine.submit_job("nearest", query=(tid * 7 + k) % 24)
            with lock:
                handles.append(job)

    pool = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    for job in handles:
        job.result(timeout=30)
    return handles


class TestRegistryReconciliation:
    def test_soak_totals_match_engine_stats(self, engine):
        handles = soak(engine)
        stats = engine.snapshot_stats()
        snap = engine.registry.snapshot()

        assert snap["repro_oracle_calls_total"] == stats.oracle_calls
        assert snap["repro_jobs_submitted_total"] == len(handles)
        assert snap["repro_jobs_submitted_total"] == stats.jobs_submitted
        assert snap['repro_jobs_total{status="completed"}'] == stats.jobs_completed
        assert (
            registry_totals(snap, "repro_jobs_total")
            == stats.jobs_completed
            + stats.jobs_partial
            + stats.jobs_failed
            + stats.jobs_cancelled
            + stats.jobs_expired
        )
        assert snap["repro_job_latency_seconds_count"] == stats.jobs_completed
        assert snap["repro_warm_resolutions_total"] == stats.warm_resolutions
        assert snap["repro_resolver_memo_hits_total"] == stats.bound_cache_hits
        assert snap["repro_queue_depth"] == stats.queue_depth == 0
        assert snap["repro_graph_edges"] == stats.graph_edges

    def test_merged_resolver_stats_equal_registry_view(self, engine):
        soak(engine)
        resolver = engine.snapshot_stats().resolver
        snap = engine.registry.snapshot()
        assert (
            registry_totals(snap, "repro_resolver_comparisons_total")
            == resolver.decided_by_bounds + resolver.decided_by_oracle
        )
        assert snap["repro_resolver_resolutions_total"] == resolver.resolutions
        assert (
            snap["repro_resolver_oracle_resolutions_total"]
            == resolver.oracle_resolutions
        )
        assert (
            snap["repro_resolver_cached_resolutions_total"]
            == resolver.cached_resolutions
        )
        assert snap["repro_resolver_dijkstra_runs_total"] == resolver.dijkstra_runs

    def test_fresh_engine_exposes_documented_names_at_zero(self, engine):
        snap = engine.registry.snapshot()
        assert snap["repro_resolver_memo_hits_total"] == 0
        assert snap["repro_oracle_calls_total"] == engine.snapshot_stats().oracle_calls
        assert snap["repro_job_latency_seconds_count"] == 0
        assert snap["repro_jobs_submitted_total"] == 0

    def test_span_histogram_records_job_phases(self, engine):
        engine.run(JobSpec(kind="knn", params={"query": 1, "k": 3}), timeout=30)
        hist = engine.registry.get("repro_job_phase_seconds")
        assert hist is not None
        assert hist.labels(span="knn").count == 1

    def test_injected_registry_is_used(self, space):
        registry = MetricsRegistry()
        eng = ProximityEngine.for_space(
            space, provider="tri", job_workers=1, registry=registry
        )
        try:
            assert eng.registry is registry
            eng.run(JobSpec(kind="nearest", params={"query": 0}), timeout=30)
            assert registry.snapshot()["repro_jobs_submitted_total"] == 1
        finally:
            eng.close(snapshot=False)


class TestMetricsOp:
    def test_metrics_op_returns_exposition_text(self, engine, tmp_path):
        sock = str(tmp_path / "engine.sock")
        with AsyncProximityServer(engine, socket_path=sock):
            engine.run(JobSpec(kind="knn", params={"query": 0, "k": 3}), timeout=30)
            response = send_request(sock, {"op": "metrics"})
        assert response["ok"]
        parsed = parse_prometheus(response["metrics"])
        assert "repro_oracle_calls_total" in parsed
        assert "repro_resolver_memo_hits_total" in parsed
        assert 'repro_jobs_total{status="completed"}' in parsed

    def test_render_metrics_matches_stats_op(self, engine, tmp_path):
        sock = str(tmp_path / "engine.sock")
        with AsyncProximityServer(engine, socket_path=sock):
            engine.run(JobSpec(kind="mst", params={}), timeout=60)
            stats = send_request(sock, {"op": "stats"})["stats"]
            parsed = parse_prometheus(send_request(sock, {"op": "metrics"})["metrics"])
        assert parsed["repro_oracle_calls_total"] == stats["oracle_calls"]
        assert parsed["repro_jobs_submitted_total"] == stats["jobs_submitted"]
        assert (
            parsed["repro_resolver_memo_hits_total"] == stats["bound_cache_hits"]
        )


class TestHttpScrape:
    def http_get(self, sock_path, target, method="GET"):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.settimeout(10)
            client.connect(sock_path)
            request = f"{method} {target} HTTP/1.1\r\nHost: localhost\r\n\r\n"
            client.sendall(request.encode("ascii"))
            chunks = []
            while True:
                chunk = client.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        raw = b"".join(chunks).decode("utf-8")
        head, _, body = raw.partition("\r\n\r\n")
        status_line, _, header_text = head.partition("\r\n")
        headers = {}
        for line in header_text.split("\r\n"):
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        return status_line, headers, body

    def test_get_metrics_returns_prometheus_text(self, engine, tmp_path):
        sock = str(tmp_path / "engine.sock")
        with AsyncProximityServer(engine, socket_path=sock):
            engine.run(JobSpec(kind="knn", params={"query": 2, "k": 3}), timeout=30)
            status, headers, body = self.http_get(sock, "/metrics")
        assert status.startswith("HTTP/1.0 200")
        assert headers["content-type"].startswith("text/plain")
        assert int(headers["content-length"]) == len(body.encode("utf-8"))
        parsed = parse_prometheus(body)
        assert parsed["repro_oracle_calls_total"] > 0
        assert "repro_resolver_memo_hits_total" in parsed
        assert 'repro_job_latency_seconds_bucket{le="+Inf"}' in parsed

    def test_http_body_reconciles_with_engine_stats(self, engine, tmp_path):
        sock = str(tmp_path / "engine.sock")
        with AsyncProximityServer(engine, socket_path=sock):
            soak(engine, jobs_per_thread=2, threads=2)
            status, _, body = self.http_get(sock, "/metrics")
            stats = engine.snapshot_stats()
        assert status.startswith("HTTP/1.0 200")
        parsed = parse_prometheus(body)
        assert parsed["repro_oracle_calls_total"] == stats.oracle_calls
        assert parsed["repro_jobs_submitted_total"] == stats.jobs_submitted
        assert (
            parsed['repro_job_latency_seconds_bucket{le="+Inf"}']
            == stats.jobs_completed
        )

    def test_head_metrics_has_no_body(self, engine, tmp_path):
        sock = str(tmp_path / "engine.sock")
        with AsyncProximityServer(engine, socket_path=sock):
            status, headers, body = self.http_get(sock, "/metrics", method="HEAD")
        assert status.startswith("HTTP/1.0 200")
        assert int(headers["content-length"]) > 0
        assert body == ""

    def test_unknown_path_is_404(self, engine, tmp_path):
        sock = str(tmp_path / "engine.sock")
        with AsyncProximityServer(engine, socket_path=sock):
            status, _, _ = self.http_get(sock, "/nope")
        assert status.startswith("HTTP/1.0 404")

    def test_json_protocol_still_works_alongside_http(self, engine, tmp_path):
        sock = str(tmp_path / "engine.sock")
        with AsyncProximityServer(engine, socket_path=sock):
            self.http_get(sock, "/metrics")
            assert send_request(sock, {"op": "ping"})["ok"]
