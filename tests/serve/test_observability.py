"""The serve layer's observability surface: /metrics, stats, meta extras.

Serve-side recording is deliberately unconditional — the HTTP handler
and the one-time builds write straight into the process-wide registry
(:func:`repro.obs.metrics`) whether or not ``--metrics`` was passed —
so ``GET /metrics`` always describes the server actually running.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import obs
from repro.serve import AvailabilityService, build_http_server, handle_query, serve_stdio


@pytest.fixture()
def http_base(service):
    """A live threaded server on an ephemeral port, torn down after."""
    server = build_http_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def get_raw(base: str, path: str, **params) -> tuple[int, str, str]:
    url = base + path
    if params:
        url += "?" + urllib.parse.urlencode(params)
    with urllib.request.urlopen(url, timeout=30) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


class TestMetricsEndpoint:
    def test_metrics_is_prometheus_text(self, service, http_base):
        obs.metrics().reset()
        user = str(service.corpus.authors.tolist()[0])
        get_raw(http_base, "/availability", user=user, k=3)
        get_raw(http_base, "/health")
        status, content_type, body = get_raw(http_base, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "# TYPE repro_serve_requests_total counter" in body
        assert 'repro_serve_requests_total{endpoint="/availability",status="200"} 1' in body
        assert 'repro_serve_requests_total{endpoint="/health",status="200"} 1' in body
        assert "# TYPE repro_serve_request_seconds histogram" in body
        assert 'repro_serve_request_seconds_bucket{endpoint="/availability",le="+Inf"} 1' in body
        assert 'repro_serve_request_seconds_count{endpoint="/availability"} 1' in body

    def test_errors_recorded_under_their_status(self, http_base):
        obs.metrics().reset()
        try:
            get_raw(http_base, "/availability", k="ten")
        except urllib.error.HTTPError:
            pass
        try:
            get_raw(http_base, "/nowhere")
        except urllib.error.HTTPError:
            pass
        registry = obs.metrics()
        assert registry.counter_value(
            "repro_serve_requests_total", endpoint="/availability", status="400"
        ) == 1
        assert registry.counter_value(
            "repro_serve_requests_total", endpoint="/nowhere", status="404"
        ) == 1

    def test_metrics_itself_is_not_a_json_verb(self, http_base):
        # /metrics bypasses handle_query entirely; the JSON 404 payload
        # still advertises it
        status, _, body = get_raw(http_base, "/metrics")
        assert status == 200
        assert not body.startswith("{")


class TestCountedBeforeReply:
    """A client holding its answer must find its request already counted."""

    REQUESTS = 400
    TIME_LIMIT_S = 20.0

    def test_counter_never_lags_the_reply(self, http_base):
        registry = obs.metrics()
        registry.reset()
        switch_interval = sys.getswitchinterval()
        # force thread switches often, so a count recorded after the reply
        # is written loses the race to this thread's read of the counter
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + self.TIME_LIMIT_S
            for sent in range(1, self.REQUESTS + 1):
                assert get_raw(http_base, "/health")[0] == 200
                counted = registry.counter_value(
                    "repro_serve_requests_total", endpoint="/health", status="200"
                )
                assert counted == sent, f"request {sent} read a count of {counted}"
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(switch_interval)


class TestStatsVerb:
    def test_stats_over_http(self, service, http_base):
        service.warm(["no-rep"])
        status, content_type, body = get_raw(http_base, "/stats")
        assert status == 200
        assert content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["build_counters"]["strategies_built"] >= 1
        assert payload["uptime_seconds"] >= 0
        assert isinstance(payload["metrics"], dict)

    def test_stats_over_stdio(self, service):
        out = io.StringIO()
        serve_stdio(service, in_stream=io.StringIO("stats\n"), out_stream=out)
        payload = json.loads(out.getvalue().splitlines()[0])
        assert set(payload) == {"build_counters", "uptime_seconds", "metrics"}
        assert set(payload["build_counters"]) == {
            "strategies_built", "loss_tables_built", "row_indexes_built",
        }

    def test_stats_rejects_parameters(self, service):
        out = io.StringIO()
        serve_stdio(service, in_stream=io.StringIO("stats k=1\n"), out_stream=out)
        payload = json.loads(out.getvalue().splitlines()[0])
        assert "unknown parameters" in payload["error"]

    def test_stats_sees_build_timings(self, serve_corpus_dir):
        obs.metrics().reset()
        cold = AvailabilityService(serve_corpus_dir, mmap=True)
        cold.curve("no-rep", "instances/by_toots")
        payload = handle_query(cold, "stats", {})
        histograms = payload["metrics"]["histograms"]
        assert histograms['repro_serve_build_seconds{kind="strategy"}']["count"] == 1
        assert histograms['repro_serve_build_seconds{kind="loss_table"}']["count"] == 1


class TestMetaExtras:
    def test_meta_reports_builds_and_uptime(self, service):
        service.warm(["no-rep"])
        meta = service.meta()
        assert meta["build_counters"]["strategies_built"] >= 1
        assert meta["build_counters"]["row_indexes_built"] >= 1
        assert meta["uptime_seconds"] >= 0
        # the snapshot is a copy, not a live view
        meta["build_counters"]["strategies_built"] = -1
        assert service.build_counters["strategies_built"] >= 1
