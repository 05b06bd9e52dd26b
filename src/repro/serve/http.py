"""The JSON-over-HTTP transport: a stdlib ``ThreadingHTTPServer``.

Endpoints map one-to-one onto :func:`~repro.serve.service.handle_query`
verbs — ``/availability``, ``/timeline``, ``/best_placement``, ``/meta``,
``/stats`` — plus ``/health`` for liveness probes and ``/metrics`` for
Prometheus text exposition.  Query parameters are the query grammar
verbatim (``?user=…&strategy=s-rep&k=10``).  Bad input is a 400 with an
``{"error": …}`` body, an unknown path a 404; nothing raises through the
server loop.

Every request is recorded into the process-wide metrics registry
(:func:`repro.obs.metrics`) regardless of whether ``--metrics`` was
passed, so ``GET /metrics`` always tells the truth about this server:
``repro_serve_requests_total{endpoint,status}`` and the
``repro_serve_request_seconds{endpoint}`` latency histogram.  Both are
recorded before the reply is written, so the latency runs from request
parse to the start of the reply, and a client that has its answer
always finds its request counted.

Threading matters here: each connection gets a thread of its own, so a
slow client or a query waiting on a one-time build never holds up
another request, ``/health`` included.  A connection that sends nothing
for :data:`READ_TIMEOUT_S` is dropped, so silent clients do not pile up
threads.  The handler threads all call into one shared
:class:`~repro.serve.service.AvailabilityService`, whose one-time
builds are lock-serialised and whose queries are read-only afterwards —
concurrent requests get bit-identical answers to serial ones.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro import obs
from repro.errors import ReproError
from repro.serve.service import AvailabilityService, handle_query

#: Seconds a connection may stay silent before its thread drops it.
READ_TIMEOUT_S = 5.0

#: URL path -> query verb.
_ROUTES = {
    "/availability": "availability",
    "/timeline": "timeline",
    "/best_placement": "best_placement",
    "/meta": "meta",
    "/stats": "stats",
}


def _answer(
    service: AvailabilityService, path: str, query: str
) -> tuple[int, bytes, str]:
    """``(status, body, content type)`` of one GET, nothing written yet."""
    if path == "/metrics":
        body = obs.metrics().render_prometheus().encode("utf-8")
        return 200, body, "text/plain; version=0.0.4; charset=utf-8"
    if path == "/health":
        status, payload = 200, {"status": "ok"}
    elif path not in _ROUTES:
        status, payload = 404, {
            "error": f"unknown endpoint {path!r}",
            "endpoints": sorted(_ROUTES) + ["/health", "/metrics"],
        }
    else:
        verb, params = _ROUTES[path], dict(parse_qsl(query))
        try:
            status, payload = 200, handle_query(service, verb, params)
        except ReproError as exc:
            status, payload = 400, {"error": str(exc)}
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return status, body, "application/json"


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # the stdlib's backlog of 5 drops the handshakes of a burst of
    # connects, and each dropped client waits out a 1 s SYN retransmit
    request_queue_size = 128


def build_http_server(
    service: AvailabilityService, host: str = "127.0.0.1", port: int = 8015
) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` HTTP server bound to ``host:port``.

    Split from :func:`serve_http` so tests (and embedders) can bind port
    0, read back ``server.server_address``, and drive the server from
    their own thread.
    """

    class Handler(BaseHTTPRequestHandler):
        timeout = READ_TIMEOUT_S

        def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            parsed = urlsplit(self.path)
            path = parsed.path.rstrip("/") or "/"
            started = time.perf_counter()
            status, body, content_type = _answer(service, path, parsed.query)
            # counted before the reply is written: a client holding its
            # answer always finds its own request in the metrics
            registry = obs.metrics()
            registry.observe(
                "repro_serve_request_seconds",
                time.perf_counter() - started,
                endpoint=path,
            )
            registry.inc("repro_serve_requests_total", endpoint=path, status=str(status))
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args) -> None:  # silence per-request stderr noise
            pass

    return _Server((host, port), Handler)


def serve_http(
    service: AvailabilityService, host: str = "127.0.0.1", port: int = 8015
) -> None:
    """Announce the bound address and serve until interrupted."""
    server = build_http_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"serving availability queries on http://{bound_host}:{bound_port}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
