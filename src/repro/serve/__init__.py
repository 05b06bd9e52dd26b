"""Availability-as-a-service: the long-lived query layer.

The batch experiments answer the paper's headline question — how
available is a timeline when instances fail — by rebuilding the whole
pipeline per invocation.  This package keeps the answer warm instead:
:class:`AvailabilityService` opens a columnar corpus (and optionally its
follower-graph store) read-only via memory-mapped shards, performs the
expensive one-time build exactly once (intern tables, per-strategy
:class:`~repro.engine.placement.PlacementArrays`, per-(strategy ×
failure) loss tables through the same streaming reduction the batch
sweeps use, kept as one kill step per toot), and then answers
per-user / per-instance / timeline availability queries at interactive
latency — bit-identical to the equivalent batch sweep.

Three exposures share one service object:

* the Python API (:class:`AvailabilityService`);
* a stdlib :class:`~http.server.ThreadingHTTPServer` JSON endpoint
  (:func:`serve_http`, behind ``repro-mastodon serve``);
* a line-oriented stdin/stdout query mode for scripts
  (:func:`serve_stdio`).
"""

from repro.serve.service import AvailabilityService, handle_query, parse_strategy
from repro.serve.http import build_http_server, serve_http
from repro.serve.stdio import serve_stdio

__all__ = [
    "AvailabilityService",
    "build_http_server",
    "handle_query",
    "parse_strategy",
    "serve_http",
    "serve_stdio",
]
