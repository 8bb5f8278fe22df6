"""``repro.serve``: the reliability engine as a long-running query daemon.

The batch CLI answers a scenario file and exits, taking its warm caches
with it.  This package keeps one :class:`~repro.engine.ReliabilityEngine`
resident behind a small stdlib-asyncio HTTP front end:

* ``POST /v1/query`` — a ``Query``/``QuerySet`` JSON document; add
  ``?stream=1`` for chunked JSON-lines progress (one line per answer as
  it completes).
* ``GET /healthz`` — liveness, uptime and peak resident set size.
* ``GET /metrics`` — request/latency/coalescing counters plus the engine
  cache and campaign-degradation aggregates.

In-flight queries with one memo key coalesce into a single execution
(:class:`InflightRegistry`), campaigns run under the supervised runtime
(per-shard timeouts, retries, degradation), and with a checkpoint
directory configured a daemon restart resumes interrupted campaigns
bit-identically.  Start it with ``repro-analyze serve`` or embed
:class:`BackgroundServer` in tests and benchmarks.
"""

from repro.serve.coalesce import InflightRegistry
from repro.serve.daemon import (
    BackgroundServer,
    ReliabilityService,
    ServiceConfig,
    serve_forever,
)
from repro.serve.http import HttpError, HttpRequest
from repro.serve.metrics import ServiceMetrics

__all__ = [
    "BackgroundServer",
    "HttpError",
    "HttpRequest",
    "InflightRegistry",
    "ReliabilityService",
    "ServiceConfig",
    "ServiceMetrics",
    "serve_forever",
]
