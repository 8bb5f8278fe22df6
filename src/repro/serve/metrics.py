"""Thread-safe service counters behind ``GET /metrics``.

The daemon's answer path runs on executor threads while the HTTP loop
runs on the event-loop thread, so every counter update and the snapshot
read take one lock — the same discipline the engine memo now follows.

Latency keeps **per-route** bounded reservoirs (most recent ``reservoir``
requests each) from which the snapshot derives nearest-rank percentiles.
Routes and methods outside the daemon's own (``/v1/query``, ``/healthz``,
``/metrics``; ``GET``, ``POST``) are counted as ``other``, so hostile
paths and methods share one bucket instead of each growing state.  The
headline ``latency_seconds`` summary covers only ``/v1/query``, so
load-balancer ``/healthz`` and ``/metrics`` polls can never mask real
query latency; every route's own summary appears under
``latency_by_route``.  Query execution times additionally feed fixed
Prometheus-style histograms per query kind (``query_latency_by_kind``).

Everything else is plain monotonic counters, including the campaign
aggregates lifted from answer :class:`~repro.engine.result.Provenance`
(shard counts, degradation, cache hits) — the service-level view of the
supervised runtime's :class:`~repro.runtime.RunReport` outcomes.

:func:`render_prometheus` turns one snapshot into the Prometheus text
exposition format for ``GET /metrics?format=prometheus``.
"""

from __future__ import annotations

import math
import resource
import sys
import threading
from collections import deque

#: Percentiles reported for request latency, as (label, fraction).
_PERCENTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))

#: Upper bounds (seconds) of the per-kind latency histogram buckets; a
#: +Inf bucket is implicit.  Spans 5 ms health-check noise to minute-long
#: campaigns.
HISTOGRAM_BUCKETS = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

#: The daemon's routes and methods.  Anything else (scanners, typos, a
#: made-up method) counts as ``other``, so arbitrary requests cannot grow
#: the response counters or the latency reservoirs.
_ROUTES = frozenset(("/v1/query", "/healthz", "/metrics"))
_METHODS = frozenset(("GET", "POST"))
_OTHER = "other"


def process_max_rss_bytes() -> int:
    """Peak resident set size of this process so far, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


class ServiceMetrics:
    """Counters + latency reservoirs for one daemon process."""

    def __init__(self, *, reservoir: int = 4096):
        self._lock = threading.Lock()
        self._reservoir = max(1, reservoir)
        self._latencies: dict[str, deque[float]] = {}  # route -> recent seconds
        self._responses: dict[str, int] = {}  # "METHOD path -> status" counts
        # kind -> [bucket counts..., +Inf count] alongside sum/count.
        self._kind_buckets: dict[str, list[int]] = {}
        self._kind_sum: dict[str, float] = {}
        self._kind_count: dict[str, int] = {}
        self.requests_total = 0
        self.queries_total = 0
        self.answers_total = 0
        #: Queries served by joining an identical in-flight execution
        #: instead of starting their own (the single-flight proof).
        self.coalesced_total = 0
        #: Memo misses computed on the event loop (bounded analytic rows)
        #: instead of on the request pool.
        self.inline_total = 0
        self.streamed_requests = 0
        self.error_responses = 0
        # Campaign aggregates from answer provenance.
        self.answer_cache_hits = 0
        self.campaign_shards = 0
        self.degraded_answers = 0
        self.dropped_shards = 0

    # -- recording ---------------------------------------------------------
    def record_request(
        self, method: str, path: str, status: int, seconds: float
    ) -> None:
        route = path if path in _ROUTES else _OTHER
        method = method if method in _METHODS else _OTHER
        key = f"{method} {route} -> {status}"
        with self._lock:
            self.requests_total += 1
            self._responses[key] = self._responses.get(key, 0) + 1
            reservoir = self._latencies.get(route)
            if reservoir is None:
                reservoir = self._latencies[route] = deque(maxlen=self._reservoir)
            reservoir.append(seconds)
            if status >= 400:
                self.error_responses += 1

    def record_served(
        self,
        kind: str,
        seconds: float,
        answer=None,
        *,
        coalesced: bool = False,
        inline: bool = False,
    ) -> None:
        """One served row, under one lock round trip.

        ``seconds`` always lands in the kind's latency histogram; a row
        that produced an ``answer`` (``None``: it failed) also counts as a
        query and an answer, and its provenance folds into the campaign
        aggregates.  Rows answered on the event loop and rows that went
        through the executor record the same way; ``inline`` marks a miss
        the loop computed itself, which also counts in ``inline_total``.
        """
        slot = len(HISTOGRAM_BUCKETS)  # +Inf
        for index, bound in enumerate(HISTOGRAM_BUCKETS):
            if seconds <= bound:
                slot = index
                break
        with self._lock:
            buckets = self._kind_buckets.get(kind)
            if buckets is None:
                buckets = self._kind_buckets[kind] = [0] * (
                    len(HISTOGRAM_BUCKETS) + 1
                )
                self._kind_sum[kind] = 0.0
                self._kind_count[kind] = 0
            buckets[slot] += 1
            self._kind_sum[kind] += seconds
            self._kind_count[kind] += 1
            if answer is None:
                return
            provenance = answer.provenance
            self.queries_total += 1
            self.answers_total += 1
            if coalesced:
                self.coalesced_total += 1
            if inline:
                self.inline_total += 1
            if provenance.cache_hit:
                self.answer_cache_hits += 1
            self.campaign_shards += provenance.shards
            if provenance.degraded:
                self.degraded_answers += 1
                self.dropped_shards += len(provenance.dropped_shards)

    def record_streamed_request(self) -> None:
        with self._lock:
            self.streamed_requests += 1

    # -- reporting ---------------------------------------------------------
    def snapshot(self, *, engine=None, extra: dict | None = None) -> dict:
        """JSON-ready metrics document (one consistent read)."""
        with self._lock:
            by_route = {
                route: list(self._latencies[route])
                for route in sorted(self._latencies)
            }
            responses = {key: self._responses[key] for key in sorted(self._responses)}
            kinds = {
                kind: {
                    "count": self._kind_count[kind],
                    "sum": self._kind_sum[kind],
                    "buckets": list(self._kind_buckets[kind]),
                }
                for kind in sorted(self._kind_buckets)
            }
            answers = self.answers_total
            data = {
                "requests_total": self.requests_total,
                "responses": responses,
                "error_responses": self.error_responses,
                "queries_total": self.queries_total,
                "answers_total": answers,
                "coalesced_total": self.coalesced_total,
                "inline_total": self.inline_total,
                "streamed_requests": self.streamed_requests,
                "campaigns": {
                    "shards_total": self.campaign_shards,
                    "degraded_answers": self.degraded_answers,
                    "dropped_shards": self.dropped_shards,
                    "answer_cache_hits": self.answer_cache_hits,
                    "answer_cache_hit_rate": (
                        self.answer_cache_hits / answers if answers else 0.0
                    ),
                },
            }
        # The headline latency excludes health/metrics polls by design.
        data["latency_seconds"] = _latency_summary(
            sorted(by_route.get("/v1/query", ()))
        )
        data["latency_by_route"] = {
            route: _latency_summary(sorted(values))
            for route, values in by_route.items()
        }
        data["query_latency_by_kind"] = {
            kind: {
                "count": entry["count"],
                "sum": entry["sum"],
                "mean": entry["sum"] / entry["count"] if entry["count"] else 0.0,
                "buckets": {
                    _bucket_label(index): entry["buckets"][index]
                    for index in range(len(HISTOGRAM_BUCKETS) + 1)
                },
            }
            for kind, entry in kinds.items()
        }
        if engine is not None:
            data["engine_cache"] = engine.cache_info()
        if extra:
            data.update(extra)
        return data


def _bucket_label(index: int) -> str:
    if index >= len(HISTOGRAM_BUCKETS):
        return "+Inf"
    return format(HISTOGRAM_BUCKETS[index], "g")


def _latency_summary(latencies: list[float]) -> dict:
    """Summary stats of a sorted latency list (nearest-rank percentiles).

    Nearest-rank: the p-th percentile of n samples is element
    ``ceil(p·n) − 1`` (0-based) of the sorted list — so p50 of ``[1, 2]``
    is 1, not 2 (the old ``int(p·n)`` index overshot by up to one rank).
    """
    if not latencies:
        return {"count": 0}
    count = len(latencies)
    summary: dict = {
        "count": count,
        "mean": sum(latencies) / count,
        "max": latencies[-1],
    }
    for label, fraction in _PERCENTILES:
        rank = max(math.ceil(fraction * count) - 1, 0)
        summary[label] = latencies[min(rank, count - 1)]
    return summary


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_prometheus(snapshot: dict) -> str:
    """One :meth:`ServiceMetrics.snapshot` as Prometheus text exposition.

    Deterministic for a given snapshot: metric families and label sets
    are emitted in sorted order.  Served by
    ``GET /metrics?format=prometheus``.
    """
    lines: list[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    def sample(name: str, labels: dict | None, value) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label(labels[key])}"' for key in sorted(labels)
            )
            lines.append(f"{name}{{{rendered}}} {_fmt(value)}")
        else:
            lines.append(f"{name} {_fmt(value)}")

    counters = (
        ("repro_requests_total", "requests_total", "HTTP requests handled."),
        ("repro_error_responses_total", "error_responses", "Responses with status >= 400."),
        ("repro_queries_total", "queries_total", "Queries received."),
        ("repro_answers_total", "answers_total", "Answers produced."),
        ("repro_coalesced_total", "coalesced_total", "Queries coalesced onto an in-flight execution."),
        ("repro_inline_total", "inline_total", "Memo misses computed on the event loop."),
        ("repro_streamed_requests_total", "streamed_requests", "Requests answered as ndjson streams."),
    )
    for name, key, help_text in counters:
        family(name, "counter", help_text)
        sample(name, None, snapshot.get(key, 0))

    family("repro_responses_total", "counter", "Responses by method, path and status.")
    for key in sorted(snapshot.get("responses", {})):
        try:
            method_path, status = key.rsplit(" -> ", 1)
            method, path = method_path.split(" ", 1)
        except ValueError:
            method, path, status = "?", key, "?"
        sample(
            "repro_responses_total",
            {"method": method, "path": path, "status": status},
            snapshot["responses"][key],
        )

    campaigns = snapshot.get("campaigns", {})
    campaign_counters = (
        ("repro_campaign_shards_total", "shards_total", "Shards dispatched across campaigns."),
        ("repro_campaign_degraded_answers_total", "degraded_answers", "Answers returned degraded."),
        ("repro_campaign_dropped_shards_total", "dropped_shards", "Shards dropped after exhausting retries."),
        ("repro_campaign_answer_cache_hits_total", "answer_cache_hits", "Answers served from the engine memo."),
    )
    for name, key, help_text in campaign_counters:
        family(name, "counter", help_text)
        sample(name, None, campaigns.get(key, 0))
    family("repro_campaign_answer_cache_hit_rate", "gauge", "Fraction of answers served from cache.")
    sample(
        "repro_campaign_answer_cache_hit_rate",
        None,
        campaigns.get("answer_cache_hit_rate", 0.0),
    )

    family(
        "repro_request_latency_seconds",
        "summary",
        "Request latency percentiles per route (nearest-rank over a bounded reservoir).",
    )
    quantiles = {"p50": "0.5", "p90": "0.9", "p99": "0.99"}
    for route in sorted(snapshot.get("latency_by_route", {})):
        summary = snapshot["latency_by_route"][route]
        if not summary.get("count"):
            continue
        for label, quantile in quantiles.items():
            sample(
                "repro_request_latency_seconds",
                {"route": route, "quantile": quantile},
                summary[label],
            )
        sample("repro_request_latency_seconds_count", {"route": route}, summary["count"])

    family(
        "repro_query_latency_seconds",
        "histogram",
        "Query execution latency per query kind.",
    )
    for kind in sorted(snapshot.get("query_latency_by_kind", {})):
        entry = snapshot["query_latency_by_kind"][kind]
        cumulative = 0
        for index in range(len(HISTOGRAM_BUCKETS)):
            label = _bucket_label(index)
            cumulative += entry["buckets"].get(label, 0)
            sample(
                "repro_query_latency_seconds_bucket",
                {"kind": kind, "le": label},
                cumulative,
            )
        sample(
            "repro_query_latency_seconds_bucket",
            {"kind": kind, "le": "+Inf"},
            entry["count"],
        )
        sample("repro_query_latency_seconds_sum", {"kind": kind}, entry["sum"])
        sample("repro_query_latency_seconds_count", {"kind": kind}, entry["count"])

    engine_cache = snapshot.get("engine_cache")
    if engine_cache:
        for key, kind in (
            ("hits", "counter"),
            ("misses", "counter"),
            ("size", "gauge"),
            ("hit_rate", "gauge"),
        ):
            name = f"repro_engine_cache_{key}"
            family(name, kind, f"Engine memo {key}.")
            sample(name, None, engine_cache.get(key, 0))

    if "uptime_seconds" in snapshot:
        family("repro_uptime_seconds", "gauge", "Daemon uptime.")
        sample("repro_uptime_seconds", None, snapshot["uptime_seconds"])
    if "max_rss_bytes" in snapshot:
        family(
            "repro_process_max_rss_bytes",
            "gauge",
            "Peak resident set size of the daemon process.",
        )
        sample("repro_process_max_rss_bytes", None, snapshot["max_rss_bytes"])

    return "\n".join(lines) + "\n"
