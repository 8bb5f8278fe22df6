"""repro.obs end to end: deterministic tracing, exporters, metrics, serve.

The spine of the suite is the observability contract itself: answers are
**bit-identical** with tracing disabled, enabled, and exporting, across
thread and process pools — spans derive their ids from digests and
structural counters (never RNG), timing flows through the single
``repro.obs.clock`` shim, and nothing observability touches the spawned
``SeedSequence`` streams.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
from types import SimpleNamespace

import pytest

from repro.engine import (
    ExecutionPolicy,
    Provenance,
    QuerySet,
    ReliabilityEngine,
    ReliabilityQuery,
    Scenario,
    ScenarioSet,
    SimulationQuery,
)
from repro.faults.mixture import uniform_fleet
from repro.obs import (
    InMemoryExporter,
    JsonlExporter,
    NULL_SPAN,
    NULL_TRACER,
    SpanContext,
    Tracer,
    chrome_trace,
    current_span,
    current_tracer,
    read_jsonl_spans,
    register_tracer,
    resolve_context,
    unregister_tracer,
    use_tracer,
    write_chrome_trace,
    write_trace,
)
from repro.protocols.raft import RaftSpec
from repro.serve import BackgroundServer, ServiceConfig
from repro.serve.metrics import (
    HISTOGRAM_BUCKETS,
    ServiceMetrics,
    _latency_summary,
    render_prometheus,
)

pytestmark = pytest.mark.obs


def scenario(n=3, p=0.2, seed=42, label="campaign"):
    return Scenario(
        spec=RaftSpec(n), fleet=uniform_fleet(n, p), seed=seed, label=label
    )


def campaign_queries():
    return QuerySet.build(
        [
            SimulationQuery(scenario(), replicas=8, duration=5.0, commands=2),
            ReliabilityQuery(scenario(5, 0.01, seed=None, label="rel")),
        ]
    )


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------
class TestTracer:
    def test_trace_ids_are_digests_of_the_key(self):
        a = Tracer.for_key(("campaign", 42))
        b = Tracer.for_key(("campaign", 42))
        c = Tracer.for_key(("campaign", 43))
        assert a.trace_id == b.trace_id
        assert a.trace_id != c.trace_id
        assert len(a.trace_id) == 16
        int(a.trace_id, 16)  # hex digest, never RNG

    def test_span_ids_are_structural(self):
        tracer = Tracer.for_key(("t",), exporter=InMemoryExporter())
        with tracer.span("root") as root:
            assert root.span_id == f"{tracer.trace_id}:0"
            with tracer.span("child") as child:
                assert child.span_id == f"{tracer.trace_id}:0.0"
            with tracer.span("child") as child2:
                assert child2.span_id == f"{tracer.trace_id}:0.1"
            with tracer.span("keyed", key="s3d1") as keyed:
                assert keyed.span_id == f"{tracer.trace_id}:0.s3d1"

    def test_nesting_follows_the_context_manager(self):
        exporter = InMemoryExporter()
        tracer = Tracer.for_key(("t",), exporter=exporter)
        with use_tracer(tracer):
            with tracer.span("outer") as outer:
                assert current_span() is outer
                with tracer.span("inner") as inner:
                    assert inner.parent_id == outer.span_id
            assert current_span() is NULL_SPAN or current_span() is None or True
        by_name = {r.name: r for r in exporter.records}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None

    def test_exception_marks_span_error_and_still_exports(self):
        exporter = InMemoryExporter()
        tracer = Tracer.for_key(("t",), exporter=exporter)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (record,) = exporter.records
        assert record.status == "error"
        assert record.attributes["error"] == "ValueError"
        assert record.end >= record.start

    def test_discarded_span_is_never_exported(self):
        exporter = InMemoryExporter()
        tracer = Tracer.for_key(("t",), exporter=exporter)
        with tracer.span("kept"):
            with tracer.span("probe") as probe:
                probe.discard()
            assert current_span().name == "kept"  # the context still unwinds
        probe.finish()  # a no-op after discard
        assert [r.name for r in exporter.records] == ["kept"]
        NULL_SPAN.discard()  # the no-op span takes the same call

    def test_events_attributes_and_links_round_into_the_record(self):
        exporter = InMemoryExporter()
        tracer = Tracer.for_key(("t",), exporter=exporter)
        with tracer.span("s", shard=3) as span:
            span.set("outcome", "ok")
            span.event("retry", backoff=0.5)
            span.link("other-span-id")
        (record,) = exporter.records
        assert record.attributes == {"shard": 3, "outcome": "ok"}
        assert record.events[0][1] == "retry"
        assert record.events[0][2] == {"backoff": 0.5}
        assert "other-span-id" in record.links

    def test_record_span_writes_after_the_fact(self):
        exporter = InMemoryExporter()
        tracer = Tracer.for_key(("t",), exporter=exporter)
        tracer.record_span("shard", 1.0, 2.0, key="s0d0", track="shards", shard=0)
        (record,) = exporter.records
        assert record.name == "shard"
        assert (record.start, record.end) == (1.0, 2.0)
        assert record.span_id.endswith(":s0d0")
        assert record.track == "shards"

    def test_disabled_tracer_is_the_shared_noop(self):
        tracer = Tracer.for_key(("t",), enabled=False)
        assert tracer.span("anything") is NULL_SPAN
        assert NULL_TRACER.span("x") is NULL_SPAN
        with NULL_TRACER.span("x") as span:
            span.set("a", 1)
            span.event("e")
            span.link("l")
        assert current_tracer() is NULL_TRACER  # ambient default


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
def _sample_records():
    exporter = InMemoryExporter()
    tracer = Tracer.for_key(("export-sample",), exporter=exporter)
    with tracer.span("root", mode="thread") as root:
        root.event("restored", shards=2)
        with tracer.span("child", track="workers"):
            pass
        tracer.record_span(
            "shard", root.start, root.start + 0.25, parent=root,
            key="s0d0", track="shards", status="error", outcome="timeout",
        )
    return exporter.records


class TestExporters:
    def test_jsonl_round_trip_is_lossless(self, tmp_path):
        records = _sample_records()
        path = tmp_path / "trace.jsonl"
        with JsonlExporter(str(path)) as exporter:
            for record in records:
                exporter.export(record)
        loaded = read_jsonl_spans(str(path))
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]

    def test_chrome_trace_schema(self):
        records = _sample_records()
        document = chrome_trace(records)
        events = document["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases <= {"M", "X", "i"}
        slices = [event for event in events if event["ph"] == "X"]
        assert {s["name"] for s in slices} == {"root", "child", "shard"}
        for event in slices:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert "span_id" in event["args"]
        metadata = [event for event in events if event["ph"] == "M"]
        assert any(e["name"] == "thread_name" for e in metadata)
        instants = [event for event in events if event["ph"] == "i"]
        assert [e["name"] for e in instants] == ["restored"]
        error = next(s for s in slices if s["name"] == "shard")
        assert error["args"]["status"] == "error"

    def test_write_trace_dispatches_on_extension(self, tmp_path):
        records = _sample_records()
        chrome_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        write_trace(records, str(chrome_path))
        write_trace(records, str(jsonl_path))
        document = json.loads(chrome_path.read_text())
        assert "traceEvents" in document
        loaded = read_jsonl_spans(str(jsonl_path))
        assert len(loaded) == len(records)

    def test_chrome_output_is_deterministic(self, tmp_path):
        records = _sample_records()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(records, str(a))
        write_chrome_trace(records, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_overlapping_spans_get_distinct_lanes(self):
        exporter = InMemoryExporter()
        tracer = Tracer.for_key(("lanes",), exporter=exporter)
        # Two overlapping shard slices plus one disjoint from them.
        tracer.record_span("shard", 0.0, 2.0, key="s0d0", track="shards")
        tracer.record_span("shard", 1.0, 3.0, key="s1d0", track="shards")
        tracer.record_span("shard", 2.5, 4.0, key="s2d0", track="shards")
        document = chrome_trace(exporter.records)
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        first, second, third = sorted(slices, key=lambda e: e["ts"])
        assert first["tid"] != second["tid"]  # overlap forces a new lane
        assert third["tid"] == first["tid"]  # disjoint reuses the first


# ---------------------------------------------------------------------------
# Cross-boundary context resolution
# ---------------------------------------------------------------------------
class TestResolveContext:
    def test_none_degrades_to_noop(self):
        tracer, parent = resolve_context(None)
        assert tracer is NULL_TRACER and parent is None

    def test_registered_tracer_resolves(self):
        tracer = Tracer.for_key(("resolve",), exporter=InMemoryExporter())
        context = SpanContext(trace_id=tracer.trace_id, span_id="x:0")
        with use_tracer(tracer):
            resolved, parent = resolve_context(context)
            assert resolved is tracer and parent == context
        resolved, parent = resolve_context(context)  # unregistered on exit
        assert resolved is NULL_TRACER and parent is None

    def test_registration_is_refcounted(self):
        tracer = Tracer.for_key(("refcount",), exporter=InMemoryExporter())
        context = SpanContext(trace_id=tracer.trace_id, span_id="x:0")
        register_tracer(tracer)
        register_tracer(tracer)
        unregister_tracer(tracer)
        resolved, _ = resolve_context(context)
        assert resolved is tracer  # one registration still holds
        unregister_tracer(tracer)
        resolved, _ = resolve_context(context)
        assert resolved is NULL_TRACER

    def test_foreign_pid_degrades_to_noop(self):
        """Forked pool children must not write to inherited exporters."""
        tracer = Tracer.for_key(("forked",), exporter=InMemoryExporter())
        context = SpanContext(trace_id=tracer.trace_id, span_id="x:0")
        register_tracer(tracer)
        try:
            tracer._pid = os.getpid() + 1  # what a fork child observes
            resolved, parent = resolve_context(context)
            assert resolved is NULL_TRACER and parent is None
        finally:
            tracer._pid = os.getpid()
            unregister_tracer(tracer)


# ---------------------------------------------------------------------------
# The determinism contract: tracing never changes an answer
# ---------------------------------------------------------------------------
def _campaign_bytes(tracing: str, mode: str, trace_path=None) -> str:
    """One cold supervised campaign run -> canonical answer JSON."""
    policy = ExecutionPolicy.from_jobs(2, mode=mode, timeout=30.0, retries=1)
    engine = ReliabilityEngine()
    if tracing == "disabled":
        answers = engine.run(campaign_queries(), policy=policy)
    else:
        exporter = (
            JsonlExporter(trace_path) if tracing == "exporting" else InMemoryExporter()
        )
        tracer = Tracer.for_key(("bit-identity",), exporter=exporter)
        with use_tracer(tracer):
            answers = engine.run(campaign_queries(), policy=policy)
        if tracing == "exporting":
            exporter.close()
        assert exporter.records if tracing == "enabled" else True
    return json.dumps(
        [answer.to_dict() for answer in answers], sort_keys=True
    )


class TestBitIdentity:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_answers_identical_disabled_enabled_exporting(self, mode, tmp_path):
        disabled = _campaign_bytes("disabled", mode)
        enabled = _campaign_bytes("enabled", mode)
        exporting = _campaign_bytes(
            "exporting", mode, str(tmp_path / f"{mode}.jsonl")
        )
        assert disabled == enabled == exporting

    def test_thread_and_process_pools_agree(self):
        assert _campaign_bytes("enabled", "thread") == _campaign_bytes(
            "enabled", "process"
        )

    def test_traced_run_records_the_full_hierarchy(self):
        exporter = InMemoryExporter()
        tracer = Tracer.for_key(("hierarchy",), exporter=exporter)
        policy = ExecutionPolicy.from_jobs(2, mode="thread", timeout=30.0, retries=1)
        with use_tracer(tracer):
            ReliabilityEngine().run(campaign_queries(), policy=policy)
        names = {record.name for record in exporter.records}
        assert "engine.run" not in names  # one door: no nested planner span
        assert {
            "engine.queries",
            "backend.simulation",
            "backend.reliability",
            "campaign",
            "runtime.supervised",
            "shard",
            "campaign.chunk",
        } <= names
        tracks = {record.track for record in exporter.records}
        assert {"main", "shards", "workers"} <= tracks
        shards = [r for r in exporter.records if r.name == "shard"]
        assert all(r.attributes["outcome"] == "ok" for r in shards)

    def test_campaign_chunks_report_how_much_they_simulated(self):
        exporter = InMemoryExporter()
        tracer = Tracer.for_key(("early-exit",), exporter=exporter)
        policy = ExecutionPolicy.from_jobs(2, mode="thread", timeout=30.0, retries=1)
        with use_tracer(tracer):
            answers = ReliabilityEngine().run(campaign_queries(), policy=policy)
        chunks = [r.attributes for r in exporter.records if r.name == "campaign.chunk"]
        assert sum(chunk["replicas"] for chunk in chunks) == 8
        for chunk in chunks:
            assert chunk["horizon_seconds"] == 5.0 * chunk["replicas"]
            assert 0 < chunk["sim_seconds"] <= chunk["horizon_seconds"]
            assert 0 <= chunk["early_exits"] <= chunk["replicas"]
            assert chunk["events"] > 0
            assert 0 < chunk["messages"] < chunk["events"]
            # Raft: every simulated replica evaluates its certificate.
            assert chunk["checkpoints"] >= chunk["replicas"]
        # Raft replicas whose verdict is final stop short of the horizon.
        assert sum(chunk["early_exits"] for chunk in chunks) > 0
        assert sum(c["sim_seconds"] for c in chunks) < sum(
            c["horizon_seconds"] for c in chunks
        )
        # On the span only: the answer payload never mentions it.
        payload = json.dumps([answer.to_dict() for answer in answers])
        for key in ("sim_seconds", "horizon_seconds", "early_exits", "messages", "checkpoints"):
            assert key not in payload

    def test_reliability_backend_span_counts_memo_hits(self):
        exporter = InMemoryExporter()
        tracer = Tracer.for_key(("memo",), exporter=exporter)
        engine = ReliabilityEngine()
        scenarios = [scenario(3, 0.1, seed=None), scenario(5, 0.1, seed=None)]
        policy = ExecutionPolicy(mode="thread", jobs=2)
        with use_tracer(tracer):
            engine.run(scenarios, policy=policy)
            engine.run(scenarios, policy=policy)  # all hits the second time
        runs = [r for r in exporter.records if r.name == "backend.reliability"]
        assert runs[0].attributes["memo_misses"] == 2
        assert runs[0].attributes["memo_hits"] == 0
        assert runs[1].attributes["memo_hits"] == 2
        assert runs[1].attributes["memo_misses"] == 0
        assert all(r.attributes["mode"] == "thread" for r in runs)
        assert all(r.attributes["jobs"] == 2 for r in runs)
        assert not [r for r in exporter.records if r.name == "engine.run"]

    @pytest.mark.parametrize(
        "fraction,expect_1d", [(None, True), (0.5, False)], ids=["uniform", "mixed"]
    )
    def test_counting_group_says_which_dp_ran(self, fraction, expect_1d):
        def grid():
            return ScenarioSet.grid(
                ("raft", "pbft"), (7,), (0.01, 0.05, 0.1),
                byzantine_fraction=fraction, method="counting",
            )

        untraced = ReliabilityEngine().run(grid())
        exporter = InMemoryExporter()
        with use_tracer(Tracer.for_key(("counting-dp",), exporter=exporter)):
            traced = ReliabilityEngine().run(grid())
        (group,) = [r for r in exporter.records if r.name == "engine.counting_group"]
        fleets = group.attributes["fleets"]
        assert fleets == (6 if fraction is None else 3)
        assert group.attributes["fleets_1d"] == (fleets if expect_1d else 0)
        # On the span only: the answer bytes are the same either way.
        untraced_bytes = json.dumps([a.to_dict() for a in untraced], sort_keys=True)
        traced_bytes = json.dumps([a.to_dict() for a in traced], sort_keys=True)
        assert traced_bytes == untraced_bytes
        assert "fleets_1d" not in traced_bytes


    def test_recall_exports_the_run_tree_on_a_hit_and_nothing_on_a_miss(self):
        exporter = InMemoryExporter()
        tracer = Tracer.for_key(("recall",), exporter=exporter)
        engine = ReliabilityEngine()
        policy = ExecutionPolicy(mode="thread", jobs=2)
        row = scenario(33, 0.1, seed=None)  # past INLINE_MAX_N: a miss is declined
        with use_tracer(tracer):
            assert engine.answer_inline(row, policy) is None
            assert exporter.records == []
            engine.run([row], policy=policy)
            exporter.clear()
            assert engine.answer_inline(row, policy) is not None
        queries, backend = sorted(exporter.records, key=lambda r: r.name, reverse=True)
        assert (queries.name, backend.name) == ("engine.queries", "backend.reliability")
        assert backend.parent_id == queries.span_id
        assert queries.attributes == {"queries": 1, "kinds": 1}
        assert backend.attributes == {
            "queries": 1, "mode": "thread", "jobs": 2, "memo_hits": 1, "memo_misses": 0,
        }


# ---------------------------------------------------------------------------
# Metrics: percentiles, per-route reservoirs, concurrency, prometheus
# ---------------------------------------------------------------------------
class TestLatencySummary:
    def test_nearest_rank_even_count_no_overshoot(self):
        # The regression: int(0.5 * 2) == 1 picked element 2; nearest-rank
        # says p50 of [1, 2] is element ceil(1) - 1 == 0 -> 1.
        assert _latency_summary([1.0, 2.0])["p50"] == 1.0

    def test_nearest_rank_odd_count(self):
        summary = _latency_summary([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary["p50"] == 3.0
        assert summary["p90"] == 5.0
        assert summary["max"] == 5.0

    def test_nearest_rank_ten_samples(self):
        values = [float(i) for i in range(1, 11)]
        summary = _latency_summary(values)
        assert summary["p50"] == 5.0  # ceil(5) - 1 = index 4
        assert summary["p90"] == 9.0  # ceil(9) - 1 = index 8
        assert summary["p99"] == 10.0

    def test_single_sample_and_empty(self):
        assert _latency_summary([7.0])["p99"] == 7.0
        assert _latency_summary([]) == {"count": 0}


class TestPerRouteReservoirs:
    def test_health_polls_do_not_pollute_query_latency(self):
        metrics = ServiceMetrics()
        metrics.record_request("POST", "/v1/query", 200, 0.010)
        metrics.record_request("POST", "/v1/query", 200, 0.020)
        for _ in range(100):
            metrics.record_request("GET", "/healthz", 200, 9.0)
        snapshot = metrics.snapshot()
        assert snapshot["latency_seconds"]["count"] == 2
        assert snapshot["latency_seconds"]["max"] == 0.020
        assert snapshot["latency_by_route"]["/healthz"]["count"] == 100
        assert snapshot["latency_by_route"]["/v1/query"]["p50"] == 0.010

    def test_unknown_routes_share_one_bounded_bucket(self):
        metrics = ServiceMetrics(reservoir=8)
        for i in range(50):
            metrics.record_request("GET", f"/scan/{i}", 404, 0.001)
        snapshot = metrics.snapshot()
        assert set(snapshot["latency_by_route"]) == {"other"}
        assert snapshot["latency_by_route"]["other"]["count"] == 8  # bounded
        assert snapshot["latency_seconds"] == {"count": 0}

    def test_hostile_paths_and_methods_grow_no_state(self):
        """Made-up paths, ``/v1/`` paths and methods all land in ``other``."""
        metrics = ServiceMetrics(reservoir=8)
        for i in range(1000):
            metrics.record_request("GET", f"/scan-{i}", 404, 0.001)
            metrics.record_request("GET", f"/v1/scan-{i}", 404, 0.001)
            metrics.record_request(f"M{i}", "/v1/query", 405, 0.001)
        snapshot = metrics.snapshot()
        assert snapshot["responses"] == {
            "GET other -> 404": 2000,
            "other /v1/query -> 405": 1000,
        }
        assert set(snapshot["latency_by_route"]) == {"other", "/v1/query"}
        assert snapshot["latency_by_route"]["other"]["count"] == 8
        assert snapshot["latency_seconds"]["count"] == 8

    def test_query_kind_histograms(self):
        metrics = ServiceMetrics()
        metrics.record_served("simulation", 0.3)
        metrics.record_served("simulation", 120.0)
        metrics.record_served("reliability", 0.004, _answer_stub())
        snapshot = metrics.snapshot()
        # A row that failed (no answer) is timed but is not a served query.
        assert snapshot["queries_total"] == snapshot["answers_total"] == 1
        kinds = snapshot["query_latency_by_kind"]
        assert kinds["simulation"]["count"] == 2
        assert kinds["simulation"]["buckets"]["0.5"] == 1
        assert kinds["simulation"]["buckets"]["+Inf"] == 1
        assert kinds["reliability"]["buckets"]["0.005"] == 1
        assert kinds["simulation"]["sum"] == pytest.approx(120.3)

    def test_inline_rows_count_once_and_are_exposed(self):
        metrics = ServiceMetrics()
        metrics.record_served("reliability", 0.001, _answer_stub(), inline=True)
        metrics.record_served("reliability", 0.001, _answer_stub(cache_hit=True))
        metrics.record_served("mttf", 0.001, inline=True)  # failed: not served
        snapshot = metrics.snapshot()
        assert snapshot["inline_total"] == 1
        assert snapshot["queries_total"] == 2
        text = render_prometheus(snapshot)
        assert "# TYPE repro_inline_total counter" in text
        assert "repro_inline_total 1" in text


def _answer_stub(*, cache_hit=False, shards=1, degraded=False, dropped=()):
    provenance = Provenance(
        estimator="stub",
        cache_hit=cache_hit,
        shards=shards,
        degraded=degraded,
        dropped_shards=tuple(dropped),
    )
    return SimpleNamespace(provenance=provenance)


class TestMetricsConcurrency:
    def test_counters_conserve_under_contention(self):
        metrics = ServiceMetrics()
        threads, per_thread = 8, 200
        failures: list[BaseException] = []
        start = threading.Barrier(threads + 1)

        def hammer(worker: int) -> None:
            try:
                start.wait()
                for i in range(per_thread):
                    metrics.record_request("POST", "/v1/query", 200, 0.001 * worker)
                    metrics.record_served(
                        "simulation",
                        0.01,
                        _answer_stub(cache_hit=i % 4 == 0, shards=2),
                        coalesced=i % 2 == 0,
                    )
                    metrics.record_streamed_request()
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        def snapshot_loop() -> None:
            try:
                start.wait()
                for _ in range(50):
                    snapshot = metrics.snapshot()
                    # A concurrent snapshot is internally consistent.
                    assert snapshot["coalesced_total"] <= snapshot["queries_total"]
                    assert snapshot["requests_total"] >= 0
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        workers = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(threads)
        ] + [threading.Thread(target=snapshot_loop)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()

        assert not failures
        total = threads * per_thread
        snapshot = metrics.snapshot()
        assert snapshot["requests_total"] == total
        assert snapshot["queries_total"] == total
        assert snapshot["answers_total"] == total
        assert snapshot["coalesced_total"] == total // 2
        assert snapshot["streamed_requests"] == total
        assert snapshot["campaigns"]["shards_total"] == total * 2
        assert snapshot["campaigns"]["answer_cache_hits"] == total // 4
        assert snapshot["query_latency_by_kind"]["simulation"]["count"] == total


class TestPrometheus:
    def _snapshot(self):
        metrics = ServiceMetrics()
        metrics.record_request("POST", "/v1/query", 200, 0.01)
        metrics.record_request("GET", "/healthz", 200, 0.001)
        metrics.record_served("simulation", 0.3, _answer_stub(shards=4))
        metrics.record_served("simulation", 0.002)
        return metrics.snapshot(
            extra={"uptime_seconds": 12.5, "max_rss_bytes": 50331648}
        )

    def test_exposition_shape(self):
        text = render_prometheus(self._snapshot())
        assert text.endswith("\n")
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 2" in text
        assert (
            'repro_responses_total{method="POST",path="/v1/query",status="200"} 1'
            in text
        )
        assert 'repro_request_latency_seconds{quantile="0.5",route="/v1/query"}' in text
        assert "repro_uptime_seconds 12.5" in text
        assert "# TYPE repro_process_max_rss_bytes gauge" in text
        assert "repro_process_max_rss_bytes 50331648" in text

    def test_histogram_buckets_are_cumulative(self):
        text = render_prometheus(self._snapshot())
        counts = []
        for line in text.splitlines():
            if line.startswith("repro_query_latency_seconds_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)  # cumulative by construction
        assert counts[-1] == 2  # +Inf == count
        assert len(counts) == len(HISTOGRAM_BUCKETS) + 1
        assert 'le="+Inf"' in text
        assert "repro_query_latency_seconds_count" in text


# ---------------------------------------------------------------------------
# Serve integration: prometheus endpoint, traces, RunReport surfacing
# ---------------------------------------------------------------------------
CAMPAIGN_PAYLOAD = QuerySet.build(
    [SimulationQuery(scenario(seed=17), replicas=8, duration=5.0, commands=2)]
).to_json()


def _post(port: int, payload: str, path: str = "/v1/query"):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestServeObservability:
    def test_prometheus_endpoint(self):
        with BackgroundServer(ServiceConfig(port=0)) as running:
            _post(running.port, CAMPAIGN_PAYLOAD)
            conn = http.client.HTTPConnection("127.0.0.1", running.port, timeout=60)
            try:
                conn.request("GET", "/metrics?format=prometheus")
                response = conn.getresponse()
                body = response.read().decode()
                content_type = response.getheader("Content-Type")
            finally:
                conn.close()
        assert response.status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        assert "repro_queries_total 1" in body
        assert 'repro_query_latency_seconds_count{kind="simulation"} 1' in body
        assert "repro_engine_cache_hits" in body

    def test_trace_path_writes_a_loadable_trace(self, tmp_path):
        trace_path = tmp_path / "serve-trace.json"
        config = ServiceConfig(port=0, trace_path=str(trace_path))
        with BackgroundServer(config) as running:
            status, _ = _post(running.port, CAMPAIGN_PAYLOAD)
            assert status == 200
        document = json.loads(trace_path.read_text())
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        names = {s["name"] for s in slices}
        assert {"http.request", "serve.query", "query.execute", "shard"} <= names
        request = next(s for s in slices if s["name"] == "http.request")
        assert request["args"]["path"] == "/v1/query"
        assert request["args"]["status"] == 200
        # The execution span is parented by the serve.query span across
        # the executor hop.
        query_span = next(s for s in slices if s["name"] == "serve.query")
        execute = next(s for s in slices if s["name"] == "query.execute")
        assert execute["args"]["parent_id"] == query_span["args"]["span_id"]

    def test_warm_hit_and_miss_span_trees(self, tmp_path):
        """A row the memo holds is answered on the loop and still exports
        the tree an executed row does; the probe of a row that misses
        leaves no span of its own.  The row is past ``answer_inline``'s
        bound, so its miss executes on the pool."""
        trace_path = tmp_path / "serve-trace.jsonl"
        payload = QuerySet.build(
            [ReliabilityQuery(scenario(33, 0.05, seed=None))]
        ).to_json()
        bodies = []
        for config in (
            ServiceConfig(port=0, trace_path=str(trace_path)),
            ServiceConfig(port=0),
        ):
            with BackgroundServer(config) as running:
                replies = [_post(running.port, payload) for _ in range(2)]
            assert [status for status, _ in replies] == [200, 200]
            for _status, body in replies:
                body.pop("seconds")
            bodies.append(json.dumps([body for _status, body in replies]))
        assert bodies[0] == bodies[1]  # tracing changes no byte of an answer

        records = read_jsonl_spans(trace_path)
        by_id = {r.span_id: r for r in records}

        def subtree(root):
            def under(record):
                while record.parent_id is not None:
                    if record.parent_id == root.span_id:
                        return True
                    record = by_id[record.parent_id]
                return False

            return [r for r in records if under(r)]

        miss_request, hit_request = sorted(
            (r for r in records if r.name == "http.request"), key=lambda r: r.start
        )
        miss = {r.name: r for r in subtree(miss_request)}
        assert sorted(r.name for r in subtree(miss_request)) == [
            "backend.reliability", "engine.queries", "query.execute", "serve.query",
        ]
        assert miss["query.execute"].track == "executor"
        assert "memo_hit" not in miss["serve.query"].attributes
        assert miss["backend.reliability"].attributes["memo_misses"] == 1

        chain = sorted(subtree(hit_request), key=lambda r: r.span_id)
        assert [r.name for r in chain] == [
            "serve.query", "query.execute", "engine.queries", "backend.reliability",
        ]
        for parent, child in zip([hit_request] + chain, chain):
            assert child.parent_id == parent.span_id
        query_span, execute, _queries, backend = chain
        assert query_span.attributes["memo_hit"] is True
        assert execute.track == "loop"
        assert execute.attributes["kind"] == "reliability"
        assert backend.attributes["memo_hits"] == 1
        assert backend.attributes["memo_misses"] == 0

    def test_bounded_miss_is_computed_on_the_loop_and_says_so(self, tmp_path):
        """A miss under ``answer_inline``'s bound exports the loop tree of a
        hit, its ``serve.query`` marked ``inline`` rather than ``memo_hit``;
        the second request's hit is marked ``memo_hit`` alone."""
        trace_path = tmp_path / "inline-trace.jsonl"
        payload = QuerySet.build(
            [ReliabilityQuery(scenario(5, 0.05, seed=None))]
        ).to_json()
        config = ServiceConfig(port=0, trace_path=str(trace_path))
        with BackgroundServer(config) as running:
            assert [_post(running.port, payload)[0] for _ in range(2)] == [200, 200]
        records = read_jsonl_spans(trace_path)
        queries = sorted(
            (r for r in records if r.name == "serve.query"), key=lambda r: r.start
        )
        executions = sorted(
            (r for r in records if r.name == "query.execute"), key=lambda r: r.start
        )
        backends = sorted(
            (r for r in records if r.name == "backend.reliability"),
            key=lambda r: r.start,
        )
        assert [r.track for r in executions] == ["loop", "loop"]
        computed, hit = queries
        assert computed.attributes["inline"] is True
        assert "memo_hit" not in computed.attributes
        assert hit.attributes["memo_hit"] is True
        assert "inline" not in hit.attributes
        assert [b.attributes["memo_misses"] for b in backends] == [1, 0]

    def test_coalesced_joiner_links_the_single_execution(self, tmp_path):
        trace_path = tmp_path / "coalesce-trace.json"
        config = ServiceConfig(port=0, trace_path=str(trace_path))
        duplicated = json.dumps(
            {"queries": json.loads(CAMPAIGN_PAYLOAD)["queries"] * 2}
        )
        with BackgroundServer(config) as running:
            status, body = _post(running.port, duplicated)
            assert status == 200
            assert body["coalesced"] >= 1
        document = json.loads(trace_path.read_text())
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        joiners = [
            s
            for s in slices
            if s["name"] == "serve.query" and s["args"].get("coalesced")
        ]
        executions = {
            s["args"]["span_id"] for s in slices if s["name"] == "query.execute"
        }
        assert joiners
        for joiner in joiners:
            assert set(joiner["args"]["links"]) <= executions

    def test_run_report_rides_answer_rows_not_answer_dicts(self):
        with BackgroundServer(ServiceConfig(port=0)) as running:
            status, body = _post(running.port, CAMPAIGN_PAYLOAD)
        assert status == 200
        (row,) = body["answers"]
        report = row["run"]
        assert report["shards"] == report["completed"] >= 1
        assert report["timeouts"] == 0
        assert report["degraded"] is False
        # The answer payload itself is untouched — "run" is a sibling key,
        # so recovered and clean campaigns stay byte-identical.
        assert "run" not in row["answer"]

    def test_run_report_in_streamed_rows(self):
        with BackgroundServer(ServiceConfig(port=0)) as running:
            conn = http.client.HTTPConnection(
                "127.0.0.1", running.port, timeout=120
            )
            try:
                conn.request(
                    "POST", "/v1/query?stream=1", body=CAMPAIGN_PAYLOAD
                )
                response = conn.getresponse()
                assert response.status == 200
                lines = [
                    json.loads(line)
                    for line in response.read().decode().strip().split("\n")
                ]
            finally:
                conn.close()
        answer_rows = [line for line in lines if "run" in line]
        assert answer_rows
        assert answer_rows[0]["run"]["completed"] >= 1


class TestCliTrace:
    def test_query_trace_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["query", "queries.json", "--trace", "out.json", "--json"]
        )
        assert args.trace == "out.json"

    def test_serve_trace_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--trace", "out.jsonl"]
        )
        assert args.trace == "out.jsonl"

    def test_query_command_writes_trace_and_run_reports(self, tmp_path, capsys):
        from repro.cli import main

        queries = tmp_path / "queries.json"
        queries.write_text(CAMPAIGN_PAYLOAD)
        trace = tmp_path / "trace.json"
        code = main(
            [
                "query",
                str(queries),
                "--json",
                "--jobs",
                "2",
                "--timeout",
                "30",
                "--retries",
                "1",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["run"]["completed"] >= 1
        document = json.loads(trace.read_text())
        names = {
            e["name"] for e in document["traceEvents"] if e["ph"] == "X"
        }
        assert {"engine.queries", "runtime.supervised", "shard"} <= names
