"""The query daemon end to end: routing, coalescing, streaming, resume.

Everything runs against a real :class:`~repro.serve.BackgroundServer` on
an ephemeral port, talked to with stdlib ``http.client`` — the same wire
a production client would use.  The determinism spine of the suite: a
daemon answer is *bit-identical* to running the same queries through the
engine directly, for any worker count, streamed or not, before and after
a daemon restart.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.engine import (
    Answer,
    AvailabilityQuery,
    ExecutionPolicy,
    MTTFQuery,
    Provenance,
    QuerySet,
    ReliabilityEngine,
    ReliabilityQuery,
    Scenario,
    ScenarioSet,
    SimulationQuery,
)
from repro.faults.mixture import uniform_fleet
from repro.protocols.raft import RaftSpec
from repro.serve import BackgroundServer, ServiceConfig
from repro.engine.query import canonical_query_key
from test_queries import HOSTILE_ROWS, names_field

GRID_PAYLOAD = json.dumps(
    {"grid": {"protocols": ["raft"], "sizes": [3, 5, 7], "probabilities": [0.01]}}
)


def scenario(n=5, p=0.01, **kw):
    return Scenario(spec=RaftSpec(n), fleet=uniform_fleet(n, p), **kw)


def post(port: int, payload: str, path: str = "/v1/query") -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def get(port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def post_stream(port: int, payload: str) -> list[dict]:
    """POST ``?stream=1`` and return the ndjson lines (summary last)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", "/v1/query?stream=1", body=payload)
        response = conn.getresponse()
        assert response.status == 200
        return [
            json.loads(line)
            for line in response.read().decode().strip().split("\n")
        ]
    finally:
        conn.close()


def answer_values(rows: list[dict]) -> list[dict]:
    """The value-bearing fields of response rows (no timing, no cache bit)."""
    return [row["answer"] for row in rows]


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(ServiceConfig(port=0)) as running:
        yield running


class TestRouting:
    def test_healthz(self, server):
        status, body = get(server.port, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0.0
        # The daemon's own footprint: a peak, so it is positive, at least
        # an interpreter's worth, and never falls between two reads.
        assert body["max_rss_bytes"] > 5 * 2**20
        _status, later = get(server.port, "/healthz")
        assert later["max_rss_bytes"] >= body["max_rss_bytes"]

    def test_unknown_path_404(self, server):
        status, body = get(server.port, "/nope")
        assert status == 404
        assert "no route" in body["error"]

    def test_wrong_method_405(self, server):
        status, _body = get(server.port, "/v1/query")
        assert status == 405
        status, _body = post(server.port, "{}", path="/healthz")
        assert status == 405

    def test_bad_json_400(self, server):
        status, body = post(server.port, "{not json")
        assert status == 400
        assert "invalid query payload" in body["error"]

    def test_unknown_shape_400(self, server):
        status, _body = post(server.port, '{"fnord": 1}')
        assert status == 400

    def test_fleet_of_another_size_400(self, server):
        """Refused at parse; it used to simulate a replica, then answer 422."""
        row = SimulationQuery(scenario(5, seed=1), replicas=2).to_dict()
        row["scenario"]["fleet"] = scenario(3).to_dict()["fleet"]
        status, body = post(server.port, json.dumps([row]))
        assert status == 400
        assert "fleet has 3 nodes but spec expects 5" in body["error"]

    def test_empty_queries_400(self, server):
        status, body = post(server.port, '{"queries": []}')
        assert status == 400
        assert "no queries" in body["error"]

    def test_body_nested_past_the_parser_is_answered_400(self, server):
        """``json.loads`` raises RecursionError, which no route names: the
        client used to get a closed socket and no response at all."""
        _status, before = get(server.port, "/metrics")
        status, body = post(server.port, "[" * 100_000)
        assert status == 400
        assert "RecursionError" in body["error"]
        _status, after = get(server.port, "/metrics")
        assert after["error_responses"] == before["error_responses"] + 1
        assert after["responses"]["POST /v1/query -> 400"] >= 1
        # ...and the daemon is none the worse for it.
        assert post(server.port, GRID_PAYLOAD)[0] == 200

    @pytest.mark.parametrize(
        "payload",
        [
            "[[1]]",
            '{"queries":[[]]}',
            '[{"kind":"simulation","scenario":5}]',
            json.dumps([dict(scenario(3).to_dict(), fleet={"nodes": [5]})]),
            json.dumps(
                [{"kind": "simulation", "scenario": scenario(3).to_dict(), "replicas": 0}]
            ).replace('"replicas": 0', '"replicas": 1e400'),
            json.dumps([dict(scenario(3).to_dict(), trials=0)]).replace(
                '"trials": 0', '"trials": 1e400'
            ),
        ],
        ids=["row-is-a-list", "queries-row-is-a-list", "scenario-is-a-number",
             "node-is-a-number", "replicas-inf", "trials-inf"],
    )
    def test_hostile_row_shapes_are_answered_400(self, server, payload):
        """A list, a number or an infinity where a row's object or integer
        belongs used to escape ``QuerySet.from_json`` as AttributeError /
        OverflowError: a 500 and a dropped connection."""
        _status, before = get(server.port, "/metrics")
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.request("POST", "/v1/query", body=payload)
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "invalid query payload" in body["error"]
            # ...and the same connection still serves the next request.
            conn.request("POST", "/v1/query", body=GRID_PAYLOAD)
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        finally:
            conn.close()
        _status, after = get(server.port, "/metrics")
        assert after["error_responses"] == before["error_responses"] + 1

    @pytest.mark.parametrize(
        "field, text", [row[1:] for row in HOSTILE_ROWS], ids=[row[0] for row in HOSTILE_ROWS]
    )
    def test_hostile_field_is_answered_400_naming_it(self, server, field, text):
        """Each row of the regression table was a 500 or a 200 answered
        from a different value; the codec refuses it at parse time."""
        status, body = post(server.port, text)
        assert status == 400, body
        assert body["error"].startswith("invalid query payload")
        assert names_field(body["error"], field), body["error"]

    @pytest.mark.parametrize("trials", ["true", "2.5"])
    def test_truncatable_trial_budget_is_answered_400(self, server, trials):
        """``"trials": true`` / ``2.5`` used to be answered 200 from 1 / 2
        trials; the same keep-alive connection then serves a 200."""
        row = dict(scenario(3).to_dict(), method="monte-carlo", seed=1, trials=0)
        payload = json.dumps([row]).replace('"trials": 0', f'"trials": {trials}')
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.request("POST", "/v1/query", body=payload)
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "trials must be a finite integer" in body["error"]
            conn.request("POST", "/v1/query", body=GRID_PAYLOAD)
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        finally:
            conn.close()

    def test_importance_row_with_mass_it_cannot_draw_is_answered_422(self, server):
        """PBFT(7) over a Byzantine fleet under the default crash kind: the
        importance sampler read every Byzantine draw as a crash, and the
        daemon answered 200 with P(unsafe) = 0."""
        row = {
            "spec": {"protocol": "pbft", "n": 7},
            "fleet": {"uniform": {"n": 7, "p_fail": 0.05, "byzantine_fraction": 1.0}},
            "method": "importance",
            "trials": 2_000,
            "seed": 1,
        }
        status, body = post(server.port, json.dumps([row]))
        assert status == 422
        assert "failure_kind" in body["error"]
        status, _body = post(server.port, json.dumps([dict(row, failure_kind="byzantine")]))
        assert status == 200

    def test_unanticipated_route_error_is_answered_500(self):
        def broken_snapshot(**kwargs):
            raise RuntimeError("snapshot exploded")

        with BackgroundServer(ServiceConfig(port=0)) as running:
            metrics = running.service.metrics
            metrics.snapshot = broken_snapshot
            status, body = get(running.port, "/metrics")
            del metrics.snapshot
            _status, after = get(running.port, "/metrics")
        assert status == 500
        assert body["error"] == "RuntimeError: snapshot exploded"
        assert after["error_responses"] == 1
        assert after["responses"]["GET /metrics -> 500"] == 1

    def test_oversized_body_413(self):
        config = ServiceConfig(port=0, max_body_bytes=64)
        with BackgroundServer(config) as small:
            status, body = post(small.port, "x" * 100)
            assert status == 413
            assert "exceeds limit" in body["error"]


class TestUnknownMethod:
    """The library, ``repro-analyze query`` and the daemon refuse an
    unknown ``method`` where the scenario is built, with one message."""

    MESSAGE = "unknown analysis method 'fnord'"
    ROW = {**scenario(3).to_dict(), "method": "fnord"}
    PAYLOAD = json.dumps([scenario(5).to_dict(), ROW])

    def test_refused_where_the_scenario_is_built(self):
        from repro.errors import EstimationError

        with pytest.raises(EstimationError, match=self.MESSAGE):
            Scenario.from_dict(self.ROW)
        with pytest.raises(EstimationError, match=self.MESSAGE):
            replace(scenario(3), method="fnord")

    def test_cli_query_exits_nonzero_with_the_message(self, tmp_path):
        path = tmp_path / "fnord.json"
        path.write_text(self.PAYLOAD)
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "query", str(path)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode != 0
        assert self.MESSAGE in done.stderr

    def test_daemon_answers_400_and_counts_no_query(self, server):
        """It used to compute the batch's other rows, then answer 422."""
        _status, before = get(server.port, "/metrics")
        status, body = post(server.port, self.PAYLOAD)
        _status, after = get(server.port, "/metrics")
        assert status == 400
        assert self.MESSAGE in body["error"]
        assert after["queries_total"] == before["queries_total"]


class TestAnswers:
    def test_round_trip_matches_direct_engine_run(self, server):
        """The wire adds nothing: daemon rows == direct engine rows."""
        status, body = post(server.port, GRID_PAYLOAD)
        assert status == 200
        assert body["count"] == 3
        direct = ReliabilityEngine().run(
            QuerySet.from_json(GRID_PAYLOAD),
            policy=ExecutionPolicy.for_service(1),
        )
        assert answer_values(body["answers"]) == answer_values(
            [answer.to_dict() for answer in direct]
        )

    def test_answers_identical_at_every_worker_count(self):
        """jobs=4 and jobs=1 daemons serve bit-identical values."""
        bodies = []
        for jobs in (1, 4):
            with BackgroundServer(ServiceConfig(port=0, jobs=jobs)) as running:
                status, body = post(running.port, GRID_PAYLOAD)
                assert status == 200
                bodies.append(answer_values(body["answers"]))
        assert bodies[0] == bodies[1]

    def test_repeat_request_hits_warm_cache(self, server):
        payload = json.dumps(
            {"grid": {"protocols": ["raft"], "sizes": [9], "probabilities": [0.02]}}
        )
        first_status, first = post(server.port, payload)
        second_status, second = post(server.port, payload)
        assert (first_status, second_status) == (200, 200)
        assert second["cache_hits"] == 1
        assert answer_values(second["answers"]) == answer_values(first["answers"])

    def test_mixed_query_storm_is_bit_identical(self, server):
        """Concurrent mixed-kind storms all see the single-client answers."""
        query_set = QuerySet.build(
            [
                MTTFQuery.from_afr(
                    scenario(5, label="m"), afr=0.08, mttr_hours=24.0
                ),
                SimulationQuery(
                    scenario(3, seed=11, label="s"),
                    replicas=8,
                    duration=5.0,
                    commands=2,
                ),
            ]
        )
        payload = query_set.to_json()
        reference = answer_values(
            [
                answer.to_dict()
                for answer in ReliabilityEngine().run(
                    query_set, policy=ExecutionPolicy.for_service(1)
                )
            ]
        )
        results: list = [None] * 8
        payloads = [payload, GRID_PAYLOAD]

        def storm(slot: int) -> None:
            status, body = post(server.port, payloads[slot % 2])
            results[slot] = (status, answer_values(body["answers"]))

        threads = [
            threading.Thread(target=storm, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        grid_reference = answer_values(
            [
                answer.to_dict()
                for answer in ReliabilityEngine().run(
                    QuerySet.from_json(GRID_PAYLOAD),
                    policy=ExecutionPolicy.for_service(1),
                )
            ]
        )
        for slot, outcome in enumerate(results):
            assert outcome is not None, f"storm thread {slot} never finished"
            status, values = outcome
            assert status == 200
            assert values == (reference if slot % 2 == 0 else grid_reference)


class TestCoalescing:
    def test_identical_inflight_queries_execute_once(self):
        """The single-flight proof: N concurrent identical queries, one run.

        A deliberately slow injected backend counts executions; eight
        clients fire the same query while the first execution is still in
        flight, so seven must join it rather than start their own.
        """
        engine = ReliabilityEngine()
        executions: list[str] = []
        lock = threading.Lock()

        def slow_backend(queries, policy):
            with lock:
                executions.append("run")
            time.sleep(1.0)  # hold the execution open for the latecomers
            return [
                Answer(q, 123.456, Provenance(estimator="slow", backend="mttf"))
                for q in queries
            ]

        engine.register_backend("mttf", slow_backend)
        payload = QuerySet.build(
            [MTTFQuery.from_afr(scenario(5), afr=0.08, mttr_hours=24.0)]
        ).to_json()
        clients = 8
        results: list = [None] * clients
        with BackgroundServer(ServiceConfig(port=0), engine=engine) as running:
            def fire(slot: int) -> None:
                results[slot] = post(running.port, payload)

            threads = [
                threading.Thread(target=fire, args=(slot,))
                for slot in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            _status, metrics = get(running.port, "/metrics")
        assert len(executions) == 1
        statuses = [result[0] for result in results]
        assert statuses == [200] * clients
        values = {json.dumps(result[1]["answers"][0]["answer"]) for result in results}
        assert len(values) == 1  # everyone got the one execution's answer
        assert sum(result[1]["coalesced"] for result in results) == clients - 1
        assert metrics["coalesced_total"] == clients - 1

    @staticmethod
    def _counting_backend(kind, executions, value):
        """A slow stand-in backend for ``kind`` that records each call and
        holds it open long enough for a concurrent row to arrive."""

        def slow_backend(queries, policy):
            executions.append(len(queries))
            time.sleep(0.5)
            return [
                Answer(q, value, Provenance(estimator="slow", backend=kind))
                for q in queries
            ]

        return slow_backend

    def test_rows_differing_only_in_label_run_once_and_keep_their_labels(self):
        engine = ReliabilityEngine()
        executions: list[int] = []
        engine.register_backend("mttf", self._counting_backend("mttf", executions, 7.0))
        payload = QuerySet.build(
            [
                MTTFQuery.from_afr(scenario(5, label=label), afr=0.08, mttr_hours=24.0)
                for label in ("first", "second")
            ]
        ).to_json()
        with BackgroundServer(ServiceConfig(port=0), engine=engine) as running:
            status, body = post(running.port, payload)
            _status, metrics = get(running.port, "/metrics")
        assert status == 200 and executions == [1]
        assert [row["label"] for row in body["answers"]] == ["first", "second"]
        first, second = (row["answer"] for row in body["answers"])
        assert first == second
        assert body["coalesced"] == metrics["coalesced_total"] == 1

    def test_unseeded_sampling_rows_never_join_a_flight(self):
        """Equal JSON, but no memo key: each row is its own draw."""
        engine = ReliabilityEngine()
        executions: list[int] = []
        engine.register_backend(
            "reliability", self._counting_backend("reliability", executions, 0.5)
        )
        row = scenario(5, 0.01, method="monte-carlo", trials=1000)
        assert row.seed is None
        payload = ScenarioSet.build([row, row]).to_json()
        with BackgroundServer(ServiceConfig(port=0), engine=engine) as running:
            status, body = post(running.port, payload)
            _status, metrics = get(running.port, "/metrics")
        assert status == 200 and executions == [1, 1]
        assert body["coalesced"] == metrics["coalesced_total"] == 0

    def test_canonical_key_distinguishes_different_queries(self):
        one = MTTFQuery.from_afr(scenario(5), afr=0.08, mttr_hours=24.0)
        two = MTTFQuery.from_afr(scenario(5), afr=0.09, mttr_hours=24.0)
        same = MTTFQuery.from_afr(scenario(5), afr=0.08, mttr_hours=24.0)
        assert canonical_query_key(one) == canonical_query_key(same)
        assert canonical_query_key(one) != canonical_query_key(two)


class TestRecallOnTheLoop:
    """A memoised row is answered on the event loop — ``engine.answer_inline``
    before single-flight and the executor — and nothing a client or
    ``/metrics`` can see tells the two paths apart."""

    @staticmethod
    def rows(*sizes_and_ps) -> str:
        return ScenarioSet.build(scenario(n, p) for n, p in sizes_and_ps).to_json()

    def test_engine_cache_moves_once_per_submitted_row(self):
        """Hits (one of them an in-batch duplicate), misses and a coalesced
        joiner in one request, plain and streamed: every submitted row is
        one hit, one miss, or one join of an in-flight execution.  The rows
        are past ``answer_inline``'s bound, so their misses take the
        executor and single-flight."""
        with BackgroundServer(ServiceConfig(port=0)) as running:
            status, warm = post(running.port, self.rows((33, 0.01), (35, 0.01)))
            assert (status, warm["cache_hits"]) == (200, 0)
            _status, metrics = get(running.port, "/metrics")
            cache = metrics["engine_cache"]
            assert (cache["hits"], cache["misses"]) == (0, 2)

            mixed = self.rows((33, 0.01), (37, 0.02), (37, 0.02), (35, 0.01), (33, 0.01))
            status, body = post(running.port, mixed)
            assert status == 200
            assert [row["cache_hit"] for row in body["answers"]] == [
                True, False, False, True, True,
            ]
            assert (body["cache_hits"], body["coalesced"]) == (3, 1)
            _status, metrics = get(running.port, "/metrics")
            cache = metrics["engine_cache"]
            assert (cache["hits"], cache["misses"]) == (3, 3)
            assert metrics["coalesced_total"] == 1
            assert metrics["queries_total"] == metrics["answers_total"] == 7

            streamed = self.rows((33, 0.01), (39, 0.02), (39, 0.02), (37, 0.02))
            lines = post_stream(running.port, streamed)
            assert lines[-1] == {
                "done": True, "answers": 4, "errors": 0, "coalesced": 1,
                "seconds": lines[-1]["seconds"],
            }
            # The rows the memo held are written first, in submission order.
            assert [line["index"] for line in lines[:2]] == [0, 3]
            assert sorted(line["index"] for line in lines[:-1]) == [0, 1, 2, 3]
            _status, metrics = get(running.port, "/metrics")
            cache = metrics["engine_cache"]
            assert (cache["hits"], cache["misses"]) == (5, 4)
            assert metrics["coalesced_total"] == 2
            assert metrics["queries_total"] == 11
            assert (
                cache["hits"] + cache["misses"] + metrics["coalesced_total"]
                == metrics["queries_total"]
            )
            assert metrics["campaigns"]["answer_cache_hits"] == 5
            assert metrics["query_latency_by_kind"]["reliability"]["count"] == 11

    def test_hit_is_byte_identical_to_the_executor_paths(self):
        payload = ScenarioSet.build(
            [scenario(3, 0.01, label="kept"), scenario(5, 0.02)]
        ).to_json()

        def warm_reply(engine):
            with BackgroundServer(ServiceConfig(port=0), engine=engine) as running:
                post(running.port, payload)
                status, body = post(running.port, payload)
                lines = post_stream(running.port, payload)
            assert status == 200
            body.pop("seconds")
            lines[-1].pop("seconds")
            return json.dumps(body), json.dumps(lines)

        executor_only = ReliabilityEngine()
        executor_only.answer_inline = lambda query, policy=None: None  # all pooled
        assert warm_reply(ReliabilityEngine()) == warm_reply(executor_only)
        assert executor_only.cache_hits == 4

    def test_warm_requests_submit_nothing_to_the_pool(self):
        payload = self.rows((33, 0.03))  # past the bound: the miss is pooled
        with BackgroundServer(ServiceConfig(port=0)) as running:
            submitted = self.spy_on(running.service._pool)
            assert post(running.port, payload)[0] == 200
            assert len(submitted) == 1  # the cold one computed on the pool
            for _ in range(64):
                status, body = post(running.port, payload)
                assert (status, body["cache_hits"]) == (200, 1)
            assert len(submitted) == 1
            assert len(running.service.inflight) == 0

    def test_warm_hits_take_no_minor_faults_on_the_loop_thread(self):
        """The loop thread reads at most 64 KiB per readable event: with
        asyncio's 256 KiB ``recv`` a warm hit could grow and then trim the
        thread's heap, ≈ 2 minor faults per request on some layouts."""
        payload = self.rows((5, 0.01))
        hits = 300
        with BackgroundServer(ServiceConfig(port=0)) as running:
            stat = Path(f"/proc/self/task/{running._thread.native_id}/stat")
            if not stat.exists():
                pytest.skip("needs /proc")

            def minor_faults() -> int:  # field 10, counted after ``comm``
                return int(stat.read_text().rsplit(")", 1)[1].split()[7])

            conn = http.client.HTTPConnection("127.0.0.1", running.port, timeout=60)
            try:
                for round_ in range(hits + 20):  # the first rows warm up
                    if round_ == 20:
                        before = minor_faults()
                    conn.request("POST", "/v1/query", body=payload)
                    response = conn.getresponse()
                    assert response.status == 200
                    assert json.loads(response.read())["cache_hits"] == (round_ > 0)
                after = minor_faults()
            finally:
                conn.close()
        assert (after - before) / hits < 0.5

    @staticmethod
    def spy_on(pool) -> list:
        """Record every function the request pool is handed."""
        submitted, submit = [], pool.submit

        def counting_submit(fn, *args, **kwargs):
            submitted.append(fn)
            return submit(fn, *args, **kwargs)

        pool.submit = counting_submit
        return submitted

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_bounded_misses_are_computed_on_the_loop(self, jobs):
        """Counting at n = 32, exact at n = 8 and the two Markov kinds at
        n = 32 are computed on the event loop: nothing reaches the pool,
        every row is one miss, and ``/metrics`` counts them inline."""
        bounded = QuerySet.build(
            [
                ReliabilityQuery(scenario(32, 0.02)),
                ReliabilityQuery(scenario(8, 0.02, method="exact")),
                AvailabilityQuery.for_cluster(32, afr=0.08, mttr_hours=24.0),
                MTTFQuery.for_cluster(32, afr=0.08, mttr_hours=24.0),
            ]
        ).to_json()
        with BackgroundServer(ServiceConfig(port=0, jobs=jobs)) as running:
            submitted = self.spy_on(running.service._pool)
            status, cold = post(running.port, bounded)
            assert (status, cold["cache_hits"]) == (200, 0)
            assert submitted == []
            _status, metrics = get(running.port, "/metrics")
            cache = metrics["engine_cache"]
            assert metrics["inline_total"] == 4
            assert (cache["hits"], cache["misses"]) == (0, 4)

            status, body = post(running.port, bounded)  # now all memo hits
            assert (status, body["cache_hits"]) == (200, 4)
            status, body = post(running.port, self.rows((33, 0.02)))
            assert (status, body["cache_hits"]) == (200, 0)
            assert len(submitted) == 1  # past the bound: the pool, once
            _status, metrics = get(running.port, "/metrics")
            assert metrics["inline_total"] == 4
        direct = ReliabilityEngine().run(
            QuerySet.from_json(bounded), policy=ExecutionPolicy.for_service(jobs)
        )
        assert answer_values(cold["answers"]) == answer_values(
            [answer.to_dict() for answer in direct]
        )

    def test_memoised_query_does_not_queue_behind_a_saturated_pool(self):
        engine = ReliabilityEngine()
        entered, release = threading.Event(), threading.Event()

        def parked_backend(queries, policy):
            entered.set()
            release.wait(timeout=60)
            return [
                Answer(q, 1.0, Provenance(estimator="parked", backend="mttf"))
                for q in queries
            ]

        engine.register_backend("mttf", parked_backend)
        memoised, bounded = self.rows((5, 0.04)), self.rows((7, 0.04))
        blocking = QuerySet.build(
            [MTTFQuery.from_afr(scenario(5), afr=0.08, mttr_hours=24.0)]
        ).to_json()
        config = ServiceConfig(port=0, executor_workers=1)
        with BackgroundServer(config, engine=engine) as running:
            assert post(running.port, memoised)[0] == 200
            parked: list = []
            holder = threading.Thread(
                target=lambda: parked.append(post(running.port, blocking))
            )
            holder.start()
            try:
                assert entered.wait(timeout=30)  # the one worker is taken
                replies = []
                for payload in (memoised, bounded):
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", running.port, timeout=10
                    )
                    try:
                        conn.request("POST", "/v1/query", body=payload)
                        response = conn.getresponse()
                        body = json.loads(response.read())
                    finally:
                        conn.close()
                    replies.append((response.status, body["cache_hits"]))
                # A memo hit and a never-seen bounded row (computed on the
                # loop) are both answered...
                assert replies == [(200, 1), (200, 0)]
                assert not parked  # ...while the worker is still parked
            finally:
                release.set()
                holder.join(timeout=60)
            assert not holder.is_alive()
            assert parked[0][0] == 200

    @pytest.mark.parametrize("stream", [False, True])
    def test_many_bounded_rows_do_not_hold_the_loop(self, stream):
        """One row's work on the loop is bounded, a request's row count is
        not: between two rows computed on the loop the loop serves other
        connections, and a row it declines starts at once.  Each computed
        row is made to take 2 ms, so the request's 400 bounded rows hold
        it for at least 0.8 s; ``/healthz`` is answered, and the declined
        first row reaches the pool, while most of them are still to come."""
        engine = ReliabilityEngine()
        computed, answer_inline = [], engine.answer_inline

        def slow_answer_inline(query, policy=None):
            answer = answer_inline(query, policy)
            if answer is not None:
                time.sleep(0.002)
                computed.append(query)
            return answer

        engine.answer_inline = slow_answer_inline
        rows = 400
        payload = QuerySet.build(
            [ReliabilityQuery(scenario(33, 0.01))]
            + [ReliabilityQuery(scenario(5, 0.001 * (i + 1))) for i in range(rows)]
        ).to_json()
        with BackgroundServer(ServiceConfig(port=0), engine=engine) as running:
            pool = running.service._pool
            submitted_at, submit = [], pool.submit

            def timed_submit(fn, *args, **kwargs):
                submitted_at.append(len(computed))
                return submit(fn, *args, **kwargs)

            pool.submit = timed_submit
            replies: list = []
            send = post_stream if stream else post
            client = threading.Thread(
                target=lambda: replies.append(send(running.port, payload))
            )
            client.start()
            try:
                deadline = time.monotonic() + 30
                while not computed and time.monotonic() < deadline:
                    time.sleep(0.001)
                status, health = get(running.port, "/healthz")
                answered_at = len(computed)
            finally:
                client.join(timeout=120)
            assert (status, health["status"]) == (200, "ok")
            assert 0 < answered_at < rows // 2
            assert len(submitted_at) == 1 and submitted_at[0] < rows // 2
            _status, metrics = get(running.port, "/metrics")
            assert metrics["inline_total"] == rows
        if stream:
            summary = replies[0][-1]
            assert (summary["answers"], summary["errors"]) == (rows + 1, 0)
        else:
            status, body = replies[0]
            assert (status, body["count"], body["cache_hits"]) == (200, rows + 1, 0)

    def test_error_raised_on_the_loop_is_the_rows_outcome(self):
        """``answer_inline`` raising on the loop reads like the executor
        path raising: 422 for a library error, 500 otherwise."""
        from repro.errors import EstimationError

        for error, expected in (
            (EstimationError("no such estimator"), 422),
            (RuntimeError("answer_inline exploded"), 500),
        ):
            engine = ReliabilityEngine()

            def raising(query, policy=None, error=error):
                raise error

            engine.answer_inline = raising
            with BackgroundServer(ServiceConfig(port=0), engine=engine) as running:
                status, body = post(running.port, self.rows((3, 0.01), (5, 0.01)))
                lines = post_stream(running.port, self.rows((3, 0.01)))
                _status, metrics = get(running.port, "/metrics")
            assert status == expected
            assert body == {"error": str(error), "failed_index": 0, "failures": 2}
            assert lines[0] == {"index": 0, "error": str(error)}
            assert lines[-1]["errors"] == 1
            assert metrics["queries_total"] == 0
            assert metrics["query_latency_by_kind"]["reliability"]["count"] == 3

    def test_one_row_post_takes_the_same_pass_as_a_batch(self):
        """A plain one-row POST has no path of its own: a bounded miss is
        computed on the loop, a row past the bound goes to the pool once,
        each answers as it does inside a many-row POST, and an error
        raised on the loop reads like a batch's."""
        from repro.errors import EstimationError

        with BackgroundServer(ServiceConfig(port=0)) as running:
            submitted = self.spy_on(running.service._pool)
            status, bounded = post(running.port, self.rows((5, 0.02)))
            assert (status, bounded["count"], bounded["cache_hits"]) == (200, 1, 0)
            assert submitted == []
            status, declined = post(running.port, self.rows((33, 0.02)))
            assert (status, declined["count"], declined["cache_hits"]) == (200, 1, 0)
            assert len(submitted) == 1
            status, batch = post(running.port, self.rows((5, 0.02), (33, 0.02)))
            assert (status, batch["cache_hits"]) == (200, 2)
            assert len(submitted) == 1
            _status, metrics = get(running.port, "/metrics")
            assert metrics["inline_total"] == 1
        assert answer_values(bounded["answers"] + declined["answers"]) == (
            answer_values(batch["answers"])
        )

        engine = ReliabilityEngine()

        def raising(query, policy=None):
            raise EstimationError("no such estimator")

        engine.answer_inline = raising
        with BackgroundServer(ServiceConfig(port=0), engine=engine) as running:
            status, body = post(running.port, self.rows((3, 0.01)))
        assert status == 422
        assert body == {"error": "no such estimator", "failed_index": 0, "failures": 1}

    def test_plain_and_streamed_replies_come_from_one_loop(self):
        """One body — a memo hit, a bounded miss computed on the loop and a
        seeded campaign the loop declines — posted plain and then with
        ``?stream=1``, each to a fresh daemon warmed alike: the streamed
        lines, keyed by ``index``, are the plain ``answers`` and the
        summary counts what the plain reply counts.  With a row whose
        ``answer_inline`` raises, the streamed error line names the row
        the plain 422 names."""
        from repro.errors import EstimationError

        warm = ReliabilityQuery(scenario(3, 0.01))
        rows = [
            warm,
            ReliabilityQuery(scenario(5, 0.02)),
            SimulationQuery(scenario(3, 0.1, seed=5), replicas=4, duration=2.0),
        ]
        failing = ReliabilityQuery(scenario(7, 0.03, label="fails"))

        def reply(queries, stream, fail=False):
            engine = ReliabilityEngine()
            if fail:
                answer_inline = engine.answer_inline

                def raising(query, policy=None):
                    if query.label == "fails":
                        raise EstimationError("no such estimator")
                    return answer_inline(query, policy)

                engine.answer_inline = raising
            payload = QuerySet.build(queries).to_json()
            with BackgroundServer(ServiceConfig(port=0), engine=engine) as running:
                assert post(running.port, QuerySet.build([warm]).to_json())[0] == 200
                return (post_stream if stream else post)(running.port, payload)

        status, plain = reply(rows, stream=False)
        lines = reply(rows, stream=True)
        assert status == 200
        assert [row["cache_hit"] for row in plain["answers"]] == [True, False, False]
        summary = lines[-1]
        by_index = {line.pop("index"): line for line in lines[:-1]}
        assert [by_index[index] for index in range(len(rows))] == plain["answers"]
        assert (summary["answers"], summary["errors"], summary["coalesced"]) == (
            plain["count"], 0, plain["coalesced"],
        )

        with_error = rows[:2] + [failing] + rows[2:]
        status, plain = reply(with_error, stream=False, fail=True)
        lines = reply(with_error, stream=True, fail=True)
        assert (status, plain["failed_index"], plain["failures"]) == (422, 2, 1)
        (error_line,) = [line for line in lines[:-1] if "error" in line]
        assert error_line == {"index": plain["failed_index"], "error": plain["error"]}
        assert (lines[-1]["answers"], lines[-1]["errors"]) == (len(with_error) - 1, 1)


class TestStreaming:
    def test_stream_emits_one_line_per_answer(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
        try:
            conn.request("POST", "/v1/query?stream=1", body=GRID_PAYLOAD)
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            lines = [
                json.loads(line)
                for line in response.read().decode().strip().split("\n")
            ]
        finally:
            conn.close()
        summary = lines[-1]
        assert summary["done"] is True
        assert summary["answers"] == 3
        assert summary["errors"] == 0
        rows = sorted(lines[:-1], key=lambda row: row["index"])
        assert [row["index"] for row in rows] == [0, 1, 2]
        _status, plain = post(server.port, GRID_PAYLOAD)
        assert answer_values(rows) == answer_values(plain["answers"])


class TestRestartResume:
    def test_restart_resumes_campaign_byte_identically(self, tmp_path):
        """Same journal dir across a daemon restart: same bytes out.

        Daemon A answers a simulation campaign and journals its shards.
        All but one shard file is then deleted — the crash-mid-campaign
        shape — and daemon B (fresh engine, cold memo) must resume from
        the survivor and produce the identical answer, which also matches
        a journal-free run.
        """
        checkpoint_dir = tmp_path / "journals"
        config = ServiceConfig(
            port=0, checkpoint_dir=str(checkpoint_dir), shard_trials=16
        )
        payload = QuerySet.build(
            [
                SimulationQuery(
                    scenario(3, seed=29, label="campaign"),
                    replicas=48,
                    duration=5.0,
                    commands=2,
                )
            ]
        ).to_json()
        with BackgroundServer(config) as daemon_a:
            status_a, body_a = post(daemon_a.port, payload)
        assert status_a == 200
        (journal,) = checkpoint_dir.glob("campaign-*")
        shard_files = sorted(journal.glob("shard-*.json"))
        assert len(shard_files) == 48 // 16
        for lost in shard_files[1:]:
            lost.unlink()  # crash shape

        with BackgroundServer(config) as daemon_b:
            status_b, body_b = post(daemon_b.port, payload)
        assert status_b == 200
        assert answer_values(body_b["answers"]) == answer_values(
            body_a["answers"]
        )

        clean = ServiceConfig(port=0, shard_trials=16)
        with BackgroundServer(clean) as daemon_c:
            status_c, body_c = post(daemon_c.port, payload)
        assert status_c == 200
        assert answer_values(body_c["answers"]) == answer_values(
            body_a["answers"]
        )


class TestMetrics:
    def test_metrics_shape_and_progression(self):
        with BackgroundServer(ServiceConfig(port=0)) as running:
            post(running.port, GRID_PAYLOAD)
            post(running.port, GRID_PAYLOAD)
            _status, metrics = get(running.port, "/metrics")
        assert metrics["queries_total"] == 6
        assert metrics["answers_total"] == 6
        assert metrics["requests_total"] >= 2
        assert metrics["max_rss_bytes"] > 5 * 2**20
        assert metrics["engine_cache"]["hits"] >= 3
        assert metrics["engine_cache"]["max_size"] == 4096
        assert 0.0 < metrics["engine_cache"]["hit_rate"] <= 1.0
        assert metrics["latency_seconds"]["count"] >= 2
        assert metrics["latency_seconds"]["p50"] >= 0.0
        assert "POST /v1/query -> 200" in metrics["responses"]
        assert metrics["campaigns"]["answer_cache_hits"] == 3


class TestCli:
    def test_serve_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--jobs",
                "2",
                "--checkpoint-dir",
                "/tmp/journals",
                "--cache-size",
                "128",
            ]
        )
        assert args.port == 0
        assert args.jobs == 2
        assert args.checkpoint_dir == "/tmp/journals"
        assert args.cache_size == 128
        assert args.on_shard_failure == "degrade"
        assert args.retries == 1
