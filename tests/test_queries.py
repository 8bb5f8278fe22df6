"""Query/Answer API tests: codecs, backends, batching, determinism.

Covers the PR 4 acceptance criteria: ``MTTFQuery``/``AvailabilityQuery``
answers match direct :mod:`repro.markov.builders` calls bit-for-bit, a
seeded ``SimulationQuery`` is invariant to ``ExecutionPolicy.jobs``, and
a single JSON document mixing all four query kinds runs end-to-end.
"""

from __future__ import annotations

import http.client
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Answer,
    AnswerSet,
    AvailabilityQuery,
    ExecutionPolicy,
    MTTFQuery,
    Provenance,
    Query,
    QuerySet,
    ReliabilityEngine,
    ReliabilityQuery,
    Scenario,
    ScenarioSet,
    SimulationQuery,
    get_backend,
    query_from_dict,
    register_backend,
    registered_kinds,
)
from repro.errors import EstimationError, InvalidConfigurationError
from repro.faults.afr import afr_to_hourly_rate
from repro.faults.mixture import byzantine_fleet, uniform_fleet
from repro.markov.builders import ClusterMarkovModel
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import RaftSpec
from repro.serve import BackgroundServer, ServiceConfig


def scenario(n=5, p=0.01, **kw):
    return Scenario(spec=RaftSpec(n), fleet=uniform_fleet(n, p), **kw)


def _hostile(row: dict, token: str) -> str:
    """``row`` as a one-row query file, its ``"@"`` value replaced by the
    raw JSON ``token`` (``1e400``, ``NaN`` and ``Infinity`` have no Python
    literal that ``json.dumps`` writes back verbatim)."""
    return json.dumps([row]).replace('"@"', token)


def _campaign(n=3, spec=None, **faults) -> dict:
    fleet = uniform_fleet(n, 0.1) if spec is None else byzantine_fleet(n, 0.1)
    base = Scenario(spec=spec or RaftSpec(n), fleet=fleet, seed=1)
    row = SimulationQuery(base, replicas=2, duration=3.0, commands=1).to_dict()
    if faults:
        row["faults"] = faults
    return row


_MC = dict(scenario(3, 0.1, seed=1, trials=1000).to_dict(), method="monte-carlo")
_AVAILABILITY = AvailabilityQuery.from_afr(
    scenario(3), afr=0.08, mttr_hours=24.0
).to_dict()
_PBFT = Scenario(spec=PBFTSpec(4), fleet=byzantine_fleet(4, 0.01)).to_dict()
_RAFT_1 = scenario(1, 0.1).to_dict()
_RAFT_3 = scenario(3).to_dict()


def _fleet(**fleet) -> dict:
    return dict(_RAFT_3, fleet=fleet)


#: ``(id, field, query file)``: each file's one row is well-formed but for
#: ``field``.  Before the typed field codec (``repro._codec``) the first
#: five were a daemon 500 (an ``OverflowError`` at parse, or a seed NumPy
#: refuses at run time) and the next eleven a 200 answered from a silently
#: different value.  Of the fleet and file rows after them, the last two
#: were a 400 that did not name the field (a ``TypeError``) and the rest a
#: 200.  Every door must refuse each one by the field's name.
HOSTILE_ROWS = [
    ("crash-node-1e400", "node",
     _hostile(_campaign(events=[{"kind": "crash", "node": "@", "at": 1.0}]), "1e400")),
    ("partition-groups-1e400", "groups",
     _hostile(_campaign(events=[{"kind": "partition", "groups": [["@"]], "at": 1.0}]),
              "1e400")),
    ("adversary-nodes-1e400", "nodes",
     _hostile(_campaign(4, PBFTSpec(4), adversary={"nodes": ["@"]}), "1e400")),
    ("seed-abc", "seed", _hostile(dict(_MC, seed="@"), '"abc"')),
    ("seed-1.5", "seed", _hostile(dict(_MC, seed="@"), "1.5")),
    ("crash-node-true", "node",
     _hostile(_campaign(events=[{"kind": "crash", "node": "@", "at": 1.0}]), "true")),
    ("crash-node-2.5", "node",
     _hostile(_campaign(events=[{"kind": "crash", "node": "@", "at": 1.0}]), "2.5")),
    ("burst-members-1.5", "members",
     _hostile(_campaign(events=[{"kind": "correlated-burst", "members": ["@"], "at": 1.0}]),
              "1.5")),
    ("seed-true", "seed", _hostile(dict(_MC, seed="@"), "true")),
    ("window-hours-string", "window_hours",
     _hostile(dict(scenario(3).to_dict(), window_hours="@"), '"x"')),
    ("loss-burst-at-string", "at",
     _hostile(_campaign(events=[{"kind": "loss-burst", "at": "@", "until": 2.0,
                                 "drop_probability": 0.1}]), '"0.5"')),
    ("spec-n-true", "n",
     _hostile(dict(_RAFT_1, spec={"protocol": "raft", "n": "@"}), "true")),
    ("pbft-q-per-2.5", "q_per",
     _hostile(dict(_PBFT, spec={"protocol": "pbft", "n": 4, "q_per": "@"}), "2.5")),
    ("availability-repair-nan", "repair_rate_per_hour",
     _hostile(dict(_AVAILABILITY, repair_rate_per_hour="@"), "NaN")),
    ("availability-failure-infinity", "failure_rate_per_hour",
     _hostile(dict(_AVAILABILITY, failure_rate_per_hour="@"), "Infinity")),
    ("campaign-duration-1e400", "duration",
     _hostile(dict(_campaign(), duration="@"), "1e400")),
    # A ``true`` after an equal-valued ``1.0`` row must not share its node.
    ("node-p-crash-true", "p_crash",
     _hostile(_fleet(nodes=[{"p_crash": 1.0}, {"p_crash": "@"}, {"p_crash": 1.0}]),
              "true")),
    ("node-p-crash-string", "p_crash",
     _hostile(_fleet(nodes=[{"p_crash": "@"}] * 3), '"0.5"')),
    ("uniform-p-fail-true", "p_fail",
     _hostile(_fleet(uniform={"n": 3, "p_fail": "@"}), "true")),
    ("uniform-byzantine-fraction-string", "byzantine_fraction",
     _hostile(_fleet(uniform={"n": 3, "p_fail": 0.1, "byzantine_fraction": "@"}),
              '"0.5"')),
    ("fleet-nodes-5", "nodes", _hostile(_fleet(nodes="@"), "5")),
    ("scenarios-5", "scenarios", '{"scenarios": 5}'),
]

#: ``(id, key, query file)``: a misspelt, unknown, missing or second key
#: of a fleet or of the file itself.  Before the fleet codec each was a
#: 200 answered without the key (or, for ``uniform-without-n``, a 400 that
#: did not name it).  Every door must refuse each one by the key's name.
KEY_ROWS = [
    ("node-p-crsh", "p_crsh",
     json.dumps([_fleet(nodes=[{"p_crash": 0.1, "p_crsh": 0.9}] * 3)])),
    ("uniform-unknown-key", "fnord",
     json.dumps([_fleet(uniform={"n": 3, "p_fail": 0.1, "fnord": 1})])),
    ("nodes-beside-unknown-key", "fnord",
     json.dumps([_fleet(nodes=[{"p_crash": 0.1}] * 3, fnord=1)])),
    ("fleet-nodes-and-uniform", "uniform",
     json.dumps([_fleet(nodes=[{"p_crash": 0.1}] * 3, uniform={"n": 3, "p_fail": 0.1})])),
    ("uniform-without-n", "n", json.dumps([_fleet(uniform={"p_fail": 0.1})])),
    ("queries-and-grid", "grid",
     json.dumps({"queries": [_RAFT_3], "grid": {"sizes": [3]}})),
    ("scenarios-and-grid", "scenarios",
     json.dumps({"scenarios": [_RAFT_3], "grid": {"sizes": [3]}})),
    ("queries-and-querys", "querys",
     json.dumps({"queries": [_RAFT_3], "querys": [_RAFT_3]})),
]


def names_field(message: str, field: str) -> bool:
    """Whether a refusal names ``field`` (``groups[][] must be ...`` names
    ``groups``)."""
    return re.search(rf"(^|\W){re.escape(field)}(\[\])* must be", message) is not None


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(ServiceConfig(port=0)) as running:
        yield running


class TestQueryTypes:
    def test_registered_kinds_and_backends_align(self):
        # One table: every kind it lists is both parseable and answerable.
        kinds = set(registered_kinds())
        assert {"reliability", "availability", "mttf", "simulation"} <= kinds
        for kind in kinds:
            assert callable(get_backend(kind))
        with pytest.raises(InvalidConfigurationError, match=r"registered: \["):
            query_from_dict({"kind": "nope", "scenario": {}})
        with pytest.raises(EstimationError, match=r"registered: \["):
            get_backend("nope")

    def test_markov_query_validation(self):
        with pytest.raises(InvalidConfigurationError):
            AvailabilityQuery(scenario(), failure_rate_per_hour=-1.0)
        with pytest.raises(InvalidConfigurationError):
            AvailabilityQuery(scenario(5), quorum_size=6)
        with pytest.raises(InvalidConfigurationError):
            MTTFQuery(scenario(5), persistence_quorum=0)
        with pytest.raises(InvalidConfigurationError, match="window_hours"):
            AvailabilityQuery(
                scenario(),
                failure_rate_per_hour=1e-5,
                repair_rate_per_hour=0.1,
                window_hours=0.0,
            )

    def test_simulation_query_accepts_correlated_scenarios(self):
        # Correlated scenarios sample their window outcomes from the
        # correlation model (repro.injection), and the campaign memo key
        # carries the model, so shock campaigns never share cache entries
        # with their independent twins.
        from repro.faults.correlation import CommonShockModel, ShockGroup

        fleet = uniform_fleet(3, 0.05)
        correlated = Scenario(
            spec=RaftSpec(3),
            fleet=fleet,
            seed=7,
            correlation=CommonShockModel(
                fleet, (ShockGroup(members=(0, 1), probability=0.5),)
            ),
        )
        independent = Scenario(spec=RaftSpec(3), fleet=fleet, seed=7)
        engine = ReliabilityEngine()
        shocked = engine.run_query(
            SimulationQuery(correlated, replicas=4, duration=4.0, commands=2)
        )
        plain = engine.run_query(
            SimulationQuery(independent, replicas=4, duration=4.0, commands=2)
        )
        assert shocked.value.replicas == plain.value.replicas == 4
        assert not plain.provenance.cache_hit  # distinct memo entries
        again = engine.run_query(
            SimulationQuery(correlated, replicas=4, duration=4.0, commands=2)
        )
        assert again.provenance.cache_hit
        assert again.value is shocked.value

    def test_simulation_query_validation(self):
        with pytest.raises(InvalidConfigurationError):
            SimulationQuery(scenario(), replicas=0)
        with pytest.raises(InvalidConfigurationError):
            SimulationQuery(scenario(), duration=-1.0)
        with pytest.raises(InvalidConfigurationError):
            SimulationQuery(scenario(), duration=5.0, crash_window=(0.0, 6.0))

    def test_simulation_query_byzantine_needs_registered_behaviour(self):
        # Byzantine outcomes need a registered misbehaviour class for the
        # spec's family; a Raft fleet has none, and running "Byzantine"
        # nodes as honest code would silently misreport safety.  The error
        # names the fault-plan subsystem as the way in.
        byzantine = Scenario(
            spec=RaftSpec(3), fleet=uniform_fleet(3, 0.1, byzantine_fraction=0.5)
        )
        with pytest.raises(InvalidConfigurationError, match="repro.injection"):
            SimulationQuery(byzantine, replicas=2, duration=4.0)
        # PBFT fleets have built-in behaviours, so the same mix is accepted.
        from repro.protocols.pbft import PBFTSpec

        accepted = SimulationQuery(
            Scenario(
                spec=PBFTSpec(4),
                fleet=uniform_fleet(4, 0.1, byzantine_fraction=0.5),
                seed=3,
            ),
            replicas=2,
            duration=4.0,
            commands=2,
        )
        assert accepted.replicas == 2

    def test_simulation_query_rejects_commands_past_duration(self):
        # All submits happen at 1.0 + 0.1k; commands past the deadline
        # would read as a guaranteed 100% liveness-violation rate.
        with pytest.raises(InvalidConfigurationError, match="never decided"):
            SimulationQuery(scenario(), duration=0.8, commands=3)
        with pytest.raises(InvalidConfigurationError, match="never decided"):
            SimulationQuery(scenario(), duration=12.0, commands=120)
        # a command-free probe of a short window is still allowed
        SimulationQuery(scenario(), duration=0.5, commands=0, crash_window=(0.0, 0.4))

    def test_resolved_quorums_default_to_majority(self):
        q = MTTFQuery(scenario(7), failure_rate_per_hour=1e-5, repair_rate_per_hour=0.1)
        assert q.resolved_quorum == 4
        assert q.resolved_persistence_quorum == 4
        q2 = MTTFQuery(
            scenario(7),
            failure_rate_per_hour=1e-5,
            repair_rate_per_hour=0.1,
            quorum_size=5,
            persistence_quorum=2,
        )
        assert (q2.resolved_quorum, q2.resolved_persistence_quorum) == (5, 2)

    def test_from_afr_matches_manual_conversion(self):
        q = AvailabilityQuery.from_afr(scenario(), afr=0.08, mttr_hours=24.0)
        assert q.failure_rate_per_hour == afr_to_hourly_rate(0.08)
        assert q.repair_rate_per_hour == 1.0 / 24.0


class TestCodecs:
    def test_dict_round_trip_every_kind(self):
        base = scenario(5, 0.02, seed=7, label="row")
        queries = [
            ReliabilityQuery(base),
            AvailabilityQuery(
                base,
                failure_rate_per_hour=1e-5,
                repair_rate_per_hour=0.05,
                repair_slots=2,
                quorum_size=4,
                window_hours=720.0,
            ),
            MTTFQuery(
                base,
                failure_rate_per_hour=2e-5,
                repair_rate_per_hour=0.1,
                persistence_quorum=2,
            ),
            SimulationQuery(base, replicas=9, duration=7.5, commands=3),
        ]
        for query in queries:
            rebuilt = query_from_dict(query.to_dict())
            assert type(rebuilt) is type(query)
            assert rebuilt.to_dict() == query.to_dict()

    def test_bare_scenario_dict_becomes_reliability_query(self):
        row = scenario(3).to_dict()
        rebuilt = query_from_dict(row)
        assert isinstance(rebuilt, ReliabilityQuery)
        assert rebuilt.scenario.to_dict() == row

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="unknown query kind"):
            query_from_dict({"kind": "fnord", "scenario": scenario(3).to_dict()})

    @pytest.mark.parametrize(
        "field, text", [row[1:] for row in HOSTILE_ROWS], ids=[row[0] for row in HOSTILE_ROWS]
    )
    def test_hostile_field_is_refused_by_name(self, field, text):
        with pytest.raises(InvalidConfigurationError) as refused:
            QuerySet.from_json(text)
        assert names_field(str(refused.value), field), str(refused.value)

    @pytest.mark.parametrize(
        "key, text", [row[1:] for row in KEY_ROWS], ids=[row[0] for row in KEY_ROWS]
    )
    def test_unknown_missing_or_second_key_is_refused_by_name(self, server, key, text):
        with pytest.raises(InvalidConfigurationError, match=repr(key)):
            QuerySet.from_json(text)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.request("POST", "/v1/query", body=text)
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400, body
        assert repr(key) in body["error"], body["error"]

    def test_unknown_field_rejected(self):
        data = SimulationQuery(scenario(3)).to_dict()
        data["fnord"] = 1
        with pytest.raises(InvalidConfigurationError, match="fnord"):
            query_from_dict(data)

    def test_queryset_json_shapes(self):
        mixed = QuerySet.build(
            [
                ReliabilityQuery(scenario(3, label="a")),
                MTTFQuery(
                    scenario(5, label="b"),
                    failure_rate_per_hour=1e-5,
                    repair_rate_per_hour=0.04,
                ),
            ]
        )
        round_tripped = QuerySet.from_json(mixed.to_json())
        assert round_tripped.to_dicts() == mixed.to_dicts()
        # ScenarioSet shapes remain valid query files (reliability rows).
        scenario_file = ScenarioSet.build([scenario(3), scenario(5)]).to_json()
        as_queries = QuerySet.from_json(scenario_file)
        assert all(isinstance(q, ReliabilityQuery) for q in as_queries)
        grid = QuerySet.from_json(
            '{"grid": {"protocols": ["raft"], "sizes": [3, 5], "probabilities": [0.01]}}'
        )
        assert len(grid) == 2
        with pytest.raises(InvalidConfigurationError):
            QuerySet.from_json('{"fnord": 1}')

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=9),
        rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        mu=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
        slots=st.integers(min_value=0, max_value=4),
        window=st.none() | st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
        replicas=st.integers(min_value=1, max_value=50),
        duration=st.floats(min_value=2.0, max_value=60.0, allow_nan=False),
        commands=st.integers(min_value=0, max_value=8),
        seed=st.none() | st.integers(min_value=0, max_value=2**31),
    )
    def test_json_round_trip_property(
        self, n, rate, mu, slots, window, replicas, duration, commands, seed
    ):
        base = scenario(n, 0.01, seed=seed, label=f"n={n}")
        queries = QuerySet.build(
            [
                AvailabilityQuery(
                    base,
                    failure_rate_per_hour=rate,
                    repair_rate_per_hour=mu,
                    repair_slots=slots,
                    window_hours=window,
                ),
                MTTFQuery(
                    base,
                    failure_rate_per_hour=rate,
                    repair_rate_per_hour=mu,
                    repair_slots=slots,
                ),
                SimulationQuery(
                    base, replicas=replicas, duration=duration, commands=commands
                ),
                ReliabilityQuery(base),
            ]
        )
        rebuilt = QuerySet.from_json(queries.to_json())
        assert rebuilt.to_dicts() == queries.to_dicts()
        # the JSON form itself is stable under a second round trip
        assert json.loads(rebuilt.to_json()) == json.loads(queries.to_json())


class TestMarkovBackends:
    AFR, MTTR = 0.08, 24.0

    def test_availability_matches_builders_bit_for_bit(self):
        engine = ReliabilityEngine()
        query = AvailabilityQuery.from_afr(
            scenario(5), afr=self.AFR, mttr_hours=self.MTTR, window_hours=720.0
        )
        answer = engine.run_query(query)
        model = ClusterMarkovModel(5, afr_to_hourly_rate(self.AFR), 1.0 / self.MTTR)
        assert answer.value.availability == model.steady_state_availability(3)
        assert answer.value.window_unavailability == model.window_unavailability(3, 720.0)
        assert answer.provenance.backend == "availability"

    def test_mttf_matches_builders_bit_for_bit(self):
        engine = ReliabilityEngine()
        query = MTTFQuery.from_afr(
            scenario(7), afr=self.AFR, mttr_hours=self.MTTR, persistence_quorum=3
        )
        answer = engine.run_query(query)
        model = ClusterMarkovModel(7, afr_to_hourly_rate(self.AFR), 1.0 / self.MTTR)
        assert answer.value.mttf_hours == model.mttf_liveness(4)
        assert answer.value.mttdl_hours == model.mttdl(3)

    def test_unreachable_liveness_threshold_is_zero(self):
        # quorum > n is invalid, but quorum == n makes threshold 1; the
        # 0-threshold convention needs quorum > n which the query rejects —
        # instead pin the mttf_liveness <= 0 convention via the builders.
        model = ClusterMarkovModel(3, 1e-5, 0.1)
        assert model.mttf_liveness(3) == model.mean_time_to_failure_count(1)

    def test_same_chain_queries_batch_without_building_a_generator(self, monkeypatch):
        from repro.markov.chain import ContinuousTimeMarkovChain

        def refuse(*_args, **_kwargs):
            raise AssertionError("generator built")

        # The birth–death closed forms read the rates; no chain is built.
        monkeypatch.setattr(ContinuousTimeMarkovChain, "__init__", refuse)
        engine = ReliabilityEngine()
        base = scenario(9)
        queries = [
            AvailabilityQuery(
                base,
                failure_rate_per_hour=1e-5,
                repair_rate_per_hour=0.04,
                quorum_size=q,
            )
            for q in (5, 6, 7, 8)
        ]
        answers = engine.run(QuerySet.build(queries))
        assert all(a.provenance.batched for a in answers)
        assert all(a.provenance.batch_size == 4 for a in answers)
        model = ClusterMarkovModel(9, 1e-5, 0.04)
        pi = model.steady_state_distribution()
        for q, a in zip((5, 6, 7, 8), answers):
            assert a.value.availability == model.steady_state_availability(q, pi=pi)
            assert a.value.availability == model.steady_state_availability(q)

    def test_markov_answers_are_memoised(self):
        engine = ReliabilityEngine()
        query = MTTFQuery.from_afr(scenario(5), afr=0.04, mttr_hours=12.0)
        first = engine.run_query(query)
        second = engine.run_query(query)
        assert not first.provenance.cache_hit
        assert second.provenance.cache_hit
        assert second.value is first.value

    def test_availability_requires_repair_at_construction(self):
        # Parse-time failure: a JSON query file omitting the repair rate is
        # rejected by QuerySet.from_json, not by a backend traceback mid-run.
        with pytest.raises(InvalidConfigurationError, match="needs μ > 0"):
            AvailabilityQuery(scenario(3), failure_rate_per_hour=1e-5)
        bad_row = {
            "kind": "availability",
            "scenario": scenario(3).to_dict(),
            "failure_rate_per_hour": 1e-5,
        }
        with pytest.raises(InvalidConfigurationError, match="needs μ > 0"):
            QuerySet.from_dicts([bad_row])


class TestSimulationBackend:
    def make_query(self, seed=42, replicas=6, **kw):
        return SimulationQuery(
            scenario(3, 0.25, seed=seed, label="campaign"),
            replicas=replicas,
            duration=6.0,
            commands=2,
            **kw,
        )

    def test_seeded_campaign_invariant_to_jobs_and_mode(self):
        baseline = ReliabilityEngine(cache_size=0).run_query(self.make_query()).value
        for policy in (
            ExecutionPolicy(mode="thread", jobs=1),
            ExecutionPolicy(mode="thread", jobs=4),
            ExecutionPolicy(mode="thread", jobs=4, shard_trials=2),
            ExecutionPolicy(mode="process", jobs=2),
        ):
            value = (
                ReliabilityEngine(cache_size=0)
                .run_query(self.make_query(), policy=policy)
                .value
            )
            assert value == baseline, policy

    def test_healthy_fleet_campaign_is_clean(self):
        answer = ReliabilityEngine().run_query(
            SimulationQuery(
                scenario(3, 0.0, seed=1), replicas=4, duration=6.0, commands=2
            )
        )
        value = answer.value
        assert value.safety_violations == 0
        assert value.liveness_violations == 0
        assert value.predicate_mismatches == 0
        assert value.safety_violation_rate.value == 0.0
        assert 0.0 <= value.liveness_violation_rate.ci_high < 1.0

    def test_seeded_campaign_is_memoised(self):
        engine = ReliabilityEngine()
        first = engine.run_query(self.make_query())
        second = engine.run_query(self.make_query())
        assert not first.provenance.cache_hit
        assert second.provenance.cache_hit
        assert second.value is first.value

    def test_fleet_of_another_size_is_refused_when_built(self):
        """Before any replica runs: it used to raise from ``spec.is_live``
        inside the worker, after a whole replica had been simulated."""
        with pytest.raises(
            InvalidConfigurationError, match="fleet has 3 nodes but spec expects 5"
        ):
            Scenario(spec=RaftSpec(5), fleet=uniform_fleet(3, 0.1), seed=1)
        row = self.make_query().to_dict()
        row["scenario"]["spec"]["n"] = 5
        with pytest.raises(InvalidConfigurationError, match="spec expects 5"):
            query_from_dict(row)

    def test_unsupported_spec_raises(self):
        from repro.protocols.benor import BenOrSpec

        query = SimulationQuery(
            Scenario(spec=BenOrSpec(3), fleet=uniform_fleet(3, 0.1), seed=1),
            replicas=2,
            duration=4.0,
        )
        with pytest.raises(EstimationError, match="no simulation node factory"):
            ReliabilityEngine().run_query(query)


class TestEngineDispatch:
    def test_scenario_and_query_doors_are_one(self):
        """A ScenarioSet and its QuerySet.from_scenarios twin are the same
        submission: same values and provenance, one memo, same counters."""
        scenarios = ScenarioSet.build(
            [
                scenario(3),
                scenario(5),
                scenario(5),  # in-run duplicate
                scenario(5, 0.04),
                scenario(7, 0.02, method="monte-carlo", trials=2_000, seed=5),
            ]
        )
        bare_engine, wrapped_engine = ReliabilityEngine(), ReliabilityEngine()
        bare = bare_engine.run(scenarios)
        wrapped = wrapped_engine.run(QuerySet.from_scenarios(scenarios))
        assert isinstance(bare, AnswerSet) and isinstance(wrapped, AnswerSet)
        assert bare.values == wrapped.values
        describe = [a.provenance.describe() for a in bare]
        assert describe == [a.provenance.describe() for a in wrapped]
        assert describe == [
            "reliability:counting/solo",
            "reliability:counting/batch[2]",
            "reliability:counting/cache",
            "reliability:counting/batch[2]",
            "reliability:monte-carlo/solo",
        ]
        assert (bare_engine.cache_hits, bare_engine.cache_misses) == (
            wrapped_engine.cache_hits,
            wrapped_engine.cache_misses,
        ) == (1, 4)
        # One memo: what either door stored, the other door hits.
        again = bare_engine.run(QuerySet.from_scenarios(scenarios))
        assert all(a.provenance.cache_hit for a in again)
        assert again.values == bare.values
        assert wrapped_engine.run(scenarios).cache_hits == len(scenarios)

    def test_backend_override_is_honoured_for_bare_scenarios(self):
        engine = ReliabilityEngine()
        marker = object()

        def fake_backend(queries, policy):
            return [
                Answer(q, marker, Provenance(estimator="fake", backend="reliability"))
                for q in queries
            ]

        engine.register_backend("reliability", fake_backend)
        scenarios = ScenarioSet.build([scenario(3), scenario(5)])
        assert engine.run(scenarios).values == [marker, marker]
        assert engine.run(QuerySet.from_scenarios(scenarios)).values == [marker, marker]
        assert engine.run_query(scenario(3)).value is marker

    def test_no_builtin_backend_reenters_the_engine(self):
        """Backends reach the engine through its memo and registry only."""

        class OneDoor(ReliabilityEngine):
            depth = 0

            def run(self, items, policy=None):
                assert self.depth == 0, "a backend called back into engine.run"
                self.depth += 1
                try:
                    return super().run(items, policy)
                finally:
                    self.depth -= 1

        answers = OneDoor().run(
            [
                scenario(3),
                scenario(5, 0.02, method="monte-carlo", trials=1_000, seed=1),
                MTTFQuery.from_afr(scenario(5), afr=0.08, mttr_hours=24.0),
                AvailabilityQuery.from_afr(scenario(5), afr=0.08, mttr_hours=24.0),
                SimulationQuery(scenario(3, 0.1, seed=2), replicas=2, duration=4.0),
            ]
        )
        assert [a.kind for a in answers] == [
            "reliability", "reliability", "mttf", "availability", "simulation",
        ]

    def test_mixed_queries_and_scenarios_coerce(self):
        engine = ReliabilityEngine()
        answers = engine.run(
            [
                scenario(3, label="bare"),
                MTTFQuery.from_afr(scenario(5), afr=0.08, mttr_hours=24.0),
            ]
        )
        assert isinstance(answers, AnswerSet)
        assert answers[0].kind == "reliability"
        assert answers[1].kind == "mttf"
        assert answers[0].query.label == "bare"

    def test_reliability_answers_match_scenario_path(self):
        engine = ReliabilityEngine()
        plain = engine.run([scenario(5, 0.03)])[0].value
        engine2 = ReliabilityEngine()
        answer = engine2.run(QuerySet.from_scenarios([scenario(5, 0.03)]))[0]
        assert answer.value == plain
        assert answer.provenance.backend == "reliability"

    def test_submission_order_preserved_across_kinds(self):
        engine = ReliabilityEngine()
        rows = [
            MTTFQuery.from_afr(scenario(5, label="m"), afr=0.08, mttr_hours=24.0),
            ReliabilityQuery(scenario(3, label="r")),
            AvailabilityQuery.from_afr(scenario(5, label="a"), afr=0.08, mttr_hours=24.0),
            ReliabilityQuery(scenario(7, label="r2")),
        ]
        answers = engine.run(QuerySet.build(rows))
        assert [a.kind for a in answers] == ["mttf", "reliability", "availability", "reliability"]
        assert [a.query.label for a in answers] == ["m", "r", "a", "r2"]

    def test_per_engine_backend_override(self):
        engine = ReliabilityEngine()
        marker = object()

        def fake_backend(queries, policy):
            return [
                Answer(q, marker, Provenance(estimator="fake", backend="mttf"))
                for q in queries
            ]

        engine.register_backend("mttf", fake_backend)
        answer = engine.run_query(
            MTTFQuery.from_afr(scenario(5), afr=0.08, mttr_hours=24.0)
        )
        assert answer.value is marker
        # other engines are unaffected
        other = ReliabilityEngine().run_query(
            MTTFQuery.from_afr(scenario(5), afr=0.08, mttr_hours=24.0)
        )
        assert other.value is not marker

    def test_unregistered_kind_raises(self):
        from dataclasses import dataclass
        from typing import ClassVar

        @dataclass(frozen=True)
        class FnordQuery(Query):
            kind: ClassVar[str] = "fnord-unregistered"

        with pytest.raises(EstimationError, match="no backend registered"):
            ReliabilityEngine().run([FnordQuery(scenario(3))])

    def test_one_decorator_takes_a_third_party_kind_from_json_to_a_memo_hit(self):
        from dataclasses import dataclass
        from typing import ClassVar

        from repro.engine import registry

        @dataclass(frozen=True)
        class QuorumSlackQuery(Query):
            kind: ClassVar[str] = "test-quorum-slack"
            spare: int = 0

            def cache_key(self, shard_trials):
                return (self.kind, self.scenario.fleet_key(), self.spare)

            @classmethod
            def _coerce(cls, payload):
                if "spare" in payload:
                    payload["spare"] = int(payload["spare"])
                return payload

        batches = []
        try:

            @register_backend(QuorumSlackQuery)
            def slack_backend(queries, policy):
                batches.append(len(queries))
                return [
                    Answer(q, q.n - q.spare, Provenance("slack", backend=q.kind))
                    for q in queries
                ]

            assert "test-quorum-slack" in registered_kinds()
            text = json.dumps(
                {"queries": [QuorumSlackQuery(scenario(5), spare=2).to_dict()]}
            )
            engine = ReliabilityEngine()
            first = engine.run(QuerySet.from_json(text))[0]
            second = engine.run(QuerySet.from_json(text))[0]
        finally:
            registry._KINDS.pop("test-quorum-slack", None)
        assert type(first.query) is QuorumSlackQuery and first.query.spare == 2
        assert first.value == second.value == 3
        assert batches == [1]
        assert not first.provenance.cache_hit and second.provenance.cache_hit
        assert second.provenance.describe() == "test-quorum-slack:slack/cache"
        assert "test-quorum-slack" not in registered_kinds()

    def test_backend_answer_count_mismatch_raises(self):
        engine = ReliabilityEngine()
        engine.register_backend("reliability", lambda queries, policy: [])
        with pytest.raises(EstimationError, match="returned 0 answers"):
            engine.run([ReliabilityQuery(scenario(3))])

    def test_answer_set_table_and_dicts(self):
        engine = ReliabilityEngine()
        answers = engine.run(
            [
                ReliabilityQuery(scenario(3, label="rel")),
                AvailabilityQuery.from_afr(
                    scenario(5, label="av"), afr=0.08, mttr_hours=24.0
                ),
            ]
        )
        table = answers.table()
        assert [row["kind"] for row in table] == ["reliability", "availability"]
        assert "availability" in table[1]["answer"]
        payload = [a.to_dict() for a in answers]
        assert payload[0]["answer"]["safe_and_live"] == pytest.approx(0.999702)
        assert payload[1]["answer"]["availability_nines"] > 5


class TestMarkovSimulateStreams:
    def test_spawned_streams_are_prefix_stable(self):
        import numpy as np

        from repro.analysis.kernels import spawn_shard_generators
        from repro.markov.simulate import sample_absorption_times, simulate_trajectory

        model = ClusterMarkovModel(3, 0.01, 0.0)
        chain = model.chain(absorbing_at=2)
        short = sample_absorption_times(chain, 0, [2], trials=8, seed=5)
        long = sample_absorption_times(chain, 0, [2], trials=16, seed=5)
        assert np.array_equal(short, long[:8])
        # trajectory t depends on (seed, t) alone: it is what child t of the
        # seed's SeedSequence draws, whatever ran before it.
        last = spawn_shard_generators(5, 16)[15]
        alone = simulate_trajectory(chain, 0, horizon=1e12, absorbing=[2], seed=last)
        assert alone.end_time == long[15]

    def test_empirical_availability_spawn_deterministic(self):
        from repro.markov.simulate import empirical_availability

        model = ClusterMarkovModel(3, 0.05, 0.5)
        chain = model.chain()
        a = empirical_availability(chain, 0, [0, 1], horizon=50.0, trials=16, seed=9)
        b = empirical_availability(chain, 0, [0, 1], horizon=50.0, trials=16, seed=9)
        assert a == b
        assert 0.0 <= a <= 1.0

    def test_lazy_spawn_matches_kernels_spawn(self):
        # The helpers spawn children one at a time; the streams must be the
        # ones kernels.spawn_shard_generators (one spawn(count)) produces.
        import numpy as np

        from repro.analysis.kernels import spawn_shard_generators
        from repro.markov.simulate import _trajectory_streams

        lazy = [rng.random(3) for rng in _trajectory_streams(17, 5)]
        eager = [rng.random(3) for rng in spawn_shard_generators(17, 5)]
        assert all(np.array_equal(a, b) for a, b in zip(lazy, eager))
