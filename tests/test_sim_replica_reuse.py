"""Replica reuse: a campaign simulates each distinct run once, and decides
what it always decided.

Three parts.  *Equivalence*: the verdict list a campaign serves — one
reuse table shared by all its shards — equals, element-wise, the list
assembled from one independent ``compile_faults -> Cluster ->
run_until(duration) -> audit_run`` per replica (``full_horizon_replica``),
on the benchmark shapes, on random PBFT fault plans, and byte-for-byte
through the engine under every way of executing a campaign.  It is not
vacuous: the PBFT shapes do reuse, and reuse exactly the replicas whose
compiled faults came before.  *Clauses*: one test per reason a run must
not be stored, beside the control that is.  *The table*: bounded, private
to one campaign, safe to race on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_sim_event_counts import (
    DISTINCT_RUNS,
    SHAPES,
    _query,
    _replica_streams,
    full_horizon_replica,
)

import repro.injection.campaign as campaign_module
from repro._rng import spawn
from repro.engine import (
    ChaosPlan,
    ExecutionPolicy,
    ReliabilityEngine,
    Scenario,
    ShardFault,
    SimulationQuery,
)
from repro.engine.backends import _campaign_chunk, _command_schedule
from repro.engine.result import answer_value_to_dict
from repro.faults.mixture import uniform_fleet
from repro.injection import (
    Adversary,
    CrashStop,
    DelayBurst,
    FaultEvent,
    FaultPlan,
    LossBurst,
    PartitionEvent,
    compile_faults,
    register_behaviour,
    run_replica,
)
from repro.obs import InMemoryExporter, Tracer, use_tracer
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import FlexibleRaftSpec, RaftSpec
from repro.sim.cluster import Cluster
from repro.sim.network import FixedLatency, LogNormalLatency, UniformLatency
from repro.sim.node import Process
from repro.sim.pbft import pbft_node_factory
from repro.sim.raft import raft_node_factory

PBFT_SHAPES = ("adv_pbft", "crash_pbft")
RAFT_SHAPES = ("crash_raft", "outage_raft")


def _served(query: SimulationQuery, *, grain: int = 1, table=None):
    """The campaign's verdicts, ``grain`` replicas a shard, one table for
    all of them — what ``simulation_backend`` hands ``run_supervised``."""
    table = {} if table is None else table
    rngs = _replica_streams(query)
    verdicts = []
    for low in range(0, len(rngs), grain):
        verdicts += _campaign_chunk((query, rngs[low : low + grain], None, table))
    return verdicts


def _reference(query: SimulationQuery):
    """One independent full-horizon run per replica: no table anywhere."""
    return [full_horizon_replica(query, rng)[1] for rng in _replica_streams(query)]


def _reused(verdicts) -> int:
    return sum(verdict.run.reused for verdict in verdicts)


def _keys(query: SimulationQuery):
    """Each replica's realisation key, compiled on a fresh copy of its stream."""
    scenario = query.scenario
    return [
        compile_faults(
            query.faults,
            fleet=scenario.fleet,
            duration=query.duration,
            crash_window=query.crash_window,
            correlation=scenario.correlation,
            failure_kind=scenario.failure_kind,
            rng=rng,
        ).realisation_key()
        for rng in _replica_streams(query)
    ]


# ---------------------------------------------------------------------------
# (i) Equivalence with one independent run per replica
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(1000, 1006))
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_benchmark_shapes_match_independent_runs(name, seed):
    query = _query(name, seed=seed, replicas=16)
    served = _served(query)
    assert served == _reference(query)
    if name in PBFT_SHAPES:
        assert _reused(served) > 0
    else:
        assert _reused(served) == 0


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_benchmark_shapes_match_at_ninety_six_replicas(name):
    for seed in range(1000, 1006):
        query = _query(name, seed=seed, replicas=96)
        served = _served(query)
        assert served == _reference(query), seed
        assert (_reused(served) > 0) == (name in PBFT_SHAPES)


@pytest.mark.parametrize("name", PBFT_SHAPES)
def test_pbft_reuses_exactly_the_replicas_whose_faults_came_before(name):
    # At FixedLatency a PBFT run reads no stream, so every run stores: a
    # replica is reused iff an earlier one compiled to the same key.
    query = _query(name, seed=1000, replicas=16)
    keys = _keys(query)
    served = _served(query)
    assert [v.run.reused for v in served] == [
        key in keys[:index] for index, key in enumerate(keys)
    ]
    assert len(set(keys)) == DISTINCT_RUNS[name][1]
    # A sampled crash instant is continuous: no two such replicas share it.
    crashed = [key for key in keys if key[1]]
    assert crashed and len(set(crashed)) == len(crashed)


@pytest.mark.parametrize("grain", (1, 4, 16))
def test_chunking_changes_nothing_but_where_the_table_is_consulted(grain):
    query = _query("adv_pbft", seed=1001, replicas=16)
    assert _served(query, grain=grain) == _reference(query)
    assert _reused(_served(query, grain=grain)) == _reused(_served(query))


def test_a_payload_without_a_table_is_a_campaign_of_one_chunk():
    query = _query("crash_pbft", seed=1000, replicas=16)
    rngs = _replica_streams(query)
    halves = _campaign_chunk((query, rngs[:8], None)) + _campaign_chunk(
        (query, rngs[8:], None)
    )
    assert halves == _reference(query)
    # Each half rediscovers the all-correct run: one more run than shared.
    assert _reused(halves) == _reused(_served(query)) - 1


def test_a_standalone_replica_is_a_campaign_of_one():
    query = _query("crash_pbft")
    scenario = query.scenario
    verdict = run_replica(
        scenario.spec,
        scenario.fleet,
        node_factory=pbft_node_factory(),
        duration=query.duration,
        commands=_command_schedule(query.commands),
        crash_window=query.crash_window,
        rng=_replica_streams(query)[1],
    )
    assert not verdict.run.reused and verdict.run.sim_seconds == query.duration


# -- through the engine: same bytes however the campaign is executed ---------
def _queries(replicas=16, seed=1003):
    return [_query(name, seed=seed, replicas=replicas) for name in sorted(SHAPES)]


def _answer_bytes(policy: ExecutionPolicy, queries=None) -> str:
    answers = ReliabilityEngine().run(queries or _queries(), policy=policy)
    return json.dumps(
        [answer_value_to_dict(answer.value) for answer in answers], sort_keys=True
    )


def _counts(verdicts) -> dict:
    return {
        "replicas": len(verdicts),
        "safety_violations": sum(v.unsafe for v in verdicts),
        "liveness_violations": sum(v.stalled for v in verdicts),
        "predicate_mismatches": sum(v.predicate_mismatch for v in verdicts),
    }


def _holds_reference_counts(answer_bytes: str) -> bool:
    """Every campaign's tallies are those of independent full-horizon runs."""
    served = json.loads(answer_bytes)
    expected = [_counts(_reference(query)) for query in _queries()]
    return [{key: row[key] for key in counts} for row, counts in zip(served, expected)] == expected


def test_answers_are_invariant_to_how_the_campaign_is_executed(tmp_path):
    expected = _answer_bytes(ExecutionPolicy())
    assert _holds_reference_counts(expected)
    policies = {
        "thread x4": ExecutionPolicy(mode="thread", jobs=4),
        "process x2": ExecutionPolicy(mode="process", jobs=2),
        "one replica a shard": ExecutionPolicy(shard_trials=1),
        "one shard": ExecutionPolicy(shard_trials=16),
        "kill + retry": ExecutionPolicy(
            mode="thread",
            jobs=2,
            retries=2,
            backoff=0.0,
            chaos=ChaosPlan(
                faults=(
                    (0, ShardFault("raise", times=1)),
                    (5, ShardFault("raise", times=1)),
                ),
                state_dir=str(tmp_path),
            ),
        ),
    }
    for label, policy in policies.items():
        assert _answer_bytes(policy) == expected, label


_RESUME_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[3])
from test_sim_event_counts import SHAPES, _query
from repro.engine import ChaosPlan, ExecutionPolicy, ReliabilityEngine, ShardFault
from repro.engine.result import answer_value_to_dict

poisoned = sys.argv[2] == "interrupted"
policy = ExecutionPolicy(
    shard_trials=2,
    checkpoint_dir=sys.argv[1] + "/journals",
    retries=0,
    on_shard_failure="degrade" if poisoned else "raise",
    chaos=ChaosPlan(
        faults=((0, ShardFault("raise", times=-1)), (3, ShardFault("raise", times=-1))),
        state_dir=sys.argv[1] + "/chaos",
    ) if poisoned else None,
)
answers = ReliabilityEngine().run(
    [_query(name, seed=1003, replicas=16) for name in sorted(SHAPES)], policy=policy
)
print(json.dumps({
    "answers": [answer_value_to_dict(answer.value) for answer in answers],
    "degraded": [answer.provenance.degraded for answer in answers],
    "restored": [answer.provenance.report.restored for answer in answers],
}, sort_keys=True))
"""


def test_a_campaign_resumed_in_a_second_interpreter_gives_the_same_bytes(tmp_path):
    # The first interpreter loses shards 0 and 3 of every campaign — shard 0
    # holds the replica that would have stored the all-correct run — and
    # journals the other six.  The second starts with an empty table, runs
    # only the two missing shards and must land on the uninterrupted answer:
    # nothing about reuse was, or needed to be, written to the journal.
    tests_dir = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests_dir.parent / "src"))

    def run(phase):
        done = subprocess.run(
            [sys.executable, "-c", _RESUME_SCRIPT, str(tmp_path), phase, str(tests_dir)],
            env=env, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    first, second = run("interrupted"), run("resumed")
    assert first["degraded"] == [True] * 4 and first["restored"] == [0] * 4
    assert second["degraded"] == [False] * 4 and second["restored"] == [6] * 4
    resumed = json.dumps(second["answers"], sort_keys=True)
    assert resumed == _answer_bytes(ExecutionPolicy()) and _holds_reference_counts(resumed)
    shard_files = list((tmp_path / "journals").glob("campaign-*/shard-*.json"))
    assert shard_files
    for shard_file in shard_files:
        assert "reuse" not in shard_file.read_text(encoding="utf-8")


def test_spans_say_what_was_reused_and_the_answer_says_nothing():
    exporter = InMemoryExporter()
    tracer = Tracer.for_key(("reuse",), exporter=exporter)
    policy = ExecutionPolicy(mode="thread", jobs=2)
    with use_tracer(tracer):
        answers = ReliabilityEngine().run(_queries(seed=1000), policy=policy)
    campaigns = {
        r.attributes["label"] or index: r
        for index, r in enumerate(r for r in exporter.records if r.name == "campaign")
    }
    assert len(campaigns) == 4
    by_campaign = {}
    for record in exporter.records:
        if record.name == "campaign.chunk":
            by_campaign.setdefault(record.parent_id, []).append(record.attributes)
    for name, campaign in zip(sorted(SHAPES), campaigns.values()):
        chunks = by_campaign[campaign.span_id]
        reused = sum(chunk["reused"] for chunk in chunks)
        # Racing workers may repeat a run, never invent a reuse.
        assert campaign.attributes["distinct_runs"] == 16 - reused
        assert campaign.attributes["distinct_runs"] >= DISTINCT_RUNS[name][1]
        if name in RAFT_SHAPES:
            assert reused == 0
        else:
            assert reused > 0
            # Only simulated replicas count: none of PBFT's is an early exit,
            # and its certificate is never evaluated.
            assert sum(chunk["early_exits"] for chunk in chunks) == 0
            assert sum(chunk["checkpoints"] for chunk in chunks) == 0
            assert sum(chunk["sim_seconds"] for chunk in chunks) == 6.0 * (16 - reused)
    payload = json.dumps([answer.to_dict() for answer in answers])
    for key in ("reused", "distinct_runs", "messages", "checkpoints"):
        assert key not in payload
    untraced = ReliabilityEngine().run(_queries(seed=1000), policy=policy)
    assert payload == json.dumps([answer.to_dict() for answer in untraced])


def test_serial_campaign_spans_pin_the_distinct_runs():
    exporter = InMemoryExporter()
    with use_tracer(Tracer.for_key(("reuse-serial",), exporter=exporter)):
        ReliabilityEngine().run(_queries(seed=1000), policy=ExecutionPolicy())
    campaigns = [r for r in exporter.records if r.name == "campaign"]
    assert [r.attributes["distinct_runs"] for r in campaigns] == [
        DISTINCT_RUNS[name][1] for name in sorted(SHAPES)
    ]
    # One replica a chunk; the first chunk of one Raft and one PBFT shape.
    # Raft's certificate is evaluated at 1.1 s, at 1.15 s (logs frozen) and
    # at 1.152 s, where it holds; PBFT's is never evaluated.
    first_chunk = {
        name: next(
            r.attributes
            for r in exporter.records
            if r.name == "campaign.chunk" and r.parent_id == campaign.span_id
        )
        for name, campaign in zip(sorted(SHAPES), campaigns)
    }
    common = dict(replicas=1, horizon_seconds=6.0, reused=0)
    assert first_chunk["crash_raft"] == dict(
        common, sim_seconds=1.0 + 0.1 + 0.05 + 0.002, early_exits=1,
        events=328, messages=272, checkpoints=3,
    )
    assert first_chunk["crash_pbft"] == dict(
        common, sim_seconds=6.0, early_exits=0, events=74, messages=72, checkpoints=0
    )


# ---------------------------------------------------------------------------
# (ii) Property: campaign verdicts == independent runs, on random plans
# ---------------------------------------------------------------------------
_TIMES = st.sampled_from([0.2, 0.6, 0.95, 1.05, 1.4, 2.0, 3.5])


@st.composite
def _crash_events(draw, n=4):
    at = draw(_TIMES)
    repair = draw(st.sampled_from(["never", "at", "drawn"]))
    return CrashStop(
        node=draw(st.integers(0, n - 1)),
        at=at,
        recover_at=at + draw(st.sampled_from([0.3, 1.0, 2.5])) if repair == "at" else None,
        mean_time_to_repair=0.8 if repair == "drawn" else None,
    )


@st.composite
def _window(draw):
    at = draw(_TIMES)
    return at, at + draw(st.sampled_from([0.25, 0.7, 1.5]))


@st.composite
def _events(draw, n, groups, delays):
    """0-3 crash / partition / loss / delay events over ``n`` nodes."""
    events = [draw(_crash_events(n)) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        at, heal_at = draw(_window())
        events.append(
            PartitionEvent(groups=draw(st.sampled_from(groups)), at=at, heal_at=heal_at)
        )
    if draw(st.booleans()):
        at, until = draw(_window())
        events.append(
            LossBurst(at=at, until=until, drop_probability=draw(st.sampled_from([0.1, 0.4])))
        )
    if draw(st.booleans()):
        at, until = draw(_window())
        events.append(
            DelayBurst(at=at, until=until, extra_delay=draw(st.sampled_from(delays)))
        )
    return tuple(draw(st.permutations(events))[:3])


@st.composite
def _fault_plans(draw):
    """ROADMAP item 1b's generator, for PBFT: 0-3 crash / partition / loss /
    delay events, an adversary subset, optional MTTR."""
    events = draw(
        _events(4, [((0, 1), (2, 3)), ((0,), (1, 2, 3)), ((0, 2, 3),)], [0.002, 0.05])
    )
    # (1, 2): an honest first primary with a Byzantine second (item 1d).
    nodes = draw(st.sampled_from([None, (), (0,), (2,), (0, 2), (1, 2)]))
    return FaultPlan(
        events=events,
        adversary=None if nodes is None else Adversary(nodes=nodes),
        mean_time_to_repair=draw(st.sampled_from([None, 0.5])),
        sample_faults=draw(st.sampled_from([True, True, False])),
    )


def _check_plan_property(plan, p_fail, commands, seed):
    scenario = Scenario(spec=PBFTSpec(4), fleet=uniform_fleet(4, p_fail), seed=seed)
    query = SimulationQuery(
        scenario, faults=plan, replicas=6, duration=5.0, commands=commands
    )
    served = _served(query, grain=2)
    assert served == _reference(query)
    return served


_PLAN_ARGS = dict(
    plan=_fault_plans(),
    p_fail=st.sampled_from([0.0, 0.1, 0.4]),
    commands=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)


@settings(
    max_examples=12, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(**_PLAN_ARGS)
def test_property_campaign_verdicts_equal_independent_runs(plan, p_fail, commands, seed):
    _check_plan_property(plan, p_fail, commands, seed)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**_PLAN_ARGS)
def test_property_campaign_verdicts_equal_independent_runs_wide(
    plan, p_fail, commands, seed
):
    _check_plan_property(plan, p_fail, commands, seed)


#: Five-node splits: two sides, one node cut off, a majority beside a
#: minority, and three nodes grouped with the other two isolated.
_RAFT_GROUPS = [
    ((0, 1), (2, 3, 4)),
    ((0,), (1, 2, 3, 4)),
    ((0, 1, 2), (3, 4)),
    ((0, 2, 4),),
]


@st.composite
def _raft_campaigns(draw):
    """Item 1b's generator, for Raft: ``RaftSpec(5)`` or any
    ``FlexibleRaftSpec(5, q_per, q_vc)``, the PBFT generator's events over
    five nodes with delay bursts wider than the checkpoint stride (0.05 s),
    a crash window, optional MTTR."""
    spec = draw(
        st.one_of(
            st.just(RaftSpec(5)),
            st.builds(FlexibleRaftSpec, st.just(5), st.integers(1, 5), st.integers(1, 5)),
        )
    )
    plan = FaultPlan(
        events=draw(_events(5, _RAFT_GROUPS, [0.002, 0.05, 0.08, 0.25])),
        mean_time_to_repair=draw(st.sampled_from([None, 0.5])),
        sample_faults=draw(st.sampled_from([True, True, False])),
    )
    window = draw(st.sampled_from([(0.0, 0.4), (0.0, 1.2), (0.9, 1.6), (1.0, 3.0)]))
    return spec, plan, window


def _check_raft_property(campaign, p_fail, commands, seed):
    spec, plan, window = campaign
    scenario = Scenario(spec=spec, fleet=uniform_fleet(5, p_fail), seed=seed)
    query = SimulationQuery(
        scenario, faults=plan, replicas=4, duration=5.0, commands=commands,
        crash_window=window,
    )
    served = _served(query, grain=2)
    assert served == _reference(query)
    return served


_RAFT_ARGS = dict(
    campaign=_raft_campaigns(),
    p_fail=_PLAN_ARGS["p_fail"],
    commands=_PLAN_ARGS["commands"],
    seed=_PLAN_ARGS["seed"],
)


@settings(
    max_examples=12, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(**_RAFT_ARGS)
def test_property_raft_campaign_verdicts_equal_full_horizon_runs(
    campaign, p_fail, commands, seed
):
    _check_raft_property(campaign, p_fail, commands, seed)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**_RAFT_ARGS)
def test_property_raft_campaign_verdicts_equal_full_horizon_runs_wide(
    campaign, p_fail, commands, seed
):
    _check_raft_property(campaign, p_fail, commands, seed)


def test_the_property_is_not_vacuous():
    # Fixed plans from the generator's corners: reuse happens under an
    # adversary with an honest first primary, under a deterministic crash
    # and under a delay burst; a loss burst over the workload forbids it.
    shared = FaultPlan(
        events=(
            CrashStop(node=3, at=0.6, recover_at=1.6),
            DelayBurst(at=0.95, until=1.65, extra_delay=0.05),
        ),
        adversary=Adversary(nodes=(1, 2)),
    )
    served = _check_plan_property(shared, 0.0, 3, 7)
    # ... and what is reused is not the all-clear verdict.
    assert _reused(served) == 5 and served[0].predicate_mismatch
    lossy = FaultPlan(events=(LossBurst(at=0.95, until=2.45, drop_probability=0.4),))
    assert _reused(_check_plan_property(lossy, 0.0, 3, 7)) == 0


# ---------------------------------------------------------------------------
# (iii) One refusal per clause, beside its control
# ---------------------------------------------------------------------------
def _pair(spec, node_factory, *, plan=None, p_fail=0.0, table=None, duration=4.0):
    """Two replicas of one campaign through ``run_replica``; returns their
    verdicts and the table they shared."""
    table = {} if table is None else table
    verdicts = [
        run_replica(
            spec,
            uniform_fleet(spec.n, p_fail),
            node_factory=node_factory,
            duration=duration,
            commands=[("a", 1.0), ("b", 1.1)],
            crash_window=(0.0, 0.8),
            rng=rng,
            plan=plan,
            reuse=table,
        )
        for rng in spawn(np.random.default_rng(99), 2)
    ]
    return verdicts, table


def _stored_and_reused(verdicts, table) -> bool:
    first, second = verdicts
    assert not first.run.reused and first == second
    assert second.run.reused == (len(table) == 1)
    return second.run.reused


class _Stub(Process):
    """A third-party node: decides nothing, and calls ``draw`` on its own
    stream once, 1 ms before the horizon."""

    def __init__(self, node_id, scheduler, network, rng, draw):
        super().__init__(node_id, scheduler, network, rng)
        self._draw = draw

    def on_start(self) -> None:
        self.set_timer("late", 3.999)

    def on_timer(self, name: str) -> None:
        self._draw(self._rng)

    def on_message(self, src: int, payload: object) -> None:
        pass


def _stub_factory(draw, only_node=None):
    def make(node_id, n, scheduler, network, rng, trace):
        chosen = only_node is None or node_id == only_node
        return _Stub(node_id, scheduler, network, rng, draw if chosen else _no_draw)

    return make


def _no_draw(rng) -> None:
    pass


def _one_draw(rng) -> None:
    rng.random()


def _draw_from_a_child(rng) -> None:
    # Leaves the node's own bit generator untouched.
    spawn(rng, 1)[0].random()


class _ThirdPartySpec(PBFTSpec):
    """A protocol family of this test's own, so its behaviours are too."""


register_behaviour("quiet", _ThirdPartySpec, lambda spec: _stub_factory(_no_draw))
register_behaviour("draws-late", _ThirdPartySpec, lambda spec: _stub_factory(_one_draw))


class TestOnlyARunThatDrewNothingIsStored:
    def test_fixed_latency_pbft_is_the_control(self):
        assert _stored_and_reused(*_pair(PBFTSpec(4), pbft_node_factory()))

    def test_a_raft_replica_never_stores(self):
        # Election timeouts are drawn: equal faults, different runs.
        verdicts, table = _pair(RaftSpec(3), raft_node_factory())
        assert not _stored_and_reused(verdicts, table) and table == {}

    def test_a_loss_burst_in_force_forbids_and_the_same_plan_without_it_does_not(self):
        crash = CrashStop(node=3, at=0.5)
        burst = LossBurst(at=0.9, until=2.0, drop_probability=0.3)
        lossy = FaultPlan(events=(crash, burst))
        assert not _stored_and_reused(*_pair(PBFTSpec(4), pbft_node_factory(), plan=lossy))
        clear = FaultPlan(events=(crash,))
        assert _stored_and_reused(*_pair(PBFTSpec(4), pbft_node_factory(), plan=clear))
        # A burst over a silent stretch of the run decides no delivery:
        # observed, not inferred from the plan.
        idle = FaultPlan(events=(crash, LossBurst(at=3.0, until=3.5, drop_probability=0.3)))
        assert _stored_and_reused(*_pair(PBFTSpec(4), pbft_node_factory(), plan=idle))

    @pytest.mark.parametrize(
        "latency, drew",
        [
            (FixedLatency(0.001), False),
            (UniformLatency(0.0005, 0.002), True),
            (LogNormalLatency(median=0.001), True),
        ],
        ids=["fixed", "uniform", "lognormal"],
    )
    def test_a_sampling_latency_model_reports_its_draws(self, latency, drew):
        cluster = Cluster(4, pbft_node_factory(), latency=latency, seed=11)
        assert not cluster.drew_randomness()
        cluster.start()
        cluster.submit("a", at=0.5)
        cluster.run_until(2.0)
        assert cluster.drew_randomness() is drew

    def test_a_third_party_node_that_draws_once_before_the_horizon_is_never_reused(self):
        spec = _ThirdPartySpec(4)
        assert _stored_and_reused(*_pair(spec, _stub_factory(_no_draw)))
        late = _pair(spec, _stub_factory(_one_draw, only_node=2))
        assert not _stored_and_reused(*late)

    def test_a_stream_derived_from_a_nodes_stream_counts_as_a_draw(self):
        late = _pair(_ThirdPartySpec(4), _stub_factory(_draw_from_a_child, only_node=0))
        assert not _stored_and_reused(*late)

    def test_a_draw_in_an_overridden_byzantine_nodes_stream_counts(self):
        spec = _ThirdPartySpec(4)

        def plan(behaviour):
            return FaultPlan(adversary=Adversary(nodes=(1,), behaviour=behaviour))

        honest = _stub_factory(_no_draw)
        assert _stored_and_reused(*_pair(spec, honest, plan=plan("quiet")))
        assert not _stored_and_reused(*_pair(spec, honest, plan=plan("draws-late")))

    def test_a_declared_crash_is_shared_and_a_sampled_crash_time_is_not(self):
        declared = FaultPlan(events=(CrashStop(node=1, at=2.0),))
        verdicts, table = _pair(PBFTSpec(4), pbft_node_factory(), plan=declared)
        assert _stored_and_reused(verdicts, table)
        assert next(iter(table))[1] == ((1, 2.0, None),)
        # Every node crashes in both replicas, at instants each one drew.
        verdicts, table = _pair(PBFTSpec(4), pbft_node_factory(), p_fail=0.999)
        assert verdicts[0] == verdicts[1] and not verdicts[1].run.reused
        assert len(table) == 2


class _ListPartition(FaultEvent):
    """A third-party event that hands the network op a list of lists."""

    kind = "test-list-partition"

    def schedule(self, schedule, rng) -> None:
        schedule.partition([[0, 1], [2, 3]], 1.05, schedule.duration)


class TestTheTable:
    def test_an_unhashable_key_runs_instead_of_raising(self):
        plan = FaultPlan(events=(_ListPartition(),))
        verdicts, table = _pair(PBFTSpec(4), pbft_node_factory(), plan=plan)
        assert table == {} and not any(v.run.reused for v in verdicts)
        # Same verdicts as the hashable spelling of the same partition.
        hashable = FaultPlan(
            events=(PartitionEvent(groups=((0, 1), (2, 3)), at=1.05),)
        )
        assert verdicts == _pair(PBFTSpec(4), pbft_node_factory(), plan=hashable)[0]

    @pytest.mark.parametrize("cap", (0, 1, 3))
    def test_a_full_table_stops_storing_and_changes_no_verdict(self, cap, monkeypatch):
        monkeypatch.setattr(campaign_module, "REUSE_TABLE_CAP", cap)
        query = _query("crash_pbft", seed=1000, replicas=16)
        table: dict = {}
        served = _served(query, table=table)
        assert served == _reference(query)
        assert len(table) == cap
        # What got in keeps serving: the first run stored is the common one.
        assert (_reused(served) > 0) == (cap > 0)

    def test_nothing_survives_the_campaign(self):
        # Two campaigns whose replicas compile to the same realisation —
        # nodes 2 and 3 down from 0.5 s — under quorums of three (stalls)
        # and of two (live).  The key does not name the quorums because the
        # table never outlives the one query that made it.
        plan = FaultPlan(
            events=(CrashStop(node=2, at=0.5), CrashStop(node=3, at=0.5)),
            sample_faults=False,
        )
        queries = [
            SimulationQuery(
                Scenario(spec=spec, fleet=uniform_fleet(4, 0.0), seed=5),
                faults=plan, replicas=4, duration=4.0, commands=2,
            )
            for spec in (PBFTSpec(4), PBFTSpec(4, q_eq=2, q_per=2, q_vc=2, q_vc_t=2))
        ]
        answers = ReliabilityEngine(cache_size=0).run(queries)
        assert [a.value.liveness_violations for a in answers] == [4, 0]
        assert [sum(v.stalled for v in _reference(q)) for q in queries] == [4, 0]
        # What a table that did survive would do:
        leaked: dict = {}
        _served(queries[0], table=leaked)
        assert sum(v.stalled for v in _served(queries[1], table=leaked)) == 4

    def test_racing_workers_repeat_runs_but_never_change_a_verdict(self):
        # More workers than cores, a switch interval short enough to
        # interleave lookups and stores; a lost update shows as a verdict
        # that differs or as a table that outgrew its keys.
        queries = [_query(name, seed=1004, replicas=48) for name in PBFT_SHAPES]
        expected = _answer_bytes(ExecutionPolicy(), queries)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            policy = ExecutionPolicy(mode="thread", jobs=8, timeout=60.0)
            for _ in range(3):
                assert _answer_bytes(policy, queries) == expected
            query = queries[0]
            table: dict = {}
            payloads = [
                (query, [rng], None, table) for rng in _replica_streams(query)
            ]
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=8) as pool:
                chunks = list(pool.map(_campaign_chunk, payloads, timeout=60.0))
        finally:
            sys.setswitchinterval(interval)
        assert [v for chunk in chunks for v in chunk] == _reference(query)
        assert set(table) == set(_keys(query))
