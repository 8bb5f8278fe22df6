"""Quiet Raft heartbeat rounds in closed form, and checkpoints that skip a
pending recovery: the same run, fewer events executed one by one.

Four parts.  *Draws*: one ``rng.random(K)`` is ``K`` scalar election
draws, bit for bit and stream position included.  *Equivalence*: with
``RaftNode._skip_quiet_rounds`` and ``Cluster._next_grid_checkpoint``
patched to their eager forms, a replica executes every event; at every
checkpoint the fast run evaluates, its trace records, every stream's
position, the four counters and each node's timers equal the eager run's
at that instant, on the benchmark shapes, the early-exit fault grid and
generated Raft campaigns.  *Refusals*: one test per precondition of the
fast-forward, beside its control.  *The grid walk* and what a traced
campaign reports.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from test_sim_early_exit import CASES
from test_sim_event_counts import _query, _replica_streams
from test_sim_replica_reuse import _RAFT_ARGS

import repro.sim.cluster as cluster_module
from repro._rng import stream_position
from repro.engine import ExecutionPolicy, ReliabilityEngine, Scenario, SimulationQuery
from repro.engine.backends import _campaign_chunk, _command_schedule, _node_factory_for
from repro.errors import SimulationError
from repro.faults.mixture import uniform_fleet
from repro.injection import run_replica
from repro.injection.campaign import ReplicaRun
from repro.obs import InMemoryExporter, Tracer, use_tracer
from repro.sim.cluster import CHECKPOINT_INTERVAL, Cluster
from repro.sim.network import FixedLatency, UniformLatency
from repro.sim.node import Process
from repro.sim.raft import RaftNode, Role, raft_node_factory


# ---------------------------------------------------------------------------
# (i) One call draws what K scalar draws do
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 2026])
@pytest.mark.parametrize("k", [1, 2, 23, 200])
def test_one_vector_draw_is_k_scalar_election_draws(seed, k):
    low, high = RaftNode.ELECTION_TIMEOUT
    arrivals = np.cumsum(np.full(k, RaftNode.HEARTBEAT_INTERVAL)) + 0.3131
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    deadlines = (arrivals + (low + (high - low) * ours.random(k))).tolist()
    assert deadlines == [
        now + (low + (high - low) * reference.random()) for now in arrivals.tolist()
    ]
    assert stream_position(ours) == stream_position(reference)


# ---------------------------------------------------------------------------
# (ii) Equivalence with the eager run, checkpoint by checkpoint
# ---------------------------------------------------------------------------
def _eager_grid_step(self, checkpoint, horizon):
    return checkpoint + CHECKPOINT_INTERVAL


def _state(cluster: Cluster):
    """Everything the fast-forward may touch, as one comparable value."""
    return (
        list(cluster.trace.commits),
        list(cluster.trace.events),
        [stream_position(rng) for rng, _ in cluster._streams],
        (
            cluster.scheduler.processed_events,
            cluster.network.messages_sent,
            cluster.network.messages_delivered,
            cluster.network.messages_dropped,
        ),
        [
            (
                sorted(node._deadlines.items()),
                sorted((name, handle.time) for name, handle in node._timers.items()),
            )
            for node in cluster.nodes
        ],
    )


def _observed(query: SimulationQuery, index: int, *, eager: bool):
    """Replica ``index`` of ``query`` through ``run_replica``: its verdict,
    the state at each checkpoint by time, the state at the end and the
    cluster's ``rounds_skipped``."""
    states, built = {}, []

    class Recording(Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        def verdict_final(self):
            states[self.now] = _state(self)
            return super().verdict_final()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cluster_module, "Cluster", Recording)
        if eager:
            patch.setattr(RaftNode, "_skip_quiet_rounds", lambda self: False)
            patch.setattr(Cluster, "_next_grid_checkpoint", _eager_grid_step)
        scenario = query.scenario
        verdict = run_replica(
            scenario.spec,
            scenario.fleet,
            node_factory=_node_factory_for(scenario.spec),
            duration=query.duration,
            commands=_command_schedule(query.commands),
            crash_window=query.crash_window,
            rng=_replica_streams(query)[index],
            plan=query.faults,
            correlation=scenario.correlation,
            failure_kind=scenario.failure_kind,
        )
    (cluster,) = built
    return verdict, states, _state(cluster), cluster.rounds_skipped


def _assert_equivalent(query: SimulationQuery) -> tuple[int, int]:
    """Every replica of ``query`` fast and eager; returns the rounds skipped
    and the checkpoints saved over the campaign."""
    skipped = saved = 0
    for index in range(query.replicas):
        verdict, states, end, rounds = _observed(query, index, eager=False)
        reference, eager_states, eager_end, none = _observed(query, index, eager=True)
        assert none == 0
        assert verdict == reference
        assert verdict.run.sim_seconds == reference.run.sim_seconds
        assert verdict.run.events == reference.run.events
        assert verdict.run.messages == reference.run.messages
        assert verdict.run.rounds_skipped == rounds
        assert set(states) <= set(eager_states)
        for time, state in states.items():
            assert state == eager_states[time], (index, time)
        assert end == eager_end
        skipped += rounds
        saved += len(eager_states) - len(states)
    return skipped, saved


@pytest.mark.parametrize("seed", [1000, 1001])
@pytest.mark.parametrize("name", ["crash_raft", "outage_raft"])
def test_benchmark_shapes_equal_the_eager_run_at_every_checkpoint(name, seed):
    skipped, saved = _assert_equivalent(_query(name, seed=seed, replicas=6))
    assert skipped > 0
    if name == "outage_raft":
        assert saved > 0


def test_fault_grid_equals_the_eager_run_at_every_checkpoint():
    skipped = saved = 0
    for name, build in sorted(CASES.items()):
        query = build(7)
        query = SimulationQuery(
            query.scenario,
            faults=query.faults,
            replicas=3,
            duration=query.duration,
            commands=query.commands,
            crash_window=query.crash_window,
        )
        rounds, checkpoints = _assert_equivalent(query)
        skipped += rounds
        saved += checkpoints
    assert skipped > 0 and saved > 0


def _check_raft_campaign(campaign, p_fail, commands, seed):
    spec, plan, window = campaign
    scenario = Scenario(spec=spec, fleet=uniform_fleet(5, p_fail), seed=seed)
    query = SimulationQuery(
        scenario, faults=plan, replicas=2, duration=5.0, commands=commands,
        crash_window=window,
    )
    _assert_equivalent(query)


@settings(
    max_examples=12, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(**_RAFT_ARGS)
def test_property_generated_raft_campaigns_equal_the_eager_run(
    campaign, p_fail, commands, seed
):
    _check_raft_campaign(campaign, p_fail, commands, seed)


@pytest.mark.slow
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**_RAFT_ARGS)
def test_property_generated_raft_campaigns_equal_the_eager_run_wide(
    campaign, p_fail, commands, seed
):
    _check_raft_campaign(campaign, p_fail, commands, seed)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["crash_raft", "outage_raft"])
def test_benchmark_shapes_equal_the_eager_run_on_more_seeds(name):
    for seed in range(1002, 1008):
        _assert_equivalent(_query(name, seed=seed, replicas=16))


# ---------------------------------------------------------------------------
# (iii) One refusal per precondition, beside its control
# ---------------------------------------------------------------------------
def _cluster(*, down=(), **kwargs) -> Cluster:
    """Five Raft nodes that committed one command at 0.5 s, run to 1 s:
    a leader heartbeating caught-up followers (and the ``down`` nodes,
    crashed from the start, as silent peers)."""
    cluster = Cluster(5, raft_node_factory(), seed=11, **kwargs)
    for node in down:
        cluster.crash_at(node, 0.0)
    cluster.start()
    cluster.submit("a", at=0.5)
    cluster.run_until(1.0)
    return cluster


def _leader(cluster: Cluster) -> RaftNode:
    (leader,) = [n for n in cluster.nodes if n.is_running and n.role is Role.LEADER]
    return leader


def _to_gap(cluster: Cluster) -> float:
    """Run to 10 ms before the leader's next heartbeat, when no message is
    in flight; returns that heartbeat's time."""
    beat = _leader(cluster).wake_up("heartbeat").time
    if beat - 0.01 < cluster.now:
        cluster.run_until(beat + 0.005)
        beat = _leader(cluster).wake_up("heartbeat").time
    cluster.run_until(beat - 0.01)
    return beat


def _first_call(cluster: Cluster, until: float, *, trips=False, **kwargs):
    """Run to ``until`` (where the livelock guard must trip if ``trips``);
    what the first heartbeat did: ``(rounds skipped, events the slice had
    left)``.  A refused call must leave every stream where it was."""
    calls = []
    original = RaftNode._skip_quiet_rounds

    def spy(self):
        positions = [stream_position(rng) for rng, _ in cluster._streams]
        left = self._scheduler.reach()[1]
        before = self.rounds_skipped
        skipped = original(self)
        if not skipped:
            assert positions == [stream_position(rng) for rng, _ in cluster._streams]
        calls.append((self.rounds_skipped - before, left))
        return skipped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RaftNode, "_skip_quiet_rounds", spy)
        if trips:
            with pytest.raises(SimulationError, match="livelock"):
                cluster.run_until(until, **kwargs)
        else:
            cluster.run_until(until, **kwargs)
    return calls[0]


def _skips(cluster: Cluster, mutate=lambda cluster, beat: None, until=0.5) -> int:
    beat = _to_gap(cluster)
    mutate(cluster, beat)
    return _first_call(cluster, beat + until)[0]


def test_the_control_skips_to_the_slice_end():
    # t[K] <= beat + 0.5: sixteen rounds of 0.03 s.
    assert _skips(_cluster()) == 16


class _Sampled(FixedLatency):
    """A fixed delay in a subclass: it could sample, so it is not trusted."""


class _Sub(RaftNode):
    """A node that behaves as Raft but is not exactly RaftNode."""


def _sub_factory(node_id, n, scheduler, network, rng, trace):
    return _Sub(node_id, n, scheduler, network, rng, trace)


class TestRefusals:
    @pytest.mark.parametrize(
        "change",
        [
            lambda net: net.set_drop_probability(0.1),
            lambda net: net.set_extra_delay(0.001),
            lambda net: net.set_partition([range(5)]),  # separates nobody
        ],
        ids=["loss", "extra-delay", "partition"],
    )
    def test_a_fabric_that_is_not_steady(self, change):
        cluster = _cluster()
        assert _skips(cluster, lambda c, beat: change(c.network)) == 0

    @pytest.mark.parametrize(
        "latency, skips",
        [
            (FixedLatency(0.001), 16),
            (_Sampled(0.001), 0),
            (UniformLatency(0.001, 0.001), 0),
            (FixedLatency(0.0), 0),  # answers would land with the heartbeat
        ],
        ids=["control", "fixed-subclass", "uniform", "zero-delay"],
    )
    def test_a_latency_model_that_is_not_a_positive_fixed_latency(self, latency, skips):
        assert _skips(_cluster(latency=latency)) == skips

    @pytest.mark.parametrize("factory, skips", [(raft_node_factory(), 16), (_sub_factory, 0)])
    def test_a_node_override_of_another_class(self, factory, skips):
        assert _skips(_cluster(node_overrides={4: factory})) == skips

    def test_a_follower_that_is_behind(self):
        # Node 4 slept through the command; recovered just before the
        # heartbeat, its log is shorter than the leader's.
        assert _skips(_cluster(down=(4,))) == 16  # a silent peer is no follower
        behind = _cluster(down=(4,))
        assert _skips(behind, lambda c, beat: c.recover_at(4, c.now)) == 0
        assert behind.nodes[4].log.last_index == 1  # repaired since

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda f: setattr(f, "current_term", f.current_term + 1),
            lambda f: setattr(f, "leader_id", None),
            lambda f: setattr(f, "role", Role.CANDIDATE),
        ],
        ids=["term", "leader", "role"],
    )
    def test_a_follower_on_another_term_or_leader(self, mutate):
        def change(cluster, beat):
            leader = _leader(cluster)
            mutate(cluster.nodes[(leader.node_id + 1) % 5])

        assert _skips(_cluster(), change) == 0

    def test_an_uncommitted_leader_entry(self):
        assert _skips(_cluster(), lambda c, beat: c.submit("b")) == 0

    def test_a_pending_client_value(self):
        assert _skips(_cluster(), lambda c, beat: _leader(c)._pending.append("z")) == 0

    @pytest.mark.parametrize("after, skips", [(0.0005, 0), (0.001, 0), (0.0015, 16)])
    def test_an_election_deadline_before_the_first_delivery(self, after, skips):
        # The heartbeat reaches followers 1 ms after ``beat``: a deadline at
        # or before that arrival is a timer that fires first.
        def change(cluster, beat):
            follower = cluster.nodes[(_leader(cluster).node_id + 1) % 5]
            follower.set_timer("election", beat + after - cluster.now)

        assert _skips(_cluster(), change) == skips

    @pytest.mark.parametrize(
        "schedule",
        [
            lambda c, at: c.submit("b", at=at),
            lambda c, at: c.crash_at((_leader(c).node_id + 1) % 5, at),
            lambda c, at: c.recover_at(4, at),
            lambda c, at: c.set_drop_probability_at(None, at),
        ],
        ids=["submit", "crash", "recovery", "network-op"],
    )
    @pytest.mark.parametrize("offset, skips", [(0.02, 0), (0.1, 3)])
    def test_a_live_event_inside_the_window(self, schedule, offset, skips):
        # Node 4 is down from the start (a silent peer) so it can recover.
        cluster = _cluster(down=(4,))
        assert _skips(cluster, lambda c, beat: schedule(c, beat + offset)) == skips

    @pytest.mark.parametrize("offset, skips", [(0.02, 0), (0.1, 3)])
    def test_a_message_in_flight_inside_the_window(self, offset, skips):
        def change(cluster, beat):
            network = cluster.network
            network.set_extra_delay(beat + offset - cluster.now)
            network.send(0, 1, "noise")  # a payload Raft ignores
            network.set_extra_delay(0.0)

        assert _skips(_cluster(), change) == skips

    @pytest.mark.parametrize("rounds", [1, 3])
    @pytest.mark.parametrize("short", [False, True])
    def test_the_slice_end(self, rounds, short):
        # The slice must reach the next heartbeat of the last round skipped.
        cluster = _cluster()
        end = _to_gap(cluster)
        for _ in range(rounds):
            end += RaftNode.HEARTBEAT_INTERVAL
        if short:
            end = math.nextafter(end, -math.inf)
        assert _first_call(cluster, end)[0] == rounds - short

    @pytest.mark.parametrize("at, skips", [(None, 16), (0.0, 0), (1.0, 0)])
    def test_new_wake_ups_at_one_instant(self, at, skips, monkeypatch):
        # Every follower's new wake-up forced to ``until + at``: at the next
        # heartbeat's instant, or all at one later instant, the heap's order
        # among them would be the eager run's queueing order, which the
        # closed form does not know; the draws are then put back.
        real = Process.emulate_timer

        def tied(self, name, times, deadlines, until):
            plan = real(self, name, times, deadlines, until)
            return plan if at is None else (plan[0], until + at)

        monkeypatch.setattr(Process, "emulate_timer", tied)
        assert _skips(_cluster()) == skips

    def test_events_run_one_by_one_have_no_slice(self):
        # ``step`` (and ``run_to_completion``) executes one event: nothing
        # may be run past it, so every heartbeat runs eagerly.
        stepped = Cluster(5, raft_node_factory(), seed=11)
        stepped.start()
        stepped.submit("a", at=0.5)
        while stepped.now < 1.5 and stepped.scheduler.step():
            pass
        assert stepped.rounds_skipped == 0
        assert stepped.scheduler.processed_events > 400

    @pytest.mark.parametrize("left, skips", [(15, 0), (16, 1), (28, 1), (29, 2)])
    def test_the_event_budget(self, left, skips):
        # A round here is 1 heartbeat + 4 deliveries + 4 answers, and 4
        # wake-ups per round plus 4 are held in reserve: K rounds need
        # 13 K + 3 events left once the heartbeat itself has run.  The
        # livelock guard then trips where the eager run's does.
        probe = _cluster()
        beat = _to_gap(probe)
        ran = cluster_module.MAX_EVENTS - _first_call(probe, beat + 0.5)[1]
        cluster = _cluster()
        _to_gap(cluster)
        assert _first_call(cluster, beat + 0.5, trips=True, max_events=ran + left) == (
            skips,
            left,
        )
        eager = _cluster()
        _to_gap(eager)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RaftNode, "_skip_quiet_rounds", lambda self: False)
            with pytest.raises(SimulationError, match="livelock"):
                eager.run_until(beat + 0.5, max_events=ran + left)
        assert (cluster.now, _state(cluster)) == (eager.now, _state(eager))


# ---------------------------------------------------------------------------
# (iv) The grid walk past a pending recovery, and what a campaign reports
# ---------------------------------------------------------------------------
def _verdict_run(*outages, eager=False):
    """A five-node cluster whose node 4 has the given ``(crash, recover)``
    outages, one command at 0.5 s, run to its verdict: ``(exit time,
    checkpoint times)``."""
    times = []

    class Recording(Cluster):
        def verdict_final(self):
            times.append(self.now)
            return super().verdict_final()

    cluster = Recording(5, raft_node_factory(), seed=11)
    for crash, recover in outages:
        cluster.crash_at(4, crash)
        if recover is not None:
            cluster.recover_at(4, recover)
    cluster.start()
    cluster.submit("a", at=0.5)
    with pytest.MonkeyPatch.context() as patch:
        if eager:
            patch.setattr(Cluster, "_next_grid_checkpoint", _eager_grid_step)
        stopped = cluster.run_to_verdict(0.5, 6.0)
    return stopped, times


class TestGridWalk:
    def test_checkpoints_before_the_recovery_of_a_node_lacking_a_command_are_walked_past(self):
        stopped, times = _verdict_run((0.2, 2.5))
        eager_stopped, eager_times = _verdict_run((0.2, 2.5), eager=True)
        assert stopped == eager_stopped
        assert set(times) < set(eager_times)
        # The first checkpoint, then the first grid point at or after 2.5 s.
        assert times[0] == 0.5 and times[1] >= 2.5 > times[1] - CHECKPOINT_INTERVAL
        assert times[1:] == [t for t in eager_times if t >= 2.5]

    @pytest.mark.parametrize(
        "outage",
        [(0.7, 2.5), (0.2, None)],
        ids=["holds-the-command", "down-for-good"],
    )
    def test_controls_a_node_that_does_not_block_walks_nothing(self, outage):
        # Crashed after the command reached it, or never coming back: its
        # answer does not keep clause (1) failing, so no point is skipped.
        assert _verdict_run(outage) == _verdict_run(outage, eager=True)

    def test_every_scheduled_recovery_counts_not_only_the_latest(self):
        # Down at 0.2, back at 1.5 (and caught up), down again at 2.0 with
        # the command, back at 4.0: the walk stops at 1.5, where the
        # certificate can hold; walking on to 4.0 would move the exit.
        outages = ((0.2, 1.5), (2.0, 4.0))
        stopped, times = _verdict_run(*outages)
        assert stopped == _verdict_run(*outages, eager=True)[0]
        assert 1.5 <= times[1] < 1.5 + CHECKPOINT_INTERVAL
        assert stopped < 2.0


def test_replica_runs_and_chunk_spans_report_the_rounds_skipped():
    query = _query("outage_raft", seed=1000, replicas=4)
    skipped = [
        verdict.run.rounds_skipped
        for verdict in _campaign_chunk((query, _replica_streams(query), None))
    ]
    assert all(rounds > 0 for rounds in skipped)
    exporter = InMemoryExporter()
    with use_tracer(Tracer.for_key(("quiet-rounds",), exporter=exporter)):
        (answer,) = ReliabilityEngine(cache_size=0).run([query], policy=ExecutionPolicy())
    events = [
        attributes
        for record in exporter.records
        if record.name == "campaign.chunk"
        for _, name, attributes in record.events
        if name == "closed_form"
    ]
    assert sum(event["rounds_skipped"] for event in events) == sum(skipped)
    assert "rounds_skipped" not in json.dumps(answer.to_dict())
    # Observability only: a run that skipped nothing compares equal.
    run = ReplicaRun(1.0, 10, 8, 2, rounds_skipped=5)
    assert run == ReplicaRun(1.0, 10, 8, 2)
