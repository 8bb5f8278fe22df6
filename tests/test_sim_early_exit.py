"""The frozen-log early exit: same verdicts, and a certificate with no
clause that is not needed.

Four parts.  *Equivalence*: for a grid of deployments, fault plans and
seeds, the verdict ``run_replica`` returns (sliced run, stops when
``Cluster.verdict_final`` holds) equals the verdict assembled from the
same public pieces with one ``run_until(duration)`` on the same spawned
stream — including replicas that end ``unsafe`` or ``stalled``.
*Clauses*: one test per clause of the certificate in which that clause
alone fails and the certificate refuses, next to the control in which it
holds; a clause that cannot fail a test here should be deleted, not kept.
*The schedule* ``Cluster.run_to_verdict`` derives from the certificate:
a zero delay bound still certifies, and a cluster that can never certify
is never checked.  *The guard*: ``Cluster.run_until`` alone never stops
early, and the livelock budget bounds a whole replica, not each slice.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from test_sim_event_counts import (
    SHAPES,
    _query,
    _replica_streams,
    full_horizon_replica,
    recording_clusters,
)

import repro.sim.cluster as cluster_module
from repro.engine import Scenario, SimulationQuery
from repro.engine.backends import _campaign_chunk
from repro.errors import SimulationError
from repro.faults.mixture import uniform_fleet
from repro.injection import (
    CrashStop,
    DelayBurst,
    FaultPlan,
    LossBurst,
    PartitionEvent,
    run_replica,
)
from repro.protocols.raft import FlexibleRaftSpec, RaftSpec
from repro.sim.cluster import CHECKPOINT_INTERVAL, Cluster
from repro.sim.network import FixedLatency, LogNormalLatency
from repro.sim.node import IdleProcess, Process
from repro.sim.pbft import pbft_node_factory
from repro.sim.raft import raft_node_factory
from repro.sim.raft.log import LogEntry

HORIZON = 6.0


# ---------------------------------------------------------------------------
# (i) Equivalence with the full-horizon reference
# ---------------------------------------------------------------------------
def _raft_query(
    spec=None, *, p_fail=0.15, seed=7, replicas=8, commands=2, faults=None, **kwargs
) -> SimulationQuery:
    spec = RaftSpec(5) if spec is None else spec
    scenario = Scenario(spec=spec, fleet=uniform_fleet(spec.n, p_fail), seed=seed)
    return SimulationQuery(
        scenario,
        faults=faults,
        replicas=replicas,
        duration=HORIZON,
        commands=commands,
        **kwargs,
    )


def _plan(*events, **kwargs) -> FaultPlan:
    return FaultPlan(events=events, **kwargs)


#: A leader that commits alone (``q_per=1``) next to an election quorum of
#: two: quorums that need not intersect.  Crash-recovering nodes miss
#: commands, win elections on the far side of a partition that straddles
#: the workload, and overwrite what was decided — about a quarter of these
#: replicas end ``unsafe``.
_SPLIT_BRAIN = dict(
    spec=FlexibleRaftSpec(5, 1, 2),
    faults=FaultPlan(
        events=(PartitionEvent(groups=((0, 1), (2, 3, 4)), at=0.9, heal_at=1.6),),
        mean_time_to_repair=0.2,
    ),
    p_fail=0.5,
    crash_window=(0.0, 1.4),
    commands=4,
    replicas=16,
)

#: name -> query.  Every case runs on several seeds below.
CASES = {
    "split_brain": lambda seed: _raft_query(seed=seed, **_SPLIT_BRAIN),
    "split_brain_even": lambda seed: _raft_query(
        seed=seed, **{**_SPLIT_BRAIN, "spec": FlexibleRaftSpec(5, 2, 2)}
    ),
    "recover_after_commit": lambda seed: _raft_query(
        faults=_plan(
            CrashStop(node=1, at=0.2, recover_at=3.0),
            CrashStop(node=3, at=1.3, recover_at=1.9),
        ),
        seed=seed,
    ),
    "quorum_back_after_submit": lambda seed: _raft_query(
        faults=_plan(
            CrashStop(node=0, at=0.5, recover_at=2.5),
            CrashStop(node=1, at=0.5, recover_at=2.6),
            CrashStop(node=2, at=0.5, recover_at=3.4),
            sample_faults=False,
        ),
        seed=seed,
    ),
    "partition_over_commands": lambda seed: _raft_query(
        faults=_plan(PartitionEvent(groups=((0, 1), (2, 3, 4)), at=0.9, heal_at=1.6)),
        seed=seed,
    ),
    "loss_burst": lambda seed: _raft_query(
        faults=_plan(LossBurst(at=0.9, until=2.5, drop_probability=0.4)), seed=seed
    ),
    "delay_burst": lambda seed: _raft_query(
        faults=_plan(DelayBurst(at=0.8, until=2.0, extra_delay=0.06)), seed=seed
    ),
    "late_crash_window": lambda seed: _raft_query(
        crash_window=(2.0, 3.0), p_fail=0.4, seed=seed
    ),
    "repairing_fleet": lambda seed: _raft_query(
        faults=_plan(mean_time_to_repair=1.0), p_fail=0.4, seed=seed
    ),
    "one_command": lambda seed: _raft_query(commands=1, seed=seed),
    "four_commands": lambda seed: _raft_query(commands=4, seed=seed),
    "raft3": lambda seed: _raft_query(RaftSpec(3), p_fail=0.3, seed=seed),
    "raft7": lambda seed: _raft_query(RaftSpec(7), p_fail=0.3, seed=seed),
}


def _compare(query: SimulationQuery):
    """(verdicts via run_replica, full-horizon verdicts) on the same streams."""
    served = _campaign_chunk((query, _replica_streams(query), None))
    reference = [
        full_horizon_replica(query, rng)[1] for rng in _replica_streams(query)
    ]
    return served, reference


@pytest.mark.parametrize("seed", range(1000, 1006))
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_benchmark_shapes_match_the_full_horizon(name, seed):
    served, reference = _compare(_query(name, seed=seed, replicas=16))
    assert served == reference


def test_fault_plan_grid_matches_the_full_horizon():
    seen_unsafe = seen_stalled = early = total = 0
    for name, build in sorted(CASES.items()):
        for seed in (1, 2):
            served, reference = _compare(build(seed))
            assert served == reference, (name, seed)
            seen_unsafe += sum(v.unsafe for v in served)
            seen_stalled += sum(v.stalled for v in served)
            early += sum(v.run.sim_seconds < HORIZON for v in served)
            total += len(served)
    # The grid is not vacuous: it holds unsafe and stalled replicas, replicas
    # that stopped early and replicas that had to run to the horizon.
    assert seen_unsafe and seen_stalled
    assert 0 < early < total


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_benchmark_shapes_match_at_ninety_six_replicas(name):
    for seed in range(1000, 1006):
        served, reference = _compare(_query(name, seed=seed, replicas=96))
        assert served == reference, seed


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CASES))
def test_fault_plan_grid_matches_on_more_seeds(name):
    for seed in range(100, 120):
        served, reference = _compare(CASES[name](seed))
        assert served == reference, seed


def test_healthy_raft_stops_one_confirmation_after_its_logs_freeze(monkeypatch):
    """A healthy replica stops at the first checkpoint that finds its logs
    frozen, plus one confirmation two delay bounds later.

    This replaced the fixed-grid rule (two 0.25 s checkpoints after the
    last submit: 1.6 s for every replica) when the schedule came to be
    derived from the certificate: the search runs on a
    ``CHECKPOINT_INTERVAL`` stride from the last submit, and the confirming
    checkpoint is the earliest one clause (3) accepts.
    """
    clusters = recording_clusters(monkeypatch)
    query = _query("crash_raft")
    verdicts = _campaign_chunk((query, _replica_streams(query), None))
    last_submit, bound = 1.0 + 0.1, 0.001
    for verdict, cluster in zip(verdicts, clusters, strict=True):
        run = verdict.run
        frozen_at = last_submit
        for _ in range(run.checkpoints - 2):  # the search, then the confirmation
            frozen_at += CHECKPOINT_INTERVAL
        assert run.sim_seconds == frozen_at + 2 * bound
        # The first frozen checkpoint: the stride before it preceded the
        # last commit record, which it follows.
        last_commit = max(record.time for record in cluster.trace.commits)
        assert frozen_at - CHECKPOINT_INTERVAL < last_commit <= frozen_at


def test_pbft_always_runs_to_the_horizon():
    query = _query("crash_pbft")
    verdicts = _campaign_chunk((query, _replica_streams(query), None))
    # Every run that is executed; a reused replica is not run at all.
    executed = [verdict.run for verdict in verdicts if not verdict.run.reused]
    assert executed and all(run.sim_seconds == HORIZON for run in executed)
    # In one slice: PBFT makes no promise, so nothing is ever checked.
    assert all(run.checkpoints == 0 for run in executed)


# ---------------------------------------------------------------------------
# (ii) One test per clause: that clause alone fails, the certificate refuses
# ---------------------------------------------------------------------------
def _cluster(n=3, factory=None, **kwargs) -> Cluster:
    """A started cluster with two commands submitted at 0.5 s and 0.6 s."""
    cluster = Cluster(n, factory or raft_node_factory(), seed=11, **kwargs)
    cluster.start()
    cluster.submit("a", at=0.5)
    cluster.submit("b", at=0.6)
    return cluster


def _checkpoints(cluster: Cluster, *times: float) -> list[bool]:
    answers = []
    for time in times:
        cluster.run_until(time)
        answers.append(cluster.verdict_final())
    return answers


class TestCertificate:
    def test_holds_at_the_second_quiet_checkpoint(self):
        # The control every refusal below is measured against.
        assert _checkpoints(_cluster(), 1.0, 1.25, 1.5) == [False, True, True]

    def test_a_node_down_for_good_is_not_waited_for(self):
        cluster = _cluster()
        cluster.crash_at(2, 0.1)
        assert _checkpoints(cluster, 1.0, 1.25) == [False, True]

    def test_short_log_on_a_node_with_a_pending_recovery_refuses(self):
        cluster = _cluster()
        cluster.crash_at(2, 0.1)
        cluster.recover_at(2, 2.0)
        # Node 2 sleeps on an empty log and will run again: not final.
        assert _checkpoints(cluster, 1.0, 1.25, 1.5, 1.75) == [False] * 4
        # Recovered and caught up: the certificate holds again.
        assert _checkpoints(cluster, 2.25, 2.5) == [False, True]

    def test_unequal_logs_refuse(self):
        def isolated(rewrite: bool) -> Cluster:
            cluster = _cluster()
            cluster.partition_at(((0, 1), (2,)), 0.9)
            cluster.run_until(1.0)
            if rewrite:
                # Same values, all applied — but not the log the others hold.
                cluster.nodes[2].log.overwrite_from(
                    0, (LogEntry(9, "a"), LogEntry(9, "b"))
                )
            return cluster

        assert _checkpoints(isolated(False), 1.25, 1.5) == [False, True]
        assert _checkpoints(isolated(True), 1.25, 1.5, 1.75) == [False] * 3

    def test_a_command_missing_from_the_log_refuses(self):
        # No quorum ever: one running node, empty log, nothing to apply —
        # every other clause holds, and a later recovery could still commit.
        cluster = _cluster()
        cluster.crash_at(1, 0.1)
        cluster.crash_at(2, 0.1)
        assert _checkpoints(cluster, 1.0, 1.25, 1.5) == [False] * 3
        # A command still to be submitted is as missing as a stalled one.
        cluster = _cluster()
        cluster.submit("late", at=3.0)
        assert _checkpoints(cluster, 1.0, 1.25, 1.5) == [False] * 3
        assert _checkpoints(cluster, 3.25, 3.5) == [False, True]

    def test_a_running_node_that_has_not_applied_its_log_refuses(self):
        cluster = _cluster()
        cluster.run_until(1.0)
        follower = next(node for node in cluster.nodes if node.leader_id != node.node_id)
        # Same log as everyone, one slot not yet recorded in the trace.
        follower._recorded_commit -= 1
        assert _checkpoints(cluster, 1.25, 1.5, 1.75) == [False] * 3
        follower._recorded_commit += 1
        assert _checkpoints(cluster, 2.0, 2.25) == [False, True]

    def test_a_log_written_between_checkpoints_refuses(self):
        cluster = _cluster()
        assert _checkpoints(cluster, 1.0) == [False]
        log = cluster.nodes[0].log
        last = log.entry_at(log.last_index)
        # Overwritten and put back: equal logs at both checkpoints, but a
        # message carrying the other suffix may be in flight.
        log.overwrite_from(log.last_index - 1, (LogEntry(last.term + 1, "x"),))
        log.overwrite_from(log.last_index - 1, (last,))
        assert log.entries_from(1) == cluster.nodes[1].log.entries_from(1)
        assert _checkpoints(cluster, 1.25, 1.5) == [False, True]

    def test_checkpoints_no_wider_than_the_delay_bound_refuse(self):
        cluster = _cluster()
        cluster.set_extra_delay_at(0.25, 0.1)
        cluster.set_extra_delay_at(0.0, 0.2)
        # 0.25 s apart with messages once delayed by 0.251 s: never.
        assert _checkpoints(cluster, 1.0, 1.25, 1.5, 1.75) == [False] * 4
        # Wider than the bound: the same cluster certifies.
        assert _checkpoints(cluster, 2.25) == [True]

    def test_a_delay_burst_wider_than_the_stride_certifies_later(self):
        # Messages once delayed by 0.251 s, five strides: the confirming
        # checkpoint comes twice that after the first frozen one (1.15 s and
        # 1.2 s here), not at the horizon the fixed 0.25 s grid ran to.
        burst = _plan(DelayBurst(at=0.1, until=0.2, extra_delay=0.25))
        served, reference = _compare(_raft_query(faults=burst, p_fail=0.0, replicas=2))
        assert served == reference
        assert [v.run.sim_seconds for v in served] == [
            pytest.approx(1.15 + 2 * 0.251),
            pytest.approx(1.2 + 2 * 0.251),
        ]

    def test_unbounded_latency_refuses(self):
        cluster = _cluster(latency=LogNormalLatency(median=0.001))
        assert _checkpoints(cluster, 1.0, 1.25, 1.5, 3.0) == [False] * 4

    def test_nodes_that_make_no_promise_refuse(self):
        idle = lambda node_id, n, scheduler, network, rng, trace: IdleProcess(  # noqa: E731
            node_id, scheduler, network, rng
        )
        for factory in (pbft_node_factory(), idle):
            cluster = _cluster(4, factory)
            assert _checkpoints(cluster, 1.0, 1.25, 1.5) == [False] * 3

    def test_an_overridden_node_refuses_even_if_it_is_raft(self):
        cluster = _cluster(node_overrides={1: raft_node_factory()})
        assert _checkpoints(cluster, 1.0, 1.25, 1.5) == [False] * 3


# ---------------------------------------------------------------------------
# (iii) The schedule: its edges, and the clusters it never checks
# ---------------------------------------------------------------------------
def _at_latency(monkeypatch, latency) -> None:
    """Build every cluster, ``run_replica``'s and the reference's, on ``latency``."""

    class AtLatency(Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, latency=latency, **kwargs)

    monkeypatch.setattr(cluster_module, "Cluster", AtLatency)


class TestSchedule:
    def test_a_zero_delay_bound_still_advances_and_certifies(self, monkeypatch):
        # The confirming checkpoint is the next float after the frozen one:
        # later than it, so clause (3) holds, and never the same instant.
        _at_latency(monkeypatch, FixedLatency(0.0))
        served, reference = _compare(_raft_query(p_fail=0.0, replicas=2))
        assert served == reference
        frozen = [1.0 + 0.1 + 0.05 + 0.05, 1.0 + 0.1 + 0.05]
        assert [v.run.sim_seconds for v in served] == [
            math.nextafter(time, math.inf) for time in frozen
        ]

    def test_an_unbounded_latency_model_is_never_checked(self, monkeypatch):
        _at_latency(monkeypatch, LogNormalLatency(median=0.001))
        served, reference = _compare(_raft_query(p_fail=0.0, replicas=2))
        assert served == reference
        assert [(v.run.sim_seconds, v.run.checkpoints) for v in served] == [
            (HORIZON, 0)
        ] * 2

    def test_pbft_and_overridden_clusters_are_never_checked(self):
        for cluster in (
            _cluster(4, pbft_node_factory()),
            _cluster(node_overrides={1: raft_node_factory()}),
        ):
            assert cluster.run_to_verdict(0.6, 3.0) == 3.0
            assert cluster.checkpoints == 0
        # The control: the same Raft cluster without the override stops early.
        cluster = _cluster()
        assert cluster.run_to_verdict(0.6, 3.0) < 3.0
        assert cluster.checkpoints > 0


# ---------------------------------------------------------------------------
# (iv) The guards around it
# ---------------------------------------------------------------------------
def test_run_until_alone_never_stops_early():
    cluster = _cluster()
    cluster.run_until(2.0)
    events_at_two = cluster.scheduler.processed_events
    cluster.run_until(HORIZON)
    assert cluster.now == HORIZON
    # Four more seconds of heartbeats were simulated, certificate or not.
    assert cluster.scheduler.processed_events > 2 * events_at_two


class _Ticker(Process):
    """Burns one event per millisecond for ever and decides nothing.

    It overrides :meth:`Process.frozen_log`, so its replica is run slice by
    slice between checkpoints, and never promises anything.
    """

    def frozen_log(self, commands):
        return None

    def on_start(self) -> None:
        self.set_timer("tick", 0.001)

    def on_timer(self, name: str) -> None:
        self.set_timer("tick", 0.001)

    def on_message(self, src: int, payload: object) -> None:
        pass


def test_livelock_guard_bounds_the_whole_replica(monkeypatch):
    def ticker(node_id, n, scheduler, network, rng, trace):
        return _Ticker(node_id, scheduler, network, rng)

    def run():
        return run_replica(
            RaftSpec(3),
            uniform_fleet(3, 0.0),
            node_factory=ticker,
            duration=HORIZON,
            commands=[("a", 0.5)],
            crash_window=(0.0, 0.4),
            rng=np.random.default_rng(5),
        )

    assert run().run.events > 12_000  # 3 nodes x 6000 ticks: fine by default
    # No slice runs 4000 events (the longest is 0.5 s = 1500), so a
    # per-slice guard would never trip; the replica's total must.
    monkeypatch.setattr(cluster_module, "MAX_EVENTS", 4_000)
    with pytest.raises(SimulationError, match="livelock"):
        run()
