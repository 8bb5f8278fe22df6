"""Event and message counts, and replica verdicts, of the four benchmark
deployment shapes.

The simulator's event order is ``(time, seq)``, so a change to how the
scheduler or the network *represent* events must leave every count below
— and every replica verdict — exactly as it is.

The verdicts (``EXPECTED``'s second column and all of ``VERDICTS_16``)
and the Raft ``messages_sent/delivered/dropped`` columns were recorded
on commits that predate the change they guard: PR 12's tree for the
4-replica table, PR 14's tree (before ``sim/`` was touched) for the
16-replica one.  A change that moves one of them changed what a replica
decides.

The other counts were re-pinned once, by the change that stopped
scheduling events that do no work: a timer whose deadline moves later
keeps its queued wake-up and re-posts itself when it wakes early (each
early wake-up is a counted event, hence Raft's ``processed_events`` rise
by about 6 % while its heap pushes and cancelled pops fall); PBFT's
``retry`` timer runs only while a replica has unfinished work, backs off
while it stays unfinished, and asks peers for what is missing in place
of re-broadcasting every open slot on every tick; each PBFT vote is
broadcast once.  A fault-free PBFT replica now sends exactly the
protocol's messages: per command 4 pre-prepares, 16 prepares and 16
commits (72 for two commands, against 104 before).

Since the frozen-log early exit a campaign's Raft replica stops at the
first checkpoint where its verdict is final, so the campaign path no
longer runs the counts in ``EXPECTED`` for Raft.  They are kept, as they
were, by driving ``compile_faults -> Cluster -> run_until(6.0)`` directly
(``test_full_horizon_counts_are_pinned``: they still guard event order
over a whole horizon, and ``Cluster.run_until`` alone never stops early),
and the counts the campaign path now runs are pinned once beside them in
``EARLY_EXIT`` (exit time, then the same four counters).  Every verdict
column is unchanged, and so is every PBFT row on both paths: PBFT makes no
frozen-log promise and runs to the horizon.  ``EARLY_EXIT`` was re-pinned
once more when the checkpoint schedule came to be derived from the
certificate (the reason is beside the table); ``EXPECTED`` did not move.

Since replica reuse a campaign simulates each *distinct* run once: a
replica whose compiled faults equal those of an earlier replica whose run
read no random stream takes that verdict and builds no cluster.  The
campaign path therefore has counters only for the replicas it executed —
the others are checked on their verdict alone — and how many it executed
is pinned in ``DISTINCT_RUNS`` (a count that repeats exactly).  One
executed run is unchanged: every row of ``EXPECTED`` still holds on the
full-horizon path, which runs every replica.
"""

from __future__ import annotations

import pytest

import repro.sim.cluster as cluster_module
from repro.analysis.kernels import rebuild_shard_generators, spawn_shard_sequences
from repro.engine import Scenario, SimulationQuery
from repro.engine.backends import (
    _campaign_chunk,
    _command_schedule,
    _node_factory_for,
)
from repro.faults.mixture import uniform_fleet
from repro.injection import (
    Adversary,
    CorrelatedBurst,
    FaultPlan,
    LossBurst,
    PartitionEvent,
    ReplicaVerdict,
    behaviour_factory,
    compile_faults,
)
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import RaftSpec
from repro.sim.checker import audit_run

SEED = 2026
REPLICAS = 4

_OUTAGE_PLAN = FaultPlan(
    events=(
        PartitionEvent(groups=((0, 1), (2, 3, 4)), at=2.0, heal_at=3.0),
        LossBurst(at=3.5, until=4.5, drop_probability=0.2),
        CorrelatedBurst(members=(0, 1), at=4.0, probability=0.5, mean_time_to_repair=1.0),
    ),
    mean_time_to_repair=2.0,
)
_ADVERSARY_PLAN = FaultPlan(adversary=Adversary(nodes=(0, 2)))


#: name -> (spec, per-node failure probability, fault plan)
SHAPES = {
    "crash_raft": (RaftSpec(5), 0.15, None),
    "crash_pbft": (PBFTSpec(4), 0.1, None),
    "adv_pbft": (PBFTSpec(4), 0.1, _ADVERSARY_PLAN),
    "outage_raft": (RaftSpec(5), 0.15, _OUTAGE_PLAN),
}


def _query(name, seed=SEED, replicas=REPLICAS) -> SimulationQuery:
    spec, p_fail, faults = SHAPES[name]
    scenario = Scenario(spec=spec, fleet=uniform_fleet(spec.n, p_fail), seed=seed)
    return SimulationQuery(
        scenario, faults=faults, replicas=replicas, duration=6.0, commands=2
    )


#: Per replica over the full 6 s horizon: (processed_events, messages_sent,
#: messages_delivered, messages_dropped), then (unsafe, stalled,
#: predicate_mismatch, partition_era_only).
EXPECTED = {
    "crash_raft": [
        ((1660, 1371, 1182, 189), (False, False, False, False)),
        ((1886, 1568, 1568, 0), (False, False, False, False)),
        ((1886, 1568, 1568, 0), (False, False, False, False)),
        ((1881, 1568, 1564, 0), (False, False, False, False)),
    ],
    "crash_pbft": [
        ((59, 56, 42, 14), (False, False, False, False)),
        ((74, 72, 72, 0), (False, False, False, False)),
        ((74, 72, 72, 0), (False, False, False, False)),
        ((74, 72, 72, 0), (False, False, False, False)),
    ],
    "adv_pbft": [
        ((604, 542, 470, 72), (False, True, False, False)),
        ((2538, 2398, 2398, 0), (True, True, False, False)),
        ((2538, 2398, 2398, 0), (True, True, False, False)),
        ((2538, 2398, 2398, 0), (True, True, False, False)),
    ],
    "outage_raft": [
        ((1493, 1320, 1052, 268), (False, False, False, False)),
        ((1531, 1347, 1187, 160), (False, False, False, False)),
        ((1744, 1602, 1378, 224), (False, False, False, False)),
        ((1676, 1484, 1359, 125), (False, False, False, False)),
    ],
}

#: The first checkpoint (the last submit, 1.1 s) and the search stride.
_SUBMITTED, _STRIDE = 1.0 + 0.1, 0.05
#: Where a replica stops: the first checkpoint that saw its logs frozen,
#: plus twice the delay bound of ``FixedLatency(0.001)``.
_FROZEN_AT_1_15 = _SUBMITTED + _STRIDE + 2 * 0.001
_FROZEN_AT_1_2 = _SUBMITTED + _STRIDE + _STRIDE + 2 * 0.001

#: What the campaign path runs of the Raft rows above: the virtual time at
#: which the replica's frozen-log certificate held, then the four counters
#: at that instant.  Same streams, same verdicts.
#:
#: Re-pinned once, by the change that derived the checkpoint schedule from
#: the certificate: the search stride went from 0.25 s to
#: ``CHECKPOINT_INTERVAL`` = 0.05 s, and once a checkpoint sees the logs
#: frozen the confirming one comes two delay bounds later instead of one
#: stride later.  Every replica used to stop at 1.6 s; now at 1.152 s or
#: 1.202 s.  Only the exit time and the four counters moved; the counters
#: are still a prefix of ``EXPECTED``'s run, which is unchanged.
EARLY_EXIT = {
    "crash_raft": [
        (_FROZEN_AT_1_2, (306, 251, 222, 29)),
        (_FROZEN_AT_1_2, (347, 288, 288, 0)),
        (_FROZEN_AT_1_15, (337, 280, 280, 0)),
        (_FROZEN_AT_1_15, (329, 272, 272, 0)),
    ],
    # Every event of the outage plan falls after 1.202 s: the same prefix.
    "outage_raft": [
        (_FROZEN_AT_1_2, (306, 251, 222, 29)),
        (_FROZEN_AT_1_2, (347, 288, 288, 0)),
        (_FROZEN_AT_1_15, (337, 280, 280, 0)),
        (_FROZEN_AT_1_15, (329, 272, 272, 0)),
    ],
}

#: Clusters the campaign path builds for (4 replicas at ``SEED``, 16
#: replicas at seed 1000).  Raft draws election timeouts, so every replica
#: runs; PBFT at ``FixedLatency`` reads no stream, so one run serves every
#: replica with the same compiled faults.
DISTINCT_RUNS = {
    "crash_raft": (4, 16),
    "crash_pbft": (2, 7),
    "adv_pbft": (2, 6),
    "outage_raft": (4, 16),
}

#: The same four shapes at the benchmark's 16 replicas, seeds 1000-1002:
#: one word per replica, one letter per verdict field in declaration
#: order — ``U`` unsafe, ``S`` stalled, ``M`` predicate_mismatch, ``P``
#: partition_era_only, ``.`` false.
VERDICTS_16 = {
    "crash_raft": {
        1000: ".... .... .... .... .... .... .S.. .... "
        ".... .... .... .... .... .... .... ....",
        1001: ".... .... .... .... .... .... .... .... "
        ".... .... .... .... .... .... .... ....",
        1002: ".... .... .... .... .... .... .... .... "
        ".... .... .... .... .... .... .... ....",
    },
    "crash_pbft": {
        1000: ".... .... .... .... .... .... .... .... "
        ".S.. .S.. .... .... .... .... .... ....",
        1001: ".... .... .... .... .... .... .S.. .... "
        ".... .... .... .... .... .... .... ....",
        1002: ".... .... .... .... .... .... .... .... "
        ".... .... .... .... .... .... .... ....",
    },
    "adv_pbft": {
        1000: "US.. US.. US.. US.. US.. ..M. US.. ..M. "
        ".S.. ..M. US.. US.. US.. ..M. US.. US..",
        1001: "US.. US.. ..M. .S.. US.. US.. ..M. US.. "
        "..M. US.. US.. US.. ..M. US.. US.. US..",
        1002: "..M. US.. US.. US.. US.. US.. US.. .S.. "
        "US.. US.. US.. US.. US.. US.. US.. US..",
    },
    "outage_raft": {
        1000: ".... .... ..M. .... .... .... ..M. .... "
        ".... ..M. .... .... .... .... .... ....",
        1001: "..M. .... ..M. .... ..M. .... ..M. .... "
        ".... .... ..M. .... ..M. .... ..M. ....",
        1002: ".... ..M. ..M. ..M. .... .... ..M. ..M. "
        ".... .... .... .... .... .... .... ..M.",
    },
}


def _counts(cluster):
    return (
        cluster.scheduler.processed_events,
        cluster.network.messages_sent,
        cluster.network.messages_delivered,
        cluster.network.messages_dropped,
    )


def _replica_streams(query: SimulationQuery):
    return rebuild_shard_generators(
        spawn_shard_sequences(query.scenario.seed, query.replicas)
    )


def recording_clusters(monkeypatch) -> list:
    """Every cluster built from here on, ``run_replica``'s included."""
    clusters = []

    class RecordingCluster(cluster_module.Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

    monkeypatch.setattr(cluster_module, "Cluster", RecordingCluster)
    return clusters


def _drive(query: SimulationQuery, monkeypatch):
    """One chunk through the backend's own worker entry point, keeping the
    clusters it builds so their counters can be read afterwards.  A reused
    replica built none: its counters are ``None``."""
    clusters = recording_clusters(monkeypatch)
    verdicts = _campaign_chunk((query, _replica_streams(query), None))
    assert len(verdicts) == query.replicas
    assert len(clusters) == sum(not verdict.run.reused for verdict in verdicts)
    executed = iter(clusters)
    return [
        (None if verdict.run.reused else _counts(next(executed)), verdict)
        for verdict in verdicts
    ]


def full_horizon_replica(query: SimulationQuery, rng):
    """The reference a replica is held to: the public pieces ``run_replica``
    is made of, on the same stream, with one ``run_until(duration)``."""
    scenario = query.scenario
    spec, fleet = scenario.spec, scenario.fleet
    commands = _command_schedule(query.commands)
    compiled = compile_faults(
        query.faults,
        fleet=fleet,
        duration=query.duration,
        crash_window=query.crash_window,
        correlation=scenario.correlation,
        failure_kind=scenario.failure_kind,
        rng=rng,
    )
    overrides = {
        node: behaviour_factory(behaviour, spec)
        for node, behaviour in compiled.behaviours.items()
    }
    cluster = cluster_module.Cluster(
        fleet.n, _node_factory_for(spec), seed=rng, node_overrides=overrides or None
    )
    compiled.apply(cluster)
    compiled.apply_network(cluster)
    cluster.start()
    for value, at in commands:
        cluster.submit(value, at=at)
    cluster.run_until(query.duration)
    config = compiled.config
    verdict = audit_run(
        cluster.trace,
        [value for value, _ in commands],
        correct_nodes=sorted(set(range(fleet.n)) - set(config.failed_indices)),
        partition_windows=compiled.partition_windows,
        submit_times=dict(commands),
    )
    missing = verdict.liveness.missing
    return cluster, ReplicaVerdict(
        unsafe=not verdict.safe,
        stalled=not verdict.live,
        predicate_mismatch=verdict.live != spec.is_live(config),
        partition_era_only=bool(missing)
        and set(missing) == set(verdict.liveness.partition_era),
    )


def _expected(name):
    return [(counts, ReplicaVerdict(*flags)) for counts, flags in EXPECTED[name]]


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_full_horizon_counts_are_pinned(name):
    query = _query(name)
    observed = []
    for rng in _replica_streams(query):
        cluster, verdict = full_horizon_replica(query, rng)
        assert cluster.now == query.duration
        observed.append((_counts(cluster), verdict))
    assert observed == _expected(name)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_counts_and_verdicts_are_pinned(name, monkeypatch):
    observed = _drive(_query(name), monkeypatch)
    expected = _expected(name)
    if name in EARLY_EXIT:
        assert [verdict.run.sim_seconds for _, verdict in observed] == [
            exit_time for exit_time, _ in EARLY_EXIT[name]
        ]
        expected = [
            (counts, verdict)
            for (_, counts), (_, verdict) in zip(EARLY_EXIT[name], expected)
        ]
    else:
        assert all(
            verdict.run.sim_seconds == 6.0
            for _, verdict in observed
            if not verdict.run.reused
        )
    assert observed == [
        (None if seen.run.reused else counts, verdict)
        for (counts, verdict), (_, seen) in zip(expected, observed)
    ]
    assert sum(counts is not None for counts, _ in observed) == DISTINCT_RUNS[name][0]


@pytest.mark.parametrize("seed", (1000, 1001, 1002))
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_verdicts_of_sixteen_replicas_are_pinned(name, seed, monkeypatch):
    observed = _drive(_query(name, seed=seed, replicas=16), monkeypatch)
    words = VERDICTS_16[name][seed].split()
    expected = [ReplicaVerdict(*(letter != "." for letter in word)) for word in words]
    assert [verdict for _, verdict in observed] == expected
    if seed == 1000:
        executed = sum(counts is not None for counts, _ in observed)
        assert executed == DISTINCT_RUNS[name][1]
