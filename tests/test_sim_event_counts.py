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
"""

from __future__ import annotations

import pytest

import repro.sim.cluster as cluster_module
from repro.analysis.kernels import rebuild_shard_generators, spawn_shard_sequences
from repro.engine import Scenario, SimulationQuery
from repro.engine.backends import _campaign_chunk
from repro.faults.mixture import uniform_fleet
from repro.injection import (
    Adversary,
    CorrelatedBurst,
    FaultPlan,
    LossBurst,
    PartitionEvent,
    ReplicaVerdict,
)
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import RaftSpec

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


#: Per replica: (processed_events, messages_sent, messages_delivered,
#: messages_dropped), then (unsafe, stalled, predicate_mismatch,
#: partition_era_only).
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


def _drive(query: SimulationQuery, monkeypatch):
    """One chunk through the backend's own worker entry point, keeping the
    clusters it builds so their counters can be read afterwards."""
    clusters = []

    class RecordingCluster(cluster_module.Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

    monkeypatch.setattr(cluster_module, "Cluster", RecordingCluster)
    rngs = rebuild_shard_generators(
        spawn_shard_sequences(query.scenario.seed, query.replicas)
    )
    verdicts = _campaign_chunk((query, rngs, None))
    assert len(clusters) == len(verdicts) == query.replicas
    return [
        (
            (
                cluster.scheduler.processed_events,
                cluster.network.messages_sent,
                cluster.network.messages_delivered,
                cluster.network.messages_dropped,
            ),
            verdict,
        )
        for cluster, verdict in zip(clusters, verdicts)
    ]


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_counts_and_verdicts_are_pinned(name, monkeypatch):
    observed = _drive(_query(name), monkeypatch)
    expected = [(counts, ReplicaVerdict(*flags)) for counts, flags in EXPECTED[name]]
    assert observed == expected


@pytest.mark.parametrize("seed", (1000, 1001, 1002))
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_verdicts_of_sixteen_replicas_are_pinned(name, seed, monkeypatch):
    observed = _drive(_query(name, seed=seed, replicas=16), monkeypatch)
    words = VERDICTS_16[name][seed].split()
    expected = [ReplicaVerdict(*(letter != "." for letter in word)) for word in words]
    assert [verdict for _, verdict in observed] == expected
