"""Event and message counts of the four benchmark deployment shapes.

The simulator's event order is ``(time, seq)``, so a change to how the
scheduler or the network *represent* events must leave every count below
— and every replica verdict — exactly as it is.  The expected values were
recorded on the commit before the tuple-heap kernel (PR 12's tree); a
change that moves one of them changed what the simulator does, not how
fast it does it.
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


def _query(spec, p_fail, faults=None) -> SimulationQuery:
    scenario = Scenario(spec=spec, fleet=uniform_fleet(spec.n, p_fail), seed=SEED)
    return SimulationQuery(
        scenario, faults=faults, replicas=REPLICAS, duration=6.0, commands=2
    )


DEPLOYMENTS = {
    "crash_raft": _query(RaftSpec(5), 0.15),
    "crash_pbft": _query(PBFTSpec(4), 0.1),
    "adv_pbft": _query(PBFTSpec(4), 0.1, _ADVERSARY_PLAN),
    "outage_raft": _query(RaftSpec(5), 0.15, _OUTAGE_PLAN),
}

#: Per replica: (processed_events, messages_sent, messages_delivered,
#: messages_dropped), then (unsafe, stalled, predicate_mismatch,
#: partition_era_only).
EXPECTED = {
    "crash_raft": [
        ((1568, 1371, 1182, 189), (False, False, False, False)),
        ((1765, 1568, 1568, 0), (False, False, False, False)),
        ((1765, 1568, 1568, 0), (False, False, False, False)),
        ((1761, 1568, 1564, 0), (False, False, False, False)),
    ],
    "crash_pbft": [
        ((425, 56, 42, 14), (False, False, False, False)),
        ((586, 104, 104, 0), (False, False, False, False)),
        ((586, 104, 104, 0), (False, False, False, False)),
        ((586, 104, 104, 0), (False, False, False, False)),
    ],
    "adv_pbft": [
        ((3541, 3180, 2319, 839), (False, True, False, False)),
        ((5792, 5300, 5284, 0), (True, True, False, False)),
        ((5792, 5300, 5284, 0), (True, True, False, False)),
        ((5792, 5300, 5284, 0), (True, True, False, False)),
    ],
    "outage_raft": [
        ((1404, 1320, 1052, 268), (False, False, False, False)),
        ((1435, 1347, 1187, 160), (False, False, False, False)),
        ((1633, 1602, 1378, 224), (False, False, False, False)),
        ((1562, 1484, 1359, 125), (False, False, False, False)),
    ],
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


@pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
def test_counts_and_verdicts_are_pinned(name, monkeypatch):
    observed = _drive(DEPLOYMENTS[name], monkeypatch)
    expected = [(counts, ReplicaVerdict(*flags)) for counts, flags in EXPECTED[name]]
    assert observed == expected
