"""Tests for the sampled-quorum replication protocol (§4)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidConfigurationError
from repro.sim import Cluster
from repro.sim.checker import check_agreement
from repro.sim.sampled import sampled_quorum_factory, slot_survivors


def _run(n=12, k=3, commands=5, seed=0, duration=5.0, crashes=()):
    cluster = Cluster(n, sampled_quorum_factory(quorum_size=k), seed=seed)
    for node_id, at in crashes:
        cluster.crash_at(node_id, at)
    cluster.start()
    for i in range(commands):
        cluster.submit(f"v{i}", at=0.2 + i * 0.1)
    cluster.run_until(duration)
    return cluster


class TestHappyPath:
    def test_all_commands_commit(self):
        cluster = _run()
        leader = cluster.nodes[0]
        assert set(leader.committed.values()) == {f"v{i}" for i in range(5)}

    def test_payload_lives_exactly_on_sample(self):
        cluster = _run(seed=1)
        leader = cluster.nodes[0]
        for slot, quorum in leader.sampled_quorums.items():
            assert slot_survivors(cluster, slot) == quorum

    def test_all_replicas_learn_decisions(self):
        cluster = _run(seed=2)
        for process in cluster.nodes:
            assert set(process.learned.values()) >= {f"v{i}" for i in range(5)}

    def test_agreement_across_replicas(self):
        cluster = _run(seed=3)
        assert check_agreement(cluster.trace).holds

    def test_deterministic_quorum_draws(self):
        a = _run(seed=9).nodes[0].sampled_quorums
        b = _run(seed=9).nodes[0].sampled_quorums
        assert a == b

    def test_message_cost_is_sublinear(self):
        """The cost pitch: k copies per slot, not n."""
        n, k, commands = 30, 3, 10
        cluster = _run(n=n, k=k, commands=commands, seed=4)
        # Appends+acks scale with k; commit notices with n.
        sent = cluster.network.messages_sent
        assert sent < commands * (2 * k + n + 5)


class TestFaultBehaviour:
    def test_sample_member_crash_stalls_slot(self):
        cluster = Cluster(6, sampled_quorum_factory(quorum_size=3), seed=5)
        cluster.start()
        cluster.run_until(0.1)
        # Submit, then immediately crash a sampled member before acks land.
        cluster.submit("doomed")
        leader = cluster.nodes[0]
        quorum = leader.sampled_quorums[1]
        victim = next(iter(quorum - {0}))
        cluster.nodes[victim].crash()
        cluster.run_until(3.0)
        # Depending on message timing the ack may have squeaked through;
        # accept either, but if uncommitted it must still be pending.
        if 1 not in leader.committed:
            assert 1 in leader.pending_values

    def test_commit_survives_non_member_crashes(self):
        cluster = Cluster(10, sampled_quorum_factory(quorum_size=3), seed=6)
        cluster.start()
        cluster.submit("sturdy", at=0.2)
        cluster.run_until(1.0)
        leader = cluster.nodes[0]
        assert 1 in leader.committed
        quorum = leader.sampled_quorums[1]
        for node in range(10):
            if node not in quorum and node != 0:
                cluster.nodes[node].crash()
        cluster.run_until(2.0)
        assert slot_survivors(cluster, 1) == quorum

    def test_durability_lost_iff_sample_wiped(self):
        cluster = Cluster(10, sampled_quorum_factory(quorum_size=3), seed=7)
        cluster.start()
        cluster.submit("fragile", at=0.2)
        cluster.run_until(1.0)
        leader = cluster.nodes[0]
        quorum = leader.sampled_quorums[1]
        for node in quorum:
            cluster.nodes[node].crash()
        cluster.run_until(2.0)
        assert slot_survivors(cluster, 1) == frozenset()

    def test_invalid_quorum_size(self):
        with pytest.raises(InvalidConfigurationError):
            Cluster(3, sampled_quorum_factory(quorum_size=5), seed=0)


class TestLossyNetwork:
    def test_retry_drives_commit_through_drops(self):
        cluster = Cluster(
            8,
            sampled_quorum_factory(quorum_size=3),
            drop_probability=0.3,
            seed=8,
        )
        cluster.start()
        for i in range(4):
            cluster.submit(f"lossy{i}", at=0.2 + 0.1 * i)
        cluster.run_until(10.0)
        leader = cluster.nodes[0]
        assert set(leader.committed.values()) == {f"lossy{i}" for i in range(4)}


class TestRetryTimer:
    def test_armed_only_while_a_slot_awaits_acks(self):
        cluster = Cluster(6, sampled_quorum_factory(quorum_size=3), seed=5)
        leader = cluster.nodes[0]
        cluster.start()
        cluster.run_until(0.1)
        assert not leader.has_timer("retry")
        cluster.submit("doomed")
        victim = next(iter(leader.sampled_quorums[1] - {0}))
        cluster.nodes[victim].crash()
        cluster.run_until(1.0)
        assert 1 in leader.pending_values and leader.has_timer("retry")
        cluster.nodes[victim].recover()
        cluster.run_until(1.2)
        assert 1 in leader.committed and not leader.has_timer("retry")

    def test_nothing_scheduled_after_the_last_commit(self):
        """The leader's retry stops with its last open slot, so the run
        drains instead of ticking until the livelock guard trips."""
        cluster = Cluster(12, sampled_quorum_factory(quorum_size=3), seed=0)
        cluster.start()
        for i in range(5):
            cluster.submit(f"v{i}", at=0.2 + 0.1 * i)
        cluster.scheduler.run_to_completion(max_events=10_000)
        assert cluster.scheduler.pending_events == 0
        assert set(cluster.nodes[0].committed.values()) == {f"v{i}" for i in range(5)}
        for process in cluster.nodes:
            assert set(process.learned.values()) == {f"v{i}" for i in range(5)}
