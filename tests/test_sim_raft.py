"""Simulated-Raft behaviour tests."""

from __future__ import annotations

import pytest

from repro.sim import Cluster, audit_run, run_scenario
from repro.sim.checker import check_agreement, check_completion
from repro.sim.raft import (
    AppendEntries,
    AppendResponse,
    LogEntry,
    RaftLog,
    RequestVote,
    Role,
    VoteResponse,
    raft_node_factory,
)


def _leader_ids(cluster):
    return [e.node_id for e in cluster.trace.events_of_kind("leader")]


class TestRaftLog:
    def test_append_and_terms(self):
        log = RaftLog()
        assert log.last_index == 0
        assert log.last_term == 0
        log.append(LogEntry(1, "a"))
        log.append(LogEntry(2, "b"))
        assert log.last_index == 2
        assert log.term_at(1) == 1
        assert log.last_term == 2

    def test_matches_consistency_check(self):
        log = RaftLog()
        log.append(LogEntry(1, "a"))
        assert log.matches(0, 0)
        assert log.matches(1, 1)
        assert not log.matches(1, 2)
        assert not log.matches(5, 1)

    def test_overwrite_truncates_conflicts(self):
        log = RaftLog()
        log.append(LogEntry(1, "a"))
        log.append(LogEntry(1, "b"))
        log.overwrite_from(1, (LogEntry(2, "c"),))
        assert log.last_index == 2
        assert log.entry_at(2).value == "c"

    def test_overwrite_keeps_matching_prefix(self):
        log = RaftLog()
        log.append(LogEntry(1, "a"))
        log.overwrite_from(0, (LogEntry(1, "a"), LogEntry(1, "b")))
        assert log.last_index == 2

    def test_after_is_term_at_and_entries_from_in_one_read(self):
        log = RaftLog()
        assert log.after(0) == (0, ())
        log.append(LogEntry(1, "a"))
        log.append(LogEntry(2, "b"))
        for prev_index in range(3):
            assert log.after(prev_index) == (
                log.term_at(prev_index),
                log.entries_from(prev_index + 1),
            )
        assert log.after(5) == (0, ())  # past the end: no term, nothing to send

    def test_up_to_date_rule(self):
        log = RaftLog()
        log.append(LogEntry(2, "a"))
        assert log.is_up_to_date(5, 3)  # higher term wins
        assert log.is_up_to_date(1, 2)  # same term, same/greater index
        assert not log.is_up_to_date(1, 1)  # lower term loses


class TestElections:
    def test_single_leader_elected(self):
        cluster = Cluster(5, raft_node_factory(), seed=0)
        cluster.start()
        cluster.run_until(2.0)
        leaders = [n for n in cluster.nodes if n.role is Role.LEADER]
        assert len(leaders) == 1

    def test_no_two_leaders_in_same_term(self):
        cluster = Cluster(5, raft_node_factory(), seed=1)
        cluster.crash_at(0, 1.0)
        cluster.recover_at(0, 3.0)
        cluster.start()
        cluster.run_until(10.0)
        terms: dict[int, set[int]] = {}
        for event in cluster.trace.events_of_kind("leader"):
            term = int(event.detail.split("=")[1])
            terms.setdefault(term, set()).add(event.node_id)
        assert all(len(nodes) == 1 for nodes in terms.values())

    def test_new_leader_after_leader_crash(self):
        cluster = Cluster(3, raft_node_factory(), seed=2)
        cluster.start()
        cluster.run_until(1.0)
        first_leader = _leader_ids(cluster)[-1]
        cluster.crash_at(first_leader, 1.5)
        cluster.run_until(5.0)
        later_leaders = set(_leader_ids(cluster)) - {first_leader}
        assert later_leaders

    def test_no_leader_without_quorum(self):
        cluster = Cluster(3, raft_node_factory(), seed=3)
        cluster.crash_at(0, 0.01)
        cluster.crash_at(1, 0.01)
        cluster.start()
        cluster.run_until(5.0)
        assert all(n.role is not Role.LEADER or n.is_crashed for n in cluster.nodes)


class TestReplication:
    def test_all_nodes_commit_all_commands(self):
        cluster = Cluster(5, raft_node_factory(), seed=4)
        commands = [f"cmd-{i}" for i in range(20)]
        trace = run_scenario(cluster, commands=commands, duration=10.0)
        verdict = audit_run(trace, commands, correct_nodes=range(5))
        assert verdict.safe and verdict.live

    def test_commit_survives_minority_crashes(self):
        cluster = Cluster(5, raft_node_factory(), seed=5)
        cluster.crash_at(3, 0.8)
        cluster.crash_at(4, 0.9)
        commands = [f"c{i}" for i in range(10)]
        trace = run_scenario(cluster, commands=commands, duration=12.0)
        verdict = audit_run(trace, commands, correct_nodes=sorted(cluster.correct_node_ids()))
        assert verdict.safe and verdict.live

    def test_no_progress_without_majority(self):
        cluster = Cluster(5, raft_node_factory(), seed=6)
        for node in (2, 3, 4):
            cluster.crash_at(node, 0.1)
        commands = ["never"]
        trace = run_scenario(cluster, commands=commands, duration=8.0)
        liveness = check_completion(trace, commands, correct_nodes=[0, 1])
        assert not liveness.holds
        safety = check_agreement(trace)
        assert safety.holds  # stalled, but never inconsistent

    def test_partition_heals_and_catches_up(self):
        cluster = Cluster(5, raft_node_factory(), seed=7)
        cluster.start()
        cluster.run_until(1.0)
        cluster.network.set_partition([[0, 1, 2], [3, 4]])
        commands = [f"p{i}" for i in range(5)]
        at = 1.2
        for command in commands:
            cluster.submit(command, at=at)
            at += 0.1
        cluster.run_until(4.0)
        cluster.network.heal_partition()
        cluster.run_until(12.0)
        verdict = audit_run(cluster.trace, commands, correct_nodes=range(5))
        assert verdict.safe and verdict.live

    def test_leader_crash_no_lost_committed_data(self):
        cluster = Cluster(5, raft_node_factory(), seed=8)
        cluster.start()
        cluster.run_until(1.0)
        leader = _leader_ids(cluster)[-1]
        commands = [f"x{i}" for i in range(8)]
        at = 1.1
        for command in commands:
            cluster.submit(command, at=at)
            at += 0.05
        cluster.crash_at(leader, 1.3)
        cluster.run_until(12.0)
        correct = sorted(cluster.correct_node_ids())
        verdict = audit_run(cluster.trace, commands, correct_nodes=correct)
        assert verdict.safe
        assert verdict.live

    def test_recovered_node_catches_up(self):
        cluster = Cluster(3, raft_node_factory(), seed=9)
        cluster.crash_at(2, 0.5)
        cluster.recover_at(2, 4.0)
        commands = [f"r{i}" for i in range(6)]
        trace = run_scenario(cluster, commands=commands, duration=15.0)
        committed = trace.committed_by_node()
        assert set(committed.get(2, {}).values()) >= set(commands)


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        def run(seed):
            cluster = Cluster(5, raft_node_factory(), seed=seed)
            cluster.crash_at(1, 1.0)
            commands = [f"d{i}" for i in range(5)]
            trace = run_scenario(cluster, commands=commands, duration=6.0)
            return [(c.time, c.node_id, c.slot, c.value) for c in trace.commits]

        assert run(123) == run(123)

    def test_different_seeds_differ(self):
        def run(seed):
            cluster = Cluster(5, raft_node_factory(), seed=seed)
            trace = run_scenario(cluster, commands=["a"], duration=4.0)
            return [e.node_id for e in trace.events_of_kind("leader")]

        outcomes = {tuple(run(seed)) for seed in range(8)}
        assert len(outcomes) > 1  # election randomization visible


class TestFlexibleQuorums:
    def test_large_persistence_quorum_blocks_commit_with_two_down(self):
        # q_per = 4 of 5: two crashes stall commits even though elections
        # (q_vc = 3) still succeed.
        cluster = Cluster(5, raft_node_factory(q_per=4, q_vc=3), seed=10)
        cluster.crash_at(3, 0.2)
        cluster.crash_at(4, 0.2)
        commands = ["stuck"]
        trace = run_scenario(cluster, commands=commands, duration=8.0)
        liveness = check_completion(trace, commands, correct_nodes=[0, 1, 2])
        assert not liveness.holds

    def test_small_persistence_quorum_commits_with_two_down(self):
        cluster = Cluster(5, raft_node_factory(q_per=2, q_vc=4), seed=11)
        cluster.crash_at(4, 0.2)
        commands = ["flexible"]
        trace = run_scenario(cluster, commands=commands, duration=8.0)
        liveness = check_completion(trace, commands, correct_nodes=[0, 1, 2, 3])
        assert liveness.holds


class TestMessages:
    """What ``repro.sim.raft.messages`` promises, and how a node reads them."""

    MESSAGES = (
        RequestVote(1, 0, 0, 0),
        VoteResponse(1, 2, True),
        AppendEntries(1, 0, 0, 0, (LogEntry(1, "a"),), 0),
        AppendResponse(1, 2, True, 1),
    )

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_no_attribute_can_be_assigned(self, message):
        with pytest.raises(AttributeError):
            message.term = 2
        with pytest.raises(AttributeError):
            message.note = "added"
        assert message.term == 1

    def test_entries_stay_as_sent_when_the_leader_writes_its_log(self):
        cluster = Cluster(3, raft_node_factory(), seed=0)
        sent = []
        send = cluster.network.send

        def recording_send(src, dst, payload):
            sent.append(payload)
            send(src, dst, payload)

        cluster.network.send = recording_send
        cluster.start()
        cluster.submit("a", at=1.0)
        cluster.run_until(1.05)
        carrying = [m for m in sent if type(m) is AppendEntries and m.entries]
        assert carrying
        first = carrying[0]
        assert type(first.entries) is tuple and [e.value for e in first.entries] == ["a"]
        leader = cluster.nodes[first.leader_id]
        leader.on_client_request("b")
        leader.log.overwrite_from(0, (LogEntry(leader.current_term + 1, "c"),))
        assert [e.value for e in first.entries] == ["a"]

    def test_an_unknown_payload_is_ignored(self):
        cluster = Cluster(3, raft_node_factory(), seed=0)
        cluster.start()
        cluster.run_until(1.0)
        node = cluster.nodes[0]

        def state():
            return (
                node.current_term,
                node.voted_for,
                node.role,
                node.log.version,
                node.commit_index,
                cluster.network.messages_sent,
                cluster.scheduler.pending_events,
            )

        before = state()
        # A plain tuple with a RequestVote's fields — a term far ahead —
        # is not a RequestVote: dispatch is on exact type, never on value.
        for payload in (tuple(RequestVote(99, 1, 0, 0)), "vote", None, object()):
            node.on_message(1, payload)
        assert state() == before
