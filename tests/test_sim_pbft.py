"""Simulated-PBFT behaviour tests, honest and Byzantine."""

from __future__ import annotations

import pytest

from repro.sim import Cluster, audit_run, run_scenario
from repro.sim.checker import check_agreement, check_completion
from repro.sim.pbft import (
    Commit,
    DoubleVoter,
    EquivocatingDoubleVoter,
    EquivocatingPrimary,
    PBFTNode,
    SilentByzantine,
    mixed_pbft_factory,
    pbft_node_factory,
)


class TestHonestOperation:
    def test_commits_under_no_failures(self):
        cluster = Cluster(4, pbft_node_factory(), seed=0)
        commands = [f"op{i}" for i in range(8)]
        trace = run_scenario(cluster, commands=commands, duration=10.0)
        verdict = audit_run(trace, commands, correct_nodes=range(4))
        assert verdict.safe and verdict.live

    def test_larger_cluster(self):
        cluster = Cluster(7, pbft_node_factory(), seed=1)
        commands = [f"op{i}" for i in range(5)]
        trace = run_scenario(cluster, commands=commands, duration=10.0)
        verdict = audit_run(trace, commands, correct_nodes=range(7))
        assert verdict.safe and verdict.live

    def test_view_change_on_primary_crash(self):
        cluster = Cluster(4, pbft_node_factory(), seed=2)
        cluster.crash_at(0, 0.3)
        commands = [f"vc{i}" for i in range(4)]
        trace = run_scenario(cluster, commands=commands, duration=15.0)
        assert trace.events_of_kind("new-view")
        verdict = audit_run(trace, commands, correct_nodes=[1, 2, 3])
        assert verdict.safe and verdict.live

    def test_no_progress_beyond_crash_budget(self):
        # n=4 tolerates one fault; two crashes must stall liveness.
        cluster = Cluster(4, pbft_node_factory(), seed=3)
        cluster.crash_at(1, 0.1)
        cluster.crash_at(2, 0.1)
        commands = ["never"]
        trace = run_scenario(cluster, commands=commands, duration=10.0)
        liveness = check_completion(trace, commands, correct_nodes=[0, 3])
        assert not liveness.holds
        assert check_agreement(trace).holds

    def test_deterministic_under_seed(self):
        def run(seed):
            cluster = Cluster(4, pbft_node_factory(), seed=seed)
            trace = run_scenario(cluster, commands=["a", "b"], duration=8.0)
            return [(c.node_id, c.slot, c.value) for c in trace.commits]

        assert run(42) == run(42)


class TestByzantineBehaviour:
    def test_single_equivocator_cannot_break_safety(self):
        """Thm 3.1: |Byz| = 1 < 2*3 - 4 = 2 — safe."""
        factory = mixed_pbft_factory(frozenset({0}), EquivocatingPrimary)
        cluster = Cluster(4, factory, seed=4)
        commands = ["x1", "x2"]
        trace = run_scenario(cluster, commands=commands, duration=15.0)
        verdict = audit_run(trace, commands, correct_nodes=[1, 2, 3])
        assert verdict.safe

    def test_two_byzantine_break_four_node_safety(self):
        """Thm 3.1: |Byz| = 2 ≥ 2|Q_eq| − N — agreement can split."""
        factory = mixed_pbft_factory(
            frozenset({0, 2}), DoubleVoter, primary_class=EquivocatingDoubleVoter
        )
        cluster = Cluster(4, factory, seed=5)
        trace = run_scenario(cluster, commands=["y1"], duration=15.0)
        verdict = check_agreement(trace, correct_nodes=[1, 3])
        assert not verdict.holds
        values = {v.value_a for v in verdict.violations} | {
            v.value_b for v in verdict.violations
        }
        assert "y1" in values and "evil(y1)" in values

    def test_seven_nodes_tolerate_two_byzantine(self):
        """n=7, q_eq=5: safety holds up to |Byz| = 2 < 2*5-7 = 3."""
        factory = mixed_pbft_factory(
            frozenset({0, 3}), DoubleVoter, primary_class=EquivocatingDoubleVoter
        )
        cluster = Cluster(7, factory, seed=6)
        commands = ["z1", "z2"]
        trace = run_scenario(cluster, commands=commands, duration=15.0)
        verdict = check_agreement(trace, correct_nodes=[1, 2, 4, 5, 6])
        assert verdict.holds

    def test_silent_primary_triggers_view_change(self):
        factory = mixed_pbft_factory(frozenset({0}), SilentByzantine)
        cluster = Cluster(4, factory, seed=7)
        commands = ["s1", "s2"]
        trace = run_scenario(cluster, commands=commands, duration=20.0)
        verdict = audit_run(trace, commands, correct_nodes=[1, 2, 3])
        assert verdict.safe and verdict.live
        assert trace.events_of_kind("new-view")

    def test_silent_backup_harmless(self):
        factory = mixed_pbft_factory(frozenset({2}), SilentByzantine)
        cluster = Cluster(4, factory, seed=8)
        commands = ["ok1", "ok2"]
        trace = run_scenario(cluster, commands=commands, duration=10.0)
        verdict = audit_run(trace, commands, correct_nodes=[0, 1, 3])
        assert verdict.safe and verdict.live


def _drop_first_commit_to(cluster, victim):
    """Lose every replica's first ``Commit`` addressed to ``victim``."""
    seen: set[int] = set()
    send = cluster.network.send

    def lossy_send(src, dst, payload):
        if isinstance(payload, Commit) and dst == victim and src not in seen:
            seen.add(src)
            return
        send(src, dst, payload)

    cluster.network.send = lossy_send
    return seen


class _RetryLog(PBFTNode):
    """Honest replica that logs its ``retry`` clock: firings and restarts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.retry_log: list[tuple[str, float]] = []

    def on_timer(self, name):
        if name == "retry":
            self.retry_log.append(("fire", self.now))
        super().on_timer(name)

    def _restart_retry(self):
        self.retry_log.append(("restart", self.now))
        super()._restart_retry()


def _retry_log_factory(node_id, n, scheduler, network, rng, trace):
    return _RetryLog(node_id, n, scheduler, network, rng, trace)


class TestRetransmission:
    def test_commit_lost_to_one_peer_is_resent(self):
        """Commits are broadcast once, so a lost one must be re-sent on
        request — also by the peers that executed the slot meanwhile."""
        cluster = Cluster(4, pbft_node_factory(), seed=0)
        dropped = _drop_first_commit_to(cluster, victim=3)
        trace = run_scenario(cluster, commands=["c"], duration=5.0)
        assert dropped == {0, 1, 2, 3}
        verdict = audit_run(trace, ["c"], correct_nodes=range(4))
        assert verdict.safe and verdict.live

    def test_without_resending_the_victim_never_executes(self, monkeypatch):
        monkeypatch.setattr(PBFTNode, "_handle_status", lambda self, msg: None)
        cluster = Cluster(4, pbft_node_factory(), seed=0)
        _drop_first_commit_to(cluster, victim=3)
        trace = run_scenario(cluster, commands=["c"], duration=5.0)
        missing = check_completion(trace, ["c"], correct_nodes=range(4)).missing
        assert missing == ((3, "c"),)

    def test_each_vote_is_broadcast_once(self):
        cluster = Cluster(4, pbft_node_factory(), seed=1)
        sent = []
        send = cluster.network.send

        def recording_send(src, dst, payload):
            sent.append((src, dst, payload))
            send(src, dst, payload)

        cluster.network.send = recording_send
        run_scenario(cluster, commands=["a", "b"], duration=5.0)
        assert len(sent) == len(set(sent))
        # Per command: one pre-prepare, n prepares and n commits, each to n nodes.
        assert cluster.network.messages_sent == 2 * (4 + 16 + 16)

    @pytest.mark.parametrize("seed", range(10))
    def test_lossy_network_is_live_under_back_off(self, seed):
        cluster = Cluster(4, _retry_log_factory, drop_probability=0.15, seed=seed)
        commands = [f"pl{i}" for i in range(3)]
        cluster.start()
        for index, command in enumerate(commands):
            cluster.submit(command, at=0.5 + 0.05 * index)
        scheduler = cluster.scheduler
        while scheduler.now < 30.0 and scheduler.step():
            for node in cluster.nodes:
                # Demand-armed: the timer exists exactly while work does.
                assert node.has_timer("retry") == node._has_outstanding_work()
        verdict = audit_run(cluster.trace, commands, correct_nodes=range(4))
        assert verdict.safe and verdict.live
        assert any(kind == "fire" for node in cluster.nodes for kind, _ in node.retry_log)
        for node in cluster.nodes:
            # A firing is never further than PROGRESS_TIMEOUT from the
            # firing or the progress before it.
            for (_, previous), (kind, at) in zip(node.retry_log, node.retry_log[1:]):
                if kind == "fire":
                    assert at - previous <= PBFTNode.PROGRESS_TIMEOUT + 1e-9

    def test_retry_backs_off_while_stuck_and_restarts_on_progress(self):
        """No quorum: the delay doubles up to PROGRESS_TIMEOUT, then stays."""
        cluster = Cluster(4, _retry_log_factory, seed=2)
        cluster.crash_at(1, 0.1)
        cluster.crash_at(2, 0.1)
        cluster.start()
        cluster.submit("stuck", at=0.5)
        cluster.run_until(4.0)
        node = cluster.nodes[3]
        # The last progress was accepting the pre-prepare, 1 ms after the request.
        assert node.retry_log[1] == ("restart", pytest.approx(0.501))
        times = [at for _, at in node.retry_log[1:]]
        assert [kind for kind, _ in node.retry_log[2:]] == ["fire"] * (len(times) - 1)
        gaps = [round(b - a, 9) for a, b in zip(times, times[1:])]
        assert gaps[:6] == [0.05, 0.1, 0.2, 0.4, 0.5, 0.5]
        assert set(gaps[6:]) == {0.5}
        # Progress (a new pending value, then its slot) restarts at RETRY_INTERVAL.
        cluster.submit("more", at=4.1)
        cluster.run_until(4.2)
        assert node.retry_log[-3:] == [
            ("restart", pytest.approx(4.1)),
            ("restart", pytest.approx(4.101)),
            ("fire", pytest.approx(4.151)),
        ]

    def test_quiescent_after_the_last_execution(self):
        """Nothing stays scheduled once every command is executed."""
        cluster = Cluster(4, pbft_node_factory(), seed=3)
        cluster.start()
        for index in range(3):
            cluster.submit(f"q{index}", at=0.5 + 0.05 * index)
        cluster.scheduler.run_to_completion(max_events=10_000)
        assert cluster.scheduler.pending_events == 0
        for node in cluster.nodes:
            assert sorted(node.executed.values()) == ["q0", "q1", "q2"]
