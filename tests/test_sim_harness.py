"""Tests for the cluster harness, failure injection and trace checker."""

from __future__ import annotations

import math

import pytest

from repro.analysis.config import FailureConfig, FaultKind
from repro.errors import InvalidConfigurationError, SimulationError
from repro.faults.curves import ConstantHazard
from repro.sim import Cluster, plan_from_config, plan_from_curves
from repro.sim.checker import check_agreement, check_completion
from repro.sim.raft import raft_node_factory
from repro.sim.trace import TraceRecorder, merge_traces


class TestClusterHarness:
    def test_crash_and_recover_schedule(self):
        cluster = Cluster(3, raft_node_factory(), seed=0)
        cluster.crash_at(1, 0.5)
        cluster.recover_at(1, 1.5)
        cluster.start()
        cluster.run_until(1.0)
        assert cluster.crashed_node_ids() == {1}
        cluster.run_until(2.0)
        assert cluster.crashed_node_ids() == set()
        kinds = [e.kind for e in cluster.trace.events if e.node_id == 1]
        assert kinds == ["crash", "recover"]

    def test_unknown_node_rejected(self):
        cluster = Cluster(3, raft_node_factory(), seed=0)
        with pytest.raises(SimulationError):
            cluster.crash_at(9, 1.0)

    def test_submit_before_start_runs_at_time(self):
        cluster = Cluster(3, raft_node_factory(), seed=1)
        cluster.start()
        cluster.submit("now")  # immediate handoff
        cluster.run_until(5.0)
        committed = cluster.trace.committed_by_node()
        assert any("now" in slots.values() for slots in committed.values())

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            Cluster(0, raft_node_factory())


class TestInjectionPlans:
    def test_plan_from_config_only_crash_nodes(self):
        config = FailureConfig(
            (FaultKind.CORRECT, FaultKind.CRASH, FaultKind.BYZANTINE)
        )
        plan = plan_from_config(config, duration=10.0, seed=0)
        assert plan.crashed_nodes == {1}

    def test_plan_times_inside_window(self):
        config = FailureConfig.from_failed_indices(5, [0, 2, 4])
        plan = plan_from_config(config, duration=10.0, crash_window=(1.0, 2.0), seed=1)
        assert all(1.0 <= t <= 2.0 for t in plan.crash_times.values())

    def test_plan_applies_to_cluster(self):
        config = FailureConfig.from_failed_indices(3, [2])
        plan = plan_from_config(config, duration=6.0, seed=2)
        cluster = Cluster(3, raft_node_factory(), seed=3)
        plan.apply(cluster)
        cluster.start()
        cluster.run_until(6.0)
        assert cluster.crashed_node_ids() == {2}

    def test_plan_from_curves_samples_failures(self):
        curves = [ConstantHazard(0.5)] * 4  # 0.5 failures/hour: near-certain
        plan = plan_from_curves(curves, duration=100.0, hours_per_sim_second=1.0, seed=4)
        assert len(plan.crashed_nodes) >= 3

    def test_plan_from_curves_with_repair(self):
        curves = [ConstantHazard(0.5)] * 3
        plan = plan_from_curves(
            curves,
            duration=100.0,
            hours_per_sim_second=1.0,
            mean_time_to_repair=1.0,
            seed=5,
        )
        assert set(plan.recovery_times) <= set(plan.crash_times)
        for node, recover in plan.recovery_times.items():
            assert recover > plan.crash_times[node]

    def test_invalid_recovery_rejected(self):
        from repro.sim.failures import InjectionPlan

        plan = InjectionPlan(crash_times={0: 2.0}, recovery_times={0: 1.0})
        cluster = Cluster(2, raft_node_factory(), seed=0)
        with pytest.raises(InvalidConfigurationError):
            plan.apply(cluster)

    def test_zero_hazard_no_crashes(self):
        curves = [ConstantHazard(0.0)] * 3
        plan = plan_from_curves(curves, duration=100.0, seed=6)
        assert not plan.crashed_nodes


class TestChecker:
    def _trace_with(self, commits):
        trace = TraceRecorder()
        for time, node, slot, value in commits:
            trace.record_commit(time, node, slot, value)
        return trace

    def test_agreement_holds(self):
        trace = self._trace_with([(1, 0, 1, "a"), (1, 1, 1, "a"), (2, 0, 2, "b")])
        assert check_agreement(trace).holds

    def test_agreement_violation_detected(self):
        trace = self._trace_with([(1, 0, 1, "a"), (1, 1, 1, "b")])
        verdict = check_agreement(trace)
        assert not verdict.holds
        violation = verdict.violations[0]
        assert violation.slot == 1
        assert {violation.value_a, violation.value_b} == {"a", "b"}

    def test_agreement_ignores_byzantine_nodes(self):
        trace = self._trace_with([(1, 0, 1, "a"), (1, 1, 1, "b")])
        assert check_agreement(trace, correct_nodes=[0]).holds

    def test_a_node_disagreeing_with_itself_is_a_violation(self):
        # Last-write-wins would read node 0 as having decided only "a".
        trace = self._trace_with([(1, 0, 1, "b"), (2, 0, 1, "a"), (2, 1, 1, "a")])
        verdict = check_agreement(trace, correct_nodes=[0, 1])
        assert not verdict.holds
        first = verdict.violations[0]
        assert (first.node_a, first.node_b, first.slot) == (0, 0, 1)
        assert (first.value_a, first.value_b) == ("b", "a")
        assert check_agreement(trace, correct_nodes=[1]).holds

    def test_a_recovered_node_may_decide_the_same_value_again(self):
        trace = self._trace_with([(1, 0, 1, "a"), (1, 1, 1, "a"), (5, 0, 1, "a")])
        assert check_agreement(trace).holds

    def test_completion(self):
        trace = self._trace_with([(1, 0, 1, "a"), (1, 1, 1, "a")])
        assert check_completion(trace, ["a"], correct_nodes=[0, 1]).holds
        verdict = check_completion(trace, ["a", "b"], correct_nodes=[0, 1])
        assert not verdict.holds
        assert (0, "b") in verdict.missing

    def test_crash_intervals(self):
        trace = TraceRecorder()
        trace.record_event(1.0, 0, "crash")
        trace.record_event(3.0, 0, "recover")
        trace.record_event(5.0, 1, "crash")
        intervals = trace.crash_intervals(horizon=10.0)
        assert intervals[0] == [(1.0, 3.0)]
        assert intervals[1] == [(5.0, 10.0)]

    def test_merge_traces_sorted(self):
        a = self._trace_with([(2.0, 0, 1, "x")])
        b = self._trace_with([(1.0, 1, 1, "x")])
        merged = merge_traces([a, b])
        assert [c.time for c in merged.commits] == [1.0, 2.0]

    def test_committed_values_ordered_by_slot(self):
        trace = self._trace_with([(1, 0, 2, "b"), (2, 0, 1, "a")])
        assert trace.committed_values(0) == ["a", "b"]


class TestPredicateValidation:
    """The core validation loop: simulator verdicts match spec predicates."""

    @pytest.mark.parametrize("failed", [[], [0], [4], [0, 1]])
    def test_live_configs_complete(self, failed):
        config = FailureConfig.from_failed_indices(5, failed)
        from repro.protocols.raft import RaftSpec

        assert RaftSpec(5).is_live(config)  # sanity: these are live configs
        cluster = Cluster(5, raft_node_factory(), seed=42)
        plan = plan_from_config(config, duration=12.0, crash_window=(0.0, 0.5), seed=1)
        plan.apply(cluster)
        cluster.start()
        commands = [f"k{i}" for i in range(5)]
        at = 1.0
        for command in commands:
            cluster.submit(command, at=at)
            at += 0.1
        cluster.run_until(12.0)
        correct = sorted(set(range(5)) - set(failed))
        assert check_agreement(cluster.trace).holds
        assert check_completion(cluster.trace, commands, correct_nodes=correct).holds

    @pytest.mark.parametrize("failed", [[0, 1, 2], [1, 2, 3, 4]])
    def test_non_live_configs_stall(self, failed):
        config = FailureConfig.from_failed_indices(5, failed)
        from repro.protocols.raft import RaftSpec

        assert not RaftSpec(5).is_live(config)
        cluster = Cluster(5, raft_node_factory(), seed=43)
        plan = plan_from_config(config, duration=12.0, crash_window=(0.0, 0.5), seed=2)
        plan.apply(cluster)
        cluster.start()
        commands = ["stall"]
        cluster.submit(commands[0], at=1.0)
        cluster.run_until(12.0)
        correct = sorted(set(range(5)) - set(failed))
        assert check_agreement(cluster.trace).holds
        assert not check_completion(cluster.trace, commands, correct_nodes=correct).holds
