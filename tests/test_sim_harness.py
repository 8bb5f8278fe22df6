"""Tests for the cluster harness, failure injection and trace checker."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.config import FailureConfig, FaultKind
from repro.errors import InvalidConfigurationError, SimulationError
from repro.faults.curves import ConstantHazard
from repro.faults.mixture import Fleet, NodeModel, uniform_fleet
from repro.injection import FaultPlan, compile_faults, plan_from_curves
from repro.sim import Cluster
from repro.sim.checker import check_agreement, check_completion
from repro.sim.raft import raft_node_factory
from repro.sim.trace import TraceRecorder, merge_traces


def compiled_for(config, *, duration, crash_window, seed):
    """A fixed window outcome: a fleet failing with probability 0 or 1
    samples exactly ``config``."""
    crash, byzantine = FaultKind.CRASH, FaultKind.BYZANTINE
    fleet = Fleet(tuple(NodeModel(float(k is crash), float(k is byzantine)) for k in config.kinds))
    rng = np.random.default_rng(seed)
    return compile_faults(None, fleet=fleet, duration=duration, crash_window=crash_window, rng=rng)


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


class TestFaultCompilation:
    def test_fixed_config_crashes_only_crash_nodes(self):
        config = FailureConfig(
            (FaultKind.CORRECT, FaultKind.CRASH, FaultKind.BYZANTINE)
        )
        compiled = compiled_for(config, duration=10.0, crash_window=(0.0, 5.0), seed=0)
        assert compiled.config == config
        assert compiled.crashed_nodes() == {1}
        assert set(compiled.behaviours) == {2}

    def test_crash_times_inside_window(self):
        config = FailureConfig.from_failed_indices(5, [0, 2, 4])
        compiled = compiled_for(config, duration=10.0, crash_window=(1.0, 2.0), seed=1)
        assert [node for node, _, _ in compiled.outages] == [0, 2, 4]
        assert all(1.0 <= at <= 2.0 and recover is None for _, at, recover in compiled.outages)

    def test_compiled_faults_apply_to_cluster(self):
        config = FailureConfig.from_failed_indices(3, [2])
        compiled = compiled_for(config, duration=6.0, crash_window=(0.0, 3.0), seed=2)
        cluster = Cluster(3, raft_node_factory(), seed=3)
        compiled.apply(cluster)
        cluster.start()
        cluster.run_until(6.0)
        assert cluster.crashed_node_ids() == {2}

    def test_plan_from_curves_samples_failures(self):
        curves = [ConstantHazard(0.5)] * 4  # 0.5 failures/hour: near-certain
        plan = plan_from_curves(curves, duration=100.0, hours_per_sim_second=1.0, seed=4)
        assert isinstance(plan, FaultPlan) and not plan.sample_faults
        assert len(plan.events) >= 3
        compiled = compile_faults(
            plan,
            fleet=uniform_fleet(4, 0.0),
            duration=100.0,
            crash_window=(0.0, 50.0),
            rng=np.random.default_rng(0),
        )
        assert compiled.crashed_nodes() == {event.node for event in plan.events}

    def test_plan_from_curves_with_repair(self):
        curves = [ConstantHazard(0.5)] * 3
        plan = plan_from_curves(
            curves,
            duration=100.0,
            hours_per_sim_second=1.0,
            mean_time_to_repair=1.0,
            seed=5,
        )
        assert plan.events
        assert any(event.recover_at is not None for event in plan.events)
        for event in plan.events:
            if event.recover_at is not None:
                assert event.at < event.recover_at < 100.0

    def test_zero_hazard_no_crashes(self):
        curves = [ConstantHazard(0.0)] * 3
        plan = plan_from_curves(curves, duration=100.0, seed=6)
        assert plan.events == ()


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
        compiled_for(config, duration=12.0, crash_window=(0.0, 0.5), seed=1).apply(cluster)
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
        compiled_for(config, duration=12.0, crash_window=(0.0, 0.5), seed=2).apply(cluster)
        cluster.start()
        commands = ["stall"]
        cluster.submit(commands[0], at=1.0)
        cluster.run_until(12.0)
        correct = sorted(set(range(5)) - set(failed))
        assert check_agreement(cluster.trace).holds
        assert not check_completion(cluster.trace, commands, correct_nodes=correct).holds
