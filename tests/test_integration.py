"""Cross-module integration tests: the pipelines a user actually runs."""

from __future__ import annotations

import pytest

from repro.analysis import counting_reliability, monte_carlo_reliability, nines
from repro.engine import Scenario, default_engine
from repro.faults.mixture import uniform_fleet
from repro.protocols.raft import RaftSpec


class TestTelemetryToPlanningPipeline:
    """telemetry → fitted curves → fleet → analysis → planner decision."""

    def test_end_to_end(self):
        from repro.telemetry import fit_model_curves, fleet_from_telemetry, generate_fleet_telemetry

        telemetry = generate_fleet_telemetry(machines_per_model=120, seed=21)
        fits = fit_model_curves(telemetry)
        assert fits

        fleet = fleet_from_telemetry(
            telemetry, [("HMS-D14", 5)], window_hours=720.0, deployment_age_hours=8766.0
        )
        result = default_engine().run_query(Scenario(RaftSpec(5), fleet)).value
        assert result.safe.value == 1.0
        assert result.safe_and_live.value > 0.99

        # The reconfiguration policy consumes the same fitted curves.
        from repro.faults.mixture import NodeModel
        from repro.planner.reconfig import PreemptiveReconfigPolicy

        curves = [fits["ECO-R2"].curve] * 5
        policy = PreemptiveReconfigPolicy(RaftSpec, 5.0, NodeModel(0.001))
        decision = policy.evaluate(curves, window_start_hours=25_000.0, window_hours=720.0)
        # Old flaky hardware deep into wear-out must trigger replacement.
        assert decision.acted


class TestAnalysisToSimulatorValidation:
    """Predicate-level S&L probability ≈ empirical frequency over seeded runs."""

    def test_raft_three_node_empirical_matches_analytic(self):
        from repro.analysis.config import FaultKind
        from repro.analysis.montecarlo import sample_configuration, wilson_interval
        from repro._rng import as_generator
        from repro.faults.mixture import Fleet, NodeModel
        from repro.injection import compile_faults
        from repro.sim import Cluster
        from repro.sim.checker import audit_run
        from repro.sim.raft import raft_node_factory

        def apply_config(config, cluster, seed):
            """A fleet failing with probability 0 or 1 samples exactly ``config``."""
            crash, byzantine = FaultKind.CRASH, FaultKind.BYZANTINE
            fixed = Fleet(tuple(NodeModel(float(k is crash), float(k is byzantine)) for k in config.kinds))
            compile_faults(None, fleet=fixed, duration=12.0, crash_window=(0.0, 0.4),
                           rng=as_generator(seed)).apply(cluster)

        n, p = 3, 0.25  # inflated p so 60 runs give signal
        fleet = uniform_fleet(n, p)
        spec = RaftSpec(n)
        analytic = counting_reliability(spec, fleet).safe_and_live.value

        rng = as_generator(99)
        runs, good = 60, 0
        commands = ["a", "b", "c"]
        for trial in range(runs):
            config = sample_configuration(fleet, rng)
            cluster = Cluster(n, raft_node_factory(), seed=1000 + trial)
            apply_config(config, cluster, seed=trial)
            cluster.start()
            at = 1.0
            for command in commands:
                cluster.submit(command, at=at)
                at += 0.1
            cluster.run_until(12.0)
            correct = sorted(set(range(n)) - set(config.failed_indices))
            verdict = audit_run(cluster.trace, commands, correct_nodes=correct)
            good += verdict.safe and verdict.live

        low, high = wilson_interval(good, runs)
        assert low - 0.05 <= analytic <= high + 0.05

    def test_flexible_quorum_spec_matches_flexible_sim(self):
        """FlexRaft(q_per=4, q_vc=3) at n=5: two crashes stall; spec agrees."""
        from repro.analysis.config import FailureConfig

        spec = RaftSpec(5, q_per=4, q_vc=3)
        config = FailureConfig.from_failed_indices(5, [3, 4])
        assert not spec.is_live(config)  # predicate verdict

        from repro.sim import Cluster, run_scenario
        from repro.sim.checker import check_completion
        from repro.sim.raft import raft_node_factory

        cluster = Cluster(5, raft_node_factory(q_per=4, q_vc=3), seed=12)
        cluster.crash_at(3, 0.2)
        cluster.crash_at(4, 0.2)
        trace = run_scenario(cluster, commands=["w"], duration=8.0)
        assert not check_completion(trace, ["w"], correct_nodes=[0, 1, 2]).holds


class TestMarkovVsWindowAnalysis:
    """The two §2 vocabularies must agree where their models coincide."""

    def test_no_repair_window_unavailability_equals_binomial_analysis(self):
        from repro.markov.builders import ClusterMarkovModel

        n, rate, window = 5, 2e-4, 720.0
        model = ClusterMarkovModel(n, rate, 0.0)
        markov_view = model.window_unavailability(3, window)

        from repro.faults.curves import ConstantHazard

        p_window = ConstantHazard(rate).failure_probability(0, window)
        analysis_view = 1.0 - counting_reliability(
            RaftSpec(n), uniform_fleet(n, p_window)
        ).live.value
        assert markov_view == pytest.approx(analysis_view, rel=1e-9)

    def test_repair_beats_window_model(self):
        """With repair, long-run availability exceeds the repair-free window view."""
        from repro.markov.builders import ClusterMarkovModel

        model_with_repair = ClusterMarkovModel(5, 2e-4, 0.05)
        availability = model_with_repair.steady_state_availability(3)
        no_repair_window = 1.0 - ClusterMarkovModel(5, 2e-4, 0.0).window_unavailability(
            3, 8766.0
        )
        assert availability > no_repair_window


class TestEstimatorConsistencyAtScale:
    def test_three_estimators_agree_on_mixed_fleet(self, mixed_fleet):
        spec = RaftSpec(7)
        counted = counting_reliability(spec, mixed_fleet)
        mc = monte_carlo_reliability(spec, mixed_fleet, trials=40_000, seed=5)
        from repro.analysis.importance import importance_sample_violation

        importance = importance_sample_violation(
            spec, mixed_fleet, predicate="live", trials=40_000, seed=6
        )
        assert mc.live.ci_low <= counted.live.value <= mc.live.ci_high
        assert importance.violation.value == pytest.approx(
            1.0 - counted.live.value, rel=0.15
        )

    def test_analyze_dispatches_sensibly(self, mixed_fleet):
        from repro.protocols.reliability_aware import ReliabilityAwareRaftSpec

        engine = default_engine()
        symmetric = engine.run_query(Scenario(RaftSpec(7), mixed_fleet)).value
        assert symmetric.method == "counting"
        pinned = ReliabilityAwareRaftSpec(7, pinned=[4, 5, 6])
        asymmetric = engine.run_query(Scenario(pinned, mixed_fleet)).value
        assert asymmetric.method == "exact"


class TestCostStoryEndToEnd:
    def test_paper_cost_narrative(self):
        """Full E2: match reliability, compute savings, verify nines."""
        from repro.planner import (
            RELIABLE_SKU,
            SPOT_SKU,
            DeploymentPlan,
            cost_ratio,
            equivalent_reliability_size,
        )

        reference = DeploymentPlan(RELIABLE_SKU, 3)
        match = equivalent_reliability_size(reference, SPOT_SKU)
        assert match is not None and match.plan.count == 9
        savings = cost_ratio(reference, match.plan)
        assert savings == pytest.approx(10.0 / 3.0)
        assert nines(match.reliability) >= 3.0
