"""Unit tests for the Monte-Carlo estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.counting import counting_reliability
from repro.analysis.montecarlo import (
    monte_carlo_correlated,
    monte_carlo_reliability,
    required_trials_for_ci_width,
    sample_configuration,
    wilson_interval,
)
from repro.analysis.config import FaultKind
from repro.errors import InvalidConfigurationError
from repro.faults.correlation import CommonShockModel, rollout_shock
from repro.faults.mixture import uniform_fleet
from repro._rng import as_generator
from repro.protocols.raft import RaftSpec


class TestWilson:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high

    def test_zero_successes_nonzero_upper(self):
        low, high = wilson_interval(0, 1000)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < high < 0.01

    def test_all_successes(self):
        low, high = wilson_interval(1000, 1000)
        assert high == 1.0
        assert 0.99 < low < 1.0

    def test_validation(self):
        with pytest.raises(InvalidConfigurationError):
            wilson_interval(5, 0)
        with pytest.raises(InvalidConfigurationError):
            wilson_interval(11, 10)

    def test_narrows_with_trials(self):
        _, high_small = wilson_interval(5, 10)
        low_small, _ = wilson_interval(5, 10)
        low_big, high_big = wilson_interval(500, 1000)
        assert (high_big - low_big) < (high_small - low_small)


class TestSampling:
    def test_sample_configuration_deterministic(self, byz_mixture_fleet):
        a = sample_configuration(byz_mixture_fleet, as_generator(9))
        b = sample_configuration(byz_mixture_fleet, as_generator(9))
        assert a == b

    def test_sample_marginals(self):
        fleet = uniform_fleet(4, 0.3, byzantine_fraction=0.5)
        rng = as_generator(0)
        crash = byz = 0
        trials = 20_000
        for _ in range(trials):
            config = sample_configuration(fleet, rng)
            crash += config.num_crashed
            byz += config.num_byzantine
        assert crash / (4 * trials) == pytest.approx(0.15, abs=0.01)
        assert byz / (4 * trials) == pytest.approx(0.15, abs=0.01)


class TestMonteCarloReliability:
    def test_ci_covers_exact_value(self, mixed_fleet):
        spec = RaftSpec(7)
        exact = counting_reliability(spec, mixed_fleet)
        mc = monte_carlo_reliability(spec, mixed_fleet, trials=30_000, seed=1)
        assert mc.safe_and_live.ci_low <= exact.safe_and_live.value <= mc.safe_and_live.ci_high

    def test_seeded_reproducibility(self, small_cft_fleet):
        spec = RaftSpec(3)
        a = monte_carlo_reliability(spec, small_cft_fleet, trials=5_000, seed=7)
        b = monte_carlo_reliability(spec, small_cft_fleet, trials=5_000, seed=7)
        assert a.safe_and_live.value == b.safe_and_live.value

    def test_validation(self, small_cft_fleet):
        with pytest.raises(InvalidConfigurationError):
            monte_carlo_reliability(RaftSpec(3), small_cft_fleet, trials=0)
        with pytest.raises(InvalidConfigurationError):
            monte_carlo_reliability(RaftSpec(4), small_cft_fleet, trials=10)


class TestTrialBudget:
    """One check of every trial budget: no bool, no float, no truncation."""

    @pytest.mark.parametrize("trials", [1e4, 2.5, True, False, "100"], ids=repr)
    def test_monte_carlo_rejects_a_non_integer_budget(self, small_cft_fleet, trials):
        with pytest.raises(InvalidConfigurationError, match="trials must be an integer"):
            monte_carlo_reliability(RaftSpec(3), small_cft_fleet, trials=trials, seed=1)

    @pytest.mark.parametrize("trials", [2.5, True], ids=repr)
    def test_every_sampling_door_rejects_it(self, small_cft_fleet, trials):
        from repro.analysis.importance import importance_sample_violation
        from repro.analysis.kernels import plan_shards
        from repro.analysis.predicates import monte_carlo_predicate

        spec = RaftSpec(3)
        model = CommonShockModel(small_cft_fleet, ())
        calls = [
            lambda: monte_carlo_correlated(spec, model, trials=trials, seed=1),
            lambda: importance_sample_violation(spec, small_cft_fleet, trials=trials, seed=1),
            lambda: monte_carlo_predicate(small_cft_fleet, bool, trials=trials, seed=1),
            lambda: plan_shards(trials),
            lambda: plan_shards(100, shard_trials=trials),
        ]
        for call in calls:
            with pytest.raises(InvalidConfigurationError, match="must be an integer"):
                call()

    def test_numpy_integer_budget_is_the_same_budget(self, small_cft_fleet):
        spec = RaftSpec(3)
        plain = monte_carlo_reliability(spec, small_cft_fleet, trials=5_000, seed=3)
        numpy_int = monte_carlo_reliability(
            spec, small_cft_fleet, trials=np.int64(5_000), seed=3
        )
        assert numpy_int == plain
        assert numpy_int.detail.startswith("5000 independent trials")


class TestCorrelated:
    def test_correlation_degrades_liveness(self):
        """Paper §2: correlated faults are strictly worse for quorum systems."""
        fleet = uniform_fleet(5, 0.05)
        spec = RaftSpec(5)
        independent = counting_reliability(spec, fleet).safe_and_live.value
        shocked = CommonShockModel(fleet, (rollout_shock(fleet, 0.02),))
        correlated = monte_carlo_correlated(
            spec, shocked, trials=60_000, seed=2
        ).safe_and_live.value
        assert correlated < independent

    def test_matching_marginals_without_shock(self):
        fleet = uniform_fleet(5, 0.1)
        spec = RaftSpec(5)
        model = CommonShockModel(fleet, ())
        mc = monte_carlo_correlated(spec, model, trials=40_000, seed=3)
        exact = counting_reliability(spec, fleet)
        assert mc.safe_and_live.ci_low <= exact.safe_and_live.value <= mc.safe_and_live.ci_high

    def test_byzantine_kind_breaks_raft_safety(self):
        fleet = uniform_fleet(3, 0.3)
        spec = RaftSpec(3)
        model = CommonShockModel(fleet, ())
        result = monte_carlo_correlated(
            spec, model, trials=5_000, seed=4, failure_kind=FaultKind.BYZANTINE
        )
        assert result.safe.value < 1.0

    def test_correct_kind_rejected(self):
        fleet = uniform_fleet(3, 0.1)
        model = CommonShockModel(fleet, ())
        with pytest.raises(InvalidConfigurationError):
            monte_carlo_correlated(
                RaftSpec(3), model, trials=10, failure_kind=FaultKind.CORRECT
            )


class TestPlanning:
    def test_required_trials_scaling(self):
        few = required_trials_for_ci_width(0.5, 0.1)
        many = required_trials_for_ci_width(0.5, 0.01)
        assert many == pytest.approx(few * 100, rel=0.01)

    def test_validation(self):
        with pytest.raises(InvalidConfigurationError):
            required_trials_for_ci_width(0.0, 0.1)
        with pytest.raises(InvalidConfigurationError):
            required_trials_for_ci_width(0.5, 0.0)
