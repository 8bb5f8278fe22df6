"""Unit tests for the CTMC toolkit and cluster Markov models."""

from __future__ import annotations

import math
import sys

import pytest

from repro.errors import InvalidConfigurationError
from repro.markov.builders import ClusterMarkovModel, mttf_comparison
from repro.markov.chain import ContinuousTimeMarkovChain, TransitionRates


class TestChainBasics:
    def test_two_state_steady_state(self):
        # up -> down at rate λ, down -> up at rate μ: π_up = μ/(λ+μ).
        lam, mu = 0.2, 1.0
        chain = ContinuousTimeMarkovChain(
            ["up", "down"], TransitionRates({("up", "down"): lam, ("down", "up"): mu})
        )
        pi = chain.steady_state()
        assert pi["up"] == pytest.approx(mu / (lam + mu))
        assert pi["down"] == pytest.approx(lam / (lam + mu))

    def test_absorption_time_single_step(self):
        # One transient state with exit rate λ: E[T] = 1/λ.
        chain = ContinuousTimeMarkovChain(
            ["alive", "dead"], TransitionRates({("alive", "dead"): 0.25})
        )
        assert chain.expected_time_to_absorption("alive", ["dead"]) == pytest.approx(4.0)

    def test_absorption_time_two_steps(self):
        # a -> b -> c, rates 1 and 2: E[T] = 1 + 0.5.
        chain = ContinuousTimeMarkovChain(
            ["a", "b", "c"], TransitionRates({("a", "b"): 1.0, ("b", "c"): 2.0})
        )
        assert chain.expected_time_to_absorption("a", ["c"]) == pytest.approx(1.5)

    def test_absorption_probability_split(self):
        # a splits to b (rate 1) or c (rate 3): P(hit b first) = 1/4.
        chain = ContinuousTimeMarkovChain(
            ["a", "b", "c"], TransitionRates({("a", "b"): 1.0, ("a", "c"): 3.0})
        )
        assert chain.absorption_probability("a", ["b"], ["b", "c"]) == pytest.approx(0.25)

    def test_transient_distribution_decay(self):
        chain = ContinuousTimeMarkovChain(
            ["alive", "dead"], TransitionRates({("alive", "dead"): 1.0})
        )
        dist = chain.transient_distribution("alive", 2.0)
        assert dist["alive"] == pytest.approx(math.exp(-2.0))

    def test_unreachable_absorption_is_infinite(self):
        chain = ContinuousTimeMarkovChain(
            ["a", "b", "c"], TransitionRates({("a", "b"): 1.0, ("b", "a"): 1.0})
        )
        assert chain.expected_time_to_absorption("a", ["c"]) == math.inf

    def test_validation(self):
        with pytest.raises(InvalidConfigurationError):
            ContinuousTimeMarkovChain([], TransitionRates({}))
        with pytest.raises(InvalidConfigurationError):
            TransitionRates({("a", "a"): 1.0})
        with pytest.raises(InvalidConfigurationError):
            TransitionRates({("a", "b"): -1.0})
        with pytest.raises(InvalidConfigurationError):
            ContinuousTimeMarkovChain(["a"], TransitionRates({("a", "b"): 1.0}))


class TestClusterModel:
    def test_no_repair_mttf_harmonic_sum(self):
        # Without repair, E[time to all n failed] = Σ 1/(kλ) over survivors.
        n, lam = 3, 1e-3
        model = ClusterMarkovModel(n, lam, 0.0, repair_slots=0)
        expected = sum(1.0 / (k * lam) for k in range(1, n + 1))
        assert model.mean_time_to_failure_count(3) == pytest.approx(expected)

    def test_repair_extends_mttf(self):
        without = ClusterMarkovModel(5, 1e-3, 0.0).mttf_liveness(3)
        with_repair = ClusterMarkovModel(5, 1e-3, 0.1).mttf_liveness(3)
        assert with_repair > 10 * without

    def test_mttdl_exceeds_liveness_mttf(self):
        # Losing all quorum copies (4 down) takes longer than losing quorum
        # availability (3 down) in a 5-node majority system... here thresholds:
        model = ClusterMarkovModel(5, 1e-3, 0.05)
        assert model.mttdl(4) > model.mttf_liveness(3)

    def test_faster_nodes_fail_sooner(self):
        slow = ClusterMarkovModel(5, 1e-4, 0.01).mttf_liveness(3)
        fast = ClusterMarkovModel(5, 1e-2, 0.01).mttf_liveness(3)
        assert fast < slow

    def test_steady_state_availability_close_to_one(self):
        model = ClusterMarkovModel(5, 1e-4, 0.1)
        availability = model.steady_state_availability(3)
        assert 0.999 < availability < 1.0

    def test_availability_needs_repair(self):
        with pytest.raises(InvalidConfigurationError):
            ClusterMarkovModel(3, 1e-3, 0.0).steady_state_availability(2)

    def test_window_unavailability_matches_binomial(self):
        from scipy import stats

        model = ClusterMarkovModel(5, 1e-3, 0.0)
        window = 100.0
        p = -math.expm1(-1e-3 * window)
        expected = float(stats.binom.sf(2, 5, p))
        assert model.window_unavailability(3, window) == pytest.approx(expected)

    def test_repair_slots_parallelism(self):
        serial = ClusterMarkovModel(9, 1e-3, 0.05, repair_slots=1).mttf_liveness(5)
        parallel = ClusterMarkovModel(9, 1e-3, 0.05, repair_slots=9).mttf_liveness(5)
        assert parallel > serial

    def test_comparison_helper(self):
        models = {
            "3@1e-3": ClusterMarkovModel(3, 1e-3, 0.05),
            "5@1e-3": ClusterMarkovModel(5, 1e-3, 0.05),
        }
        result = mttf_comparison(models, {"3@1e-3": 2, "5@1e-3": 3})
        assert result["5@1e-3"] > result["3@1e-3"]

    def test_comparison_missing_quorum(self):
        with pytest.raises(InvalidConfigurationError):
            mttf_comparison({"x": ClusterMarkovModel(3, 1e-3, 0.0)}, {})

    def test_validation(self):
        with pytest.raises(InvalidConfigurationError):
            ClusterMarkovModel(0, 1e-3, 0.0)
        with pytest.raises(InvalidConfigurationError):
            ClusterMarkovModel(3, -1e-3, 0.0)
        with pytest.raises(InvalidConfigurationError):
            ClusterMarkovModel(3, 1e-3, 0.0).mttdl(4)


def _ref_truncated_mttf(model: ClusterMarkovModel, threshold: int) -> float:
    """MTTF on the truncated chain, built for the one threshold."""
    chain = model.chain(absorbing_at=threshold)
    return chain.expected_time_to_absorption(0, [threshold])


def _ref_sequential_availability(model: ClusterMarkovModel, quorum_size: int, pi) -> float:
    """The per-quorum sum as Python 3.11's builtin ``sum()`` computed it:
    strictly left to right, starting from the integer 0."""
    total = 0
    for failed, p in pi.items():
        if failed <= model.n - quorum_size:
            total += p
    return total


#: (λ, μ) per hour: repairable chains, μ = 0, and λ = 0 (never absorbed).
_RATES = [(1e-3, 0.1), (2e-5, 0.05), (0.3, 0.002), (1e-3, 0.0), (0.0, 0.1)]


class TestSharedChain:
    """Every threshold and quorum of a model is read off one chain build."""

    @pytest.mark.parametrize("rates", _RATES, ids=lambda r: f"lam={r[0]},mu={r[1]}")
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 79])
    def test_shared_generator_equals_the_truncated_chain(self, n, rates):
        for slots in sorted({0, 1, n}):
            model = ClusterMarkovModel(n, *rates, repair_slots=slots)
            for threshold in range(1, n + 1):
                expected = _ref_truncated_mttf(model, threshold)
                assert model.mean_time_to_failure_count(threshold) == expected
            if rates[1] > 0 and (rates[0] > 0 or slots > 0):  # π exists
                pi = model.steady_state_distribution()
                quorums = list(range(-1, n + 3))
                values = model.steady_state_availabilities(quorums)
                for quorum, value in zip(quorums, values):
                    reference = _ref_sequential_availability(model, quorum, pi)
                    assert value == reference
                    assert model.steady_state_availability(quorum, pi=pi) == reference
                    if sys.version_info < (3, 12):
                        assert value == sum(
                            p for failed, p in pi.items() if failed <= n - quorum
                        )

    def test_threshold_outside_the_chain_is_rejected(self):
        model = ClusterMarkovModel(5, 1e-3, 0.1)
        for threshold in (0, 6):
            with pytest.raises(InvalidConfigurationError, match="outside"):
                model.mean_time_to_failure_count(threshold)

    def test_availability_accumulates_sequentially(self):
        # Python >= 3.12's builtin sum() compensates and reads
        # 1.000000000000001 here; the sequential prefix reads 1.0.
        pi = {0: 1.0, **{failed: 1e-16 for failed in range(1, 11)}}
        model = ClusterMarkovModel(10, 1e-3, 0.1)
        assert model.steady_state_availability(0, pi=pi) == 1.0
        assert model.steady_state_availabilities([11, 1], pi=pi) == [0, 1.0]

    def test_one_chain_build_per_chain_key(self, monkeypatch):
        from repro.engine import AvailabilityQuery, MTTFQuery, ReliabilityEngine

        builds = []
        real = ClusterMarkovModel.chain

        def counting_chain(self, **kwargs):
            builds.append((self.n, self.failure_rate_per_hour, kwargs))
            return real(self, **kwargs)

        monkeypatch.setattr(ClusterMarkovModel, "chain", counting_chain)
        for cls in (MTTFQuery, AvailabilityQuery):
            builds.clear()
            queries = [
                cls.for_cluster(n, afr=afr, mttr_hours=24.0, quorum_size=quorum)
                for n, afr in ((9, 0.05), (13, 0.1))
                for quorum in range(n // 2 + 1, n + 1)
            ]
            answers = ReliabilityEngine().run(queries)
            assert len(answers) == len(queries)
            assert sorted((n, kwargs) for n, _, kwargs in builds) == [(9, {}), (13, {})]
