"""Unit tests for the Poisson-binomial counting estimator."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from repro._stats import binom_cdf
from repro.analysis.counting import (
    counting_reliability,
    joint_count_pmf,
    poisson_binomial_pmf,
)
from repro.errors import InvalidConfigurationError
from repro.faults.mixture import Fleet, NodeModel, uniform_fleet
from repro.protocols.raft import RaftSpec


class TestPoissonBinomial:
    def test_homogeneous_matches_binomial(self):
        pmf = poisson_binomial_pmf([0.3] * 8)
        expected = stats.binom.pmf(np.arange(9), 8, 0.3)
        assert np.allclose(pmf, expected)

    def test_heterogeneous_matches_bruteforce(self):
        probs = [0.1, 0.35, 0.6, 0.05]
        pmf = poisson_binomial_pmf(probs)
        brute = np.zeros(5)
        for outcome in itertools.product([0, 1], repeat=4):
            weight = math.prod(p if x else 1 - p for p, x in zip(probs, outcome))
            brute[sum(outcome)] += weight
        assert np.allclose(pmf, brute)

    def test_sums_to_one(self):
        pmf = poisson_binomial_pmf([0.01, 0.5, 0.99, 0.3])
        assert pmf.sum() == pytest.approx(1.0)

    def test_degenerate_probabilities(self):
        pmf = poisson_binomial_pmf([0.0, 1.0])
        assert pmf[1] == pytest.approx(1.0)

    def test_empty(self):
        pmf = poisson_binomial_pmf([])
        assert pmf.tolist() == [1.0]

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidConfigurationError):
            poisson_binomial_pmf([1.5])


class TestJointCountPMF:
    def test_sums_to_one(self, byz_mixture_fleet):
        pmf = joint_count_pmf(byz_mixture_fleet)
        assert pmf.sum() == pytest.approx(1.0)

    def test_marginal_crash_distribution(self):
        fleet = Fleet((NodeModel(0.2, 0.0), NodeModel(0.4, 0.0)))
        pmf = joint_count_pmf(fleet)
        crash_marginal = pmf.sum(axis=1)
        expected = poisson_binomial_pmf([0.2, 0.4])
        assert np.allclose(crash_marginal, expected)

    def test_marginal_byzantine_distribution(self):
        fleet = Fleet((NodeModel(0.0, 0.1), NodeModel(0.0, 0.3)))
        pmf = joint_count_pmf(fleet)
        byz_marginal = pmf.sum(axis=0)
        expected = poisson_binomial_pmf([0.1, 0.3])
        assert np.allclose(byz_marginal, expected)

    def test_matches_bruteforce_trinomial(self, byz_mixture_fleet):
        pmf = joint_count_pmf(byz_mixture_fleet)
        brute = np.zeros_like(pmf)
        outcomes = [
            (node.p_correct, node.p_crash, node.p_byzantine)
            for node in byz_mixture_fleet
        ]
        for assignment in itertools.product([0, 1, 2], repeat=byz_mixture_fleet.n):
            weight = math.prod(outcomes[i][a] for i, a in enumerate(assignment))
            crash = sum(1 for a in assignment if a == 1)
            byz = sum(1 for a in assignment if a == 2)
            brute[crash, byz] += weight
        assert np.allclose(pmf, brute)

    def test_impossible_region_is_zero(self):
        fleet = uniform_fleet(3, 0.5)
        pmf = joint_count_pmf(fleet)
        assert pmf[3, 1] == 0.0  # 3 crashes + 1 byz > n


class TestAggregation:
    def test_counting_reliability_raft_n3(self, small_cft_fleet):
        result = counting_reliability(RaftSpec(3), small_cft_fleet)
        assert result.safe.value == pytest.approx(1.0)
        # P(at most 1 of 3 fails at 1%)
        expected = binom_cdf(1, 3, 0.01)
        assert result.live.value == pytest.approx(expected)
        assert result.safe_and_live.value == pytest.approx(expected)

    def test_size_mismatch_rejected(self, small_cft_fleet):
        with pytest.raises(InvalidConfigurationError):
            counting_reliability(RaftSpec(5), small_cft_fleet)

    def test_asymmetric_spec_rejected(self, small_cft_fleet):
        from repro.protocols.reliability_aware import ReliabilityAwareRaftSpec

        spec = ReliabilityAwareRaftSpec(3, pinned=[0])
        with pytest.raises(InvalidConfigurationError):
            counting_reliability(spec, small_cft_fleet)

    def test_scales_to_large_heterogeneous_fleet(self):
        fleet = Fleet(tuple(NodeModel(0.001 * (i % 10 + 1)) for i in range(150)))
        result = counting_reliability(RaftSpec(150), fleet)
        assert 0.99 < result.safe_and_live.value <= 1.0
