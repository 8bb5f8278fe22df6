"""Unit tests for node models and fleets."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import InvalidConfigurationError, InvalidProbabilityError
from repro.faults.curves import ConstantHazard
from repro.faults.mixture import (
    Fleet,
    HashedKey,
    NodeModel,
    byzantine_fleet,
    fleet_from_curves,
    heterogeneous_fleet,
    uniform_fleet,
)


class TestNodeModel:
    def test_disjoint_outcome_probabilities(self):
        node = NodeModel(p_crash=0.03, p_byzantine=0.01)
        assert node.p_fail == pytest.approx(0.04)
        assert node.p_correct == pytest.approx(0.96)

    def test_mass_exceeding_one_rejected(self):
        with pytest.raises(InvalidProbabilityError):
            NodeModel(p_crash=0.7, p_byzantine=0.4)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidProbabilityError):
            NodeModel(p_crash=-0.1)
        with pytest.raises(InvalidProbabilityError):
            NodeModel(p_crash=0.0, p_byzantine=1.5)

    def test_as_byzantine_moves_all_mass(self):
        node = NodeModel(p_crash=0.03, p_byzantine=0.01).as_byzantine()
        assert node.p_crash == 0.0
        assert node.p_byzantine == pytest.approx(0.04)

    def test_as_crash_only_moves_all_mass(self):
        node = NodeModel(p_crash=0.03, p_byzantine=0.01).as_crash_only()
        assert node.p_byzantine == 0.0
        assert node.p_crash == pytest.approx(0.04)

    def test_from_curves_competing_risks(self):
        crash = ConstantHazard(3e-4)
        byz = ConstantHazard(1e-4)
        node = NodeModel.from_curves(crash, 1000.0, byz)
        # Total failure mass equals the combined process; split 3:1.
        import math

        assert node.p_fail == pytest.approx(-math.expm1(-0.4))
        assert node.p_crash / node.p_byzantine == pytest.approx(3.0)

    def test_from_curves_zero_hazard(self):
        node = NodeModel.from_curves(ConstantHazard(0.0), 1000.0)
        assert node.p_fail == 0.0


class TestFleet:
    def test_uniform_fleet(self):
        fleet = uniform_fleet(5, 0.02)
        assert fleet.n == 5
        assert fleet.is_homogeneous
        assert fleet.is_crash_only
        assert fleet.failure_probabilities == (0.02,) * 5

    def test_byzantine_fleet(self):
        fleet = byzantine_fleet(4, 0.01)
        assert fleet.byzantine_probabilities == (0.01,) * 4
        assert fleet.crash_probabilities == (0.0,) * 4

    def test_byzantine_fraction_split(self):
        fleet = uniform_fleet(3, 0.1, byzantine_fraction=0.2)
        assert fleet[0].p_byzantine == pytest.approx(0.02)
        assert fleet[0].p_crash == pytest.approx(0.08)

    def test_heterogeneous_fleet_order(self, mixed_fleet):
        assert mixed_fleet.n == 7
        assert mixed_fleet.failure_probabilities == (0.08,) * 4 + (0.01,) * 3
        assert not mixed_fleet.is_homogeneous

    def test_replace_is_functional(self):
        fleet = uniform_fleet(3, 0.05)
        upgraded = fleet.replace(1, NodeModel(0.01))
        assert fleet[1].p_fail == 0.05  # original untouched
        assert upgraded[1].p_fail == 0.01

    def test_replace_bad_index(self):
        with pytest.raises(InvalidConfigurationError):
            uniform_fleet(3, 0.05).replace(5, NodeModel(0.01))

    def test_extend(self):
        fleet = uniform_fleet(2, 0.01).extend([NodeModel(0.5)])
        assert fleet.n == 3
        assert fleet[2].p_fail == 0.5

    def test_sorted_by_reliability(self, mixed_fleet):
        order = mixed_fleet.sorted_by_reliability()
        assert list(order)[:3] == [4, 5, 6]  # the three 1% nodes first

    def test_as_byzantine_view(self, mixed_fleet):
        byz = mixed_fleet.as_byzantine()
        assert byz.crash_probabilities == (0.0,) * 7
        assert byz.byzantine_probabilities == mixed_fleet.failure_probabilities

    def test_hourly_cost_sums(self):
        fleet = Fleet(
            (NodeModel(0.01, cost_per_hour=1.0), NodeModel(0.08, cost_per_hour=0.1))
        )
        assert fleet.hourly_cost == pytest.approx(1.1)

    def test_negative_group_count_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            heterogeneous_fleet([(-1, NodeModel(0.01))])

    def test_fleet_from_curves(self):
        curves = [ConstantHazard.from_window_probability(0.01, 720.0) for _ in range(3)]
        fleet = fleet_from_curves(curves, 720.0)
        assert fleet.n == 3
        assert fleet[0].p_crash == pytest.approx(0.01)

    def test_fleet_from_curves_length_mismatch(self):
        with pytest.raises(InvalidConfigurationError):
            fleet_from_curves([ConstantHazard(0.0)], 10.0, byzantine_curves=[None, None])


class TestProbabilityKey:
    def test_key_is_the_per_node_probability_pairs_built_once(self):
        fleet = Fleet(
            (NodeModel(0.01, 0.002, label="a", cost_per_hour=3.0), NodeModel(0.08))
        )
        key = fleet.probability_key
        assert key == ((0.01, 0.002), (0.08, 0.0))
        assert fleet.probability_key is key

    def test_a_run_of_one_shared_node_shares_one_pair(self):
        fleet = heterogeneous_fleet([(3, NodeModel(0.01)), (2, NodeModel(0.02, 0.01))])
        key = fleet.probability_key
        assert key == ((0.01, 0.0),) * 3 + ((0.02, 0.01),) * 2
        assert key[0] is key[2] and key[3] is key[4] and key[2] is not key[3]
        # Equal but distinct node objects still give equal pairs.
        assert Fleet((NodeModel(0.01), NodeModel(0.01))).probability_key == key[:2]

    def test_labels_and_costs_do_not_enter_the_key(self):
        plain = Fleet((NodeModel(0.01),))
        labelled = Fleet((NodeModel(0.01, label="db", cost_per_hour=2.0),))
        assert plain.probability_key == labelled.probability_key

    def test_cached_key_leaves_equality_hash_and_pickle_unchanged(self):
        fleet = uniform_fleet(5, 0.03, byzantine_fraction=0.5)
        twin = uniform_fleet(5, 0.03, byzantine_fraction=0.5)
        before = pickle.dumps(fleet)
        fleet.probability_key
        assert pickle.dumps(fleet) == before
        assert fleet == twin and hash(fleet) == hash(twin)
        restored = pickle.loads(before)
        assert restored == fleet
        assert restored.probability_key == fleet.probability_key

    def test_probability_array_is_a_cached_readonly_view_of_the_key(self):
        fleet = heterogeneous_fleet([(2, NodeModel(0.01)), (1, NodeModel(0.02, 0.01))])
        array = fleet.probability_array
        assert array.shape == (3, 2) and array.dtype == np.float64
        assert array.tolist() == [list(pair) for pair in fleet.probability_key]
        assert fleet.probability_array is array
        with pytest.raises(ValueError):
            array[0, 0] = 0.5
        assert Fleet(()).probability_array.shape == (0, 2)

    def test_cached_array_leaves_equality_hash_and_pickle_unchanged(self):
        fleet = uniform_fleet(5, 0.03, byzantine_fraction=0.5)
        twin = uniform_fleet(5, 0.03, byzantine_fraction=0.5)
        before = pickle.dumps(fleet)
        fleet.probability_array
        assert pickle.dumps(fleet) == before
        assert fleet == twin and hash(fleet) == hash(twin)
        assert np.array_equal(pickle.loads(before).probability_array, fleet.probability_array)


class _CountedFloat(float):
    """A probability that counts how often it is hashed."""

    hashes = 0

    def __hash__(self) -> int:
        _CountedFloat.hashes += 1
        return float.__hash__(self)


class TestHashedKey:
    def test_equal_to_the_plain_pairs_and_hashes_alike(self):
        fleet = heterogeneous_fleet([(2, NodeModel(0.01)), (1, NodeModel(0.02, 0.01))])
        key, plain = fleet.hashed_key, fleet.probability_key
        assert isinstance(key, HashedKey) and key.items is plain
        assert key == plain and plain == key and not key != plain
        assert hash(key) == hash(plain)
        # Either form finds an entry stored under the other.
        assert {plain: "stored"}[key] == "stored"
        assert {key: "stored"}[plain] == "stored"
        assert {("spec", plain): 1}[("spec", key)] == 1
        twin = heterogeneous_fleet([(2, NodeModel(0.01)), (1, NodeModel(0.02, 0.01))])
        assert twin.hashed_key == key and twin.hashed_key is not key
        assert uniform_fleet(3, 0.01).hashed_key != key
        assert key != "not a key" and key != list(plain)

    def test_the_pairs_are_hashed_once_per_fleet(self):
        fleet = Fleet((NodeModel(_CountedFloat(0.05)),) * 4)
        _CountedFloat.hashes = 0
        key = fleet.hashed_key
        once = _CountedFloat.hashes
        assert once > 0
        memo = {("spec", key, "counting"): 1}
        for _ in range(5):
            assert fleet.hashed_key is key
            assert memo[("spec", fleet.hashed_key, "counting")] == 1
            memo.setdefault(("spec", key, "exact"), 2)
            hash(key)
        assert _CountedFloat.hashes == once

    def test_a_pickled_fleet_drops_the_key_and_builds_it_again(self):
        fleet = uniform_fleet(5, 0.03, byzantine_fraction=0.5)
        before = pickle.dumps(fleet)
        key = fleet.hashed_key
        assert pickle.dumps(fleet) == before
        assert "hashed_key" not in pickle.loads(pickle.dumps(fleet)).__dict__
        restored = pickle.loads(before)
        assert restored.hashed_key == key and hash(restored.hashed_key) == hash(key)
