"""Golden tests: every table cell and quantitative claim in the paper.

These pin the library's output to the printed numbers in "Real Life Is
Uncertain. Consensus Should Be Too!" (HotOS '25) at the paper's own
precision.  If any of these fail, the reproduction has regressed.
"""

from __future__ import annotations

import pytest

from repro.analysis import nines, predicate_probability
from repro.engine import Scenario, default_engine
from repro.faults.mixture import NodeModel, byzantine_fleet, heterogeneous_fleet, uniform_fleet
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import RaftSpec
from repro.protocols.reliability_aware import (
    ObliviousDurabilityRaftSpec,
    ReliabilityAwareRaftSpec,
)


def _answer(spec, fleet):
    """The default engine's result for one ``auto`` scenario."""
    return default_engine().run_query(Scenario(spec, fleet)).value


def _pct(value: float, digits: int) -> float:
    """Round a probability to `digits` decimals of its percentage form."""
    return round(value * 100.0, digits)


class TestTable1PBFT:
    """Table 1: PBFT reliability, uniform p_u = 1%, all failures Byzantine."""

    # (n, safe%, live%, digits_safe, digits_live) at the paper's precision
    ROWS = [
        (4, 99.94, 99.94, 2, 2),
        (5, 99.9990, 99.90, 4, 2),
        (7, 99.997, 99.997, 3, 3),
        (8, 99.99993, 99.995, 5, 3),
    ]

    @pytest.mark.parametrize("n,safe,live,ds,dl", ROWS)
    def test_row(self, n, safe, live, ds, dl):
        result = _answer(PBFTSpec(n), byzantine_fleet(n, 0.01))
        assert _pct(result.safe.value, ds) == pytest.approx(safe)
        assert _pct(result.live.value, dl) == pytest.approx(live)
        # Safe&Live equals the Live column everywhere in Table 1.
        assert _pct(result.safe_and_live.value, dl) == pytest.approx(live)

    def test_quorum_columns(self):
        for n, q, t in ((4, 3, 2), (5, 4, 2), (7, 5, 3), (8, 6, 3)):
            spec = PBFTSpec(n)
            assert (spec.q_eq, spec.q_per, spec.q_vc, spec.q_vc_t) == (q, q, q, t)


class TestTable2Raft:
    """Table 2: Raft S&L for N ∈ {3,5,7,9}, p ∈ {1,2,4,8}%."""

    ROWS = {
        3: [(0.01, 99.97, 2), (0.02, 99.88, 2), (0.04, 99.53, 2), (0.08, 98.18, 2)],
        5: [(0.01, 99.9990, 4), (0.02, 99.992, 3), (0.04, 99.94, 2), (0.08, 99.55, 2)],
        7: [(0.01, 99.99997, 5), (0.02, 99.9995, 4), (0.04, 99.992, 3), (0.08, 99.88, 2)],
        9: [(0.01, 99.999999, 6), (0.02, 99.99996, 5), (0.04, 99.9988, 4), (0.08, 99.97, 2)],
    }

    @pytest.mark.parametrize(
        "n,p,expected,digits",
        [(n, p, e, d) for n, cells in ROWS.items() for p, e, d in cells],
    )
    def test_cell(self, n, p, expected, digits):
        result = _answer(RaftSpec(n), uniform_fleet(n, p))
        # Within one unit of the paper's last printed digit (the paper
        # truncates some cells, e.g. 99.99887 -> "99.9988").
        assert abs(result.safe_and_live.value * 100 - expected) <= 10.0**-digits + 1e-12

    def test_quorum_columns(self):
        for n, q in ((3, 2), (5, 3), (7, 4), (9, 5)):
            spec = RaftSpec(n)
            assert (spec.q_per, spec.q_vc) == (q, q)


class TestIntroClaims:
    def test_raft_three_nodes_only_three_nines(self):
        """§1: 'Raft ... is only 99.97% safe and live in three node
        deployments when nodes suffer a 1% failure rate.'"""
        result = _answer(RaftSpec(3), uniform_fleet(3, 0.01))
        assert _pct(result.safe_and_live.value, 2) == pytest.approx(99.97)
        assert 3.0 <= nines(result.safe_and_live.value) < 4.0

    def test_nine_cheap_nodes_match_three_reliable(self):
        """§1/§3: 9 nodes at 8% give the same 99.97% as 3 nodes at 1%."""
        reliable = _answer(RaftSpec(3), uniform_fleet(3, 0.01))
        cheap = _answer(RaftSpec(9), uniform_fleet(9, 0.08))
        assert _pct(cheap.safe_and_live.value, 2) == pytest.approx(99.97)
        # The 9-node cluster is at least as reliable.
        assert cheap.safe_and_live.value >= reliable.safe_and_live.value - 5e-5

    def test_cost_reduction_factor(self):
        """§1: '10× cheaper ... yields a 3× reduction in cost.'"""
        reliable_cost = 3 * 1.0
        cheap_cost = 9 * 0.1
        assert reliable_cost / cheap_cost == pytest.approx(10.0 / 3.0)


class TestSection3Claims:
    def test_random_five_node_quorum_ten_nines(self):
        """§3: N=100, p=1%: a 5-node sample contains a correct node with
        ten nines."""
        from repro.quorums.committee import prob_committee_contains_correct

        p_ok = prob_committee_contains_correct(0.01, 5)
        assert 1.0 - p_ok == pytest.approx(1e-10)
        assert nines(p_ok) == pytest.approx(10.0)

    def test_heterogeneous_upgrade_barely_helps_oblivious_raft(self):
        """§3: 7 nodes @8% = 99.88%; upgrading 3 nodes to 1% only ~99.98%."""
        base = _answer(RaftSpec(7), uniform_fleet(7, 0.08))
        assert _pct(base.safe_and_live.value, 2) == pytest.approx(99.88)
        upgraded_fleet = heterogeneous_fleet([(4, NodeModel(0.08)), (3, NodeModel(0.01))])
        upgraded = _answer(RaftSpec(7), upgraded_fleet)
        assert 99.97 <= _pct(upgraded.safe_and_live.value, 2) <= 99.99

    def test_pinned_quorums_reach_99994_durability(self):
        """§3: requiring one reliable node per quorum -> 99.994% durability."""
        fleet = heterogeneous_fleet([(4, NodeModel(0.08)), (3, NodeModel(0.01))])
        pinned = ReliabilityAwareRaftSpec(7, pinned=[4, 5, 6], require_pinned=1)
        durability = predicate_probability(fleet, pinned.is_durable)
        assert _pct(durability, 3) == pytest.approx(99.994)

    def test_pinned_beats_oblivious_durability(self):
        fleet = heterogeneous_fleet([(4, NodeModel(0.08)), (3, NodeModel(0.01))])
        oblivious = ObliviousDurabilityRaftSpec(7)
        pinned = ReliabilityAwareRaftSpec(7, pinned=[4, 5, 6], require_pinned=1)
        d_oblivious = predicate_probability(fleet, oblivious.is_durable)
        d_pinned = predicate_probability(fleet, pinned.is_durable)
        assert d_pinned > d_oblivious

    def test_five_node_pbft_safety_improvement_over_four(self):
        """§3: 5-node PBFT is 42–60× safer than 4-node, ~1.67× less live."""
        four = _answer(PBFTSpec(4), byzantine_fleet(4, 0.01))
        five = _answer(PBFTSpec(5), byzantine_fleet(5, 0.01))
        safety_gain = (1 - four.safe.value) / (1 - five.safe.value)
        liveness_loss = (1 - five.live.value) / (1 - four.live.value)
        assert 42.0 <= safety_gain <= 70.0  # the paper's upper bound is 60x at p=1%
        assert liveness_loss == pytest.approx(1.67, abs=0.05)

    def test_five_node_pbft_safer_than_seven(self):
        """§3: 'the 5-node system is more safe than a 7-node system.'"""
        five = _answer(PBFTSpec(5), byzantine_fleet(5, 0.01))
        seven = _answer(PBFTSpec(7), byzantine_fleet(7, 0.01))
        assert five.safe.value > seven.safe.value


class TestSection4Claims:
    def test_half_chance_of_ten_failures_in_hundred(self):
        """§4: N=100, p=10% -> ~50% chance of >= |Qper|=10 faults."""
        from repro.quorums.intersection import prob_failure_count_reaches

        p = prob_failure_count_reaches(100, 0.10, 10)
        assert p == pytest.approx(0.55, abs=0.06)  # 54.9% exactly; paper says ~50%

    def test_one_in_ten_billion_wipeout(self):
        """§4: covering the exact persistence quorum has probability 1e-10."""
        from repro.quorums.intersection import prob_fixed_quorum_wiped_out

        assert prob_fixed_quorum_wiped_out([0.10] * 10) == pytest.approx(1e-10)
