"""Cross-estimator consistency over a seeded random scenario grid.

FrankWolfe.jl-style dense cross-method testing: one seeded grid of
scenarios (Raft / flexible-quorum Raft / PBFT / explicit quorum-system
specs, varied sizes and failure mixes), every applicable estimator run on
every cell, and the estimators held to their documented agreement levels:

* engine-batched counting vs scalar counting — **bit-for-bit** (the
  batched DP replays the scalar update sequence exactly);
* counting vs exact enumeration — a few ULPs (both are exact
  mathematics, but they sum the same probability mass in different
  orders, so the last ~2 bits may differ; the bound below is ~100x the
  worst deviation observed across seeds);
* Monte-Carlo Wilson 95% intervals vs the exact value — nominal coverage,
  checked at a flake-proof 6-sigma threshold (the ``slow`` marker keeps
  the statistical sweep out of tier-1 runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis.counting import counting_reliability
from repro.analysis.exact import exact_reliability
from repro.analysis.montecarlo import monte_carlo_reliability
from repro.engine import ReliabilityEngine, Scenario, ScenarioSet
from repro.faults.mixture import Fleet, NodeModel, uniform_fleet
from repro.protocols.benor import BenOrSpec, ByzantineBenOrSpec
from repro.protocols.pbft import PBFTSpec
from repro.protocols.quorum_based import QuorumSystemSpec
from repro.protocols.raft import FlexibleRaftSpec, RaftSpec, majority
from repro.quorums.majority import MajorityQuorums

GRID_SEED = 20260730

#: counting and exact enumeration sum identical mass in different IEEE
#: orders; observed deviations are < 5e-15, bound set ~100x above that.
ULP_TOLERANCE = 5e-13

METRICS = ("safe", "live", "safe_and_live")

#: The counting part of the benchmark sweep: its protocols and sizes.
SWEEP_SPECS = {
    "raft": RaftSpec,
    "pbft": PBFTSpec,
    "benor": BenOrSpec,
    "byz-benor": ByzantineBenOrSpec,
}
SWEEP_SIZES = (11, 25, 41)


@dataclass(frozen=True)
class Cell:
    """One grid cell: a spec/fleet pair plus a per-cell seed."""

    label: str
    spec: object
    fleet: Fleet
    seed: int


def _random_fleet(rng: np.random.Generator, n: int) -> Fleet:
    base = float(rng.uniform(0.005, 0.2))
    byz_fraction = float(rng.choice((0.0, 0.25, 1.0)))
    nodes = []
    for _ in range(n):
        p = base * float(rng.uniform(0.5, 1.5))
        nodes.append(
            NodeModel(p_crash=p * (1.0 - byz_fraction), p_byzantine=p * byz_fraction)
        )
    return Fleet(tuple(nodes))


def build_single_model_grid(count: int = 30) -> list[Cell]:
    """A seeded grid of one-model, one-kind fleets — the fleets whose
    Monte-Carlo tallies draw one multinomial histogram of binomial failure
    counts per shard: crash-only Raft and flexible-quorum Raft,
    Byzantine-only PBFT."""
    rng = np.random.default_rng(GRID_SEED + 2)
    cells = []
    for index in range(count):
        n = int(rng.integers(3, 26))
        p = float(rng.uniform(0.005, 0.3))
        kind = index % 3
        if kind == 0:
            spec, fleet = RaftSpec(n), uniform_fleet(n, p)
        elif kind == 1:
            q_per = int(rng.integers(majority(n), n + 1))
            spec, fleet = FlexibleRaftSpec(n, q_per, n - q_per + 1), uniform_fleet(n, p)
        else:
            spec, fleet = PBFTSpec(n), uniform_fleet(n, p, byzantine_fraction=1.0)
        cells.append(
            Cell(
                label=f"{spec.name}/n={n}/p={p:.3f}/{index}",
                spec=spec,
                fleet=fleet,
                seed=int(rng.integers(0, 2**31)),
            )
        )
    return cells


def build_grid(count: int = 24) -> list[Cell]:
    """A seeded random grid over the symmetric protocol zoo."""
    rng = np.random.default_rng(GRID_SEED)
    cells = []
    for index in range(count):
        n = int(rng.integers(3, 9))
        kind = index % 3
        if kind == 0:
            spec = RaftSpec(n)
        elif kind == 1:
            q_per = int(rng.integers(majority(n), n + 1))
            spec = FlexibleRaftSpec(n, q_per, n - q_per + 1)
        else:
            spec = PBFTSpec(n)
        cells.append(
            Cell(
                label=f"{spec.name}/n={n}/{index}",
                spec=spec,
                fleet=_random_fleet(rng, n),
                seed=int(rng.integers(0, 2**31)),
            )
        )
    return cells


class TestExactAgreement:
    def test_engine_batched_counting_bit_identical_to_scalar(self):
        cells = build_grid()
        scenarios = ScenarioSet.build(
            Scenario(spec=c.spec, fleet=c.fleet, method="counting", label=c.label)
            for c in cells
        )
        batched = ReliabilityEngine().run(scenarios).values
        for cell, result in zip(cells, batched):
            scalar = counting_reliability(cell.spec, cell.fleet)
            for metric in METRICS:
                assert getattr(result, metric).value == getattr(scalar, metric).value, (
                    f"{cell.label}: batched {metric} diverged from scalar counting"
                )

    def test_counting_agrees_with_exact_enumeration(self):
        for cell in build_grid():
            counted = counting_reliability(cell.spec, cell.fleet)
            enumerated = exact_reliability(cell.spec, cell.fleet)
            for metric in METRICS:
                a = getattr(counted, metric).value
                b = getattr(enumerated, metric).value
                assert math.isclose(a, b, rel_tol=ULP_TOLERANCE, abs_tol=ULP_TOLERANCE), (
                    f"{cell.label}: counting {metric}={a!r} vs exact {b!r}"
                )

    @pytest.mark.parametrize("n", SWEEP_SIZES)
    def test_every_door_agrees_on_the_sweeps_fleet_shapes(self, n):
        # The benchmark sweep's protocols at its sizes, on crash-only,
        # Byzantine-only and mixed fleets: the planner's shared sweep runs
        # the 1-D count recursion for the first two and the 2-D grid for
        # the third, and every row must still equal scalar counting.
        rng = np.random.default_rng(GRID_SEED + n)
        probabilities = rng.uniform(0.005, 0.2, n)
        fleets = {
            "crash-only": Fleet(tuple(NodeModel(p, 0.0) for p in probabilities)),
            "byzantine-only": Fleet(tuple(NodeModel(0.0, p) for p in probabilities)),
            "mixed": Fleet(tuple(NodeModel(0.75 * p, 0.25 * p) for p in probabilities)),
        }
        cells = [
            (f"{name}/n={n}/{shape}", factory(n), fleet)
            for name, factory in SWEEP_SPECS.items()
            for shape, fleet in fleets.items()
        ]
        answers = ReliabilityEngine().run(
            ScenarioSet.build(
                Scenario(spec=spec, fleet=fleet, method="counting", label=label)
                for label, spec, fleet in cells
            )
        )
        for (label, spec, fleet), answer in zip(cells, answers):
            assert answer.provenance.batched, label
            scalar = counting_reliability(spec, fleet)
            enumerated = exact_reliability(spec, fleet) if n == 11 else None
            for metric in METRICS:
                value = getattr(answer.value, metric).value
                assert value == getattr(scalar, metric).value, (
                    f"{label}: batched {metric} diverged from scalar counting"
                )
                if enumerated is not None:
                    exact_value = getattr(enumerated, metric).value
                    assert math.isclose(
                        value, exact_value, rel_tol=ULP_TOLERANCE, abs_tol=ULP_TOLERANCE
                    ), f"{label}: counting {metric}={value!r} vs exact {exact_value!r}"

    def test_quorum_system_spec_exact_matches_threshold_counting(self):
        # A majority quorum-system spec is semantically a Raft spec: its
        # (asymmetric-path) exact enumeration must agree with the counting
        # DP on the equivalent threshold spec.
        rng = np.random.default_rng(GRID_SEED + 1)
        for n in (3, 5, 7):
            fleet = _random_fleet(rng, n)
            quorum_spec = QuorumSystemSpec(
                MajorityQuorums(n), MajorityQuorums(n), name="maj"
            )
            threshold = counting_reliability(RaftSpec(n), fleet)
            enumerated = exact_reliability(quorum_spec, fleet)
            for metric in METRICS:
                a = getattr(threshold, metric).value
                b = getattr(enumerated, metric).value
                assert math.isclose(a, b, rel_tol=ULP_TOLERANCE, abs_tol=ULP_TOLERANCE), (
                    f"majority-quorums n={n} {metric}: {a!r} vs {b!r}"
                )


@pytest.mark.slow
class TestWilsonCoverage:
    """Monte-Carlo 95% intervals cover the exact value at the nominal rate."""

    TRIALS = 20_000

    def test_coverage_over_seeded_grid(self):
        cells = build_grid(30)
        covered = total = 0
        misses = []
        for cell in cells:
            exact = counting_reliability(cell.spec, cell.fleet)
            sampled = monte_carlo_reliability(
                cell.spec, cell.fleet, trials=self.TRIALS, seed=cell.seed
            )
            for metric in METRICS:
                truth = getattr(exact, metric).value
                estimate = getattr(sampled, metric)
                total += 1
                if estimate.ci_low <= truth <= estimate.ci_high:
                    covered += 1
                else:
                    misses.append((cell.label, metric, truth, estimate))
        # 90 Bernoulli(0.95) cells: P(covered < 76) < 1e-8 — flake-proof
        # while still catching any systematic interval bug.
        assert covered >= math.floor(0.84 * total), (
            f"Wilson coverage {covered}/{total}; misses: {misses[:5]}"
        )

    def test_sharded_coverage_matches_legacy_rate(self):
        # Spawned-stream sharding must not distort interval behaviour.
        cells = build_grid(12)
        covered = total = 0
        for cell in cells:
            exact = counting_reliability(cell.spec, cell.fleet)
            sampled = monte_carlo_reliability(
                cell.spec,
                cell.fleet,
                trials=self.TRIALS,
                seed=cell.seed,
                jobs=2,
                pool="thread",
            )
            for metric in METRICS:
                truth = getattr(exact, metric).value
                estimate = getattr(sampled, metric)
                total += 1
                covered += int(estimate.ci_low <= truth <= estimate.ci_high)
        assert covered >= math.floor(0.8 * total)

    def test_single_model_coverage_over_seeded_grid(self):
        # ``_random_fleet`` jitters every node's p, so the grid above never
        # reaches the one-model, one-kind branch; this grid is nothing else.
        cells = build_single_model_grid(30)
        covered = total = 0
        misses = []
        for cell in cells:
            exact = counting_reliability(cell.spec, cell.fleet)
            sampled = monte_carlo_reliability(
                cell.spec, cell.fleet, trials=self.TRIALS, seed=cell.seed
            )
            for metric in METRICS:
                truth = getattr(exact, metric).value
                estimate = getattr(sampled, metric)
                total += 1
                if estimate.ci_low <= truth <= estimate.ci_high:
                    covered += 1
                else:
                    misses.append((cell.label, metric, truth, estimate))
        assert covered >= math.floor(0.84 * total), (
            f"Wilson coverage {covered}/{total}; misses: {misses[:5]}"
        )
