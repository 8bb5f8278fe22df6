"""Equivalence tests pinning the vectorized kernels to the seed estimators.

Every kernel path is checked against a *reference implementation* — a copy
of the pre-kernel per-trial / per-count-pair loops — across the protocol
zoo (Raft, PBFT, Ben-Or, hybrid Upright, reliability-aware).  Exact
estimators must be bit-identical.  Seeded Monte-Carlo paths that draw
uniforms — asymmetric specs, mixed-kind and multi-model fleets, predicate
and correlated tallies — must produce the exact tallies the historical
loops produced for the same seed.  Symmetric specs over a single-model
fleet with one failure kind draw one multinomial histogram of failure
counts per shard instead: that branch is held to a goodness-of-fit test
against the counting PMF, to one draw per call whatever the chunk budget,
to never counting uniforms and to never running the counting DP
(:class:`TestBinomialTally`).
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro._rng import as_generator
from repro._stats import binom_pmf_vector
from repro.analysis import kernels
from repro.analysis.config import FailureConfig, FaultKind
from repro.analysis.counting import counting_reliability, joint_count_pmf
from repro.analysis import exact
from repro.analysis.exact import (
    enumerate_configurations,
    exact_reliability,
    worst_configurations,
)
from repro.analysis.horizon import reliability_over_horizon
from repro.analysis.importance import importance_sample_violation
from repro.analysis.kernels import (
    VerdictMasks,
    birnbaum_importances,
    correlated_tally,
    counting_reliability_batch,
    joint_count_pmf_batch,
    loo_weighted_products,
    masked_sum,
    masked_sum_batch,
    monte_carlo_tally,
    predicate_tally,
    upgrade_metric_values,
    verdict_masks,
)
from repro.analysis.montecarlo import (
    monte_carlo_correlated,
    monte_carlo_reliability,
    sample_configuration,
)
from repro.analysis.predicates import monte_carlo_predicate
from repro.analysis.sensitivity import (
    best_single_upgrade,
    birnbaum_importance,
    importance_ranking,
    reliability_gradient,
)
from repro.engine import ReliabilityEngine, Scenario, ScenarioSet
from repro.errors import InvalidConfigurationError
from repro.faults.correlation import CommonShockModel, rollout_shock
from repro.faults.curves import ConstantHazard
from repro.faults.mixture import Fleet, NodeModel, heterogeneous_fleet, uniform_fleet
from repro.obs import InMemoryExporter, Tracer, use_tracer
from repro.protocols.benor import BenOrSpec, ByzantineBenOrSpec
from repro.protocols.hybrid import StakeWeightedSpec, UprightSpec
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import RaftSpec
from repro.protocols.reliability_aware import ReliabilityAwareRaftSpec


def _mixed_fleet(n: int) -> Fleet:
    return Fleet(
        tuple(
            NodeModel(p_crash=0.02 + 0.01 * (i % 4), p_byzantine=0.003 * (i % 3))
            for i in range(n)
        )
    )


#: (spec, fleet) pairs covering the symmetric protocol zoo.
SYMMETRIC_ZOO = [
    (RaftSpec(7), _mixed_fleet(7)),
    (RaftSpec(5), uniform_fleet(5, 0.08)),
    (PBFTSpec(7), uniform_fleet(7, 0.03, byzantine_fraction=1.0)),
    (PBFTSpec(4), _mixed_fleet(4)),
    (BenOrSpec(7), uniform_fleet(7, 0.05)),
    (ByzantineBenOrSpec(11), _mixed_fleet(11)),
    (UprightSpec(2, 1), _mixed_fleet(6)),
]

#: Zoo entries whose tallies draw uniforms (mixed kinds, several models)
#: and those that draw one count histogram per shard (one model, one kind).
UNIFORM_ZOO = [SYMMETRIC_ZOO[0], SYMMETRIC_ZOO[3]]
BINOMIAL_ZOO = [SYMMETRIC_ZOO[1], SYMMETRIC_ZOO[2], SYMMETRIC_ZOO[4]]
#: Zoo entries whose counting PMF is the node-by-node DP (several models,
#: or both failure kinds); the rest read the closed-form binomial.
DP_ZOO = [entry for entry in SYMMETRIC_ZOO if entry not in BINOMIAL_ZOO]

#: Symmetric spec factories for the property test.
SPEC_FACTORIES = [
    RaftSpec,
    PBFTSpec,
    BenOrSpec,
    ByzantineBenOrSpec,
    lambda n: UprightSpec.for_cluster(n, 0) if n % 2 == 1 else RaftSpec(n),
]


def _asymmetric_pair() -> tuple[ReliabilityAwareRaftSpec, Fleet]:
    spec = ReliabilityAwareRaftSpec(6, pinned=(0, 1))
    fleet = Fleet(tuple(NodeModel(0.04 + 0.01 * i, 0.004) for i in range(6)))
    return spec, fleet


# ---------------------------------------------------------------------------
# Reference implementations (copies of the pre-kernel algorithms)
# ---------------------------------------------------------------------------
def _ref_counting(spec, fleet) -> tuple[float, float, float]:
    pmf = joint_count_pmf(fleet)
    n = fleet.n
    p_safe = p_live = p_both = 0.0
    for crash in range(n + 1):
        for byz in range(n + 1 - crash):
            mass = pmf[crash, byz]
            if mass == 0.0:
                continue
            safe = spec.is_safe_counts(crash, byz)
            live = spec.is_live_counts(crash, byz)
            if safe:
                p_safe += mass
            if live:
                p_live += mass
            if safe and live:
                p_both += mass
    return min(p_safe, 1.0), min(p_live, 1.0), min(p_both, 1.0)


def _ref_trials(spec, fleet, trials: int, rng) -> tuple[int, int, int]:
    safe = live = both = 0
    for _ in range(trials):
        config = sample_configuration(fleet, rng)
        s, l = spec.is_safe(config), spec.is_live(config)
        safe += s
        live += l
        both += s and l
    return safe, live, both


def _ref_correlated(spec, model, trials: int, rng, kind) -> tuple[int, int, int]:
    # Draw through sample_many (the models' documented seeded stream) and
    # tally with a plain per-row loop, so the test pins the tally logic
    # against the same sampled vectors the kernel sees.
    safe = live = both = 0
    for failed in model.sample_many(trials, rng):
        config = FailureConfig(
            tuple(kind if f else FaultKind.CORRECT for f in failed)
        )
        s, l = spec.is_safe(config), spec.is_live(config)
        safe += s
        live += l
        both += s and l
    return safe, live, both


# ---------------------------------------------------------------------------
# Verdict masks
# ---------------------------------------------------------------------------
class TestVerdictMasks:
    @pytest.mark.parametrize("spec,fleet", SYMMETRIC_ZOO, ids=lambda v: repr(v))
    def test_masks_agree_with_count_predicates(self, spec, fleet):
        masks = verdict_masks(spec)
        for crash in range(spec.n + 1):
            for byz in range(spec.n + 1 - crash):
                assert masks.safe[crash, byz] == spec.is_safe_counts(crash, byz)
                assert masks.live[crash, byz] == spec.is_live_counts(crash, byz)
                assert masks.both[crash, byz] == (
                    spec.is_safe_counts(crash, byz) and spec.is_live_counts(crash, byz)
                )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=13),
        factory_index=st.integers(min_value=0, max_value=len(SPEC_FACTORIES) - 1),
    )
    def test_property_masks_match_predicates_on_every_pair(self, n, factory_index):
        """Property: masks agree with is_safe_counts/is_live_counts ∀ (c, b)."""
        try:
            spec = SPEC_FACTORIES[factory_index](n)
        except InvalidConfigurationError:
            return  # factory rejects this n (e.g. Upright parity); nothing to check
        masks = VerdictMasks(spec)
        for crash in range(n + 1):
            for byz in range(n + 1 - crash):
                assert bool(masks.safe[crash, byz]) == bool(
                    spec.is_safe_counts(crash, byz)
                )
                assert bool(masks.live[crash, byz]) == bool(
                    spec.is_live_counts(crash, byz)
                )

    @pytest.mark.parametrize("spec,fleet", SYMMETRIC_ZOO, ids=lambda v: repr(v))
    def test_lines_are_the_grids_crash_column_and_byzantine_row(self, spec, fleet):
        masks = VerdictMasks(spec)
        crash_line, byz_line = masks.line(False), masks.line(True)
        assert "_grid" not in masks.__dict__  # n + 1 predicate calls per line
        for name in ("safe", "live", "both"):
            assert np.array_equal(getattr(crash_line, name), getattr(masks, name)[:, 0])
            assert np.array_equal(getattr(byz_line, name), getattr(masks, name)[0, :])
            with pytest.raises(ValueError):
                getattr(crash_line, name)[0] = False

    def test_masks_false_outside_valid_triangle(self):
        masks = verdict_masks(RaftSpec(5))
        for crash in range(6):
            for byz in range(6):
                if crash + byz > 5:
                    assert not masks.safe[crash, byz]
                    assert not masks.live[crash, byz]

    def test_masks_cached_per_spec_instance(self):
        spec = RaftSpec(9)
        assert verdict_masks(spec) is verdict_masks(spec)
        assert spec.verdict_masks() is verdict_masks(spec)

    def test_equal_specs_built_separately_share_one_masks_object(self):
        # A daemon parses a fresh spec for every request: the predicate
        # loop must not run again for an equal one.
        first, again = RaftSpec(9), RaftSpec(9)
        assert first is not again
        assert verdict_masks(again) is verdict_masks(first)
        assert again.verdict_masks() is first.verdict_masks()
        assert PBFTSpec(7).verdict_masks() is PBFTSpec(7).verdict_masks()
        assert verdict_masks(RaftSpec(9, q_per=4, q_vc=6)) is not verdict_masks(first)

    def test_spec_with_an_unhashable_attribute_keys_its_masks_by_identity(self):
        class TaggedRaft(RaftSpec):
            def __init__(self, n, tags):
                super().__init__(n)
                self.tags = list(tags)  # unhashable: an identity key

        tagged, twin = TaggedRaft(5, ["a"]), TaggedRaft(5, ["a"])
        masks = verdict_masks(tagged)
        assert verdict_masks(tagged) is masks
        assert verdict_masks(twin) is not masks
        plain = verdict_masks(RaftSpec(5))
        for name in ("safe", "live", "both"):
            assert np.array_equal(getattr(masks, name), getattr(plain, name))

    def test_masks_table_is_bounded_and_keeps_the_newest(self):
        with mock.patch.dict(kernels._MASKS, clear=True), mock.patch.object(
            kernels, "_MASKS_MAX_ENTRIES", 2
        ):
            specs = [RaftSpec(n) for n in (3, 5, 7)]
            for spec in specs:
                verdict_masks(spec)
            assert list(kernels._MASKS) == [s.grouping_key() for s in specs[1:]]
            with mock.patch.object(kernels, "_MASKS_MAX_CELLS", 10):
                verdict_masks(RaftSpec(11))  # 24 cells of lines: kept alone
            assert list(kernels._MASKS) == [RaftSpec(11).grouping_key()]

    def test_masks_table_charges_each_entry_what_it_evaluated(self):
        """A one-kind row evaluates two ``n + 1`` lines and is charged
        those, not the ``(n+1)^2`` grid it never builds: one such row at
        n = 2049 (a 2050^2 grid would pass the budget alone) keeps the
        eight small entries before it.  A grid is charged once a
        mixed-kind row has built it, and evicts on the next insert."""
        with mock.patch.dict(kernels._MASKS, clear=True):
            small = [cls(n) for cls in (RaftSpec, PBFTSpec) for n in (5, 9, 13, 17)]
            for spec in small:
                counting_reliability(spec, uniform_fleet(spec.n, 0.05))
            counting_reliability(RaftSpec(2049), uniform_fleet(2049, 0.05))
            assert 2050**2 > kernels._MASKS_MAX_CELLS
            assert len(kernels._MASKS) == 9
            assert "_grid" not in kernels._MASKS[RaftSpec(2049).grouping_key()].__dict__

            mixed, newest = PBFTSpec(65), RaftSpec(3)
            with mock.patch.object(kernels, "_MASKS_MAX_CELLS", 5000):
                counting_reliability(mixed, uniform_fleet(65, 0.05, byzantine_fraction=0.5))
                assert len(kernels._MASKS) == 10  # its grid is charged from here on
                verdict_masks(newest)
            # 4292 cells of lines, 132 + 66^2 for the grid's entry, 8 for
            # the newest: the nine oldest go.
            assert list(kernels._MASKS) == [mixed.grouping_key(), newest.grouping_key()]

    def test_masks_rejected_for_asymmetric_spec(self):
        spec, _ = _asymmetric_pair()
        with pytest.raises(InvalidConfigurationError):
            verdict_masks(spec)

    def test_masks_are_readonly(self):
        masks = verdict_masks(RaftSpec(3))
        with pytest.raises(ValueError):
            masks.safe[0, 0] = False


# ---------------------------------------------------------------------------
# Counting: scalar and batched, bit-identical to the seed loop
# ---------------------------------------------------------------------------
class TestCountingKernel:
    @pytest.mark.parametrize("spec,fleet", DP_ZOO, ids=lambda v: repr(v))
    def test_counting_reliability_bit_identical(self, spec, fleet):
        result = counting_reliability(spec, fleet)
        ref_safe, ref_live, ref_both = _ref_counting(spec, fleet)
        assert result.safe.value == ref_safe
        assert result.live.value == ref_live
        assert result.safe_and_live.value == ref_both

    @pytest.mark.parametrize("spec,fleet", BINOMIAL_ZOO, ids=lambda v: repr(v))
    def test_one_model_rows_match_the_dp_within_tolerance(self, spec, fleet):
        # A one-model, one-kind fleet reads the closed-form binomial, which
        # rounds differently from the node-by-node DP.
        result = counting_reliability(spec, fleet)
        for value, reference in zip(
            (result.safe.value, result.live.value, result.safe_and_live.value),
            _ref_counting(spec, fleet),
        ):
            assert value == pytest.approx(reference, rel=1e-13, abs=1e-15)

    def test_joint_count_pmf_batch_bit_identical(self):
        fleets = [fleet for _, fleet in SYMMETRIC_ZOO if fleet.n == 7]
        crash = np.array([f.crash_probabilities for f in fleets])
        byz = np.array([f.byzantine_probabilities for f in fleets])
        batched = joint_count_pmf_batch(crash, byz)
        for fleet, pmf in zip(fleets, batched):
            assert np.array_equal(pmf, joint_count_pmf(fleet))

    def test_counting_batch_bit_identical_to_scalar(self):
        spec = RaftSpec(7)
        fleets = [
            _mixed_fleet(7),
            uniform_fleet(7, 0.02),
            uniform_fleet(7, 0.3, byzantine_fraction=0.5),
        ]
        # Whole results, detail string included: the batch is the scalar.
        assert counting_reliability_batch(spec, fleets) == [
            counting_reliability(spec, f) for f in fleets
        ]

    def test_empty_batches_give_no_results(self):
        assert counting_reliability_batch(RaftSpec(3), []) == []
        assert kernels.counting_sweep([]) == ([], 0, 0)
        assert exact.exact_reliability_batch(RaftSpec(3), []) == []
        assert kernels.count_lines(np.zeros((0, 5))).shape == (0, 6)  # a sweep of mixed fleets

    def test_engine_batch_matches_counting_scalar(self):
        spec = PBFTSpec(7)
        fleets = [uniform_fleet(7, p, byzantine_fraction=1.0) for p in (0.01, 0.05, 0.1)]
        answers = ReliabilityEngine().run([Scenario(spec=spec, fleet=f) for f in fleets])
        assert all(a.provenance.batched for a in answers)
        for fleet, batched in zip(fleets, answers.values):
            scalar = counting_reliability(spec, fleet)
            assert batched.safe_and_live.value == scalar.safe_and_live.value

    def test_engine_batch_asymmetric_falls_back(self):
        spec, fleet = _asymmetric_pair()
        (answer,) = ReliabilityEngine().run([Scenario(spec=spec, fleet=fleet)])
        assert answer.provenance.estimator == "exact"
        scalar = exact_reliability(spec, fleet)
        assert answer.value.safe_and_live.value == scalar.safe_and_live.value

    def test_engine_batch_empty(self):
        assert ReliabilityEngine().run([]).values == []

    def test_batch_rejects_mismatched_sizes(self):
        with pytest.raises(InvalidConfigurationError, match="same size"):
            counting_reliability_batch(
                RaftSpec(5), [uniform_fleet(5, 0.1), uniform_fleet(3, 0.1)]
            )
        with pytest.raises(InvalidConfigurationError, match="spec expects 5"):
            counting_reliability_batch(RaftSpec(5), [uniform_fleet(3, 0.1)])
        spec, fleet = _asymmetric_pair()
        with pytest.raises(InvalidConfigurationError, match="not symmetric"):
            counting_reliability_batch(spec, [fleet])

    def test_horizon_sweep_bit_identical_to_per_window(self):
        curves = [ConstantHazard(1e-4 * (i + 1)) for i in range(5)]
        points = reliability_over_horizon(
            RaftSpec, curves, window_hours=24.0, n_windows=6
        )
        from repro.analysis.horizon import fleet_for_window

        spec = RaftSpec(5)
        for point in points:
            fleet = fleet_for_window(curves, point.start_hours, 24.0)
            assert point.safe_and_live == counting_reliability(spec, fleet).safe_and_live.value


# ---------------------------------------------------------------------------
# One model, one failure kind: the count line in closed form
# ---------------------------------------------------------------------------
def _one_model_fleet(n: int, p: float, kind: str) -> Fleet:
    return Fleet((NodeModel(*((p, 0.0) if kind == "crash-only" else (0.0, p))),) * n)


class TestClosedFormCounting:
    """A fleet whose nodes share one model with one failure kind counts
    ``Binomial(n, p)`` failures, read from ``binom_pmf_matrix``: held to the
    node-by-node DP within 1e-13, to ``binom_pmf_vector`` bit for bit, and
    the scalar row to the sweep's row bit for bit."""

    @pytest.mark.parametrize("n", [1, 5, 33, 257])
    @pytest.mark.parametrize("kind", ["crash-only", "byzantine-only"])
    def test_closed_form_matches_the_node_by_node_dp(self, n, kind):
        spec = RaftSpec(n) if kind == "crash-only" else PBFTSpec(n)
        masks = verdict_masks(spec)
        for p in (1e-6, 0.01, 0.05, 0.3, 0.5, 0.9):
            fleet = _one_model_fleet(n, p, kind)
            crash, byz = kernels.fleet_probability_matrix([fleet])
            line = kernels.count_lines(crash + byz)[0]
            grid = joint_count_pmf_batch(crash, byz)[0]  # the DP, node by node
            dp_line = grid[:, 0] if kind == "crash-only" else grid[0, :]
            assert np.abs(line - dp_line).max() <= 1e-13
            result = counting_reliability(spec, fleet)
            values = (result.safe.value, result.live.value, result.safe_and_live.value)
            for value, reference in zip(values, kernels.reliability_values(grid, masks)):
                assert abs(value - reference) <= 1e-13

    @pytest.mark.parametrize("batch", [1, 2, 7, 160])
    def test_lines_equal_binom_pmf_vector_bit_for_bit(self, batch):
        rng = np.random.default_rng(batch)
        for n in (1, 5, 17, 33, 257):
            ps = np.concatenate([rng.uniform(0, 1, batch - batch // 2),
                                 10.0 ** rng.uniform(-12, 0, batch // 2)])
            if batch >= 7:
                ps[:2] = 0.0, 1.0
            lines = kernels.count_lines(np.repeat(ps[:, None], n, axis=1))
            for p, line in zip(ps.tolist(), lines):
                assert line.tobytes() == binom_pmf_vector(n, p).tobytes()

    def test_scalar_row_equals_the_sweep_row_bit_for_bit(self):
        for n in (1, 4, 5, 7, 13, 17, 33):
            specs = [RaftSpec(n), BenOrSpec(n), PBFTSpec(n), ByzantineBenOrSpec(n)]
            fleets = [
                _one_model_fleet(n, p, kind)
                for p in (0.0, 1e-4, 0.01, 0.05, 0.2, 0.5, 1.0)
                for kind in ("crash-only", "byzantine-only")
            ]
            rows = [(spec, fleet) for spec in specs for fleet in fleets]
            sweep = kernels.counting_sweep(rows)
            assert sweep.fleets_1d == sweep.fleets
            assert sweep.results == [counting_reliability(s, f) for s, f in rows]

    def test_scalar_and_sweep_tell_one_model_fleets_alike(self):
        """The scalar row tells a one-model fleet from its key before it
        falls back to ``count_lines``, the sweep from its arrays: distinct
        but equal nodes, signed zeros and a fleet that differs in one node
        must read the same row.  (A rule that took the last fleet for one
        model failed here in a scratch copy.)"""
        n = 9

        def fleet_of(pairs):
            return Fleet(tuple(NodeModel(*pair) for pair in pairs))

        fleets = [
            fleet_of([(0.05, 0.0)] * n),  # n distinct, equal node objects
            fleet_of([(0.0, 0.05)] * n),
            fleet_of([(0.05, -0.0)] * 4 + [(0.05, 0.0)] * (n - 4)),
            fleet_of([(-0.0, 0.05)] * 4 + [(0.0, 0.05)] * (n - 4)),
            fleet_of([(0.05, 0.0)] * (n - 1) + [(0.05 + 1e-17, 0.0)]),  # rounds to 0.05
            fleet_of([(0.05, 0.0)] * (n - 1) + [(0.06, 0.0)]),  # two models
            fleet_of([(0.0, 0.0)] * n),
        ]
        rows = [(spec, fleet) for spec in (RaftSpec(n), PBFTSpec(n)) for fleet in fleets]
        assert kernels.counting_sweep(rows).results == [
            counting_reliability(s, f) for s, f in rows
        ]

    def test_a_one_kind_row_never_builds_the_count_grid(self):
        # The (n+1)^2 boolean grid alone would be 100 MB; the line reads
        # a few (n+1)-float arrays.
        n = 10_001
        spec, fleet = RaftSpec(n), uniform_fleet(n, 0.05)
        fleet.probability_array  # noqa: B018 - the fleet's own cached array
        tracemalloc.start()
        try:
            result = counting_reliability(spec, fleet)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (n + 1) ** 2 // 50
        assert "_grid" not in verdict_masks(spec).__dict__
        assert result.safe.value == 1.0
        assert result.live.value == pytest.approx(1.0)


def _two_model_fleet(n: int, kind: str) -> Fleet:
    models = [(0.02 + 0.05 * (i % 2), 0.0) for i in range(n)]
    return Fleet(tuple(NodeModel(*(m if kind == "crash" else m[::-1])) for m in models))


class TestMasksReadByLine:
    """One-kind rows read their kind's mask line, and the sharded tallies
    evaluate what their shards read before the shards fan out."""

    @pytest.mark.parametrize("kind", ["crash", "byzantine"])
    @pytest.mark.parametrize("spec", [RaftSpec(9), PBFTSpec(7)], ids=repr)
    def test_one_kind_tallies_never_build_the_grid(self, spec, kind):
        fleet = _two_model_fleet(spec.n, kind)
        with mock.patch.dict(kernels._MASKS, clear=True):
            tally = monte_carlo_tally(spec, fleet, 3_000, as_generator(5))
            assert "_grid" not in verdict_masks(spec).__dict__
            # Control: a fleet carrying both kinds reads the grid.
            monte_carlo_tally(spec, _mixed_fleet(spec.n), 10, as_generator(5))
            assert "_grid" in verdict_masks(spec).__dict__
        assert (tally.safe, tally.live, tally.both) == _ref_code_matrix_tally(
            spec, fleet, 3_000, as_generator(5)
        )

    @pytest.mark.parametrize(
        "fleet,evaluated",
        [
            (uniform_fleet(7, 0.05), {"_lines"}),
            (_two_model_fleet(7, "byzantine"), {"_lines"}),
            (_mixed_fleet(7), {"_grid"}),
        ],
        ids=["one-model", "two-model-byzantine", "mixed"],
    )
    def test_sharded_tally_evaluates_the_masks_before_the_shards(
        self, fleet, evaluated, monkeypatch
    ):
        seen = []
        run = kernels.run_supervised

        def spy(*args, **kwargs):
            seen.append(set(verdict_masks(spec).__dict__) & {"_lines", "_grid"})
            return run(*args, **kwargs)

        spec = PBFTSpec(7)
        monkeypatch.setattr(kernels, "run_supervised", spy)
        with mock.patch.dict(kernels._MASKS, clear=True):
            kernels.monte_carlo_tally_sharded(spec, fleet, 8_192, 3, mode="serial")
        assert seen == [evaluated]

    @pytest.mark.parametrize("spec,fleet", SYMMETRIC_ZOO, ids=lambda v: repr(v))
    def test_importance_rows_of_one_kind_read_one_line(self, spec, fleet, monkeypatch):
        from repro.analysis import importance

        seen = []
        run = importance.run_supervised

        def spy(*args, **kwargs):
            seen.append("_grid" in verdict_masks(spec).__dict__)
            return run(*args, **kwargs)

        monkeypatch.setattr(importance, "run_supervised", spy)
        tilt = [0.3] * spec.n
        for kind in (FaultKind.CRASH, FaultKind.BYZANTINE):
            with mock.patch.dict(kernels._MASKS, clear=True):
                for metric in ("safe", "live", "safe_and_live"):
                    first = importance.minimal_violating_failures(
                        spec, predicate=metric, failure_kind=kind
                    )
                    importance_sample_violation(
                        spec, fleet, predicate=metric, trials=500, seed=1,
                        tilt=tilt, failure_kind=kind,
                    )
                    assert "_grid" not in verdict_masks(spec).__dict__
                    # The grid's scan along the same line agrees.
                    holds = VerdictMasks(spec).for_metric(metric)
                    line = holds[:, 0] if kind is FaultKind.CRASH else holds[0, :]
                    assert first == next((k for k, ok in enumerate(line) if not ok), None)
        assert seen and not any(seen)


# ---------------------------------------------------------------------------
# Support-split DP: single-kind rows in 1-D, bit-identical to the 2-D loop
# ---------------------------------------------------------------------------
def _ref_joint_count_pmf_2d(crash: np.ndarray, byz: np.ndarray) -> np.ndarray:
    """The windowed 2-D batch DP every row ran before the support split."""
    fleets, n = crash.shape
    ok = np.maximum(0.0, 1.0 - crash - byz)
    pmf = np.zeros((fleets, n + 1, n + 1))
    pmf[:, 0, 0] = 1.0
    scratch = np.empty_like(pmf)
    for node in range(n):
        k = node + 1
        src = pmf[:, :k, :k]
        dst = scratch[:, : k + 1, : k + 1]
        dst[:, k, :] = 0.0
        dst[:, :k, k] = 0.0
        np.multiply(src, ok[:, node, None, None], out=dst[:, :k, :k])
        dst[:, 1 : k + 1, :k] += src * crash[:, node, None, None]
        dst[:, :k, 1 : k + 1] += src * byz[:, node, None, None]
        pmf, scratch = scratch, pmf
    return pmf


_ROW_KINDS = ("crash-only", "byzantine-only", "mixed", "all-zero", "p=1")


@st.composite
def _split_batches(draw):
    """A shuffled ``(crash, byz)`` batch mixing every support kind."""
    n = draw(st.integers(0, 41))
    kinds = draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=7))
    probability = st.floats(0.0, 1.0)
    crash_rows, byz_rows = [], []
    for kind in kinds:
        if kind == "mixed":
            pairs = draw(st.lists(_NODE_PAIRS, min_size=n, max_size=n))
        elif kind == "p=1":
            pairs = [draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0)]))] * n
        elif kind == "all-zero":
            pairs = [(0.0, 0.0)] * n
        else:
            ps = draw(st.lists(probability, min_size=n, max_size=n))
            pairs = [(p, 0.0) if kind == "crash-only" else (0.0, p) for p in ps]
        crash_rows.append([crash for crash, _ in pairs])
        byz_rows.append([byz for _, byz in pairs])
    order = draw(st.permutations(range(len(kinds))))
    crash = np.array([crash_rows[i] for i in order], dtype=float).reshape(len(kinds), n)
    byz = np.array([byz_rows[i] for i in order], dtype=float).reshape(len(kinds), n)
    return crash, byz


class TestSupportSplitDP:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(batch=_split_batches())
    def test_property_split_dp_equals_the_2d_loop(self, batch):
        crash, byz = batch
        out = joint_count_pmf_batch(crash, byz)
        reference = _ref_joint_count_pmf_2d(crash, byz)
        assert out.shape == reference.shape and out.dtype == reference.dtype
        assert np.array_equal(out, reference)
        assert out.tobytes() == reference.tobytes()  # signed zeros too
        # Row order: every row is its own fleet's PMF, wherever it sat.
        for row in range(crash.shape[0]):
            alone = _ref_joint_count_pmf_2d(crash[row : row + 1], byz[row : row + 1])
            assert out[row].tobytes() == alone[0].tobytes()
        # A one-kind row's 1-D recursion is the line of the grid holding it.
        one_kind = ~kernels.mixed_support(crash, byz)
        fail = (crash + byz)[one_kind]
        lines = kernels._count_pmf_1d(fail, np.maximum(0.0, 1.0 - fail))
        byzantine = byz[one_kind].any(axis=1)
        for line, grid, on_row in zip(lines, reference[one_kind], byzantine):
            assert line.tobytes() == (grid[0, :] if on_row else grid[:, 0]).tobytes()

    def test_single_kind_rows_never_run_the_2d_loop(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("2-D DP called")

        n = 5
        fleets = [
            uniform_fleet(n, 0.1),
            Fleet((NodeModel(0.1),) * (n - 1) + (NodeModel(0.3),)),
            uniform_fleet(n, 0.2, byzantine_fraction=1.0),
            Fleet((NodeModel(0.0, 0.2),) * (n - 1) + (NodeModel(0.0, 0.05),)),
            uniform_fleet(n, 0.0),
        ]
        rows = [(spec, fleet) for spec in (RaftSpec(n), PBFTSpec(n)) for fleet in fleets]
        expected = [counting_reliability(spec, fleet) for spec, fleet in rows]
        monkeypatch.setattr(kernels, "_joint_count_pmf_2d", refuse)
        assert [counting_reliability(spec, fleet) for spec, fleet in rows] == expected
        assert kernels.counting_sweep(rows).results == expected
        # Control: a mixed fleet does need the 2-D loop.
        with pytest.raises(AssertionError, match="2-D DP called"):
            counting_reliability(RaftSpec(n), uniform_fleet(n, 0.1, byzantine_fraction=0.5))

    def test_mixed_support_flags_rows_with_both_kinds(self):
        crash = np.array([[0.1, 0.0], [0.0, 0.0], [0.1, 0.0], [0.0, 0.0]])
        byz = np.array([[0.0, 0.0], [0.0, 0.2], [0.0, 0.2], [0.0, 0.0]])
        assert kernels.mixed_support(crash, byz).tolist() == [False, False, True, False]


# ---------------------------------------------------------------------------
# masked_sum: one ordered accumulation on every interpreter
# ---------------------------------------------------------------------------
class TestMaskedSum:
    def test_accumulates_sequentially_without_compensation(self):
        # Python >= 3.12's builtin sum() compensates and reads
        # 1.000000000000001 here; the row-major sequential sum reads 1.0.
        values = np.array([1.0] + [1e-16] * 10)
        assert masked_sum(values, np.ones(values.shape, dtype=bool)) == 1.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 12),
        fleets=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_property_equals_the_batched_row(self, n, fleets, seed, density):
        rng = np.random.default_rng(seed)
        pmfs = rng.random((fleets, n + 1, n + 1)) ** 8
        mask = rng.random((n + 1, n + 1)) < density
        batched = masked_sum_batch(pmfs, mask)
        for row, pmf in enumerate(pmfs):
            total = masked_sum(pmf, mask)
            assert isinstance(total, float)
            assert total == batched[row]


# ---------------------------------------------------------------------------
# Exact enumeration: per-row counts memoised with the code matrix
# ---------------------------------------------------------------------------
def _ref_support_signature(fleet) -> tuple:
    """The node-by-node support signature the probability-key pass replaced."""
    signature = []
    for node in fleet:
        codes = []
        if node.p_correct > 0.0:
            codes.append(0)
        if node.p_crash > 0.0:
            codes.append(1)
        if node.p_byzantine > 0.0:
            codes.append(2)
        signature.append(tuple(codes))
    return tuple(signature)


def _ref_configuration_probabilities(fleet, codes: np.ndarray) -> np.ndarray:
    """The per-node gather loop the outer-product table replaced: one
    fleet, one ``outcome_p[node, codes[:, node]]`` multiply per node."""
    outcome_p = np.array(
        [(node.p_correct, node.p_crash, node.p_byzantine) for node in fleet]
    ).reshape(fleet.n, 3)
    probabilities = np.ones(codes.shape[0])
    for node_index in range(codes.shape[1]):
        probabilities *= outcome_p[node_index, codes[:, node_index]]
    return probabilities


def _ref_exact(spec, fleet) -> tuple[float, float, float]:
    """Exact reliability of one fleet by the per-row walk."""
    enumeration = exact._enumeration(_ref_support_signature(fleet))
    probabilities = _ref_configuration_probabilities(fleet, enumeration.codes)
    safe, live = exact._exact_verdicts(spec, enumeration)
    return tuple(
        min(masked_sum(probabilities, mask), 1.0) for mask in (safe, live, safe & live)
    )


def _ref_exact_symmetric(spec, fleet) -> tuple[float, float, float]:
    """Symmetric exact reliability counting each code row itself."""
    enumeration = exact._enumeration(_ref_support_signature(fleet))
    probabilities = _ref_configuration_probabilities(fleet, enumeration.codes)
    safe = live = both = 0.0
    for row, probability in zip(enumeration.codes.tolist(), probabilities.tolist()):
        crash, byz = row.count(1), row.count(2)
        row_safe = spec.is_safe_counts(crash, byz)
        row_live = spec.is_live_counts(crash, byz)
        if row_safe:
            safe += probability
        if row_live:
            live += probability
        if row_safe and row_live:
            both += probability
    return min(safe, 1.0), min(live, 1.0), min(both, 1.0)


class TestExactEnumerationCounts:
    @pytest.mark.parametrize("n", [7, 11])
    @pytest.mark.parametrize("support", ["crash-only", "byzantine-only", "mixed"])
    @pytest.mark.parametrize("factory", [RaftSpec, PBFTSpec], ids=["raft", "pbft"])
    def test_symmetric_exact_equals_per_row_counting(self, n, support, factory):
        crash = [0.01 + 0.02 * (i % 5) for i in range(n)]
        if support == "crash-only":
            nodes = [NodeModel(p, 0.0) for p in crash]
        elif support == "byzantine-only":
            nodes = [NodeModel(0.0, p) for p in crash]
        else:
            nodes = [NodeModel(p, 0.004 * (1 + i % 3)) for i, p in enumerate(crash)]
        spec, fleet = factory(n), Fleet(tuple(nodes))
        result = exact_reliability(spec, fleet)
        assert (
            result.safe.value,
            result.live.value,
            result.safe_and_live.value,
        ) == _ref_exact_symmetric(spec, fleet)

    def test_counts_share_the_code_matrix_entry_and_its_eviction(self, monkeypatch):
        monkeypatch.setattr(exact, "_ENUM_CACHE", {})
        limit = exact._ENUM_CACHE_MAX_ENTRIES
        # Two-node fleets, one distinct support signature each.
        models = [
            NodeModel(0.0, 0.0),
            NodeModel(0.1, 0.0),
            NodeModel(0.0, 0.1),
            NodeModel(0.1, 0.1),
            NodeModel(1.0, 0.0),
        ]
        fleets = [Fleet(pair) for pair in itertools.product(models, repeat=2)]
        fleets = fleets[: limit + 3]
        first = exact._support_signature(fleets[0])
        exact_reliability(RaftSpec(2), fleets[0])
        entry = exact._ENUM_CACHE[first]
        counts_ref = weakref.ref(entry.crash_counts)
        del entry
        for fleet in fleets[1:]:
            exact_reliability(RaftSpec(2), fleet)
            assert len(exact._ENUM_CACHE) <= limit
        assert len(exact._ENUM_CACHE) == limit
        assert first not in exact._ENUM_CACHE
        gc.collect()
        assert counts_ref() is None  # evicted with its codes: no side table
        for signature, cached in exact._ENUM_CACHE.items():
            assert cached.codes.shape == (
                math.prod(len(codes) for codes in signature),
                len(signature),
            )
            assert cached.crash_counts.tolist() == (cached.codes == 1).sum(axis=1).tolist()
            assert cached.byz_counts.tolist() == (cached.codes == 2).sum(axis=1).tolist()
            assert not cached.crash_counts.flags.writeable
            assert not cached.byz_counts.flags.writeable


_EXACT_FLEET_KINDS = (
    "heterogeneous", "mixed", "crash-only", "byzantine-only", "p=0", "p=1"
)


def _exact_spec(family: str, n: int, stakes):
    if family == "raft":
        return RaftSpec(n)
    if family == "pbft":
        return PBFTSpec(n)
    if family == "reliability-aware":
        return ReliabilityAwareRaftSpec(n, pinned=(0,))
    return StakeWeightedSpec(stakes[:n])


@st.composite
def _exact_batches(draw):
    """(spec, shuffled fleets) mixing every support kind; fleets of one
    kind share a support signature, so groups hold several fleets."""
    family = draw(st.sampled_from(["raft", "pbft", "reliability-aware", "stake"]))
    symmetric = family in ("raft", "pbft")
    n = draw(st.integers(1, 11 if symmetric else 6))
    stakes = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from(_EXACT_FLEET_KINDS), min_size=1, max_size=6))
    probability = st.floats(0.0, 1.0)
    fleets = []
    for kind in kinds:
        if kind == "heterogeneous":
            pairs = draw(st.lists(_NODE_PAIRS, min_size=n, max_size=n))
        elif kind == "mixed":
            crash = draw(st.floats(0.001, 0.5))
            pairs = [(crash, draw(st.floats(0.001, 0.5)))] * n  # one shared model
        elif kind == "p=0":
            pairs = [(0.0, 0.0)] * n
        elif kind == "p=1":
            pairs = draw(st.lists(st.sampled_from([(1.0, 0.0), (0.0, 1.0)]), min_size=n, max_size=n))
        else:
            ps = draw(st.lists(probability, min_size=n, max_size=n))
            pairs = [(p, 0.0) if kind == "crash-only" else (0.0, p) for p in ps]
        fleets.append(Fleet(tuple(NodeModel(crash, byz) for crash, byz in pairs)))
    order = draw(st.permutations(range(len(fleets))))
    return _exact_spec(family, n, stakes), [fleets[i] for i in order]


def _values(result) -> tuple[float, float, float]:
    return (result.safe.value, result.live.value, result.safe_and_live.value)


class TestExactBatch:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=_exact_batches(), cap=st.integers(1, 4096))
    def test_property_batch_equals_the_per_row_walk(self, case, cap):
        spec, fleets = case
        batch = exact.exact_reliability_batch(spec, fleets)
        for fleet, result in zip(fleets, batch):
            assert _values(result) == _ref_exact(spec, fleet)
            assert result.detail == (
                f"enumerated {exact.configuration_count(fleet)} configurations"
            )
            assert result.method == "exact" and result.n == spec.n
        # Entries do not depend on batch order or on the chunk cap.
        reversed_batch = exact.exact_reliability_batch(spec, fleets[::-1])
        assert [_values(r) for r in reversed_batch[::-1]] == [_values(r) for r in batch]
        with mock.patch.object(kernels, "_BATCH_CHUNK_FLOATS", cap):
            chunked = exact.exact_reliability_batch(spec, fleets)
        assert [_values(r) for r in chunked] == [_values(r) for r in batch]

    def test_scalar_call_is_a_batch_of_one(self, monkeypatch):
        calls = []
        real = exact.exact_reliability_batch

        def spy(spec, fleets, **kwargs):
            calls.append(len(fleets))
            return real(spec, fleets, **kwargs)

        monkeypatch.setattr(exact, "exact_reliability_batch", spy)
        spec, fleet = _asymmetric_pair()
        assert _values(exact_reliability(spec, fleet)) == _ref_exact(spec, fleet)
        assert calls == [1]

    def test_invalid_fleets_raise_in_order(self):
        from repro.errors import EstimationError

        spec = RaftSpec(3)
        with pytest.raises(InvalidConfigurationError, match="2 nodes"):
            exact.exact_reliability_batch(spec, [uniform_fleet(3, 0.1), uniform_fleet(2, 0.1)])
        with pytest.raises(EstimationError, match="8 configurations exceed"):
            exact.exact_reliability_batch(spec, [uniform_fleet(3, 0.1)], max_configs=7)
        assert exact.exact_reliability_batch(spec, []) == []


class TestPlannerExactBatch:
    """The planner answers exact rows with one batch per spec."""

    @staticmethod
    def _rows():
        return ScenarioSet.grid(
            ("raft", "pbft"), (7,), [0.01 * (i + 1) for i in range(10)], method="exact"
        )

    def test_a_20_row_batch_calls_the_batch_once_per_spec(self, monkeypatch):
        calls = []
        real = exact.exact_reliability_batch

        def spy(spec, fleets, **kwargs):
            calls.append((spec.name, len(fleets)))
            return real(spec, fleets, **kwargs)

        monkeypatch.setattr(exact, "exact_reliability_batch", spy)
        answers = ReliabilityEngine().run(self._rows())
        assert sorted(calls) == [("PBFT", 10), ("Raft", 10)]
        for answer in answers:
            scenario = answer.query.scenario
            assert _values(answer.value) == _ref_exact(scenario.spec, scenario.fleet)
            assert answer.provenance.batched and answer.provenance.batch_size == 10


class TestPlannerCountingChunks:
    """A counting group spanning several DP chunks answers like one chunk."""

    N = 11
    #: A chunk cap that fits two fleets' (n + 1)^2-entry PMFs.
    CAP = 2 * (N + 1) ** 2

    @classmethod
    def _rows(cls):
        n = cls.N
        crash = [uniform_fleet(n, p) for p in (0.01, 0.05, 0.1, 0.2)]
        two_models = Fleet((NodeModel(0.05),) * (n - 1) + (NodeModel(0.3),))
        byz = uniform_fleet(n, 0.03, byzantine_fraction=1.0)
        mixed = [
            _mixed_fleet(n),
            uniform_fleet(n, 0.1, byzantine_fraction=0.5),
            uniform_fleet(n, 0.2, byzantine_fraction=0.25),
            _mixed_fleet(n).replace(0, NodeModel(0.3, 0.01)),
            Fleet(tuple(NodeModel(0.01 * (i + 1), 0.002) for i in range(n))),
        ]
        raft, benor = RaftSpec(n), BenOrSpec(n)
        pbft, byz_benor = PBFTSpec(n), ByzantineBenOrSpec(n)
        # Only the five mixed fleets run the joint DP: with two fleets a
        # chunk they sweep as 2, 2, 1, and mixed[1] (shared by PBFT and
        # Byzantine Ben-Or) ends the first chunk.  The six one-kind fleets
        # are count lines, crash and Byzantine, one model and two.
        return [
            (raft, crash[0]),
            (pbft, mixed[0]),
            (pbft, byz),
            (byz_benor, mixed[1]),
            (benor, crash[1]),
            (raft, two_models),
            (pbft, mixed[2]),
            (raft, crash[2]),
            (byz_benor, byz),
            (pbft, mixed[1]),
            (raft, crash[1]),
            (byz_benor, mixed[3]),
            (raft, mixed[4]),
            (benor, crash[3]),
            (benor, two_models),
            (benor, crash[0]),
        ]

    def _run(self):
        rows = self._rows()
        exporter = InMemoryExporter()
        with use_tracer(Tracer.for_key(("counting-chunks",), exporter=exporter)):
            answers = ReliabilityEngine(cache_size=0).run(
                [Scenario(spec, fleet, method="counting") for spec, fleet in rows]
            )
        (group,) = [r for r in exporter.records if r.name == "engine.counting_group"]
        return rows, answers, group.attributes

    def test_chunked_group_equals_the_scalar_and_the_one_chunk_run(self):
        with mock.patch.object(kernels, "_BATCH_CHUNK_FLOATS", self.CAP), mock.patch.object(
            kernels, "joint_count_pmf_batch", wraps=kernels.joint_count_pmf_batch
        ) as dp:
            rows, chunked, chunked_span = self._run()
        assert [len(call.args[0]) for call in dp.call_args_list] == [2, 2, 1]
        # Row order, and whole-object equality with the scalar per row.
        assert [answer.value for answer in chunked] == [
            counting_reliability(spec, fleet) for spec, fleet in rows
        ]
        assert all(answer.provenance.batch_size == len(rows) for answer in chunked)
        _, whole, whole_span = self._run()
        assert [a.to_dict() for a in chunked] == [a.to_dict() for a in whole]
        assert chunked_span == whole_span
        assert (whole_span["fleets"], whole_span["fleets_1d"]) == (11, 6)


# ---------------------------------------------------------------------------
# Monte-Carlo: seeded uniform-drawing tallies identical to the historical
# per-trial loops
# ---------------------------------------------------------------------------
class TestMonteCarloKernel:
    @pytest.mark.parametrize("spec,fleet", UNIFORM_ZOO, ids=lambda v: repr(v))
    def test_symmetric_tally_matches_reference_loop(self, spec, fleet):
        ref = _ref_trials(spec, fleet, 4_000, as_generator(11))
        tally = monte_carlo_tally(spec, fleet, 4_000, as_generator(11))
        assert ref == (tally.safe, tally.live, tally.both)

    def test_asymmetric_tally_matches_reference_loop(self):
        spec, fleet = _asymmetric_pair()
        ref = _ref_trials(spec, fleet, 4_000, as_generator(23))
        tally = monte_carlo_tally(spec, fleet, 4_000, as_generator(23))
        assert ref == (tally.safe, tally.live, tally.both)

    def test_monte_carlo_reliability_seeded_values_pinned(self):
        """End-to-end: same seed, same estimates, across chunk boundaries."""
        spec, fleet = RaftSpec(25), uniform_fleet(25, 0.05)
        a = monte_carlo_reliability(spec, fleet, trials=50_000, seed=5)
        b = monte_carlo_reliability(spec, fleet, trials=50_000, seed=5)
        assert a.safe_and_live.value == b.safe_and_live.value
        rng = as_generator(5)
        ref = _ref_trials(spec, fleet, 50_000, rng)
        assert a.safe_and_live.value == ref[2] / 50_000

    def test_correlated_tally_matches_reference_loop(self):
        fleet = uniform_fleet(5, 0.05)
        spec = RaftSpec(5)
        model = CommonShockModel(fleet, (rollout_shock(fleet, 0.02),))
        ref = _ref_correlated(spec, model, 3_000, as_generator(7), FaultKind.CRASH)
        tally = correlated_tally(spec, model, 3_000, as_generator(7), FaultKind.CRASH)
        assert ref == (tally.safe, tally.live, tally.both)

    def test_correlated_byzantine_kind_matches_reference_loop(self):
        fleet = uniform_fleet(4, 0.1)
        spec = PBFTSpec(4)
        model = CommonShockModel(fleet, ())
        ref = _ref_correlated(spec, model, 2_000, as_generator(13), FaultKind.BYZANTINE)
        result = monte_carlo_correlated(
            spec, model, trials=2_000, seed=13, failure_kind=FaultKind.BYZANTINE
        )
        assert result.safe.value == ref[0] / 2_000
        assert result.live.value == ref[1] / 2_000

    def test_predicate_tally_matches_reference_loop(self):
        fleet = _mixed_fleet(6)
        predicate = lambda config: config.num_failed <= 1  # noqa: E731
        rng = as_generator(3)
        hits = sum(
            predicate(sample_configuration(fleet, rng)) for _ in range(3_000)
        )
        assert predicate_tally(fleet, predicate, 3_000, as_generator(3)) == hits
        estimate = monte_carlo_predicate(fleet, predicate, trials=3_000, seed=3)
        assert estimate.value == hits / 3_000

    def test_importance_sampling_matches_reference_loop(self):
        """The batched shard kernel reproduces the per-trial loop's weights."""
        from repro.analysis.importance import (
            _tilted_violation_weights,
            default_tilt,
            minimal_violating_failures,
        )

        spec, fleet = RaftSpec(9), uniform_fleet(9, 0.01)
        p = np.array(fleet.failure_probabilities)
        k_min = minimal_violating_failures(
            spec, predicate="live", failure_kind=FaultKind.CRASH
        )
        tilt = np.array(default_tilt(fleet, k_min))
        lrf = np.log(np.maximum(p, 1e-300)) - np.log(tilt)
        lro = np.log1p(-p) - np.log1p(-tilt)
        batched = _tilted_violation_weights(
            spec, "live", spec.is_live, tilt, lrf, lro, 20_000,
            as_generator(1), FaultKind.CRASH,
        )
        # Reference: per-trial tilted loop (seed implementation), same stream.
        import math

        rng = as_generator(1)
        weights = np.zeros(20_000)
        for t in range(20_000):
            failed = rng.random(9) < tilt
            config = FailureConfig(
                tuple(FaultKind.CRASH if f else FaultKind.CORRECT for f in failed)
            )
            if not spec.is_live(config):
                weights[t] = math.exp(float(np.where(failed, lrf, lro).sum()))
        assert batched.mean() == pytest.approx(float(weights.mean()), rel=1e-9)
        assert np.flatnonzero(batched).tolist() == np.flatnonzero(weights).tolist()

    def test_importance_sampling_asymmetric_spec(self):
        spec, fleet = _asymmetric_pair()
        result = importance_sample_violation(
            spec, fleet, predicate="live", trials=5_000, seed=2
        )
        assert 0.0 < result.violation.value < 1.0


# ---------------------------------------------------------------------------
# Symmetric tallies counted from the uniforms == the code-matrix tally
# ---------------------------------------------------------------------------
def _ref_code_matrix_tally(spec, fleet, trials: int, rng) -> tuple[int, int, int]:
    """The classify -> int8 codes -> mask-gather tally the count kernel
    replaced, drawn as one block (chunking never changes the stream)."""
    crash_p = np.array(fleet.crash_probabilities)
    byz_p = np.array(fleet.byzantine_probabilities)
    uniforms = rng.random((trials, fleet.n))
    codes = np.zeros(uniforms.shape, dtype=np.int8)
    crash = uniforms < crash_p
    codes[crash] = 1
    codes[~crash & (uniforms < crash_p + byz_p)] = 2
    crash_counts = (codes == 1).sum(axis=1)
    byz_counts = (codes == 2).sum(axis=1)
    masks = verdict_masks(spec)
    return tuple(
        int(mask[crash_counts, byz_counts].sum())
        for mask in (masks.safe, masks.live, masks.both)
    )


def _ref_correlated_gather(spec, model, trials: int, rng, kind) -> tuple[int, int, int]:
    """The per-chunk count + zeros + mask-gather correlated tally."""
    masks = verdict_masks(spec)
    safe = live = both = 0
    for size in kernels._chunk_sizes(trials, spec.n):
        counts = np.asarray(model.sample_many(size, rng), dtype=bool).sum(axis=1)
        zeros = np.zeros_like(counts)
        pair = (counts, zeros) if kind is FaultKind.CRASH else (zeros, counts)
        safe += int(masks.safe[pair].sum())
        live += int(masks.live[pair].sum())
        both += int(masks.both[pair].sum())
    return safe, live, both


_TALLY_SPECS = {
    "raft": RaftSpec,
    "pbft": PBFTSpec,
    "benor": BenOrSpec,
    "byz-benor": ByzantineBenOrSpec,
}

#: Per-node (p_crash, p_byzantine): the corners, pairs summing to 1, and
#: arbitrary valid mixtures.
_NODE_PAIRS = st.one_of(
    st.sampled_from(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.3, 0.7), (0.05, 0.0), (0.0, 0.2)]
    ),
    st.floats(0.0, 1.0).map(lambda p: (p, 1.0 - p)),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
        lambda t: (t[0], (1.0 - t[0]) * t[1])
    ),
)


@st.composite
def _tally_cases(draw):
    """(spec, fleet, trials, chunk_draws, seed); ``chunk_draws`` replaces
    ``_CHUNK_DRAWS`` so ``trials`` lands on either side of a chunk edge."""
    spec = _TALLY_SPECS[draw(st.sampled_from(sorted(_TALLY_SPECS)))]
    n = draw(st.integers(1, 41))
    pairs = draw(st.lists(_NODE_PAIRS, min_size=n, max_size=n))
    if draw(st.booleans()):
        pairs = [(crash, 0.0) for crash, _ in pairs]
    chunk_draws = draw(st.integers(1, 64 * n))
    chunk = max(1, chunk_draws // n)
    trials = max(1, draw(st.integers(1, 3)) * chunk + draw(st.sampled_from([-1, 0, 1])))
    fleet = Fleet(tuple(NodeModel(crash, byz) for crash, byz in pairs))
    return spec(n), fleet, trials, chunk_draws, draw(st.integers(0, 2**32 - 1))


class TestCountedSymmetricTally:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=_tally_cases())
    def test_property_counted_tally_equals_code_matrix_tally(self, case):
        spec, fleet, trials, chunk_draws, seed = case
        with mock.patch.object(kernels, "_CHUNK_DRAWS", chunk_draws):
            tally = monte_carlo_tally(spec, fleet, trials, as_generator(seed))
        expected = _ref_code_matrix_tally(spec, fleet, trials, as_generator(seed))
        assert (tally.trials, tally.safe, tally.live, tally.both) == (trials, *expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        case=_tally_cases(),
        kind=st.sampled_from([FaultKind.CRASH, FaultKind.BYZANTINE]),
        shock=st.floats(0.0, 1.0),
    )
    def test_property_correlated_tally_equals_gather(self, case, kind, shock):
        spec, fleet, trials, chunk_draws, seed = case
        model = CommonShockModel(fleet, (rollout_shock(fleet, shock, lethality=0.5),))
        with mock.patch.object(kernels, "_CHUNK_DRAWS", chunk_draws):
            tally = correlated_tally(spec, model, trials, as_generator(seed), kind)
            expected = _ref_correlated_gather(spec, model, trials, as_generator(seed), kind)
        assert (tally.safe, tally.live, tally.both) == expected

    @pytest.mark.parametrize("n", [200, 300], ids=["uint8-counts", "wide-rows"])
    def test_rows_past_the_int8_range_count_exactly(self, n):
        """Counts above 127 (and rows past the 255-node byte counter)."""
        spec = RaftSpec(n)
        fleet = Fleet(tuple(NodeModel(0.9 if i % 7 else 0.0, 0.05) for i in range(n)))
        tally = monte_carlo_tally(spec, fleet, 300, as_generator(8))
        expected = _ref_code_matrix_tally(spec, fleet, 300, as_generator(8))
        assert (tally.safe, tally.live, tally.both) == expected
        assert tally.live < 300  # the counts really crossed Raft's majority

    @pytest.mark.parametrize("kind", ["crash", "byzantine"])
    @pytest.mark.parametrize("n", [1, 4, 25, 300])
    def test_one_kind_counts_bin_over_one_line_of_the_grid(self, n, kind, monkeypatch):
        """Single-kind count arrays (the other side the scalar ``0``) are
        binned over ``n + 1`` counts and read against the kind's line of the
        masks: the same hits as the full ``(n+1)^2`` grid."""
        counts = as_generator(n).integers(0, n + 1, size=5_000)
        crash, byz = (counts, 0) if kind == "crash" else (0, counts)
        width = n + 1
        for spec in (RaftSpec(n), PBFTSpec(n)):
            masks = verdict_masks(spec)
            grid = np.bincount(crash * width + byz, minlength=width * width)
            expected = kernels._tally_histogram(masks, grid.reshape(width, width))
            lengths = []
            bincount = np.bincount

            def recording(values, minlength=0):
                lengths.append(minlength)
                return bincount(values, minlength=minlength)

            monkeypatch.setattr(kernels.np, "bincount", recording)
            assert kernels._tally_symmetric(masks, crash, byz) == expected
            monkeypatch.undo()
            assert lengths == [width]

    def test_symmetric_tallies_never_classify_nodes(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("classify_uniforms called")

        monkeypatch.setattr(kernels, "classify_uniforms", refuse)
        spec, fleet = PBFTSpec(7), _mixed_fleet(7)
        tally = monte_carlo_tally(spec, fleet, 2_000, as_generator(4))
        assert (tally.safe, tally.live, tally.both) == _ref_code_matrix_tally(
            spec, fleet, 2_000, as_generator(4)
        )
        model = CommonShockModel(fleet, (rollout_shock(fleet, 0.1),))
        correlated_tally(spec, model, 2_000, as_generator(4), FaultKind.BYZANTINE)
        # Control: the asymmetric path does classify.
        with pytest.raises(AssertionError, match="classify_uniforms"):
            monte_carlo_tally(*_asymmetric_pair(), 10, as_generator(4))


def _ref_per_node_threshold_tally(spec, fleet, trials: int, rng) -> tuple[int, int, int]:
    """The symmetric branch of ``monte_carlo_tally`` before single-model
    fleets compared against scalars: every uniform meets its node's entry
    of a broadcast ``n``-vector."""
    crash_p = np.array(fleet.crash_probabilities)
    byz_p = np.array(fleet.byzantine_probabilities)
    masks = verdict_masks(spec)
    fail_p = crash_p + byz_p if byz_p.any() else None
    safe = live = both = 0
    for size in kernels._chunk_sizes(trials, fleet.n):
        uniforms = rng.random((size, fleet.n))
        crash_counts = kernels._row_counts(uniforms < crash_p)
        byz_counts = (
            0 if fail_p is None else kernels._row_counts(uniforms < fail_p) - crash_counts
        )
        s, l, b = kernels._tally_symmetric(masks, crash_counts, byz_counts)
        safe += s
        live += l
        both += b
    return safe, live, both


#: One model's ``(p_crash, p_byzantine)`` by failure kind.  ``p`` covers
#: the corners and tiny values; mixed pairs carry both kinds.
_SINGLE_MODEL_P = st.one_of(st.sampled_from([0.0, 1e-9, 1.0]), st.floats(0.0, 1.0))
_SINGLE_MODEL_PAIRS = {
    "crash-only": _SINGLE_MODEL_P.map(lambda p: (p, 0.0)),
    "byzantine-only": _SINGLE_MODEL_P.map(lambda p: (0.0, p)),
    "mixed": st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    .map(lambda t: (t[0], (1.0 - t[0]) * t[1]))
    .filter(all),
}


@st.composite
def _single_model_cases(draw, kinds):
    """(spec, single-model fleet, trials, chunk_draws, seed), ``trials``
    within one of a chunk edge.  A mixed-kind fleet draws ``n`` uniforms
    per trial; a one-kind fleet draws one histogram, whatever the edges."""
    spec = _TALLY_SPECS[draw(st.sampled_from(sorted(_TALLY_SPECS)))]
    n = draw(st.integers(1, 41))
    kind = draw(st.sampled_from(kinds))
    pair = draw(_SINGLE_MODEL_PAIRS[kind])
    chunk_draws = draw(st.integers(1, 64 * n))
    chunk = max(1, chunk_draws // (n if kind == "mixed" else 1))
    trials = max(1, draw(st.integers(1, 3)) * chunk + draw(st.sampled_from([-1, 0, 1])))
    fleet = Fleet((NodeModel(*pair),) * n)
    return spec(n), fleet, trials, chunk_draws, draw(st.integers(0, 2**32 - 1))


class TestScalarThresholdTally:
    """Single-model fleets that still draw uniforms: those with both kinds.
    (One-kind fleets draw a count histogram: :class:`TestBinomialTally`.)"""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=_single_model_cases(["mixed"]))
    def test_property_scalar_threshold_equals_per_node_threshold(self, case):
        spec, fleet, trials, chunk_draws, seed = case
        with mock.patch.object(kernels, "_CHUNK_DRAWS", chunk_draws):
            tally = monte_carlo_tally(spec, fleet, trials, as_generator(seed))
            expected = _ref_per_node_threshold_tally(
                spec, fleet, trials, as_generator(seed)
            )
        assert (tally.trials, tally.safe, tally.live, tally.both) == (trials, *expected)

    @pytest.mark.parametrize("n", [2, 4, 7, 25, 41])
    def test_a_fleet_whose_last_node_differs_compares_per_node(self, n):
        spec = RaftSpec(n)
        common = NodeModel(0.05)
        fleet = Fleet((common,) * (n - 1) + (NodeModel(0.9, 0.05),))
        tally = monte_carlo_tally(spec, fleet, 3_000, as_generator(6))
        expected = _ref_per_node_threshold_tally(spec, fleet, 3_000, as_generator(6))
        assert (tally.safe, tally.live, tally.both) == expected
        # Control: the last node is what moved the tally.
        uniform = monte_carlo_tally(spec, Fleet((common,) * n), 3_000, as_generator(6))
        assert (uniform.safe, uniform.live, uniform.both) != expected


# ---------------------------------------------------------------------------
# One model, one failure kind: one count histogram per shard
# ---------------------------------------------------------------------------
#: Significance floor of the goodness-of-fit test.  The examples are
#: derandomized, so a pass is reproducible; a wrong ``n``, ``p`` or column
#: sits many orders of magnitude below it at these trial counts.
_FIT_ALPHA = 1e-6


def _refuse_row_counts(*_args):
    raise AssertionError("_row_counts called")


def _refuse_counting_dp(*_args, **_kwargs):
    raise AssertionError("counting DP called")


@contextlib.contextmanager
def _counting_dp_refused():
    """Any run of the counting DP raises inside this block."""
    with mock.patch.object(
        kernels, "joint_count_pmf_batch", _refuse_counting_dp
    ), mock.patch.object(kernels, "_count_pmf_1d", _refuse_counting_dp):
        yield


class _RecordingGenerator:
    """A seeded generator that records the name of every method called."""

    def __init__(self, seed: int, calls: list):
        self._rng, self._calls = as_generator(seed), calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._rng, name)


def _drawn_count_histogram(spec, fleet, trials: int, seed: int) -> np.ndarray:
    """The flattened ``(n+1)^2`` count-pair histogram ``monte_carlo_tally``
    reads its verdicts from, captured at ``_tally_histogram``; no uniform
    is ever counted and the counting DP never runs."""
    width = fleet.n + 1
    hist = np.zeros((width, width), dtype=np.int64)
    tally_histogram = kernels._tally_histogram

    def spy(masks, drawn, line=np.s_[:]):
        hist[line] += drawn
        return tally_histogram(masks, drawn, line)

    with mock.patch.object(kernels, "_tally_histogram", spy), mock.patch.object(
        kernels, "_row_counts", _refuse_row_counts
    ), _counting_dp_refused():
        tally = monte_carlo_tally(spec, fleet, trials, as_generator(seed))
    assert tally.trials == trials == hist.sum()
    return hist.ravel()


def _assert_fits_counting_pmf(hist: np.ndarray, fleet: Fleet, trials: int) -> None:
    """Chi-square fit of a drawn count-pair histogram to the fleet's
    counting PMF (``joint_count_pmf_batch``).  Cells without mass must stay
    empty, a one-cell PMF must be met exactly, and cells are pooled in
    count order until each expects at least five draws."""
    crash, byz = kernels.fleet_probability_matrix([fleet])
    pmf = joint_count_pmf_batch(crash, byz)[0].ravel()
    assert not hist[pmf == 0.0].any(), "draws outside the PMF's support"
    support = np.flatnonzero(pmf)
    if support.size == 1:
        assert hist[support[0]] == trials
        return
    observed, expected = [], []
    for o, e in zip(hist[support], trials * pmf[support]):
        if expected and expected[-1] < 5.0:
            observed[-1] += o
            expected[-1] += e
        else:
            observed.append(o)
            expected.append(e)
    if len(expected) > 1 and expected[-1] < 5.0:
        o, e = observed.pop(), expected.pop()
        observed[-1] += o
        expected[-1] += e
    if len(expected) < 2:
        return  # every draw is expected in one pooled cell
    observed, expected = np.array(observed, dtype=float), np.array(expected)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    p_value = stats.chi2.sf(statistic, len(expected) - 1)
    assert p_value > _FIT_ALPHA, (statistic, observed.tolist(), expected.tolist())


class TestBinomialTally:
    """Symmetric specs over a one-model, one-kind fleet draw the histogram
    of their ``Binomial(n, p)`` failure counts, one multinomial per call.
    The stream differs from the uniform one, so the evidence is
    statistical and structural rather than equality with a uniform loop."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 41),
        kind=st.sampled_from(["crash-only", "byzantine-only"]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_drawn_counts_fit_the_counting_pmf(self, n, kind, data, seed):
        pair = data.draw(_SINGLE_MODEL_PAIRS[kind])
        spec = (RaftSpec if kind == "crash-only" else PBFTSpec)(n)
        fleet = Fleet((NodeModel(*pair),) * n)
        hist = _drawn_count_histogram(spec, fleet, 20_000, seed)
        _assert_fits_counting_pmf(hist, fleet, 20_000)

    @pytest.mark.parametrize("n", [1, 2, 7, 25, 41])
    @pytest.mark.parametrize("kind", ["crash-only", "byzantine-only"])
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_probabilities_give_one_cell_exactly(self, n, kind, p):
        pair = (p, 0.0) if kind == "crash-only" else (0.0, p)
        fleet = Fleet((NodeModel(*pair),) * n)
        hist = _drawn_count_histogram(PBFTSpec(n), fleet, 5_000, 3)
        count = n if p == 1.0 else 0
        cell = count * (n + 1) if kind == "crash-only" else count
        assert hist[cell] == 5_000

    @pytest.mark.parametrize("spec,fleet", BINOMIAL_ZOO, ids=lambda v: repr(v))
    def test_zoo_single_kind_entries_fit_the_counting_pmf(self, spec, fleet):
        hist = _drawn_count_histogram(spec, fleet, 40_000, 11)
        _assert_fits_counting_pmf(hist, fleet, 40_000)

    def test_single_kind_single_model_tallies_never_count_uniforms(self, monkeypatch):
        monkeypatch.setattr(kernels, "_row_counts", _refuse_row_counts)
        for spec, fleet in [
            (RaftSpec(25), uniform_fleet(25, 0.05)),
            (PBFTSpec(7), uniform_fleet(7, 0.03, byzantine_fraction=1.0)),
            (BenOrSpec(5), uniform_fleet(5, 0.0)),
        ]:
            assert monte_carlo_tally(spec, fleet, 2_000, as_generator(4)).trials == 2_000
        # Controls: mixed kinds and several models still count uniforms.
        for spec, fleet in [
            (PBFTSpec(7), uniform_fleet(7, 0.03, byzantine_fraction=0.25)),
            (RaftSpec(5), Fleet((NodeModel(0.05),) * 4 + (NodeModel(0.06),))),
        ]:
            with pytest.raises(AssertionError, match="_row_counts"):
                monte_carlo_tally(spec, fleet, 10, as_generator(4))

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=_single_model_cases(["crash-only", "byzantine-only"]))
    def test_property_one_histogram_draw_whatever_the_chunk_budget(self, case):
        spec, fleet, trials, chunk_draws, seed = case
        calls = []
        with mock.patch.object(kernels, "_CHUNK_DRAWS", chunk_draws):
            chunked = monte_carlo_tally(
                spec, fleet, trials, _RecordingGenerator(seed, calls)
            )
        assert calls == ["multinomial"]
        whole = monte_carlo_tally(spec, fleet, trials, as_generator(seed))
        assert chunked == whole

    def test_a_trillion_trials_cost_one_histogram_draw(self):
        spec, fleet, trials = RaftSpec(25), uniform_fleet(25, 0.05), 10**12
        calls = []
        tally = monte_carlo_tally(spec, fleet, trials, _RecordingGenerator(5, calls))
        assert calls == ["multinomial"] and tally.trials == trials
        exact = counting_reliability(spec, fleet)
        for hits, value in [
            (tally.safe, exact.safe.value),
            (tally.live, exact.live.value),
            (tally.both, exact.safe_and_live.value),
        ]:
            sigma = math.sqrt(trials * value * (1 - value))
            assert abs(hits - trials * value) <= 6 * sigma + 1

    def test_the_sampling_path_never_runs_the_counting_dp(self):
        cases = [
            (RaftSpec(25), uniform_fleet(25, 0.05)),
            (PBFTSpec(7), uniform_fleet(7, 0.03, byzantine_fraction=1.0)),
            (BenOrSpec(5), uniform_fleet(5, 0.0)),
            (RaftSpec(5), uniform_fleet(5, 1.0)),
        ]
        with _counting_dp_refused():
            for spec, fleet in cases:
                monte_carlo_tally(spec, fleet, 20_000, as_generator(2))
                monte_carlo_reliability(
                    spec, fleet, trials=20_000, seed=2, shard_trials=4_096
                )
            # Control: the patches do reach the counting path.  A one-model
            # fleet's counting row reads the closed form, so the control
            # takes a fleet of two models.
            two_models = Fleet((NodeModel(0.05),) * 24 + (NodeModel(0.06),))
            with pytest.raises(AssertionError, match="counting DP"):
                counting_reliability_batch(RaftSpec(25), [two_models])


# ---------------------------------------------------------------------------
# One-pass Birnbaum / leave-one-out products
# ---------------------------------------------------------------------------
class TestOnePassImportance:
    @pytest.mark.parametrize("metric", ["safe", "live", "safe_and_live"])
    @pytest.mark.parametrize(
        "failure_kind", [FaultKind.CRASH, FaultKind.BYZANTINE], ids=["crash", "byz"]
    )
    def test_matches_per_node_conditioning(self, metric, failure_kind):
        spec, fleet = PBFTSpec(7), _mixed_fleet(7)
        one_pass = birnbaum_importances(
            spec, fleet, metric=metric, failure_kind=failure_kind
        )
        for node in range(fleet.n):
            conditioned = birnbaum_importance(
                spec, fleet, node, metric=metric, failure_kind=failure_kind
            )
            assert one_pass[node] == pytest.approx(conditioned, abs=1e-12)

    @pytest.mark.parametrize("spec,fleet", SYMMETRIC_ZOO, ids=lambda v: repr(v))
    def test_zoo_ranking_matches_per_node_scores(self, spec, fleet):
        ranking = importance_ranking(spec, fleet, metric="safe_and_live")
        assert [node for node, _ in ranking] == sorted(
            range(fleet.n),
            key=lambda u: (-dict(ranking)[u], u),
        )
        for node, score in ranking:
            assert score == pytest.approx(
                birnbaum_importance(spec, fleet, node), abs=1e-12
            )

    def test_gradient_matches_per_node_conditioning(self):
        spec, fleet = RaftSpec(7), _mixed_fleet(7)
        gradient = reliability_gradient(spec, fleet, metric="live")
        for node, value in enumerate(gradient):
            assert value == pytest.approx(
                -birnbaum_importance(spec, fleet, node, metric="live"), abs=1e-12
            )

    def test_loo_products_match_explicit_leave_one_out(self):
        fleet = _mixed_fleet(5)
        spec = RaftSpec(5)
        weight = verdict_masks(spec).both.astype(float)
        crash = np.array(fleet.crash_probabilities)
        byz = np.array(fleet.byzantine_probabilities)
        products = loo_weighted_products(crash, byz, (weight,))[0]
        for u in range(5):
            others = Fleet(tuple(fleet[i] for i in range(5) if i != u))
            loo_pmf = joint_count_pmf(others)  # (5, 5) over the 4 remaining nodes
            expected = float((loo_pmf * weight[:5, :5]).sum())
            assert products[u] == pytest.approx(expected, abs=1e-14)

    def test_upgrade_values_match_explicit_replacement(self):
        spec, fleet = RaftSpec(7), _mixed_fleet(7)
        replacement = NodeModel(0.001, 0.0005)
        values = upgrade_metric_values(
            spec, fleet, replacement.p_crash, replacement.p_byzantine
        )
        for node in range(fleet.n):
            swapped = counting_reliability(spec, fleet.replace(node, replacement))
            assert values[node] == pytest.approx(swapped.safe_and_live.value, abs=1e-12)

    def test_best_single_upgrade_matches_explicit_scan(self):
        spec, fleet = RaftSpec(7), _mixed_fleet(7)
        replacement = NodeModel(0.001)
        option = best_single_upgrade(spec, fleet, replacement, metric="live")
        assert option is not None
        explicit_gains = {
            node: counting_reliability(spec, fleet.replace(node, replacement)).live.value
            - counting_reliability(spec, fleet).live.value
            for node in range(fleet.n)
            if replacement.p_fail < fleet[node].p_fail
        }
        best_node = max(explicit_gains, key=lambda u: (explicit_gains[u], -u))
        assert option.node == best_node
        assert option.gain == pytest.approx(explicit_gains[best_node], abs=1e-12)


# ---------------------------------------------------------------------------
# Bounded worst-configuration selection
# ---------------------------------------------------------------------------
class TestWorstConfigurations:
    def test_matches_full_sort(self):
        spec, fleet = RaftSpec(5), _mixed_fleet(5)
        top = worst_configurations(spec, fleet, predicate="live", limit=5)
        reference = [
            (config, probability)
            for config, probability in enumerate_configurations(fleet)
            if probability > 0.0 and not spec.is_live(config)
        ]
        reference.sort(key=lambda pair: pair[1], reverse=True)
        assert top == reference[:5]

    def test_zero_limit(self):
        spec, fleet = RaftSpec(3), uniform_fleet(3, 0.2)
        assert worst_configurations(spec, fleet, limit=0) == []


# ---------------------------------------------------------------------------
# Chunk planning boundaries
# ---------------------------------------------------------------------------
class TestChunkSizes:
    """Boundary behaviour of the per-chunk draw budget around _CHUNK_DRAWS."""

    def test_partitions_trials_exactly(self):
        from repro.analysis.kernels import _chunk_sizes

        for trials, n in ((1, 1), (999, 7), (100_000, 25), (2_000_000, 3)):
            sizes = _chunk_sizes(trials, n)
            assert sum(sizes) == trials
            assert all(size > 0 for size in sizes)

    def test_trials_below_chunk_yield_single_undersized_chunk(self):
        from repro.analysis.kernels import _CHUNK_DRAWS, _chunk_sizes

        chunk = _CHUNK_DRAWS // 50
        assert _chunk_sizes(chunk - 1, 50) == [chunk - 1]
        assert _chunk_sizes(1, 50) == [1]

    def test_exact_chunk_boundary(self):
        from repro.analysis.kernels import _CHUNK_DRAWS, _chunk_sizes

        chunk = _CHUNK_DRAWS // 50
        assert _chunk_sizes(chunk, 50) == [chunk]
        assert _chunk_sizes(chunk + 1, 50) == [chunk, 1]
        assert _chunk_sizes(3 * chunk, 50) == [chunk] * 3

    def test_huge_n_caps_chunks_at_one_trial(self):
        from repro.analysis.kernels import _CHUNK_DRAWS, _chunk_sizes

        # One trial of a fleet bigger than the draw budget already exceeds
        # the budget: the split degrades to single-trial chunks instead of
        # zero-sized ones.
        assert _chunk_sizes(3, _CHUNK_DRAWS + 1) == [1, 1, 1]
        assert _chunk_sizes(1, _CHUNK_DRAWS * 2) == [1]

    def test_budget_edge_n_equal_to_chunk_draws(self):
        from repro.analysis.kernels import _CHUNK_DRAWS, _chunk_sizes

        assert _chunk_sizes(2, _CHUNK_DRAWS) == [1, 1]
        assert _chunk_sizes(2, _CHUNK_DRAWS - 1) == [1, 1]

    def test_non_positive_trials_yield_no_chunks(self):
        from repro.analysis.kernels import _chunk_sizes

        assert _chunk_sizes(0, 5) == []
        assert _chunk_sizes(-3, 5) == []

    def test_chunked_tally_equals_single_pass(self):
        # The chunk split never changes seeded tallies: a mixed-kind fleet
        # (which still draws uniforms, unlike a one-model, one-kind fleet's
        # count histogram) over a draw budget small enough to force several
        # chunks gives the same counts as one big draw.
        from repro.analysis import kernels

        spec, fleet = RaftSpec(9), uniform_fleet(9, 0.3, byzantine_fraction=0.4)
        trials = 5000
        with mock.patch.object(kernels, "_CHUNK_DRAWS", 9 * 1600):
            assert len(kernels._chunk_sizes(trials, 9)) >= 3
            tally = kernels.monte_carlo_tally(spec, fleet, trials, as_generator(123))
        uniforms = as_generator(123).random((trials, 9))
        crash_p = np.array(fleet.crash_probabilities)
        byz_p = np.array(fleet.byzantine_probabilities)
        failed = (uniforms < crash_p).sum(axis=1)
        byz = ((uniforms >= crash_p) & (uniforms < crash_p + byz_p)).sum(axis=1)
        verdicts = [
            (spec.is_safe_counts(int(c), int(b)), spec.is_live_counts(int(c), int(b)))
            for c, b in zip(failed, byz)
        ]
        safe = sum(s for s, _ in verdicts)
        live = sum(v for _, v in verdicts)
        both = sum(s and v for s, v in verdicts)
        assert 0 < safe < trials and 0 < live < trials
        assert (tally.safe, tally.live, tally.both) == (safe, live, both)
