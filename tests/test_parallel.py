"""Sharded execution: shard planning, stream spawning, and the determinism
contracts of the multi-core layer.

The regression guarantee pinned here is **executor independence**:
sampling always draws from spawned per-shard streams, so tallies,
estimates and whole :class:`AnswerSet`s are identical with ``jobs``
unset, ``jobs=1`` and ``jobs=4``, under the serial policy and across
thread and process pools — and memo entries are shared between them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.importance import importance_sample_violation
from repro.analysis.kernels import (
    merge_tallies,
    monte_carlo_tally,
    monte_carlo_tally_sharded,
    plan_shards,
    spawn_shard_generators,
)
from repro.analysis.montecarlo import monte_carlo_reliability
from repro.engine import (
    ExecutionPolicy,
    ReliabilityEngine,
    Scenario,
    ScenarioSet,
)
from repro.errors import InvalidConfigurationError
from repro.faults.mixture import uniform_fleet
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import RaftSpec


class TestShardPlanning:
    def test_shards_sum_to_trials(self):
        for trials in (1, 4096, 50_000, 123_457, 1_000_000):
            plan = plan_shards(trials)
            assert sum(plan.shards) == trials
            assert all(s > 0 for s in plan.shards)

    def test_plan_is_independent_of_worker_count(self):
        # The plan takes no jobs parameter at all; same inputs, same plan.
        assert plan_shards(100_000) == plan_shards(100_000)

    def test_small_budgets_make_single_shard(self):
        plan = plan_shards(1000)
        assert plan.shards == (1000,)

    def test_explicit_shard_trials(self):
        plan = plan_shards(10_000, shard_trials=3000)
        assert plan.shards == (3000, 3000, 3000, 1000)

    def test_default_grain_bounds_shard_count(self):
        assert plan_shards(10_000_000).num_shards == 16

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidConfigurationError):
            plan_shards(0)
        with pytest.raises(InvalidConfigurationError):
            plan_shards(100, shard_trials=0)

    def test_spawned_generators_are_deterministic_and_distinct(self):
        a = spawn_shard_generators(7, 3)
        b = spawn_shard_generators(7, 3)
        draws_a = [rng.random(4).tolist() for rng in a]
        draws_b = [rng.random(4).tolist() for rng in b]
        assert draws_a == draws_b
        assert draws_a[0] != draws_a[1] != draws_a[2]

    def test_spawn_prefix_stability(self):
        # The first k children of a bigger spawn equal a smaller spawn's
        # children: shard streams never depend on how many shards follow.
        small = [rng.random(4).tolist() for rng in spawn_shard_generators(3, 2)]
        big = [rng.random(4).tolist() for rng in spawn_shard_generators(3, 5)]
        assert big[:2] == small

    def test_merge_tallies_sums_fields(self):
        spec, fleet = RaftSpec(3), uniform_fleet(3, 0.1)
        rng = np.random.default_rng(0)
        parts = [monte_carlo_tally(spec, fleet, 500, rng) for _ in range(3)]
        merged = merge_tallies(parts)
        assert merged.trials == 1500
        assert merged.safe == sum(p.safe for p in parts)
        assert merged.both == sum(p.both for p in parts)


class TestShardDeterminism:
    """jobs unset vs jobs=1 vs jobs=4 identical, on every pool."""

    SPEC = RaftSpec(7)
    FLEET = uniform_fleet(7, 0.05)

    def test_tally_identical_across_jobs_and_pools(self):
        reference, plan = monte_carlo_tally_sharded(
            self.SPEC, self.FLEET, 30_000, 42, jobs=1, mode="serial"
        )
        assert plan.num_shards > 1  # the contract below is non-trivial
        for jobs, mode in ((4, "thread"), (2, "thread"), (4, "process")):
            tally, other_plan = monte_carlo_tally_sharded(
                self.SPEC, self.FLEET, 30_000, 42, jobs=jobs, mode=mode
            )
            assert tally == reference
            assert other_plan == plan

    def test_reliability_identical_across_jobs(self):
        one = monte_carlo_reliability(
            self.SPEC, self.FLEET, trials=30_000, seed=42, jobs=1, pool="serial"
        )
        four_t = monte_carlo_reliability(
            self.SPEC, self.FLEET, trials=30_000, seed=42, jobs=4, pool="thread"
        )
        four_p = monte_carlo_reliability(
            self.SPEC, self.FLEET, trials=30_000, seed=42, jobs=4, pool="process"
        )
        assert one == four_t == four_p

    def test_legacy_results_byte_identical_when_jobs_unset(self):
        """The pre-``jobs`` call form answers exactly what ``jobs=N`` does."""
        unset = monte_carlo_reliability(self.SPEC, self.FLEET, trials=20_000, seed=9)
        jobs_one = monte_carlo_reliability(
            self.SPEC, self.FLEET, trials=20_000, seed=9, jobs=1
        )
        jobs_two = monte_carlo_reliability(
            self.SPEC, self.FLEET, trials=20_000, seed=9, jobs=2, pool="thread"
        )
        assert unset == jobs_one == jobs_two
        # ... and all match per-shard kernel tallies over the spawned streams.
        plan = plan_shards(20_000)
        tally = merge_tallies(
            [
                monte_carlo_tally(self.SPEC, self.FLEET, shard, rng)
                for shard, rng in zip(
                    plan.shards, spawn_shard_generators(9, plan.num_shards)
                )
            ]
        )
        assert unset.safe.value == tally.safe / 20_000
        assert unset.safe_and_live.value == tally.both / 20_000
        assert f"{plan.num_shards} spawned-stream shards" in unset.detail

    def test_importance_identical_across_jobs(self):
        kwargs = dict(predicate="live", trials=12_000, seed=3)
        one = importance_sample_violation(
            self.SPEC, self.FLEET, jobs=1, pool="serial", **kwargs
        )
        four = importance_sample_violation(
            self.SPEC, self.FLEET, jobs=4, pool="thread", **kwargs
        )
        assert one == four
        assert one.shards > 1

    def test_importance_legacy_unchanged_when_jobs_unset(self):
        kwargs = dict(predicate="live", trials=12_000, seed=3)
        a = importance_sample_violation(self.SPEC, self.FLEET, **kwargs)
        b = importance_sample_violation(self.SPEC, self.FLEET, jobs=1, **kwargs)
        c = importance_sample_violation(
            self.SPEC, self.FLEET, jobs=2, pool="thread", **kwargs
        )
        assert a == b == c
        assert a.shards == plan_shards(12_000).num_shards


def _mixed_scenarios() -> ScenarioSet:
    scenarios = []
    for n in (3, 5, 7):
        for p in (0.01, 0.05):
            scenarios.append(Scenario(spec=RaftSpec(n), fleet=uniform_fleet(n, p)))
            scenarios.append(
                Scenario(spec=PBFTSpec(n), fleet=uniform_fleet(n, p, byzantine_fraction=1.0))
            )
            scenarios.append(
                Scenario(
                    spec=RaftSpec(n),
                    fleet=uniform_fleet(n, p),
                    method="monte-carlo",
                    trials=20_000,
                    seed=n * 100 + 1,
                )
            )
    scenarios.append(
        Scenario(
            spec=RaftSpec(5),
            fleet=uniform_fleet(5, 0.05),
            method="importance",
            trials=8_000,
            seed=77,
        )
    )
    return ScenarioSet.build(scenarios)


class TestEnginePolicy:
    def test_engine_result_identical_jobs1_vs_jobs4(self):
        scenarios = _mixed_scenarios()
        one = ReliabilityEngine().run(scenarios, policy=ExecutionPolicy(mode="thread", jobs=1))
        four = ReliabilityEngine().run(scenarios, policy=ExecutionPolicy(mode="thread", jobs=4))
        proc = ReliabilityEngine().run(scenarios, policy=ExecutionPolicy(mode="process", jobs=4))
        assert one.values == four.values == proc.values

    def test_legacy_engine_result_byte_identical_when_policy_unset(self):
        scenarios = _mixed_scenarios()
        baseline = ReliabilityEngine().run(scenarios)
        serial = ReliabilityEngine().run(scenarios, policy=ExecutionPolicy())
        threaded = ReliabilityEngine().run(
            scenarios, policy=ExecutionPolicy(mode="thread", jobs=4)
        )
        assert baseline.values == serial.values == threaded.values
        # Provenance is a function of the shard plan, not of the executor.
        for ours, theirs in zip(baseline, threaded):
            assert ours.provenance.shards == theirs.provenance.shards

    def test_exact_values_unchanged_under_parallel_policy(self):
        scenarios = _mixed_scenarios()
        serial = ReliabilityEngine().run(scenarios)
        parallel = ReliabilityEngine().run(
            scenarios, policy=ExecutionPolicy(mode="thread", jobs=4)
        )
        for s, p in zip(serial, parallel):
            if p.provenance.estimator in ("counting", "exact"):
                assert s.value == p.value

    def test_provenance_records_shard_count(self):
        outcome = ReliabilityEngine().run_query(
            Scenario(
                spec=RaftSpec(5),
                fleet=uniform_fleet(5, 0.05),
                method="monte-carlo",
                trials=30_000,
                seed=1,
            ),
            policy=ExecutionPolicy(mode="thread", jobs=2),
        )
        assert outcome.provenance.shards == 8  # 30000 / 4096-trial shards
        assert "shards[8]" in outcome.provenance.describe()

    def test_policy_and_legacy_cache_entries_do_not_collide(self):
        """Seeded sampling entries are keyed by the shard plan alone: the
        executor shares them, a different ``shard_trials`` does not."""
        engine = ReliabilityEngine()
        scenario = Scenario(
            spec=RaftSpec(5),
            fleet=uniform_fleet(5, 0.05),
            method="monte-carlo",
            trials=20_000,
            seed=4,
        )
        serial = engine.run_query(scenario)
        assert not serial.provenance.cache_hit
        threaded = engine.run_query(
            scenario, policy=ExecutionPolicy(mode="thread", jobs=2)
        )
        assert threaded.provenance.cache_hit
        assert threaded.value == serial.value
        resharded = engine.run_query(
            scenario, policy=ExecutionPolicy(mode="thread", jobs=2, shard_trials=5_000)
        )
        assert not resharded.provenance.cache_hit
        assert resharded.value != serial.value
        again = engine.run_query(scenario, policy=ExecutionPolicy(shard_trials=5_000))
        assert again.provenance.cache_hit and again.value == resharded.value

    def test_policy_validation(self):
        with pytest.raises(InvalidConfigurationError):
            ExecutionPolicy(mode="serial", jobs=2)
        with pytest.raises(InvalidConfigurationError):
            ExecutionPolicy(mode="warp", jobs=2)
        with pytest.raises(InvalidConfigurationError):
            ExecutionPolicy(mode="thread", jobs=0)
        with pytest.raises(InvalidConfigurationError):
            ExecutionPolicy(mode="thread", jobs=2, shard_trials=0)

    def test_from_jobs(self):
        assert not ExecutionPolicy.from_jobs(None).parallel
        assert not ExecutionPolicy.from_jobs(0).parallel
        one = ExecutionPolicy.from_jobs(1)
        assert one.parallel and one.jobs == 1
        policy = ExecutionPolicy.from_jobs(3)
        assert policy.mode == "process" and policy.jobs == 3
        negative = ExecutionPolicy.from_jobs(-1)
        assert negative.jobs >= 1 and negative.parallel

    def test_engine_default_policy_constructor(self):
        scenarios = _mixed_scenarios()
        engine = ReliabilityEngine(policy=ExecutionPolicy(mode="thread", jobs=4))
        baseline = ReliabilityEngine().run(
            scenarios, policy=ExecutionPolicy(mode="thread", jobs=1)
        )
        assert engine.run(scenarios).values == baseline.values

    def test_generator_seed_scenarios_run_deterministically_in_order(self):
        def build(policy):
            rng = np.random.default_rng(123)
            scenarios = [
                Scenario(
                    spec=RaftSpec(3),
                    fleet=uniform_fleet(3, 0.05),
                    method="monte-carlo",
                    trials=5_000,
                    seed=rng,
                    label=f"g{i}",
                )
                for i in range(3)
            ]
            return ReliabilityEngine().run(scenarios, policy=policy).values

        one = build(ExecutionPolicy(mode="thread", jobs=1))
        four = build(ExecutionPolicy(mode="thread", jobs=4))
        assert one == four
