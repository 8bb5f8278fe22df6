"""Tests for the Scenario/Engine API (repro.engine).

The contract under test: the engine is a *planner*, never a different
estimator — whatever execution plan it picks (shared DP sweep, memo
cache, per-scenario fallback), every ``ReliabilityResult`` must be
bit-identical to calling the scalar estimators directly.
"""

from __future__ import annotations

import json
import threading
import types
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.config import FaultKind
from repro.analysis.counting import counting_reliability
from repro.analysis.exact import exact_reliability
from repro.analysis.montecarlo import monte_carlo_reliability
from repro.analysis.result import ReliabilityResult
from repro.engine import (
    Answer,
    AvailabilityQuery,
    ExecutionPolicy,
    MTTFQuery,
    Provenance,
    Query,
    QuerySet,
    ReliabilityEngine,
    Scenario,
    ScenarioSet,
    SimulationQuery,
    default_engine,
)
from repro.engine import registry
from repro.engine.registry import ESTIMATORS, get_backend, get_estimator, register_backend
from repro.engine.scenario import METHODS
from repro.errors import (
    EstimationError,
    InvalidConfigurationError,
    InvalidProbabilityError,
)
from repro.faults.correlation import (
    BetaBinomialContagion,
    CommonShockModel,
    rollout_shock,
)
from repro.faults.mixture import Fleet, NodeModel, byzantine_fleet, uniform_fleet
from repro.protocols.benor import BenOrSpec, ByzantineBenOrSpec
from repro.protocols.hybrid import UprightSpec
from repro.protocols.pbft import PBFTSpec
from repro.protocols.raft import FlexibleRaftSpec, RaftSpec
from repro.protocols.reliability_aware import ReliabilityAwareRaftSpec


def _mixed_fleet(n: int) -> Fleet:
    return Fleet(
        tuple(
            NodeModel(p_crash=0.02 + 0.01 * (i % 4), p_byzantine=0.003 * (i % 3))
            for i in range(n)
        )
    )


#: (spec, fleet) pairs across the protocol zoo, symmetric and not.
ZOO = [
    (RaftSpec(3), uniform_fleet(3, 0.01)),
    (RaftSpec(7), _mixed_fleet(7)),
    (FlexibleRaftSpec(5, 2, 4), uniform_fleet(5, 0.05)),
    (PBFTSpec(4), uniform_fleet(4, 0.01, byzantine_fraction=1.0)),
    (PBFTSpec(7), _mixed_fleet(7)),
    (BenOrSpec(7), uniform_fleet(7, 0.05)),
    (ByzantineBenOrSpec(11), _mixed_fleet(11)),
    (UprightSpec(2, 1), _mixed_fleet(6)),
    (ReliabilityAwareRaftSpec(6, pinned=(0, 1)), _mixed_fleet(6)),
]


def _scalar(spec, fleet, method, *, trials=100_000, seed=None) -> ReliabilityResult:
    """What a stock ``method`` row must equal: the scalar estimator itself."""
    if method == "counting":
        return counting_reliability(spec, fleet)
    if method == "exact":
        return exact_reliability(spec, fleet)
    assert method == "monte-carlo", method
    return monte_carlo_reliability(spec, fleet, trials=trials, seed=seed)


class TestEquivalence:
    @pytest.mark.parametrize("spec,fleet", ZOO, ids=lambda v: repr(v))
    def test_run_one_matches_analyze(self, spec, fleet):
        """An ``auto`` row of the zoo is the counting DP for symmetric specs
        and enumeration otherwise (every zoo fleet is far below
        ``EXACT_BUDGET``), bit for bit."""
        method = "counting" if spec.symmetric else "exact"
        engine = ReliabilityEngine()
        answer = engine.run_query(Scenario(spec=spec, fleet=fleet, seed=11))
        assert answer.provenance.estimator == method
        assert answer.value == _scalar(spec, fleet, method)

    def test_batched_counting_bit_identical_to_analyze(self):
        """Mixed-protocol grid: shared DP sweeps, full dataclass equality."""
        grid = ScenarioSet.grid(
            protocols=("raft", "pbft"),
            sizes=(3, 5, 7),
            probabilities=(0.01, 0.02, 0.08),
        )
        engine = ReliabilityEngine()
        results = engine.run(grid).values
        scalar = [counting_reliability(s.spec, s.fleet) for s in grid]
        assert results == scalar  # Estimate values, method and detail alike

    def test_grid_cell_shares_one_fleet_object_per_distinct_fleet(self):
        """The crash-only specs of a cell hold one fleet object; PBFT's
        Byzantine fleet is its own, and equal fleets stay equal."""
        grid = ScenarioSet.grid(
            protocols=("raft", "benor", "byz-benor", "pbft"),
            sizes=(5, 7),
            probabilities=(0.01, 0.02),
        )
        for cell in range(0, len(grid), 4):
            raft, benor, byz_benor, pbft = grid.scenarios[cell : cell + 4]
            assert raft.fleet is benor.fleet is byz_benor.fleet
            assert pbft.fleet is not raft.fleet
            assert raft.fleet == uniform_fleet(raft.spec.n, raft.fleet[0].p_crash)
            assert pbft.fleet == byzantine_fleet(pbft.spec.n, pbft.fleet[0].p_byzantine)
        assert grid[0].fleet is not grid[4].fleet  # one object per cell
        mixed = ScenarioSet.grid(
            protocols=("raft", "pbft"), sizes=(5,), byzantine_fraction=0.5
        )
        assert mixed[0].fleet is mixed[1].fleet

    def test_multi_spec_same_n_share_one_batch(self):
        """Raft and PBFT scenarios of one size land in the same DP group."""
        fleet_a = uniform_fleet(5, 0.03)
        fleet_b = uniform_fleet(5, 0.04, byzantine_fraction=1.0)
        answers = ReliabilityEngine().run(
            [
                Scenario(spec=RaftSpec(5), fleet=fleet_a),
                Scenario(spec=PBFTSpec(5), fleet=fleet_b),
                Scenario(spec=BenOrSpec(5), fleet=fleet_a),
            ]
        )
        assert all(o.provenance.batched for o in answers)
        assert all(o.provenance.batch_size == 3 for o in answers)
        for answer in answers:
            assert answer.value == counting_reliability(
                answer.scenario.spec, answer.scenario.fleet
            )

    def test_default_engine_batch_matches_fresh_engine(self):
        spec = RaftSpec(5)
        fleets = [uniform_fleet(5, p) for p in (0.01, 0.02, 0.05)]
        scenarios = [Scenario(spec=spec, fleet=fleet) for fleet in fleets]
        batch = default_engine().run(scenarios).values
        assert batch == ReliabilityEngine().run(scenarios).values
        assert batch == [counting_reliability(spec, fleet) for fleet in fleets]

    def test_explicit_methods_match_legacy(self, mixed_fleet):
        spec = RaftSpec(7)
        for method in ("counting", "exact", "monte-carlo"):
            answer = ReliabilityEngine().run_query(
                Scenario(spec=spec, fleet=mixed_fleet, method=method, trials=4_000, seed=5)
            )
            assert answer.value == _scalar(spec, mixed_fleet, method, trials=4_000, seed=5)

    def test_correlated_scenario_matches_legacy(self):
        from repro.analysis.montecarlo import monte_carlo_correlated

        fleet = uniform_fleet(5, 0.05)
        model = CommonShockModel(fleet, (rollout_shock(fleet, 0.02),))
        spec = RaftSpec(5)
        answer = ReliabilityEngine().run_query(
            Scenario(spec=spec, fleet=fleet, correlation=model, trials=6_000, seed=2)
        )
        assert answer.value == monte_carlo_correlated(spec, model, trials=6_000, seed=2)
        assert answer.provenance.estimator == "monte-carlo"

    @pytest.mark.parametrize("method", ["counting", "exact", "importance"])
    def test_correlation_refused_by_independent_only_estimators(self, method):
        """These estimators model independent failures.  Handed a contagion
        model they used to answer S&L 0.99144 — the independent-failure
        answer — where Monte-Carlo over the model reads 0.95745."""
        with pytest.raises(InvalidConfigurationError, match="correlation model"):
            Scenario(
                spec=RaftSpec(5),
                fleet=uniform_fleet(5, 0.1),
                method=method,
                correlation=BetaBinomialContagion(5, 0.5, 4.5),
            )

    @pytest.mark.parametrize("method", ["auto", "monte-carlo"])
    def test_correlation_kept_where_it_can_be_honoured(self, method):
        model = BetaBinomialContagion(5, 0.5, 4.5)
        scenario = Scenario(
            RaftSpec(5), uniform_fleet(5, 0.1), method=method, correlation=model
        )
        assert scenario.correlation is model

    def test_unknown_method_raises_like_analyze(self, small_cft_fleet):
        with pytest.raises(EstimationError):
            ReliabilityEngine().run_query(
                Scenario(spec=RaftSpec(3), fleet=small_cft_fleet, method="fnord")
            )

    def test_counting_on_asymmetric_raises_like_legacy(self):
        spec, fleet = ReliabilityAwareRaftSpec(6, pinned=(0, 1)), _mixed_fleet(6)
        with pytest.raises(InvalidConfigurationError):
            ReliabilityEngine().run_query(
                Scenario(spec=spec, fleet=fleet, method="counting")
            )

    def test_size_mismatch_raises(self):
        with pytest.raises(InvalidConfigurationError):
            ReliabilityEngine().run_query(
                Scenario(spec=RaftSpec(5), fleet=uniform_fleet(3, 0.01))
            )


class TestCache:
    def test_repeat_run_hits_cache(self):
        engine = ReliabilityEngine()
        scenario = Scenario(spec=RaftSpec(5), fleet=uniform_fleet(5, 0.02))
        first = engine.run_query(scenario)
        second = engine.run_query(scenario)
        assert not first.provenance.cache_hit
        assert second.provenance.cache_hit
        assert first.value == second.value

    def test_in_run_duplicates_answered_once(self):
        engine = ReliabilityEngine()
        scenario = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01))
        answers = engine.run([scenario, scenario, scenario])
        assert [o.provenance.cache_hit for o in answers] == [False, True, True]
        assert len({id(o.value) for o in answers} ) == 1
        # Counter hygiene: duplicates are hits, never negative misses.
        assert engine.cache_hits == 2
        assert engine.cache_misses == 1

    def test_generator_seed_never_cached(self):
        """Generator seeds are stateful: every run must advance the parent."""
        import numpy as np

        engine = ReliabilityEngine()
        spec, fleet = ReliabilityAwareRaftSpec(6, pinned=(0, 1)), _mixed_fleet(6)
        rng = np.random.default_rng(7)
        scenario = Scenario(
            spec=spec, fleet=fleet, method="monte-carlo", trials=400, seed=rng
        )
        first = engine.run_query(scenario)
        spawned = rng.bit_generator.seed_seq.n_children_spawned
        second = engine.run_query(scenario)
        assert not second.provenance.cache_hit
        # The second run spawned fresh shard streams off the shared parent,
        # so back-to-back runs on one generator draw different samples.
        assert rng.bit_generator.seed_seq.n_children_spawned > spawned
        assert second.value != first.value
        assert first.value == monte_carlo_reliability(
            spec, fleet, trials=400, seed=np.random.default_rng(7)
        )

    def test_equal_specs_share_cache_entries(self):
        """Two distinct spec instances with equal parameters dedup."""
        engine = ReliabilityEngine()
        fleet = uniform_fleet(5, 0.02)
        engine.run_query(Scenario(spec=RaftSpec(5), fleet=fleet))
        hit = engine.run_query(Scenario(spec=RaftSpec(5), fleet=fleet))
        assert hit.provenance.cache_hit

    def test_different_quorums_do_not_collide(self):
        engine = ReliabilityEngine()
        fleet = uniform_fleet(5, 0.1)
        default = engine.run_query(Scenario(spec=RaftSpec(5), fleet=fleet))
        flexible = engine.run_query(
            Scenario(spec=RaftSpec(5, q_per=2, q_vc=4), fleet=fleet)
        )
        assert not flexible.provenance.cache_hit
        assert flexible.value.live.value != default.value.live.value

    def test_unseeded_monte_carlo_never_cached(self):
        engine = ReliabilityEngine()
        spec, fleet = ReliabilityAwareRaftSpec(6, pinned=(0, 1)), _mixed_fleet(6)
        scenario = Scenario(spec=spec, fleet=fleet, method="monte-carlo", trials=500)
        assert not engine.run_query(scenario).provenance.cache_hit
        assert not engine.run_query(scenario).provenance.cache_hit

    def test_seeded_monte_carlo_cached(self):
        engine = ReliabilityEngine()
        spec, fleet = ReliabilityAwareRaftSpec(6, pinned=(0, 1)), _mixed_fleet(6)
        scenario = Scenario(spec=spec, fleet=fleet, method="monte-carlo", trials=500, seed=9)
        engine.run_query(scenario)
        assert engine.run_query(scenario).provenance.cache_hit

    def test_cache_bound_evicts_lru(self):
        engine = ReliabilityEngine(cache_size=2)
        fleets = [uniform_fleet(3, p) for p in (0.01, 0.02, 0.03)]
        for fleet in fleets:
            engine.run_query(Scenario(spec=RaftSpec(3), fleet=fleet))
        # Oldest entry evicted; newest two still cached.
        assert not engine.run_query(
            Scenario(spec=RaftSpec(3), fleet=fleets[0])
        ).provenance.cache_hit
        assert engine.run_query(
            Scenario(spec=RaftSpec(3), fleet=fleets[2])
        ).provenance.cache_hit

    def test_memo_key_is_scenario_cache_key(self):
        """A reliability row is stored under ``Scenario.cache_key`` — the
        method the cache-key-coverage contract lints — plus, when sampling,
        ``shard_trials``; no reliability, Markov or simulation key holds a
        function object."""
        engine = ReliabilityEngine()
        exact = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01))
        sampled = Scenario(
            spec=RaftSpec(5),
            fleet=uniform_fleet(5, 0.05),
            method="monte-carlo",
            trials=500,
            seed=9,
        )
        markov = dict(failure_rate_per_hour=0.1, repair_rate_per_hour=1.0)
        rows = [
            exact,
            sampled,
            AvailabilityQuery(exact, **markov),
            MTTFQuery(exact, **markov),
            SimulationQuery(replace(exact, seed=3), replicas=2, duration=2.0),
        ]
        engine.run(rows, policy=ExecutionPolicy(shard_trials=250))
        assert exact.cache_key("counting") in engine._memo
        assert sampled.cache_key("monte-carlo") + (250,) in engine._memo
        assert len(engine._memo) == len(rows)
        for key in engine._memo:
            assert not any(isinstance(part, types.FunctionType) for part in key), key

    def test_cache_clear(self):
        engine = ReliabilityEngine()
        scenario = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01))
        engine.run_query(scenario)
        engine.cache_clear()
        assert not engine.run_query(scenario).provenance.cache_hit


@dataclass(frozen=True)
class _EchoQuery(Query):
    """A third-party kind: it says what makes two questions the same and
    nothing else about caching."""

    kind: ClassVar[str] = "test-echo"
    factor: int = 1

    def cache_key(self, shard_trials):
        return (self.kind, self.scenario.fleet_key(), self.factor)


def _recording(engine, kind, *, degraded=(), delegate=False):
    """Install a backend for ``kind`` that records each batch it is given.

    It never mentions the memo.  ``delegate`` answers through the built-in
    backend; otherwise every row gets a stub value, ``degraded`` for the
    calls (by ordinal) listed.
    """
    batches: list[list] = []

    def backend(queries, policy):
        batches.append(list(queries))
        if delegate:
            return get_backend(kind)(queries, policy)
        flag = len(batches) - 1 in degraded
        return [
            Answer(q, ("stub", len(batches)), Provenance("stub", backend=kind, degraded=flag))
            for q in queries
        ]

    engine.register_backend(kind, backend)
    return batches


class TestMemoSeam:
    """Backends compute, the engine remembers: probe, in-batch dedup, hit
    provenance and store live in ``ReliabilityEngine.run`` for every kind."""

    def test_third_party_kind_is_memoised_for_free(self):
        engine = ReliabilityEngine()
        batches = _recording(engine, "test-echo")
        query = _EchoQuery(Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01)))
        first = engine.run_query(query)
        second = engine.run_query(query)
        assert len(batches) == 1
        assert not first.provenance.cache_hit
        assert second.provenance.cache_hit
        assert second.value == first.value
        assert second.provenance.estimator == first.provenance.estimator == "stub"
        assert second.provenance.describe() == "test-echo:stub/cache"
        # A different question of the same kind is a different entry.
        engine.run_query(_EchoQuery(query.scenario, factor=2))
        assert len(batches) == 2
        assert (engine.cache_hits, engine.cache_misses) == (1, 2)

    def test_identical_markov_rows_in_one_batch_compute_once(self):
        engine = ReliabilityEngine()
        batches = _recording(engine, "availability", delegate=True)
        query = AvailabilityQuery.from_afr(
            Scenario(spec=RaftSpec(5), fleet=uniform_fleet(5, 0.01)),
            afr=0.08,
            mttr_hours=24.0,
        )
        answers = engine.run([query, query])
        assert [len(batch) for batch in batches] == [1]
        assert [a.provenance.cache_hit for a in answers] == [False, True]
        assert answers[0].value is answers[1].value
        assert (engine.cache_hits, engine.cache_misses) == (1, 1)
        # batch_size counts rows computed, not rows submitted.
        assert answers[0].provenance.describe() == "availability:ctmc/solo"

    def test_degraded_answer_is_returned_but_never_stored(self):
        engine = ReliabilityEngine()
        batches = _recording(engine, "test-echo", degraded={0})
        query = _EchoQuery(Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01)))
        partial = engine.run_query(query)
        assert partial.provenance.degraded and not partial.provenance.cache_hit
        assert engine.cache_info()["size"] == 0
        complete = engine.run_query(query)  # recomputed, not the partial view
        assert len(batches) == 2
        assert not complete.provenance.degraded and not complete.provenance.cache_hit
        assert complete.value != partial.value
        served = engine.run_query(query)  # the complete answer was stored
        assert len(batches) == 2
        assert served.provenance.cache_hit and served.value == complete.value

    def test_rows_without_a_key_each_reach_the_backend(self):
        class Unhashable(CommonShockModel):
            __hash__ = None

        engine = ReliabilityEngine()
        reliability = _recording(engine, "reliability")
        simulation = _recording(engine, "simulation")
        spec, fleet = RaftSpec(3), uniform_fleet(3, 0.05)
        unseeded = Scenario(spec=spec, fleet=fleet, method="monte-carlo", trials=10)
        stateful = Scenario(
            spec=spec, fleet=fleet, method="monte-carlo", trials=10,
            seed=np.random.default_rng(3),
        )
        campaign = SimulationQuery(
            Scenario(
                spec=spec, fleet=fleet, seed=7,
                correlation=Unhashable(fleet, (rollout_shock(fleet, 0.5),)),
            ),
            replicas=2,
            duration=4.0,
        )
        answers = engine.run([unseeded, unseeded, stateful, stateful, campaign, campaign])
        assert [len(batch) for batch in reliability] == [4]
        assert [len(batch) for batch in simulation] == [2]
        assert not any(a.provenance.cache_hit for a in answers)
        assert (engine.cache_hits, engine.cache_misses) == (0, 6)
        assert engine.cache_info()["size"] == 0

    def test_disabled_memo_still_dedups_inside_one_run(self):
        engine = ReliabilityEngine(cache_size=0)
        batches = _recording(engine, "reliability", delegate=True)
        scenario = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01))
        answers = engine.run([scenario, scenario])
        assert [len(batch) for batch in batches] == [1]
        assert [a.provenance.cache_hit for a in answers] == [False, True]
        assert answers[1].value is answers[0].value
        # ...and nothing outlives the run.
        assert not engine.run_query(scenario).provenance.cache_hit
        assert [len(batch) for batch in batches] == [1, 1]

    def test_duplicate_counts_a_hit_when_its_first_row_is_not_stored(self):
        scenario = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01))
        disabled = ReliabilityEngine(cache_size=0)
        answers = disabled.run([scenario, scenario])
        assert [a.provenance.cache_hit for a in answers] == [False, True]
        assert (disabled.cache_hits, disabled.cache_misses) == (1, 1)
        # The batch itself evicts the first row before its duplicate.
        a, b, c = (
            Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, p)) for p in (0.01, 0.02, 0.03)
        )
        small = ReliabilityEngine(cache_size=2)
        answers = small.run([a, b, c, a])
        assert [x.provenance.cache_hit for x in answers] == [False, False, False, True]
        assert (small.cache_hits, small.cache_misses) == (1, 3)
        assert list(small._memo) == [x.cache_key("counting") for x in (b, c)]
        # A degraded first row is never stored; its duplicate still hits.
        engine = ReliabilityEngine()
        _recording(engine, "test-echo", degraded={0})
        query = _EchoQuery(a)
        answers = engine.run([query, query])
        assert [x.provenance.cache_hit for x in answers] == [False, True]
        assert (engine.cache_hits, engine.cache_misses) == (1, 1)
        assert engine.cache_info()["size"] == 0

    def test_one_run_probes_and_stores_under_one_lock_each(self):
        class CountingLock:
            def __init__(self):
                self.inner, self.acquired = threading.RLock(), 0

            def __enter__(self):
                self.acquired += 1
                return self.inner.__enter__()

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        engine = ReliabilityEngine()
        engine._lock = lock = CountingLock()
        rows = [
            Scenario(spec=spec, fleet=uniform_fleet(5, p))
            for spec in (RaftSpec(5), BenOrSpec(5))
            for p in (0.01, 0.02, 0.03)
        ]
        engine.run(rows + rows[:2])
        assert lock.acquired == 2
        assert (engine.cache_hits, engine.cache_misses) == (2, 6)

    def test_backend_override_drops_what_the_old_backend_answered(self):
        engine = ReliabilityEngine()
        scenario = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01))
        builtin = engine.run_query(scenario)
        _recording(engine, "reliability")
        replaced = engine.run_query(scenario)
        assert not replaced.provenance.cache_hit
        assert replaced.value != builtin.value


@dataclass(frozen=True)
class _UnkeyedEcho(_EchoQuery):
    """A row of the echo kind whose answer is never reusable."""

    def cache_key(self, shard_trials):
        return None


def _memo_reference(cache_size, runs, degraded_calls):
    """The documented memo contract replayed on plain keys.

    Per run, each row in submission order is a memo hit (recency
    refreshed), a duplicate of an earlier miss of the same run, or a miss.
    One backend call takes the misses; their answers are stored, oldest
    evicted past ``cache_size``, unless the key is ``None`` or the call
    was degraded.  Then every duplicate counts a hit and refreshes its
    recency if its key is stored.  Returns hits, misses, the memo's key
    order and each run's per-row ``cache_hit`` flags.
    """
    memo, hits, misses, calls, flags = OrderedDict(), 0, 0, 0, []
    for keys in runs:
        firsts, duplicates, run_flags = [], [], []
        for key in keys:
            if key is not None and key in memo:
                memo.move_to_end(key)
                hits += 1
            elif key is not None and key in firsts:
                duplicates.append(key)
            else:
                firsts.append(key)
                misses += 1
                run_flags.append(False)
                continue
            run_flags.append(True)
        flags.append(run_flags)
        if firsts:
            stored = calls not in degraded_calls and cache_size > 0
            calls += 1
            for key in firsts:
                if key is not None and stored:
                    memo[key] = True
                    while len(memo) > cache_size:
                        memo.popitem(last=False)
        for key in duplicates:
            hits += 1
            if key in memo:
                memo.move_to_end(key)
    return hits, misses, list(memo), flags


class TestMemoContract:
    """One property over random batches: counts, LRU order and per-row
    ``cache_hit`` equal a small model of the documented contract."""

    POOL = [
        _EchoQuery(Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, p)), factor=factor)
        for p in (0.01, 0.02)
        for factor in (1, 2)
    ] + [_UnkeyedEcho(Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01)))]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        cache_size=st.sampled_from([0, 1, 2, 1024]),
        runs=st.lists(
            st.lists(st.integers(0, len(POOL) - 1), max_size=8), min_size=1, max_size=4
        ),
        degraded=st.sets(st.integers(0, 3)),
    )
    def test_memo_matches_the_reference_model(self, cache_size, runs, degraded):
        engine = ReliabilityEngine(cache_size=cache_size)
        _recording(engine, "test-echo", degraded=degraded)
        flags = []
        for rows in runs:
            answers = engine.run([self.POOL[i] for i in rows])
            flags.append([answer.provenance.cache_hit for answer in answers])
        keys = [[self.POOL[i].cache_key(None) for i in rows] for rows in runs]
        expected = _memo_reference(cache_size, keys, degraded)
        assert (engine.cache_hits, engine.cache_misses, list(engine._memo), flags) == expected
        assert engine.cache_hits + engine.cache_misses == sum(map(len, runs))


class TestRecall:
    """``answer_inline``'s memo side: a hit is ``run``'s hit, a declined
    miss is silent, and the ``run`` that follows counts it.  Every miss
    here is one ``answer_inline`` declines — past ``INLINE_MAX_N``,
    sampled, or under a backend override — so the probe is seen alone."""

    def test_hit_is_the_answer_run_gives_and_counts_one_hit(self):
        engine = ReliabilityEngine()
        scenario = Scenario(spec=RaftSpec(5), fleet=uniform_fleet(5, 0.02))
        computed = engine.run_query(scenario)
        recalled = engine.answer_inline(scenario)
        assert (engine.cache_hits, engine.cache_misses) == (1, 1)
        assert recalled.value is computed.value
        assert recalled.provenance.cache_hit
        again = engine.run_query(scenario)
        assert recalled.to_dict() == again.to_dict()
        assert recalled.provenance == again.provenance

    def test_miss_counts_nothing_and_the_run_after_it_counts_one_miss(self):
        engine = ReliabilityEngine()
        batches = _recording(engine, "reliability", delegate=True)
        scenario = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01))
        assert engine.answer_inline(scenario) is None
        assert engine.answer_inline(scenario) is None
        assert (engine.cache_hits, engine.cache_misses) == (0, 0)
        assert batches == []  # never computes
        engine.run_query(scenario)
        assert (engine.cache_hits, engine.cache_misses) == (0, 1)

    def test_recall_refreshes_recency(self):
        engine = ReliabilityEngine(cache_size=2)
        old, neighbour, newcomer = (
            Scenario(spec=RaftSpec(33), fleet=uniform_fleet(33, p))
            for p in (0.01, 0.02, 0.03)
        )
        engine.run([old, neighbour])
        assert engine.answer_inline(old) is not None  # now younger than its neighbour
        engine.run_query(newcomer)  # evicts the least recently used entry
        assert engine.answer_inline(old) is not None
        assert engine.answer_inline(neighbour) is None

    def test_policy_shard_trials_is_part_of_the_key(self):
        engine = ReliabilityEngine()
        sampled = Scenario(
            spec=RaftSpec(5), fleet=uniform_fleet(5, 0.05),
            method="monte-carlo", trials=500, seed=9,
        )
        engine.run_query(sampled, policy=ExecutionPolicy(shard_trials=250))
        assert engine.answer_inline(sampled, ExecutionPolicy(shard_trials=100)) is None
        assert engine.answer_inline(sampled, ExecutionPolicy(shard_trials=250)) is not None

    def test_rows_that_are_never_stored_are_never_recalled(self):
        spec, fleet = RaftSpec(33), uniform_fleet(33, 0.05)
        unseeded = Scenario(spec=spec, fleet=fleet, method="monte-carlo", trials=10)
        engine = ReliabilityEngine()
        engine.run_query(unseeded)  # key=None
        assert engine.answer_inline(unseeded) is None

        disabled = ReliabilityEngine(cache_size=0)
        scenario = Scenario(spec=spec, fleet=fleet)
        disabled.run_query(scenario)
        assert disabled.answer_inline(scenario) is None

        partial = ReliabilityEngine()
        _recording(partial, "test-echo", degraded={0})
        query = _EchoQuery(scenario)
        assert partial.run_query(query).provenance.degraded
        assert partial.answer_inline(query) is None

        for probe in (engine, disabled, partial):
            assert probe.cache_hits == 0

    def test_backend_override_drops_what_recall_could_have_served(self):
        engine = ReliabilityEngine()
        scenario = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01))
        engine.run_query(scenario)
        _recording(engine, "reliability")
        assert engine.answer_inline(scenario) is None


class TestAnswerInline:
    """On a miss ``answer_inline`` computes the row itself when its work is
    bounded: stock counting / exact estimator or Markov backend, no
    override, ``n`` within ``INLINE_MAX_N``.  Inside the bound it is
    exactly ``run``; outside it is a declined miss (``TestRecall``)."""

    @staticmethod
    def row(name, n):
        if name in ("counting", "exact"):
            return Scenario(spec=RaftSpec(n), fleet=uniform_fleet(n, 0.03), method=name)
        query_cls = AvailabilityQuery if name == "availability" else MTTFQuery
        return query_cls.for_cluster(n, afr=0.08, mttr_hours=24.0)

    LIMITS = [("counting", 32), ("exact", 8), ("availability", 32), ("mttf", 32)]

    @pytest.mark.parametrize("name, n", LIMITS)
    def test_a_miss_inside_the_bound_is_runs_answer_and_one_miss(self, name, n):
        engine = ReliabilityEngine()
        inline = engine.answer_inline(self.row(name, n))
        assert (engine.cache_hits, engine.cache_misses) == (0, 1)
        reference = ReliabilityEngine().run_query(self.row(name, n))
        assert inline.to_dict() == reference.to_dict()
        assert inline.provenance == reference.provenance
        assert not inline.provenance.cache_hit
        again = engine.answer_inline(self.row(name, n))  # stored: now a hit
        assert again.provenance.cache_hit and again.value == inline.value
        assert (engine.cache_hits, engine.cache_misses) == (1, 1)

    @pytest.mark.parametrize("name, n", [(name, n + 1) for name, n in LIMITS])
    def test_a_miss_one_past_the_bound_returns_none_and_counts_nothing(self, name, n):
        engine = ReliabilityEngine()
        assert engine.answer_inline(self.row(name, n)) is None
        assert engine.cache_info()["size"] == 0
        assert (engine.cache_hits, engine.cache_misses) == (0, 0)
        engine.run_query(self.row(name, n))  # the caller runs it elsewhere
        assert engine.answer_inline(self.row(name, n)).provenance.cache_hit
        assert (engine.cache_hits, engine.cache_misses) == (1, 1)

    def test_the_memo_is_probed_once_per_row(self):
        """``answer_inline`` is ``run``'s memo pass for one row: a bounded
        miss is probed once (not once to decline and again to compute), a
        declined miss is probed once and counts nothing, and ``run`` of
        one row probes once."""

        class CountingMemo(OrderedDict):
            gets = 0

            def get(self, key, default=None):
                self.gets += 1
                return super().get(key, default)

        def gets(engine, call):
            memo = engine._memo = CountingMemo(engine._memo)
            call()
            return memo.gets

        engine = ReliabilityEngine()
        assert gets(engine, lambda: engine.answer_inline(self.row("counting", 5))) == 1
        assert (engine.cache_hits, engine.cache_misses) == (0, 1)
        assert gets(engine, lambda: engine.answer_inline(self.row("counting", 33))) == 1
        assert (engine.cache_hits, engine.cache_misses) == (0, 1)
        assert gets(engine, lambda: engine.run([self.row("mttf", 5)])) == 1
        assert (engine.cache_hits, engine.cache_misses) == (0, 2)

    def test_sampling_and_simulation_rows_are_never_bounded(self):
        small = Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.1), seed=5)
        for query in (
            replace(small, method="monte-carlo", trials=500),
            SimulationQuery(small, replicas=4, duration=2.0),
        ):
            engine = ReliabilityEngine()
            assert engine.answer_inline(query) is None
            assert (engine.cache_hits, engine.cache_misses) == (0, 0)

    def test_per_engine_overrides_are_never_bounded(self):
        engine = ReliabilityEngine()
        mttf = get_backend("mttf")
        engine.register_backend("mttf", lambda *args: mttf(*args))
        assert engine.answer_inline(self.row("mttf", 5)) is None
        assert (engine.cache_hits, engine.cache_misses) == (0, 0)

    def test_global_overrides_are_never_bounded(self):
        mttf = registry._KINDS["mttf"]
        try:
            register_backend(MTTFQuery)(lambda *args: mttf[1](*args))
            engine = ReliabilityEngine()
            assert engine.answer_inline(self.row("mttf", 5)) is None
            assert (engine.cache_hits, engine.cache_misses) == (0, 0)
        finally:
            registry._KINDS["mttf"] = mttf
        assert ReliabilityEngine().answer_inline(self.row("mttf", 5)) is not None


class TestRegistry:
    def test_builtins_registered(self):
        """The estimator table, the methods a scenario accepts and the
        methods ``resolved_method`` picks are one set of names."""
        resolved = {
            Scenario(spec=spec, fleet=fleet, method=method).resolved_method()
            for spec, fleet in ZOO
            for method in METHODS
        }
        assert set(ESTIMATORS) == METHODS - {"auto"} == resolved

    @pytest.mark.parametrize("method", sorted(ESTIMATORS))
    def test_every_estimator_answers_and_keys_under_its_name(self, method):
        """Each table entry answers under its own name, and its row is
        stored under ``Scenario.cache_key(method)`` alone, plus
        ``shard_trials`` for the two samplers."""
        scenario = Scenario(
            spec=RaftSpec(5),
            fleet=uniform_fleet(5, 0.05),
            method=method,
            trials=2_000,
            seed=1,
        )
        engine = ReliabilityEngine()
        answer = engine.run_query(scenario, ExecutionPolicy(shard_trials=500))
        assert answer.value.method == method
        sampling = method in ("monte-carlo", "importance")
        key = scenario.cache_key(method) + ((500,) if sampling else ())
        assert list(engine._memo) == [key]

    def test_importance_estimator_produces_result(self):
        answer = ReliabilityEngine().run_query(
            Scenario(
                spec=RaftSpec(5),
                fleet=uniform_fleet(5, 0.05),
                method="importance",
                trials=2_000,
                seed=1,
            )
        )
        assert answer.value.method == "importance"
        assert 0.0 <= answer.value.safe_and_live.value <= 1.0

    def test_importance_refuses_mass_its_failure_kind_does_not_draw(self):
        """PBFT(7) over a Byzantine fleet: under the default crash kind every
        tilted draw was a crash, and P(unsafe) read 0.0 where counting reads
        3.76e-3.  With ``failure_kind=BYZANTINE`` it agrees with counting."""
        crash = Scenario(
            spec=PBFTSpec(7),
            fleet=byzantine_fleet(7, 0.05),
            method="importance",
            trials=20_000,
            seed=1,
        )
        with pytest.raises(InvalidConfigurationError, match="failure_kind"):
            ReliabilityEngine().run_query(crash)
        byzantine = replace(crash, failure_kind=FaultKind.BYZANTINE)
        sampled = ReliabilityEngine().run_query(byzantine).value.safe.value
        counted = ReliabilityEngine().run_query(replace(crash, method="counting"))
        assert 1 - sampled == pytest.approx(1 - counted.value.safe.value, rel=0.1)
        # ...and crash mass is refused when every draw would be Byzantine.
        with pytest.raises(InvalidConfigurationError, match="p_crash"):
            ReliabilityEngine().run_query(
                Scenario(
                    spec=RaftSpec(5),
                    fleet=uniform_fleet(5, 0.05),
                    method="importance",
                    failure_kind=FaultKind.BYZANTINE,
                    seed=1,
                )
            )

    @pytest.mark.parametrize("method", ["monte-carlo", "importance"])
    def test_stock_sampler_is_the_one_call_the_engine_makes(self, method):
        """The registered function takes the policy's keywords itself: with
        them it answers what the engine answers under that policy, and
        called bare it answers what the serial engine answers."""
        scenario = Scenario(
            spec=RaftSpec(5),
            fleet=uniform_fleet(5, 0.05),
            method=method,
            trials=12_000,
            seed=11,
        )
        estimator = get_estimator(method)
        policy = ExecutionPolicy(mode="thread", jobs=2, shard_trials=3_000)
        assert (
            estimator(scenario, jobs=2, shard_trials=3_000, pool="thread")
            == ReliabilityEngine().run_query(scenario, policy).value
        )
        assert estimator(scenario) == ReliabilityEngine().run_query(scenario).value

class TestSerialization:
    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(spec=RaftSpec(3), fleet=uniform_fleet(3, 0.01)),
            Scenario(
                spec=RaftSpec(5, q_per=2, q_vc=4),
                fleet=uniform_fleet(5, 0.05),
                method="counting",
                label="flexible",
            ),
            Scenario(
                spec=PBFTSpec(7),
                fleet=_mixed_fleet(7),
                method="monte-carlo",
                trials=5_000,
                seed=42,
            ),
            Scenario(
                spec=FlexibleRaftSpec(5, 3, 4),
                fleet=uniform_fleet(5, 0.02),
                window_hours=720.0,
                label="window[3]",
            ),
        ],
        ids=["default", "flex-quorums", "seeded-mc", "windowed"],
    )
    def test_scenario_round_trip(self, scenario):
        restored = Scenario.from_dict(scenario.to_dict())
        assert restored.to_dict() == scenario.to_dict()
        assert type(restored.spec) is type(scenario.spec)
        assert restored.spec.grouping_key() == scenario.spec.grouping_key()
        assert restored.fleet_key() == scenario.fleet_key()
        assert (restored.method, restored.trials, restored.seed) == (
            scenario.method,
            scenario.trials,
            scenario.seed,
        )
        # Round-tripped scenarios answer identically.
        engine = ReliabilityEngine()
        assert (
            engine.run_query(restored).value
            == engine.run_query(scenario).value
        )

    def test_scenario_set_json_round_trip(self):
        grid = ScenarioSet.grid(
            protocols=("raft", "pbft"), sizes=(3, 4), probabilities=(0.01, 0.1)
        )
        restored = ScenarioSet.from_json(grid.to_json())
        assert restored.to_dicts() == grid.to_dicts()

    def test_grid_shorthand_json(self):
        text = json.dumps(
            {"grid": {"protocols": ["raft"], "sizes": [3], "probabilities": [0.5]}}
        )
        scenario_set = ScenarioSet.from_json(text)
        assert len(scenario_set) == 1
        assert scenario_set[0].spec.n == 3

    def test_grid_json_forwards_byzantine_fraction(self):
        text = json.dumps(
            {
                "grid": {
                    "protocols": ["raft", "pbft"],
                    "sizes": [5],
                    "probabilities": [0.04],
                    "byzantine_fraction": 0.5,
                }
            }
        )
        scenario_set = ScenarioSet.from_json(text)
        for scenario in scenario_set:
            assert scenario.fleet[0].p_byzantine == pytest.approx(0.02)
        # Shared fleets: both protocols ask about the same deployment.
        assert scenario_set[0].fleet == scenario_set[1].fleet

    def test_grid_json_rejects_unknown_fields(self):
        text = json.dumps({"grid": {"protocols": ["raft"], "probabilitys": [0.5]}})
        with pytest.raises(InvalidConfigurationError):
            ScenarioSet.from_json(text)

    def test_correlated_scenario_not_serializable(self):
        fleet = uniform_fleet(3, 0.1)
        scenario = Scenario(
            spec=RaftSpec(3), fleet=fleet, correlation=CommonShockModel(fleet, ())
        )
        with pytest.raises(InvalidConfigurationError):
            scenario.to_dict()

    def test_fleet_parse_shares_runs_of_equal_nodes_and_validates_each_run(self):
        def parse(nodes):
            return Scenario.from_dict(
                {"spec": {"protocol": "raft", "n": len(nodes)}, "fleet": {"nodes": nodes}}
            ).fleet

        a, b = {"p_crash": 0.01}, {"p_crash": 0.02, "p_byzantine": 0.001}
        fleet = parse([a, a, b, b, a])
        assert fleet == Fleet(
            (NodeModel(0.01), NodeModel(0.01), NodeModel(0.02, 0.001),
             NodeModel(0.02, 0.001), NodeModel(0.01))
        )
        assert fleet[0] is fleet[1] and fleet[2] is fleet[3]
        # A bad node is rejected wherever its run starts, NaN included
        # (json.loads hands out one shared NaN object, equal to itself by
        # identity inside a tuple — the run's first node is still checked).
        for bad in ({"p_crash": 1.5}, {"p_crash": -0.1}, {"p_crash": 0.6, "p_byzantine": 0.6}):
            with pytest.raises(InvalidProbabilityError):
                parse([a, a, bad, bad])
        with pytest.raises(InvalidConfigurationError, match="p_crash must be a finite number"):
            ScenarioSet.from_json(
                '[{"spec": {"protocol": "raft", "n": 3}, "fleet": {"nodes": '
                '[{"p_crash": 0.1}, {"p_crash": NaN}, {"p_crash": NaN}]}}]'
            )

    def test_unknown_protocol_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            Scenario.from_dict(
                {"spec": {"protocol": "fnord", "n": 3}, "fleet": {"nodes": []}}
            )

    @pytest.mark.parametrize("trials", ["true", "false", "2.5"])
    def test_json_trial_budget_that_int_would_truncate_is_rejected(self, trials):
        """``int(True)`` is 1 and ``int(2.5)`` is 2: both used to be answered
        from a budget nobody asked for."""
        row = (
            '{"spec": {"protocol": "raft", "n": 3}, "method": "monte-carlo",'
            ' "seed": 1, "fleet": {"uniform": {"n": 3, "p_fail": 0.1}},'
            f' "trials": {trials}}}'
        )
        grid = (
            '{"grid": {"protocols": ["raft"], "sizes": [3],'
            f' "method": "monte-carlo", "trials": {trials}}}}}'
        )
        for text in (f"[{row}]", grid):
            with pytest.raises(InvalidConfigurationError, match="trials must be a finite integer"):
                ScenarioSet.from_json(text)
        with pytest.raises(InvalidConfigurationError, match="trials"):
            QuerySet.from_json(f"[{row}]")

    def test_json_integral_float_budget_is_accepted(self):
        (scenario,) = ScenarioSet.from_json(
            '[{"spec": {"protocol": "raft", "n": 3}, "trials": 1e4,'
            ' "fleet": {"uniform": {"n": 3, "p_fail": 0.1}}}]'
        )
        assert scenario.trials == 10_000 and type(scenario.trials) is int

    def test_unregistered_spec_type_rejected(self):
        scenario = Scenario(
            spec=ReliabilityAwareRaftSpec(6, pinned=(0, 1)), fleet=_mixed_fleet(6)
        )
        with pytest.raises(InvalidConfigurationError):
            scenario.to_dict()


class TestDefaultEngine:
    def test_default_engine_is_shared(self):
        assert default_engine() is default_engine()

    def test_default_engine_ignores_trials_on_exact_paths(self):
        """trials is only validated by the sampling estimators."""
        fleet = uniform_fleet(3, 0.01)
        result = default_engine().run_query(Scenario(RaftSpec(3), fleet, trials=0)).value
        assert result.method == "counting"
        with pytest.raises(InvalidConfigurationError):
            default_engine().run_query(
                Scenario(RaftSpec(3), fleet, method="monte-carlo", trials=0)
            )

    @pytest.mark.parametrize("trials", [1e4, 2.5, True], ids=repr)
    def test_engine_sampling_row_rejects_a_non_integer_budget(self, trials):
        scenario = Scenario(
            spec=RaftSpec(3),
            fleet=uniform_fleet(3, 0.01),
            method="monte-carlo",
            trials=trials,
            seed=1,
        )
        with pytest.raises(InvalidConfigurationError, match="trials must be an integer"):
            ReliabilityEngine().run([scenario])
