"""ReliabilityEngine: one batched front door for every reliability question.

Consumers used to wire the estimators together by hand — the planner
looped ``counting_reliability`` over candidate plans, the horizon module
looped windows, the CLI looped table cells.  The engine replaces those
loops with a planner of its own: submit a :class:`ScenarioSet` and it

1. **deduplicates** — identical (spec, fleet, estimator) questions are
   answered once, both within a run and across runs via a bounded
   LRU memo;
2. **batches** — symmetric counting scenarios of the same fleet size share
   one vectorized joint-count DP sweep (one DP per *fleet*, reused across
   every spec of that size), the multi-spec batching the kernel layer was
   built for;
3. **falls back** — everything else routes through the estimator registry
   one scenario at a time.

Results are bit-identical to calling the scalar estimators directly: the
batched DP reproduces :func:`repro.analysis.counting.joint_count_pmf`
operation-for-operation and the reductions use the ordered
:func:`repro.analysis.kernels.masked_sum`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.result import Estimate, ReliabilityResult
from repro.engine.execution import SERIAL, ExecutionPolicy
from repro.engine.query import Query, QuerySet, coerce_query
from repro.engine.registry import (
    BUILTIN_COUNTING,
    BackendFn,
    EstimatorFn,
    estimate_under_policy,
    get_backend,
    get_estimator,
)
from repro.engine.result import AnswerSet, EngineResult, Provenance, ScenarioOutcome
from repro.engine.scenario import Scenario, ScenarioSet
from repro.obs.trace import current_span, current_tracer
from repro.runtime import run_supervised

# Importing the backends module registers the built-in query backends
# (reliability / availability / mttf / simulation) with the registry.
import repro.engine.backends  # noqa: F401  (import-for-effect)

#: Above this configuration count, auto selection stops considering
#: enumeration (mirrors the historical ``analyze`` threshold).
EXACT_BUDGET = 1 << 20

#: Cap on floats materialised per batched-DP chunk (~32 MB of float64).
_BATCH_CHUNK_FLOATS = 1 << 22


def _resolve_method(scenario: Scenario) -> str:
    """Auto estimator selection — the exact policy ``analyze`` always used."""
    if scenario.method != "auto":
        return scenario.method
    if scenario.correlation is not None:
        return "monte-carlo"
    if scenario.spec.symmetric:
        return "counting"
    from repro.analysis.exact import configuration_count

    if configuration_count(scenario.fleet) <= EXACT_BUDGET:
        return "exact"
    return "monte-carlo"


class ReliabilityEngine:
    """Batching, caching facade over the estimator registry.

    Parameters
    ----------
    estimators:
        Optional per-engine estimator overrides (name → callable); names
        not present fall back to the global registry, so a custom engine
        still sees late third-party registrations.
    cache_size:
        Bound on the memo cache (least-recently-used eviction).  ``0``
        disables cross-run caching; in-run deduplication still applies.
    policy:
        Default :class:`~repro.engine.ExecutionPolicy` for :meth:`run`
        calls that do not pass one.  The default is serial execution;
        answers are byte-identical under every policy.
    """

    def __init__(
        self,
        *,
        estimators: Mapping[str, EstimatorFn] | None = None,
        cache_size: int = 1024,
        policy: ExecutionPolicy | None = None,
    ):
        self._overrides: dict[str, EstimatorFn] = dict(estimators or {})
        self._backend_overrides: dict[str, BackendFn] = {}
        self._cache_size = max(0, int(cache_size))
        self._policy = policy if policy is not None else SERIAL
        self._memo: OrderedDict[tuple, object] = OrderedDict()
        # One engine may be shared across request threads (repro.serve):
        # every memo access and counter update happens under this lock —
        # get + move_to_end must be atomic or a concurrent eviction turns
        # the recency refresh into a KeyError.
        self._lock = threading.RLock()
        self.cache_hits = 0
        self.cache_misses = 0

    # -- estimator / backend resolution -----------------------------------
    def estimator(self, name: str) -> EstimatorFn:
        override = self._overrides.get(name)
        return override if override is not None else get_estimator(name)

    def register(self, name: str, fn: EstimatorFn) -> None:
        """Install a per-engine estimator override."""
        self._overrides[name] = fn

    def backend(self, kind: str) -> BackendFn:
        override = self._backend_overrides.get(kind)
        return override if override is not None else get_backend(kind)

    def register_backend(self, kind: str, fn: BackendFn) -> None:
        """Install a per-engine query-backend override."""
        self._backend_overrides[kind] = fn

    # -- memo cache --------------------------------------------------------
    def cache_clear(self) -> None:
        with self._lock:
            self._memo.clear()

    def cache_info(self) -> dict:
        """Consistent snapshot of the memo counters (for /metrics et al.)."""
        with self._lock:
            hits, misses = self.cache_hits, self.cache_misses
            size = len(self._memo)
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "size": size,
            "max_size": self._cache_size,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }

    def cache_lookup(self, key: tuple | None):
        """Public memo probe for query backends.

        Refreshes LRU recency and counts a hit or miss; returns ``None``
        when the key is absent or uncacheable.  Backends prefix their keys
        with the query kind, so they can never collide with the scenario
        planner's estimator-keyed entries.
        """
        if key is None or self._cache_size == 0:
            return None
        with self._lock:
            value = self._memo.get(key)
            if value is not None:
                self._memo.move_to_end(key)
                self.cache_hits += 1
            else:
                self.cache_misses += 1
        return value

    def cache_store(self, key: tuple | None, value) -> None:
        """Public memo insert for query backends (bounded, LRU eviction)."""
        self._cache_put(key, value)

    def _cache_get(self, key: tuple | None) -> ReliabilityResult | None:
        if key is None or self._cache_size == 0:
            return None
        with self._lock:
            result = self._memo.get(key)
            if result is not None:
                self._memo.move_to_end(key)
        return result

    def _cache_put(self, key: tuple | None, result: ReliabilityResult) -> None:
        if key is None or self._cache_size == 0:
            return
        # Fresh keys land at the end (insertion order); _cache_get already
        # refreshes recency on hits, so no extra move is needed here.
        with self._lock:
            self._memo[key] = result
            while len(self._memo) > self._cache_size:
                self._memo.popitem(last=False)

    # -- execution ---------------------------------------------------------
    def run_one(
        self, scenario: Scenario, policy: ExecutionPolicy | None = None
    ) -> ScenarioOutcome:
        """Answer a single scenario (cache-aware, no batching)."""
        return self.run([scenario], policy=policy)[0]

    def run_query(self, query: Query, policy: ExecutionPolicy | None = None):
        """Answer a single query (cache-aware, no cross-query batching)."""
        return self.run([query], policy=policy)[0]

    def run(
        self,
        scenarios: QuerySet | ScenarioSet | Iterable[Query | Scenario],
        policy: ExecutionPolicy | None = None,
    ) -> EngineResult | AnswerSet:
        """Plan and execute a whole scenario or query set.

        A :class:`~repro.engine.QuerySet` (or any iterable containing
        :class:`~repro.engine.query.Query` objects; bare scenarios mixed
        in default to ``ReliabilityQuery``) routes each row to its kind's
        backend and returns an :class:`~repro.engine.AnswerSet` — see
        :meth:`_run_queries`.  A bare :class:`ScenarioSet` takes the
        scenario path below.

        Outcomes come back in submission order.  Counting scenarios are
        grouped by fleet size into shared DP sweeps over the *unique*
        fleets of each group; every other scenario runs through its
        estimator individually.  Identical questions — within the set or
        remembered from earlier runs — are answered from cache.

        ``policy`` (default: the engine's constructor policy, itself
        defaulting to serial) picks the executor: a thread or process
        policy fans independent scenarios across workers, sweeps counting
        DP chunks concurrently, and runs the sampling estimators'
        spawned-stream shards on the pool.  Result values depend only on
        the scenarios and the policy's ``shard_trials`` — never on the
        worker count or executor mode.
        """
        if isinstance(scenarios, QuerySet):
            return self._run_queries(list(scenarios), policy)
        scenarios = list(scenarios)
        if any(isinstance(item, Query) for item in scenarios):
            return self._run_queries(scenarios, policy)
        active = policy if policy is not None else self._policy
        tracer = current_tracer()
        with tracer.span(
            "engine.run", scenarios=len(scenarios), mode=active.mode, jobs=active.jobs
        ) as run_span:
            result = self._run_scenarios(scenarios, active)
            if tracer.enabled:
                hits = sum(1 for outcome in result if outcome.provenance.cache_hit)
                run_span.set("memo_hits", hits)
                run_span.set("memo_misses", len(result) - hits)
            return result

    def _run_scenarios(
        self, scenarios: list, active: ExecutionPolicy
    ) -> EngineResult:
        """Scenario-path planner body (contract documented on :meth:`run`)."""
        items = list(scenarios)
        outcomes: list[ScenarioOutcome | None] = [None] * len(items)
        groups: dict[int, list[tuple[int, Scenario, tuple | None, tuple]]] = {}
        singles: list[tuple[int, Scenario, str, EstimatorFn, tuple | None]] = []
        inflight: dict[tuple, int] = {}
        aliases: list[tuple[int, int]] = []  # (duplicate index, first index)
        use_memo = self._cache_size > 0

        # Hot loop: the per-scenario planning below inlines
        # Scenario.cache_key / the auto-method policy to keep facade
        # overhead a small fraction of even the cheapest estimation.
        for index, scenario in enumerate(items):
            spec = scenario.spec
            correlation = scenario.correlation
            method = scenario.method
            if method == "auto":
                if correlation is not None:
                    method = "monte-carlo"
                elif spec.symmetric:
                    method = "counting"
                else:
                    method = _resolve_method(scenario)
            estimator_fn = self._overrides.get(method)
            if estimator_fn is None:
                estimator_fn = get_estimator(method)
            fleet = scenario.fleet
            fleet_key = tuple(
                (node.p_crash, node.p_byzantine) for node in fleet.nodes
            )
            # Cache keys carry the estimator *function*, not its name, so
            # re-registering an estimator naturally invalidates its cached
            # answers.  Generator seeds are stateful — each run advances
            # the parent's spawn counter — so only value seeds are reusable.
            key = None
            if correlation is None:
                if method == "counting" or method == "exact":
                    key = (spec.grouping_key(), fleet_key, estimator_fn)
                elif isinstance(scenario.seed, (int, np.integer)):
                    key = (
                        spec.grouping_key(),
                        fleet_key,
                        estimator_fn,
                        scenario.trials,
                        int(scenario.seed),
                        scenario.failure_kind,
                        # Sampled values depend on the shard plan — and on
                        # nothing else about the policy.
                        active.shard_trials,
                    )
                if use_memo and key is not None:
                    with self._lock:
                        cached = self._memo.get(key)
                        if cached is not None:
                            self._memo.move_to_end(key)
                            self.cache_hits += 1
                    if cached is not None:
                        outcomes[index] = ScenarioOutcome(
                            scenario,
                            cached,
                            Provenance(estimator=method, cache_hit=True),
                        )
                        continue
                if key is not None:
                    first = inflight.get(key)
                    if first is not None:
                        aliases.append((index, first))
                        continue
                    inflight[key] = index
            with self._lock:
                self.cache_misses += 1
            # Invalid counting combinations (asymmetric spec, size
            # mismatch) fall through to the scalar estimator so they raise
            # the exact errors counting_reliability always raised.  The
            # shared DP sweep only substitutes for the *built-in* counting
            # estimator; an override takes the per-scenario path.
            if (
                method == "counting"
                and estimator_fn is BUILTIN_COUNTING
                and correlation is None
                and fleet.n == spec.n
                and spec.symmetric
            ):
                groups.setdefault(fleet.n, []).append(
                    (index, scenario, key, fleet_key)
                )
            else:
                singles.append((index, scenario, method, estimator_fn, key))

        for group in groups.values():
            if len(group) == 1:
                index, scenario, key, _ = group[0]
                singles.append((index, scenario, "counting", BUILTIN_COUNTING, key))
            else:
                self._run_counting_group(group, outcomes, active)

        if active.parallel and len(singles) > 1:
            self._run_singles_parallel(singles, outcomes, active)
        else:
            for index, scenario, method, estimator_fn, key in singles:
                start = time.perf_counter()
                result, shards = estimate_under_policy(estimator_fn, scenario, active)
                seconds = time.perf_counter() - start
                self._cache_put(key, result)
                outcomes[index] = ScenarioOutcome(
                    scenario,
                    result,
                    Provenance(estimator=method, seconds=seconds, shards=shards),
                )

        for index, first in aliases:
            source = outcomes[first]
            assert source is not None
            outcomes[index] = ScenarioOutcome(
                items[index],
                source.result,
                Provenance(
                    estimator=source.provenance.estimator,
                    cache_hit=True,
                    batched=source.provenance.batched,
                    batch_size=source.provenance.batch_size,
                ),
            )
            with self._lock:
                self.cache_hits += 1

        assert all(outcome is not None for outcome in outcomes)
        return EngineResult(tuple(outcomes))  # type: ignore[arg-type]

    def _run_queries(
        self,
        items: Sequence[Query | Scenario],
        policy: ExecutionPolicy | None,
    ) -> AnswerSet:
        """Route a mixed-kind query batch to its backends.

        Queries are grouped by kind (submission order preserved within
        each group) and each group is handed to the backend registered
        for that kind — per-engine overrides first, then the global
        registry.  Backends batch internally (shared DP sweeps, shared
        CTMC solves, sharded replica fan-out) and answers are scattered
        back into submission order.
        """
        from repro.errors import EstimationError

        active = policy if policy is not None else self._policy
        queries = [coerce_query(item) for item in items]
        answers: list = [None] * len(queries)
        by_kind: dict[str, list[int]] = {}
        for index, query in enumerate(queries):
            by_kind.setdefault(query.kind, []).append(index)
        tracer = current_tracer()
        with tracer.span("engine.queries", queries=len(queries), kinds=len(by_kind)):
            for kind, indices in by_kind.items():
                backend = self.backend(kind)
                with tracer.span(f"backend.{kind}", queries=len(indices)):
                    group = backend(self, [queries[i] for i in indices], active)
                if len(group) != len(indices):
                    raise EstimationError(
                        f"backend for {kind!r} returned {len(group)} answers "
                        f"for {len(indices)} queries"
                    )
                for index, answer in zip(indices, group):
                    answers[index] = answer
        assert all(answer is not None for answer in answers)
        return AnswerSet(tuple(answers))

    def _run_singles_parallel(
        self,
        singles: Sequence[tuple[int, Scenario, str, EstimatorFn, tuple | None]],
        outcomes: list[ScenarioOutcome | None],
        policy: ExecutionPolicy,
    ) -> None:
        """Fan independent single-estimator scenarios across the policy pool.

        Each scenario is computed exactly as it would be alone (its sampling
        streams are spawned per scenario), so values are identical at any
        worker count.  Cache writes and outcome assembly stay in the calling
        thread, in submission order — the LRU's recency order is therefore
        deterministic too.  Scenarios a pool cannot execute faithfully run
        in the calling thread instead: generator-object seeds (stateful —
        they must advance in submission order), and, under a process pool,
        anything but a stock estimator on an uncorrelated scenario (a
        child started without fork resolves estimators from a *fresh*
        registry import, so overrides, shadowed built-ins and third-party
        registrations must stay with their function objects; correlation
        models are process-local).  The fan-out runs under the runtime's
        default supervision — one attempt, an estimator's exception
        propagates unchanged; the policy's retry/degrade knobs belong to
        simulation campaigns, whose answers can say they are partial.
        """
        from repro.engine.registry import is_stock_estimator

        pool_items: list[tuple[int, Scenario, str, EstimatorFn, tuple | None]] = []
        local_items: list[tuple[int, Scenario, str, EstimatorFn, tuple | None]] = []
        for entry in singles:
            _, scenario, method, estimator_fn, _ = entry
            if isinstance(scenario.seed, np.random.Generator):
                local_items.append(entry)
            elif policy.mode == "process" and (
                not is_stock_estimator(method, estimator_fn)
                or scenario.correlation is not None
            ):
                local_items.append(entry)
            else:
                pool_items.append(entry)

        completed: list[tuple[ReliabilityResult, int, float]] = []
        if len(pool_items) == 1:
            # A pool of one is pure overhead: run it locally with the full
            # estimator-level fan-out instead.
            local_items = list(singles)
            pool_items = []
        elif pool_items:
            if policy.mode == "thread":

                def worker(entry):
                    _, scenario, _, estimator_fn, _ = entry
                    start = time.perf_counter()
                    result, shards = estimate_under_policy(
                        estimator_fn, scenario, policy, jobs=1
                    )
                    return result, shards, time.perf_counter() - start

                completed, _ = run_supervised(
                    # repro: allow[pool-safety] -- thread-only branch; never pickled
                    worker, pool_items, jobs=policy.jobs, mode="thread"
                )
            else:
                payloads = [
                    (scenario, method, policy)
                    for _, scenario, method, _, _ in pool_items
                ]
                completed, _ = run_supervised(
                    _run_single_in_worker, payloads, jobs=policy.jobs, mode="process"
                )

        for entry, (result, shards, seconds) in zip(pool_items, completed):
            index, scenario, method, _, key = entry
            self._cache_put(key, result)
            outcomes[index] = ScenarioOutcome(
                scenario,
                result,
                Provenance(estimator=method, seconds=seconds, shards=shards),
            )
        for index, scenario, method, estimator_fn, key in local_items:
            start = time.perf_counter()
            result, shards = estimate_under_policy(estimator_fn, scenario, policy)
            seconds = time.perf_counter() - start
            self._cache_put(key, result)
            outcomes[index] = ScenarioOutcome(
                scenario,
                result,
                Provenance(estimator=method, seconds=seconds, shards=shards),
            )

    def _run_counting_group(
        self,
        group: Sequence[tuple[int, Scenario, tuple | None, tuple]],
        outcomes: list[ScenarioOutcome | None],
        policy: ExecutionPolicy = SERIAL,
    ) -> None:
        """One shared joint-count DP sweep for same-size counting scenarios.

        The DP depends only on the fleet, so each *unique* fleet is swept
        once and its PMF reused by every spec asking about it — the
        "multi-spec batches" execution plan.  The reductions are batched
        per spec through the order-preserving cumulative masked sum.
        Per-scenario values are bit-identical to scalar
        :func:`counting_reliability` (same DP update sequence, same
        left-to-right masked accumulation, same detail string).
        """
        from repro.analysis.kernels import (
            joint_count_pmf_batch,
            reliability_values_batch,
            verdict_masks,
        )

        start = time.perf_counter()
        n = group[0][1].fleet.n
        unique_index: dict[tuple, int] = {}
        unique_fleets: list = []
        # Scenarios sharing a spec (by grouping key) reduce together.
        by_spec: dict[tuple, list[tuple[int, Scenario, tuple | None, int]]] = {}
        for index, scenario, key, fleet_key in group:
            slot = unique_index.get(fleet_key)
            if slot is None:
                slot = len(unique_fleets)
                unique_index[fleet_key] = slot
                unique_fleets.append(scenario.fleet)
            by_spec.setdefault(scenario.spec.grouping_key(), []).append(
                (index, scenario, key, slot)
            )

        crash = np.array([fleet.crash_probabilities for fleet in unique_fleets])
        byz = np.array([fleet.byzantine_probabilities for fleet in unique_fleets])
        chunk = max(1, _BATCH_CHUNK_FLOATS // ((n + 1) * (n + 1)))
        total = crash.shape[0]

        detail = f"joint count DP over {(n + 1) * (n + 2) // 2} count pairs"
        batch_size = len(group)
        computed: list[tuple[int, Scenario, ReliabilityResult]] = []
        def reduce_chunk(lo: int, hi: int, pmfs: np.ndarray) -> None:
            for members in by_spec.values():
                selected = [entry for entry in members if lo <= entry[3] < hi]
                if not selected:
                    continue
                masks = verdict_masks(selected[0][1].spec)
                local_slots = [slot - lo for _, _, _, slot in selected]
                safe_v, live_v, both_v = reliability_values_batch(
                    pmfs[local_slots], masks
                )
                for position, (index, scenario, key, _) in enumerate(selected):
                    result = ReliabilityResult(
                        protocol=scenario.spec.name,
                        n=n,
                        safe=Estimate.exact(float(safe_v[position])),
                        live=Estimate.exact(float(live_v[position])),
                        safe_and_live=Estimate.exact(float(both_v[position])),
                        method="counting",
                        detail=detail,
                    )
                    self._cache_put(key, result)
                    computed.append((index, scenario, result))

        # Sweep and reduce one fleet-chunk at a time so peak memory stays
        # near the chunk cap: only a bounded number of chunks' PMFs are live,
        # never the whole group's.  Per-fleet values are chunk-independent,
        # so the split changes nothing bit-wise.  Under a parallel policy the
        # DP sweeps of up to ``jobs`` chunks run concurrently in threads (the
        # DP releases the GIL inside NumPy; PMFs never cross a process
        # boundary) while every reduction and cache write happens here, in
        # chunk order — bit-identical to the serial sweep.
        ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        if policy.parallel and len(ranges) > 1:
            sweep = lambda bounds: joint_count_pmf_batch(  # noqa: E731
                crash[bounds[0] : bounds[1]], byz[bounds[0] : bounds[1]]
            )
            for wave_start in range(0, len(ranges), policy.jobs):
                wave = ranges[wave_start : wave_start + policy.jobs]
                swept, _ = run_supervised(
                    sweep, wave, jobs=policy.jobs, mode="thread"
                )
                for (lo, hi), pmfs in zip(wave, swept):
                    reduce_chunk(lo, hi, pmfs)
        else:
            for lo, hi in ranges:
                reduce_chunk(lo, hi, joint_count_pmf_batch(crash[lo:hi], byz[lo:hi]))
        finished = time.perf_counter()
        tracer = current_tracer()
        if tracer.enabled:
            # One span per shared DP sweep: how many scenarios amortised how
            # many unique-fleet DPs, and what the batch cost wall-clock.
            tracer.record_span(
                "engine.counting_group",
                start,
                finished,
                parent=current_span(),
                n=n,
                batch_size=batch_size,
                fleets=len(unique_fleets),
            )
        share = (finished - start) / batch_size
        provenance = Provenance(
            estimator="counting", batched=True, batch_size=batch_size, seconds=share
        )
        for index, scenario, result in computed:
            outcomes[index] = ScenarioOutcome(scenario, result, provenance)


def _run_single_in_worker(
    payload: tuple[Scenario, str, ExecutionPolicy]
) -> tuple[ReliabilityResult, int, float]:
    """Process-pool entry point: one scenario, resolved from the forked
    global registry (per-engine overrides never reach this path)."""
    scenario, method, policy = payload
    estimator_fn = get_estimator(method)
    start = time.perf_counter()
    result, shards = estimate_under_policy(estimator_fn, scenario, policy, jobs=1)
    return result, shards, time.perf_counter() - start


_DEFAULT_ENGINE: ReliabilityEngine | None = None


def default_engine() -> ReliabilityEngine:
    """The process-wide engine behind ``analyze``/``analyze_batch`` and the
    planner/horizon/CLI consumers.  Sharing one instance is what makes the
    memo cache pay off across layers (a planner sweep warms the cache the
    CLI then hits)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ReliabilityEngine()
    return _DEFAULT_ENGINE
