"""The ``reliability`` backend: a planner over the estimator registry.

Every :class:`~repro.engine.query.ReliabilityQuery` that
:meth:`~repro.engine.ReliabilityEngine.run` could not answer from its memo
lands here as one batch of *distinct* questions (the engine has already
folded repeats, within the batch and across runs), and the planner

1. **batches** — symmetric counting scenarios of the same fleet size share
   one vectorized joint-count DP sweep (one DP per *fleet*, reused across
   every spec of that size), the multi-spec batching the kernel layer was
   built for.  Inside the sweep, fleets with a single failure kind run a
   1-D count recursion and only mixed-fault fleets the 2-D grid; the
   ``engine.counting_group`` span reports how many took the 1-D path
   (``fleets_1d``).  Exact-enumeration scenarios sharing a spec run as
   one :func:`repro.analysis.exact.exact_reliability_batch` call, which
   shares each support pattern's configurations and verdicts;
2. **falls back** — everything else routes through the estimator registry
   one scenario at a time, fanned across the policy's pool when there is
   one.

Values are bit-identical to calling the scalar estimators directly: the
batched DP reproduces :func:`repro.analysis.counting.joint_count_pmf`
operation-for-operation, the enumeration batch multiplies in the scalar
walk's order, and the reductions use the ordered
:func:`repro.analysis.kernels.masked_sum` / ``masked_sum_batch``.

Like every backend, the planner only computes: it returns one
:class:`~repro.engine.result.Answer` per row it was given, takes nothing
from the engine but ``estimator()``, and never reads or writes the memo.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.analysis.exact import DEFAULT_MAX_CONFIGS, configuration_count
from repro.analysis.result import Estimate, ReliabilityResult
from repro.engine.query import Query, ReliabilityQuery
from repro.engine.registry import (
    BUILTIN_COUNTING,
    BUILTIN_EXACT,
    EstimatorFn,
    estimate_under_policy,
    is_stock_estimator,
    register_backend,
)
from repro.engine.result import Answer, Provenance
from repro.engine.scenario import Scenario
from repro.obs.trace import current_tracer
from repro.runtime import run_supervised

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import ReliabilityEngine
    from repro.engine.execution import ExecutionPolicy

class _Row(NamedTuple):
    """One row of a batch, with its estimator resolved."""

    index: int  # position in the batch
    query: Query
    method: str  # resolved: never "auto"
    estimator_fn: EstimatorFn


def _provenance(method: str, **fields) -> Provenance:
    return Provenance(estimator=method, backend="reliability", **fields)


@register_backend(ReliabilityQuery)
def reliability_backend(
    engine: "ReliabilityEngine",
    queries: Sequence[Query],
    policy: "ExecutionPolicy",
) -> list[Answer]:
    """Plan and answer one batch of distinct reliability rows, in order.

    Counting scenarios are grouped by fleet size into shared DP sweeps
    over the *unique* fleets of each group, and exact-enumeration
    scenarios by spec into one enumeration batch each; every other
    scenario runs through its estimator individually.  Values depend
    only on the scenarios and the policy's ``shard_trials`` — never on
    the worker count or executor mode.
    """
    answers: list[Answer | None] = [None] * len(queries)
    counting_groups: dict[int, list[_Row]] = {}
    exact_groups: dict[tuple, list[_Row]] = {}
    singles: list[_Row] = []
    estimators: dict[str, EstimatorFn] = {}
    for index, query in enumerate(queries):
        scenario = query.scenario
        method = scenario.resolved_method()
        estimator_fn = estimators.get(method)
        if estimator_fn is None:
            estimator_fn = estimators[method] = engine.estimator(method)
        row = _Row(index, query, method, estimator_fn)
        # The shared sweeps only substitute for the *built-in* counting and
        # exact estimators; an override takes the per-scenario path.
        # Invalid combinations (correlated, size mismatch, asymmetric
        # counting, enumeration over budget) fall through to the scalar
        # estimator so they raise the exact errors it always raised.
        if scenario.correlation is not None or scenario.fleet.n != scenario.spec.n:
            singles.append(row)
        elif (
            estimator_fn is BUILTIN_COUNTING
            and method == "counting"
            and scenario.spec.symmetric
        ):
            counting_groups.setdefault(scenario.fleet.n, []).append(row)
        elif (
            estimator_fn is BUILTIN_EXACT
            and method == "exact"
            and configuration_count(scenario.fleet) <= DEFAULT_MAX_CONFIGS
        ):
            exact_groups.setdefault(scenario.spec.grouping_key(), []).append(row)
        else:
            singles.append(row)

    for group in counting_groups.values():
        if len(group) == 1:
            singles.append(group[0])
        else:
            _run_counting_group(group, answers, policy)
    for group in exact_groups.values():
        if len(group) == 1:
            singles.append(group[0])
        else:
            _run_exact_group(group, answers)
    _run_singles(singles, answers, policy)
    return answers  # type: ignore[return-value]


def _run_single_in_worker(
    payload: tuple[EstimatorFn, Scenario, "ExecutionPolicy", int | None]
) -> tuple[ReliabilityResult, int]:
    """One estimation: ``(result, shards)``.

    Module-level so a process pool can pickle it; the stock estimators it
    is sent there with pickle by reference, so a child resolves them from
    its own registry import.
    """
    estimator_fn, scenario, policy, jobs = payload
    return estimate_under_policy(estimator_fn, scenario, policy, jobs=jobs)


def _pool_safe(row: _Row, policy: "ExecutionPolicy") -> bool:
    """Whether a pool can execute ``row`` faithfully.

    Generator-object seeds are stateful — they must advance in submission
    order, in the calling thread.  Under a process pool only a stock
    estimator on an uncorrelated scenario may leave the process: a child
    started without fork resolves estimators from a *fresh* registry
    import, so overrides, shadowed built-ins and third-party registrations
    must stay with their function objects, and correlation models are
    process-local.
    """
    scenario = row.query.scenario
    if isinstance(scenario.seed, np.random.Generator):
        return False
    return policy.mode != "process" or (
        is_stock_estimator(row.method, row.estimator_fn)
        and scenario.correlation is None
    )


def _run_singles(
    singles: Sequence[_Row],
    answers: list[Answer | None],
    policy: "ExecutionPolicy",
) -> None:
    """Answer the rows no shared sweep covers, one estimator call each.

    Under a parallel policy the pool-safe rows (see :func:`_pool_safe`)
    fan out across the policy pool with estimator-level ``jobs=1`` — pools
    never nest — unless there is only one of them, which would be pure
    overhead: it runs here with the full estimator-level fan-out instead.
    Each scenario is computed exactly as it would be alone (its sampling
    streams are spawned per scenario), so values are identical at any
    worker count.  The rows that stay here run in submission order, in
    the calling thread.  The fan-out runs under the runtime's default
    supervision — one attempt, an estimator's exception propagates
    unchanged; the policy's retry/degrade knobs belong to simulation
    campaigns, whose answers can say they are partial.
    """
    pooled: list[_Row] = []
    local: list[_Row] = []
    for row in singles:
        (pooled if policy.parallel and _pool_safe(row, policy) else local).append(row)
    if len(pooled) < 2:
        pooled, local = [], list(singles)

    results: list[tuple[ReliabilityResult, int]] = []
    if pooled:
        results, _ = run_supervised(
            _run_single_in_worker,
            [(row.estimator_fn, row.query.scenario, policy, 1) for row in pooled],
            jobs=policy.jobs,
            mode=policy.mode,
        )
    results = list(results) + [
        _run_single_in_worker((row.estimator_fn, row.query.scenario, policy, None))
        for row in local
    ]
    for row, (result, shards) in zip(pooled + local, results):
        answers[row.index] = Answer(
            row.query, result, _provenance(row.method, shards=shards)
        )


def _run_counting_group(
    group: Sequence[_Row],
    answers: list[Answer | None],
    policy: "ExecutionPolicy",
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
        _BATCH_CHUNK_FLOATS,
        fleet_probability_matrix,
        joint_count_pmf_batch,
        mixed_support,
        reliability_values_batch,
        verdict_masks,
    )

    n = group[0].query.scenario.fleet.n
    provenance = _provenance("counting", batched=True, batch_size=len(group))
    detail = f"joint count DP over {(n + 1) * (n + 2) // 2} count pairs"
    # One span per shared DP sweep: how many scenarios amortised how many
    # unique-fleet DPs, and what the batch cost.
    with current_tracer().span(
        "engine.counting_group", n=n, batch_size=len(group)
    ) as span:
        unique_index: dict[tuple, int] = {}
        unique_fleets: list = []
        # Scenarios sharing a spec (by grouping key) reduce together.
        by_spec: dict[tuple, list[tuple[_Row, int]]] = {}
        for row in group:
            scenario = row.query.scenario
            slot = unique_index.setdefault(scenario.fleet_key(), len(unique_fleets))
            if slot == len(unique_fleets):
                unique_fleets.append(scenario.fleet)
            by_spec.setdefault(scenario.spec.grouping_key(), []).append((row, slot))
        span.set("fleets", len(unique_fleets))

        crash, byz = fleet_probability_matrix(unique_fleets)
        chunk = max(1, _BATCH_CHUNK_FLOATS // ((n + 1) * (n + 1)))
        total = crash.shape[0]
        span.set("fleets_1d", total - int(np.count_nonzero(mixed_support(crash, byz))))

        def reduce_chunk(lo: int, hi: int, pmfs: np.ndarray) -> None:
            for members in by_spec.values():
                selected = [entry for entry in members if lo <= entry[1] < hi]
                if not selected:
                    continue
                spec = selected[0][0].query.scenario.spec
                values = reliability_values_batch(
                    pmfs[[slot - lo for _, slot in selected]], verdict_masks(spec)
                )
                for (row, _), p_safe, p_live, p_both in zip(
                    selected, *(vector.tolist() for vector in values)
                ):
                    result = ReliabilityResult(
                        spec.name,
                        n,
                        Estimate(p_safe),
                        Estimate(p_live),
                        Estimate(p_both),
                        "counting",
                        detail,
                    )
                    answers[row.index] = Answer(row.query, result, provenance)

        # Sweep and reduce one fleet-chunk at a time so peak memory stays
        # near the chunk cap: only a bounded number of chunks' PMFs are
        # live, never the whole group's.  Per-fleet values are
        # chunk-independent, so the split changes nothing bit-wise.  Under
        # a parallel policy the DP sweeps of up to ``jobs`` chunks run
        # concurrently in threads (the DP releases the GIL inside NumPy;
        # PMFs never cross a process boundary) while every reduction
        # happens here, in chunk order — bit-identical to the serial sweep.
        ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        if policy.parallel and len(ranges) > 1:
            sweep = lambda bounds: joint_count_pmf_batch(  # noqa: E731
                crash[bounds[0] : bounds[1]], byz[bounds[0] : bounds[1]]
            )
            for wave_start in range(0, len(ranges), policy.jobs):
                wave = ranges[wave_start : wave_start + policy.jobs]
                swept, _ = run_supervised(sweep, wave, jobs=policy.jobs, mode="thread")
                for (lo, hi), pmfs in zip(wave, swept):
                    reduce_chunk(lo, hi, pmfs)
        else:
            for lo, hi in ranges:
                reduce_chunk(lo, hi, joint_count_pmf_batch(crash[lo:hi], byz[lo:hi]))


def _run_exact_group(group: Sequence[_Row], answers: list[Answer | None]) -> None:
    """One :func:`~repro.analysis.exact.exact_reliability_batch` call for
    enumeration scenarios sharing a spec (by grouping key).

    The batch shares each support pattern's configuration matrix and
    verdicts across the group's fleets; per-scenario values are
    bit-identical to scalar :func:`~repro.analysis.exact.exact_reliability`.
    """
    from repro.analysis.exact import exact_reliability_batch

    results = exact_reliability_batch(
        group[0].query.scenario.spec, [row.query.scenario.fleet for row in group]
    )
    provenance = _provenance("exact", batched=True, batch_size=len(group))
    for row, result in zip(group, results):
        answers[row.index] = Answer(row.query, result, provenance)
