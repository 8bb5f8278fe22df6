"""The ``reliability`` backend: a planner over the estimator table.

Every :class:`~repro.engine.query.ReliabilityQuery` that
:meth:`~repro.engine.ReliabilityEngine.run` could not answer from its memo
lands here as one batch of *distinct* questions (the engine has already
folded repeats, within the batch and across runs), and the planner

1. **batches** — symmetric counting scenarios of the same fleet size run
   as one :func:`repro.analysis.kernels.counting_sweep` (one count PMF
   per *fleet*, reused across every spec of that size); the
   ``engine.counting_group`` span reports how many unique fleets it swept
   (``fleets``) and how many were read as one count line (``fleets_1d``:
   the closed form or the 1-D recursion).  Exact-enumeration scenarios sharing a spec run as
   one :func:`repro.analysis.exact.exact_reliability_batch` call, which
   shares each support pattern's configurations and verdicts.  Both
   kernels build the results themselves; the planner only wraps them;
2. **falls back** — everything else, lone counting and exact rows
   included, runs its method's estimator from
   :data:`~repro.engine.registry.ESTIMATORS` one scenario at a time,
   fanned across the policy's pool when there is one.

A row's method decides how it runs: counting and exact rows are batched,
``monte-carlo`` and ``importance`` rows are handed the policy's ``jobs``
/ ``shard_trials`` / ``mode``, and a row may leave for a process pool
unless its seed is a generator or it carries a correlation model.

Values are bit-identical to calling the scalar estimators directly: the
sweep reads each fleet's count PMF from the same kernels as
:func:`repro.analysis.counting.counting_reliability`, row by row (the
closed-form count line, the 1-D recursion or the joint DP), the
enumeration batch multiplies in the scalar walk's order, and the
reductions use the ordered
:func:`repro.analysis.kernels.masked_sum` / ``masked_sum_batch``.

Like every backend, the planner only computes: it returns one
:class:`~repro.engine.result.Answer` per row it was given and never
reads or writes the memo.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.analysis.exact import DEFAULT_MAX_CONFIGS, configuration_count
from repro.analysis.result import ReliabilityResult
from repro.engine.query import Query, ReliabilityQuery
from repro.engine.registry import ESTIMATORS, register_backend
from repro.engine.result import Answer, Provenance
from repro.obs.trace import current_tracer
from repro.runtime import run_supervised

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.execution import ExecutionPolicy

class _Row(NamedTuple):
    """One row of a batch, with its method resolved."""

    index: int  # position in the batch
    query: Query
    method: str  # resolved: never "auto"


def _provenance(method: str, **fields) -> Provenance:
    return Provenance(estimator=method, backend="reliability", **fields)


@register_backend(ReliabilityQuery)
def reliability_backend(
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
    groups: dict[tuple, list[_Row]] = {}  # ("counting", n) or ("exact", spec key)
    singles: list[_Row] = []
    keys = getattr(queries, "keys", None) or [None] * len(queries)
    for index, (query, key) in enumerate(zip(queries, keys)):
        scenario = query.scenario
        # A reliability memo key is (spec, fleet, resolved method, ...):
        # reuse the method the engine's probe resolved for a keyed row.
        method = key[2] if key is not None else scenario.resolved_method()
        row = _Row(index, query, method)
        # Invalid combinations (asymmetric counting, enumeration over
        # budget) fall through to the scalar estimator so they raise the
        # exact errors it always raised.
        if method == "counting" and scenario.spec.symmetric:
            groups.setdefault((method, scenario.fleet.n), []).append(row)
        elif method == "exact" and configuration_count(scenario.fleet) <= DEFAULT_MAX_CONFIGS:
            groups.setdefault((method, scenario.spec.grouping_key()), []).append(row)
        else:
            singles.append(row)
    for (method, _), group in groups.items():
        if len(group) == 1:
            singles.append(group[0])
        else:
            _run_group(method, group, answers)
    _run_singles(singles, answers, policy)
    return answers  # type: ignore[return-value]


def _run_single_in_worker(
    payload: tuple[_Row, "ExecutionPolicy", int | None]
) -> tuple[ReliabilityResult, int]:
    """One estimation: ``(result, shards)``.

    A ``monte-carlo`` or ``importance`` row without a correlation model
    runs its spawned-stream shards on the policy's executor with the
    policy's ``shard_trials``, and the shard count lands in its provenance;
    ``jobs`` overrides the policy's worker count (1 when the planner is
    already parallel at row granularity, so pools never nest).  Every other
    row is its estimator called with the scenario alone, ``shards=1``.

    Module-level so a process pool can pickle it; a child looks the
    estimator up by method in its own import of the table.
    """
    row, policy, jobs = payload
    scenario = row.query.scenario
    estimator = ESTIMATORS[row.method]
    if row.method not in ("monte-carlo", "importance") or scenario.correlation is not None:
        return estimator(scenario), 1
    from repro.analysis.kernels import plan_shards

    result = estimator(
        scenario,
        jobs=policy.jobs if jobs is None else jobs,
        shard_trials=policy.shard_trials,
        pool=policy.mode,
    )
    return result, plan_shards(scenario.trials, policy.shard_trials).num_shards


def _pool_safe(row: _Row, policy: "ExecutionPolicy") -> bool:
    """Whether a pool can execute ``row`` faithfully.

    Generator-object seeds are stateful — they must advance in submission
    order, in the calling thread.  Correlation models are process-local,
    so a correlated scenario never leaves for a process pool.
    """
    scenario = row.query.scenario
    if isinstance(scenario.seed, np.random.Generator):
        return False
    return policy.mode != "process" or scenario.correlation is None


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
            [(row, policy, 1) for row in pooled],
            jobs=policy.jobs,
            mode=policy.mode,
        )
    results = list(results) + [
        _run_single_in_worker((row, policy, None)) for row in local
    ]
    for row, (result, shards) in zip(pooled + local, results):
        answers[row.index] = Answer(
            row.query, result, _provenance(row.method, shards=shards)
        )


def _run_group(method: str, group: Sequence[_Row], answers: list[Answer | None]) -> None:
    """One shared kernel call for a batched group; each row's result equals
    its scalar estimator's whole.

    A counting group (one fleet size) is one
    :func:`~repro.analysis.kernels.counting_sweep`: one count PMF per unique
    fleet, reduced against every spec of the group.  An exact group (one spec, by
    grouping key) is one :func:`~repro.analysis.exact.exact_reliability_batch`
    call, which shares each support pattern's configuration matrix and
    verdicts across the group's fleets.
    """
    from repro.analysis.exact import exact_reliability_batch
    from repro.analysis.kernels import counting_sweep

    scenarios = [row.query.scenario for row in group]
    if method == "exact":
        results = exact_reliability_batch(scenarios[0].spec, [s.fleet for s in scenarios])
    else:
        # One span per shared sweep: how many scenarios amortised how
        # many unique-fleet PMFs, and what the batch cost.
        with current_tracer().span(
            "engine.counting_group", n=scenarios[0].fleet.n, batch_size=len(group)
        ) as span:
            sweep = counting_sweep([(s.spec, s.fleet) for s in scenarios])
            span.set("fleets", sweep.fleets)
            span.set("fleets_1d", sweep.fleets_1d)
        results = sweep.results
    provenance = _provenance(method, batched=True, batch_size=len(group))
    for row, result in zip(group, results):
        answers[row.index] = Answer(row.query, result, provenance)
