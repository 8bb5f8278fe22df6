"""The estimator table and the query-kind table of the reliability engine.

:data:`ESTIMATORS` is the one fixed table of estimators, each a callable
``(Scenario) -> ReliabilityResult`` under the name ``Scenario.method``
gives it: ``counting`` (exact DP, symmetric specs), ``exact`` (vectorized
enumeration), ``monte-carlo`` (batched sampling; correlated when the
scenario carries a model) and ``importance`` (tilted rare-event
sampling).  Its keys, plus ``"auto"``, are the methods a
:class:`~repro.engine.Scenario` accepts, so a name means the same
function in every engine and every process, and a memo key need only
carry the name.  The two sampling estimators also take the keywords
``jobs``, ``shard_trials`` and ``pool``, which the planner fills from
the :class:`~repro.engine.ExecutionPolicy`.

The *kind* table is open: one
:func:`register_backend` decorator takes a
:class:`~repro.engine.query.Query` subclass and publishes, under its
``kind`` string, both the class (so
:func:`~repro.engine.query.query_from_dict` can parse the kind from
``QuerySet`` rows and the CLI's JSON query files) and the backend that
answers it — a kind that parses but can never be answered, or the
converse, cannot be written down.  A backend computes a whole same-kind
batch of queries at once — the distinct rows of one ``run`` call that the
engine's memo could not answer — which is what lets the Markov backends
share one CTMC model across a batch and the simulation backend fan
replicas over an :class:`~repro.engine.ExecutionPolicy` pool.  The
built-ins live in :mod:`repro.engine.planner` (``reliability``) and
:mod:`repro.engine.backends` (``availability``, ``mttf``,
``simulation``); a third-party question kind needs the one decorator and
no engine changes.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Sequence, Type, TYPE_CHECKING

from repro.analysis.config import FaultKind
from repro.analysis.result import ReliabilityResult
from repro.errors import EstimationError, InvalidConfigurationError, UnknownMethodError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.query import Query
    from repro.engine.result import Answer
    from repro.engine.scenario import Scenario

EstimatorFn = Callable[["Scenario"], ReliabilityResult]

#: A backend computes one same-kind batch of distinct memo misses:
#: ``(queries, policy)`` → one
#: :class:`~repro.engine.result.Answer` per query, in order.
BackendFn = Callable[..., "Sequence[Answer]"]


class MemoMisses(list):
    """The ``queries`` a backend is handed: the distinct rows of its kind
    that missed the memo, in submission order.  :attr:`keys` holds each
    row's memo key as the engine's probe built it (``None`` for a row that
    is never stored), so a backend can read what a key already says
    instead of rebuilding it; a backend that does not sees a plain list."""

    __slots__ = ("keys",)

    def __init__(self):
        super().__init__()
        self.keys: list[tuple | None] = []


#: ``Query.kind`` → (query class, backend): the one place a kind is wired.
_KINDS: Dict[str, tuple[Type[Query], BackendFn]] = {}


def register_backend(query_cls: Type[Query]) -> Callable[[BackendFn], BackendFn]:
    """Decorator: publish ``fn`` as the backend answering ``query_cls``.

    One registration makes the kind both parseable —
    :func:`~repro.engine.query.query_from_dict` rebuilds ``query_cls``
    from rows whose ``"kind"`` is ``query_cls.kind`` — and answerable.
    ``fn(queries, policy)`` receives the *distinct* queries of its kind
    from one ``run`` call that missed the memo, in submission order (a
    :class:`MemoMisses`, which carries their keys), and the active
    :class:`~repro.engine.ExecutionPolicy`; it must return one
    :class:`~repro.engine.result.Answer` per query, in order.  Backends
    compute, the engine remembers: the engine probes, deduplicates and
    stores under each row's :meth:`~repro.engine.query.Query.cache_key`
    (never a ``degraded`` answer), so a backend must not read or write the
    memo, and it never calls back into the engine.  Re-registering a kind
    replaces the previous class and backend; engines that already answered
    rows of the kind keep them until ``cache_clear()``.
    """
    kind = query_cls.kind
    if not kind:
        raise InvalidConfigurationError(
            f"{query_cls.__name__} must define a non-empty kind"
        )

    def decorator(fn: BackendFn) -> BackendFn:
        _KINDS[kind] = (query_cls, fn)
        return fn

    return decorator


def get_backend(kind: str) -> BackendFn:
    """Look up the backend answering ``kind`` queries."""
    try:
        return _KINDS[kind][1]
    except KeyError:
        raise EstimationError(
            f"no backend registered for query kind {kind!r}; "
            f"registered: {sorted(_KINDS)}"
        )


def registered_kinds() -> tuple[str, ...]:
    """Every kind that can be parsed from a query row and answered."""
    return tuple(sorted(_KINDS))


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------
def _counting(scenario: "Scenario") -> ReliabilityResult:
    from repro.analysis.counting import counting_reliability

    return counting_reliability(scenario.spec, scenario.fleet)


def _exact(scenario: "Scenario") -> ReliabilityResult:
    from repro.analysis.exact import exact_reliability

    return exact_reliability(scenario.spec, scenario.fleet)


def _monte_carlo(
    scenario: "Scenario",
    *,
    jobs: int | None = None,
    shard_trials: int | None = None,
    pool: str = "process",
) -> ReliabilityResult:
    """Batched sampling; correlated when the scenario carries a model.

    A correlation model draws from one shared stream, so the pool
    keywords only shard independent sampling.
    """
    from repro.analysis.montecarlo import monte_carlo_correlated, monte_carlo_reliability

    if scenario.correlation is not None:
        return monte_carlo_correlated(
            scenario.spec,
            scenario.correlation,
            trials=scenario.trials,
            seed=scenario.seed,
            failure_kind=scenario.failure_kind,
        )
    return monte_carlo_reliability(
        scenario.spec,
        scenario.fleet,
        trials=scenario.trials,
        seed=scenario.seed,
        jobs=jobs,
        shard_trials=shard_trials,
        pool=pool,
    )


def _importance(
    scenario: "Scenario",
    *,
    jobs: int | None = None,
    shard_trials: int | None = None,
    pool: str = "process",
) -> ReliabilityResult:
    """Rare-event estimator: three tilted runs, one per reliability metric.

    Every tilted draw fails a node as ``scenario.failure_kind``, so a
    fleet with mass of the other kind is refused rather than misread.
    """
    from repro.analysis.importance import importance_sample_violation

    other = "p_crash" if scenario.failure_kind is FaultKind.BYZANTINE else "p_byzantine"
    if any(getattr(node, other) for node in scenario.fleet):
        raise InvalidConfigurationError(
            f"importance sampling draws every failure as failure_kind="
            f"{scenario.failure_kind.name.lower()}, but the fleet has {other} mass; "
            "set failure_kind to the fleet's one failure kind"
        )
    estimates = {}
    for predicate in ("safe", "live", "safe_and_live"):
        outcome = importance_sample_violation(
            scenario.spec,
            scenario.fleet,
            predicate=predicate,
            trials=scenario.trials,
            seed=scenario.seed,
            failure_kind=scenario.failure_kind,
            jobs=jobs,
            shard_trials=shard_trials,
            pool=pool,
        )
        estimates[predicate] = outcome.reliability
    return ReliabilityResult(
        protocol=scenario.spec.name,
        n=scenario.fleet.n,
        safe=estimates["safe"],
        live=estimates["live"],
        safe_and_live=estimates["safe_and_live"],
        method="importance",
        detail=f"tilted sampling, {scenario.trials} trials per predicate",
    )


#: The estimators by name: the one table ``Scenario.method`` names.
ESTIMATORS: Mapping[str, EstimatorFn] = {
    "counting": _counting,
    "exact": _exact,
    "monte-carlo": _monte_carlo,
    "importance": _importance,
}


def get_estimator(name: str) -> EstimatorFn:
    """Look up the estimator behind ``name``."""
    try:
        return ESTIMATORS[name]
    except KeyError:
        raise UnknownMethodError(f"unknown analysis method {name!r}")


__all__ = [
    "EstimatorFn",
    "BackendFn",
    "MemoMisses",
    "ESTIMATORS",
    "get_estimator",
    "register_backend",
    "get_backend",
    "registered_kinds",
]
