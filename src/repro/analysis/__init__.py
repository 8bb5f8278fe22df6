"""Probability estimators: Safe/Live aggregation over configurations (§3).

**The front door is the Query/Engine API** (:mod:`repro.engine`): build
a :class:`~repro.engine.Scenario` per reliability question, submit a
:class:`~repro.engine.ScenarioSet` to a
:class:`~repro.engine.ReliabilityEngine`, and the engine picks estimators,
deduplicates repeated questions through its memo cache, and batches
same-size symmetric scenarios into shared counting-DP sweeps::

    from repro.engine import ScenarioSet, default_engine

    grid = ScenarioSet.grid(protocols=("raft", "pbft"),
                            sizes=(3, 5, 7), probabilities=(0.01, 0.05))
    for answer in default_engine().run(grid):
        print(answer.scenario.label, answer.value, answer.provenance.describe())

This package provides the estimators behind the engine's estimator table:

* :func:`repro.analysis.counting.counting_reliability` — exact, polynomial,
  for symmetric predicates (the paper's tables);
* :func:`repro.analysis.exact.exact_reliability` — exact enumeration, any
  predicate, exponential (small N), vectorized over the cached
  per-(n, support) configuration matrix;
* :func:`repro.analysis.montecarlo.monte_carlo_reliability` — sampling with
  Wilson CIs, any predicate, any N, plus correlated-failure variants;
* :func:`repro.analysis.importance.importance_sample_violation` — tilted
  sampling for many-nines rare events.

A scenario's ``"auto"`` method prefers exact answers — counting DP for
symmetric specs, enumeration for small asymmetric fleets (≤ ``2^20``
positive-probability configurations), Monte-Carlo otherwise — and the
engine's values are bit-identical to calling these estimators directly.

The kernel layer (:mod:`repro.analysis.kernels`) stays the shared hot
path: verdict masks turn per-(spec, fleet) predicate sweeps into one-time
per-spec tables; the batched count DP evaluates whole fleets-of-fleets
sweeps in single NumPy passes; and the one-pass leave-one-out kernel
powers Birnbaum importance, gradients and upgrade planning at ``O(n^3)``
total instead of ``O(n^4)``.  Exact numbers are bit-identical whichever
path computes them.
"""

from __future__ import annotations

from repro.analysis.config import FailureConfig, FaultKind, config_probability
from repro.analysis.counting import (
    counting_reliability,
    joint_count_pmf,
    poisson_binomial_pmf,
)
from repro.analysis.exact import (
    configuration_count,
    enumerate_configurations,
    exact_reliability,
    worst_configurations,
)
from repro.analysis.importance import (
    ImportanceResult,
    importance_sample_violation,
    minimal_violating_failures,
    quorum_wipeout_probability,
)
from repro.analysis.kernels import (
    BatchTally,
    VerdictMasks,
    birnbaum_importances,
    counting_reliability_batch,
    joint_count_pmf_batch,
    verdict_masks,
)
from repro.analysis.predicates import monte_carlo_predicate, predicate_probability
from repro.analysis.horizon import (
    WindowPoint,
    annualized_downtime_minutes,
    expected_bad_windows,
    first_subtarget_window,
    horizon_survival,
    reliability_over_horizon,
)
from repro.analysis.sensitivity import (
    UpgradeOption,
    best_single_upgrade,
    birnbaum_importance,
    greedy_upgrade_plan,
    importance_ranking,
    reliability_gradient,
)
from repro.analysis.montecarlo import (
    monte_carlo_correlated,
    monte_carlo_reliability,
    required_trials_for_ci_width,
    sample_configuration,
    wilson_interval,
)
from repro.analysis.result import (
    Estimate,
    ReliabilityResult,
    format_probability,
    from_nines,
    nines,
)

__all__ = [
    "FailureConfig",
    "FaultKind",
    "config_probability",
    "counting_reliability",
    "counting_reliability_batch",
    "joint_count_pmf",
    "joint_count_pmf_batch",
    "verdict_masks",
    "VerdictMasks",
    "BatchTally",
    "birnbaum_importances",
    "poisson_binomial_pmf",
    "exact_reliability",
    "enumerate_configurations",
    "configuration_count",
    "worst_configurations",
    "monte_carlo_reliability",
    "monte_carlo_correlated",
    "sample_configuration",
    "wilson_interval",
    "required_trials_for_ci_width",
    "predicate_probability",
    "birnbaum_importance",
    "reliability_over_horizon",
    "horizon_survival",
    "first_subtarget_window",
    "expected_bad_windows",
    "annualized_downtime_minutes",
    "WindowPoint",
    "importance_ranking",
    "best_single_upgrade",
    "greedy_upgrade_plan",
    "reliability_gradient",
    "UpgradeOption",
    "monte_carlo_predicate",
    "importance_sample_violation",
    "quorum_wipeout_probability",
    "minimal_violating_failures",
    "ImportanceResult",
    "Estimate",
    "ReliabilityResult",
    "nines",
    "from_nines",
    "format_probability",
]
