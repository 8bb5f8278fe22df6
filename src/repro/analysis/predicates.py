"""Probability of arbitrary configuration predicates.

The paper's probability-native ideas introduce metrics beyond Safe/Live —
e.g. *durability* of committed data under pinned quorums (§3).  These
helpers aggregate any ``FailureConfig -> bool`` predicate over the
configuration distribution, exactly (small fleets) or by sampling.
"""

from __future__ import annotations

from typing import Callable

from repro._rng import SeedLike, as_generator
from repro.analysis.config import FailureConfig
from repro.analysis.exact import DEFAULT_MAX_CONFIGS, enumerate_configurations
from repro.analysis.montecarlo import estimate_from_counts
from repro.analysis.result import Estimate
from repro.faults.mixture import Fleet

Predicate = Callable[[FailureConfig], bool]


def predicate_probability(
    fleet: Fleet,
    predicate: Predicate,
    *,
    max_configs: int = DEFAULT_MAX_CONFIGS,
) -> float:
    """Exact probability that a sampled configuration satisfies ``predicate``."""
    total = 0.0
    for config, probability in enumerate_configurations(fleet, max_configs=max_configs):
        if probability > 0.0 and predicate(config):
            total += probability
    return min(total, 1.0)


def monte_carlo_predicate(
    fleet: Fleet,
    predicate: Predicate,
    *,
    trials: int = 100_000,
    seed: SeedLike = None,
) -> Estimate:
    """Sampled estimate (with Wilson CI) of a predicate's probability.

    Trials are drawn through the batched sampling kernel (same seeded
    uniform stream as the historical per-trial loop) and deduped so the
    Python predicate runs once per distinct configuration.
    """
    from repro.analysis.kernels import predicate_tally, require_positive_int

    trials = require_positive_int(trials)
    rng = as_generator(seed)
    hits = predicate_tally(fleet, predicate, trials, rng)
    return estimate_from_counts(hits, trials)
