"""Monte-Carlo reliability estimation (paper §3 at scale, §2 correlations).

For asymmetric predicates on large fleets — or for correlated failure
models where no polynomial exact method exists — we estimate Safe/Live
probabilities by sampling failure configurations.  Estimates carry Wilson
score confidence intervals, which behave sensibly even when the observed
violation count is zero (common when probing many-nines systems).

Sampling itself is delegated to the vectorized kernels in
:mod:`repro.analysis.kernels`.  Symmetric specs tally each trial by its
(crashes, Byzantine) counts.  Over a fleet whose nodes share one model
with one failure kind (crash-only or Byzantine-only) that count is
``Binomial(n, p)``, so each shard draws the histogram of its counts
directly: one multinomial histogram per shard, weighted by the
closed-form binomial PMF rather than the counting DP.  Every other fleet
draws chunked ``(m, n)`` uniform blocks, consuming each generator stream
in the same (trial, node) order as a per-trial loop, and counts from the
uniforms; asymmetric specs classify every node.

Independent-trial budgets are always split into worker-count-independent
shard blocks, each sampling its own ``SeedSequence``-spawned stream and
merged in shard order: an estimate is a function of ``(trials, seed,
shard_trials)`` alone.  ``jobs=``/``pool=`` only choose where the shards
run — the calling thread, a thread pool or a process pool.
"""

from __future__ import annotations

import math

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.analysis.config import FailureConfig, FaultKind
from repro.analysis.result import Estimate, ReliabilityResult
from repro.errors import InvalidConfigurationError
from repro.faults.correlation import CorrelationModel
from repro.faults.mixture import Fleet
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import ProtocolSpec

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because it stays inside
    ``[0, 1]`` and gives non-degenerate intervals at 0 or ``trials``
    successes — exactly the regimes rare-event reliability work lives in.
    """
    if trials <= 0:
        raise InvalidConfigurationError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise InvalidConfigurationError(f"successes {successes} outside [0, {trials}]")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, centre - margin), min(1.0, centre + margin)


def estimate_from_counts(successes: int, trials: int) -> Estimate:
    """Binomial proportion as an :class:`Estimate` with a Wilson 95% CI.

    The one construction every sampling consumer shares — the Monte-Carlo
    estimators, predicate sampling, and the engine's simulation-campaign
    violation rates — so the CI convention cannot drift between them.
    """
    phat = successes / trials
    stderr = math.sqrt(max(phat * (1 - phat), 1e-300) / trials)
    low, high = wilson_interval(successes, trials)
    return Estimate(value=phat, stderr=stderr, ci_low=low, ci_high=high)


def sample_configuration(fleet: Fleet, rng: np.random.Generator) -> FailureConfig:
    """Draw one configuration with independent per-node trinomial outcomes."""
    draws = rng.random(fleet.n)
    kinds = []
    for node, u in zip(fleet, draws):
        if u < node.p_crash:
            kinds.append(FaultKind.CRASH)
        elif u < node.p_crash + node.p_byzantine:
            kinds.append(FaultKind.BYZANTINE)
        else:
            kinds.append(FaultKind.CORRECT)
    return FailureConfig(tuple(kinds))


def monte_carlo_reliability(
    spec: "ProtocolSpec",
    fleet: Fleet,
    *,
    trials: int = 100_000,
    seed: SeedLike = None,
    jobs: int | None = None,
    shard_trials: int | None = None,
    pool: str = "process",
) -> ReliabilityResult:
    """Estimate Safe/Live/Safe&Live by sampling independent configurations.

    Sampling runs on the batched kernel (:mod:`repro.analysis.kernels`).
    Symmetric specs read the verdict masks off a histogram of each
    trial's (crashes, Byzantine) counts: a one-model, one-kind fleet draws
    one multinomial histogram per shard over its ``Binomial(n, p)``
    counts, every other fleet counts each trial from chunked ``(trials,
    n)`` uniform draws.  Asymmetric specs classify every node of the
    uniform draws and dedup unique rows.
    ``trials`` must be a positive integer (NumPy integers included;
    ``bool`` and floats are rejected).

    The trial budget is split by :func:`repro.analysis.kernels.plan_shards`
    into blocks whose count depends only on ``(trials, shard_trials)``,
    each block samples an independent ``SeedSequence``-spawned stream, and
    tallies merge in shard order — so the estimate is identical for any
    ``jobs`` (unset runs the shards in the calling thread) and any ``pool``
    (``"thread"``/``"process"``/``"serial"``).
    """
    from repro.analysis.kernels import monte_carlo_tally_sharded, require_positive_int

    if fleet.n != spec.n:
        raise InvalidConfigurationError(f"fleet has {fleet.n} nodes but spec expects {spec.n}")
    trials = require_positive_int(trials)
    tally, plan = monte_carlo_tally_sharded(
        spec,
        fleet,
        trials,
        seed,
        jobs=jobs or 1,
        shard_trials=shard_trials,
        mode=pool,
    )
    return ReliabilityResult(
        protocol=spec.name,
        n=fleet.n,
        safe=estimate_from_counts(tally.safe, trials),
        live=estimate_from_counts(tally.live, trials),
        safe_and_live=estimate_from_counts(tally.both, trials),
        method="monte-carlo",
        detail=(
            f"{trials} independent trials over {plan.num_shards} "
            f"spawned-stream shards, Wilson 95% CIs"
        ),
    )


def monte_carlo_correlated(
    spec: "ProtocolSpec",
    model: CorrelationModel,
    *,
    trials: int = 100_000,
    seed: SeedLike = None,
    failure_kind: FaultKind = FaultKind.CRASH,
) -> ReliabilityResult:
    """Reliability under a correlated failure model (paper §2 point 3).

    The correlation model produces boolean failure vectors; every failure is
    assigned ``failure_kind`` (crash for CFT analysis, Byzantine for the
    worst-case BFT analysis).  Vectors are drawn in chunks through
    ``model.sample_many`` (one-pass vectorized for the built-in models;
    each documents whether its seeded stream matches the historical
    per-trial loop — independent draws do, shock/contagion models draw in
    blocked order) and tallied through the verdict-mask / unique-row
    kernels.
    """
    from repro.analysis.kernels import correlated_tally, require_positive_int

    if model.n != spec.n:
        raise InvalidConfigurationError(f"model has {model.n} nodes but spec expects {spec.n}")
    if failure_kind is FaultKind.CORRECT:
        raise InvalidConfigurationError("failure_kind cannot be CORRECT")
    trials = require_positive_int(trials)
    rng = as_generator(seed)
    tally = correlated_tally(spec, model, trials, rng, failure_kind)
    return ReliabilityResult(
        protocol=spec.name,
        n=spec.n,
        safe=estimate_from_counts(tally.safe, trials),
        live=estimate_from_counts(tally.live, trials),
        safe_and_live=estimate_from_counts(tally.both, trials),
        method="monte-carlo-correlated",
        detail=f"{trials} trials over {type(model).__name__}",
    )


def required_trials_for_ci_width(probability: float, width: float) -> int:
    """Trials needed so a 95% CI around ``probability`` has the given width.

    Planning helper: probing a 5-nines system to ±1e-6 needs ~4e7 trials,
    which tells you to reach for importance sampling instead.
    """
    if not 0.0 < probability < 1.0:
        raise InvalidConfigurationError("probability must be in (0, 1) for planning")
    if width <= 0.0:
        raise InvalidConfigurationError("width must be positive")
    variance = probability * (1.0 - probability)
    return int(math.ceil((2.0 * _Z95) ** 2 * variance / (width * width)))
