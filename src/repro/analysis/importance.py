"""Importance sampling for rare violation events (paper §4).

Plain Monte-Carlo cannot resolve probabilities like the paper's
"one-in-ten-billion persistence-quorum wipe-out" (§4): at p=1e-10 you would
need ~1e12 trials for a single hit.  Exponential tilting fixes this: sample
failures from *inflated* per-node probabilities ``q_u``, then reweight each
trial by the likelihood ratio ``Π (p_u/q_u)^{x_u} ((1-p_u)/(1-q_u))^{1-x_u}``.
The estimator stays unbiased while concentrating samples where violations
actually occur.

Like plain Monte-Carlo, the trial budget always splits into
``SeedSequence``-spawned shards (:func:`repro.analysis.kernels.plan_shards`)
whose weight moments merge in shard order, so an estimate is a function of
``(trials, seed, shard_trials)`` and ``jobs=``/``pool=`` only choose where
the shards run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.analysis.config import FailureConfig, FaultKind
from repro.analysis.result import Estimate
from repro.errors import EstimationError, InvalidConfigurationError
from repro.faults.mixture import Fleet
from repro.runtime import run_supervised
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import ProtocolSpec


@dataclass(frozen=True)
class ImportanceResult:
    """Outcome of an importance-sampled rare-event estimation.

    ``shards`` records how many spawned-stream shards produced the estimate.
    """

    violation: Estimate
    trials: int
    tilt: tuple[float, ...]
    effective_sample_size: float
    shards: int = 1

    @property
    def reliability(self) -> Estimate:
        """Complement of the violation probability, uncertainty preserved."""
        ci_low = None if self.violation.ci_high is None else 1.0 - self.violation.ci_high
        ci_high = None if self.violation.ci_low is None else 1.0 - self.violation.ci_low
        return Estimate(
            value=1.0 - self.violation.value,
            stderr=self.violation.stderr,
            ci_low=ci_low,
            ci_high=ci_high,
        )


def minimal_violating_failures(
    spec: "ProtocolSpec",
    *,
    predicate: str = "safe",
    failure_kind: FaultKind | None = None,
) -> int | None:
    """Smallest failure count that can violate ``predicate`` (symmetric specs).

    With ``failure_kind`` unset, scans counts 0..n assuming the worst split
    between crash and Byzantine outcomes; with it set, all failures take
    that kind (matching the sampler in :func:`importance_sample_violation`).
    Returns ``None`` when no count violates (e.g. Raft safety with majority
    quorums is unconditionally safe under crash failures).
    """
    from repro.analysis.kernels import verdict_masks

    if not spec.symmetric:
        raise InvalidConfigurationError("minimal_violating_failures needs a symmetric spec")
    masks = verdict_masks(spec)
    if failure_kind in (FaultKind.CRASH, FaultKind.BYZANTINE):  # one line: n + 1 verdicts
        holds = masks.line(failure_kind is FaultKind.BYZANTINE).for_metric(predicate)
    else:  # every split of each count, read from the grid
        grid = masks.for_metric(predicate)
        holds = (all(grid[k - b, b] for b in range(k + 1)) for k in range(spec.n + 1))
    return next((failures for failures, ok in enumerate(holds) if not ok), None)


def default_tilt(fleet: Fleet, target_failures: int) -> tuple[float, ...]:
    """Inflate failure probabilities so ``target_failures`` become typical.

    Each node's failure probability is raised to at least
    ``target_failures / n`` (capped at 0.9), leaving already-likely failures
    untouched.  This puts the sampler's mean failure count at the violation
    boundary, which is where the variance-optimal tilt lives for threshold
    events.
    """
    if target_failures < 0:
        raise InvalidConfigurationError("target_failures must be non-negative")
    floor = min(0.9, max(target_failures, 1) / max(fleet.n, 1))
    return tuple(min(0.9, max(p, floor)) for p in fleet.failure_probabilities)


def importance_sample_violation(
    spec: "ProtocolSpec",
    fleet: Fleet,
    *,
    predicate: str = "safe",
    trials: int = 50_000,
    seed: SeedLike = None,
    tilt: Sequence[float] | None = None,
    failure_kind: FaultKind = FaultKind.CRASH,
    jobs: int | None = None,
    shard_trials: int | None = None,
    pool: str = "process",
) -> ImportanceResult:
    """Estimate ``P(predicate violated)`` with exponentially tilted sampling.

    ``tilt`` gives per-node sampling probabilities; when omitted it is
    derived from the smallest violating failure count.  All failures are
    assigned ``failure_kind`` (use BYZANTINE for worst-case BFT analysis).

    The trial budget is sharded with per-shard ``SeedSequence``-spawned
    streams and per-shard weight moments merge in shard order, so the
    estimate depends on ``(trials, seed, shard_trials)`` but never on
    ``jobs`` or ``pool`` (which only pick where the shards run).
    """
    from repro.analysis.kernels import (
        plan_shards,
        require_positive_int,
        spawn_shard_generators,
        verdict_masks,
    )

    if fleet.n != spec.n:
        raise InvalidConfigurationError(f"fleet has {fleet.n} nodes but spec expects {spec.n}")
    trials = require_positive_int(trials)
    if failure_kind is FaultKind.CORRECT:
        raise InvalidConfigurationError("failure_kind cannot be CORRECT")

    p = np.array(fleet.failure_probabilities)
    if tilt is None:
        if spec.symmetric:
            k_min = minimal_violating_failures(
                spec, predicate=predicate, failure_kind=failure_kind
            )
            if k_min is None:
                # Nothing can violate the predicate: probability exactly 0.
                return ImportanceResult(
                    violation=Estimate.exact(0.0),
                    trials=0,
                    tilt=tuple(p),
                    effective_sample_size=float("inf"),
                )
            tilt_arr = np.array(default_tilt(fleet, k_min))
        else:
            tilt_arr = np.clip(p * 10.0, 0.05, 0.9)
    else:
        tilt_arr = np.asarray(tilt, dtype=float)
        if tilt_arr.shape != (fleet.n,):
            raise InvalidConfigurationError("tilt must have one probability per node")
        if np.any((tilt_arr <= 0.0) | (tilt_arr >= 1.0)):
            raise InvalidConfigurationError("tilt probabilities must lie in (0, 1)")
        if np.any((p > 0.0) & (tilt_arr == 0.0)):
            raise InvalidConfigurationError("tilt gives zero mass to a possible failure")

    checks = {
        "safe": spec.is_safe,
        "live": spec.is_live,
        "safe_and_live": spec.is_safe_and_live,
    }
    if predicate not in checks:
        raise InvalidConfigurationError(f"unknown predicate {predicate!r}")
    check = checks[predicate]

    log_ratio_fail = np.log(np.maximum(p, 1e-300)) - np.log(tilt_arr)
    log_ratio_ok = np.log1p(-p) - np.log1p(-tilt_arr)

    plan = plan_shards(trials, shard_trials)
    rngs = spawn_shard_generators(seed, plan.num_shards)
    if spec.symmetric:
        # Evaluate the line the shards read before they fan out: forked
        # workers inherit it and thread shards do not each evaluate it again.
        verdict_masks(spec).line(failure_kind is FaultKind.BYZANTINE)
    payloads = [
        (
            spec,
            predicate,
            check,
            tilt_arr,
            log_ratio_fail,
            log_ratio_ok,
            shard,
            rng,
            failure_kind,
        )
        for shard, rng in zip(plan.shards, rngs)
    ]
    # Default supervision: one attempt per shard, so no payload is rebuilt.
    moments, _report = run_supervised(
        _weights_shard, payloads, jobs=jobs or 1, mode=pool
    )
    # Merge the per-shard weight moments in shard order: the estimate is
    # a pure function of the plan, independent of the worker count.
    weight_sum = weight_sq_sum = 0.0
    for shard_sum, shard_sq_sum in moments:
        weight_sum += shard_sum
        weight_sq_sum += shard_sq_sum
    mean = weight_sum / trials
    if trials > 1:
        variance = max(0.0, (weight_sq_sum - trials * mean * mean) / (trials - 1))
        stderr = math.sqrt(variance / trials)
    else:
        stderr = float("nan")

    ess = weight_sum**2 / weight_sq_sum if weight_sq_sum > 0 else 0.0
    if weight_sum == 0.0:
        # No violations observed even under tilting — report a bound rather
        # than a misleading hard zero.
        upper = 3.0 / trials  # rule-of-three scaled by min weight ≈ conservative
        estimate = Estimate(value=0.0, stderr=0.0, ci_low=0.0, ci_high=upper)
        return ImportanceResult(estimate, trials, tuple(tilt_arr), 0.0, plan.num_shards)
    estimate = Estimate(
        value=mean,
        stderr=stderr,
        ci_low=max(0.0, mean - 1.96 * stderr),
        ci_high=min(1.0, mean + 1.96 * stderr),
    )
    return ImportanceResult(estimate, trials, tuple(tilt_arr), ess, plan.num_shards)


def _weights_shard(payload) -> tuple[float, float]:
    """Pool entry point: one shard's tilted-weight moments ``(Σw, Σw²)``."""
    (
        spec,
        predicate,
        check,
        tilt_arr,
        log_ratio_fail,
        log_ratio_ok,
        shard_trials,
        rng,
        failure_kind,
    ) = payload
    weights = _tilted_violation_weights(
        spec,
        predicate,
        check,
        tilt_arr,
        log_ratio_fail,
        log_ratio_ok,
        shard_trials,
        rng,
        failure_kind,
    )
    return float(weights.sum()), float((weights**2).sum())


def _tilted_violation_weights(
    spec: "ProtocolSpec",
    predicate: str,
    check: Callable[[FailureConfig], bool],
    tilt_arr: np.ndarray,
    log_ratio_fail: np.ndarray,
    log_ratio_ok: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    failure_kind: FaultKind,
) -> np.ndarray:
    """Per-trial likelihood-ratio weights of violating tilted samples.

    Batched: failure vectors are drawn as chunked ``(m, n)`` blocks (same
    generator stream as a per-trial loop), violations are decided by
    verdict-mask lookup for symmetric specs or unique-row dedup otherwise,
    and log-weights are row-summed vectorially.
    """
    from repro.analysis.kernels import _chunk_sizes, verdict_masks

    byzantine = failure_kind is FaultKind.BYZANTINE
    mask = verdict_masks(spec).line(byzantine).for_metric(predicate) if spec.symmetric else None
    weights = np.zeros(trials)
    offset = 0
    for size in _chunk_sizes(trials, spec.n):
        failed = rng.random((size, spec.n)) < tilt_arr
        if mask is not None:
            holds = mask[failed.sum(axis=1)]  # every failure takes the one kind
        else:
            rows, inverse = np.unique(failed, axis=0, return_inverse=True)
            verdicts = np.fromiter(
                (
                    check(
                        FailureConfig(
                            tuple(failure_kind if f else FaultKind.CORRECT for f in row)
                        )
                    )
                    for row in rows
                ),
                dtype=bool,
                count=len(rows),
            )
            holds = verdicts[inverse]
        violating = ~holds
        if violating.any():
            log_weights = np.where(
                failed[violating], log_ratio_fail, log_ratio_ok
            ).sum(axis=1)
            weights[offset : offset + size][violating] = np.exp(log_weights)
        offset += size
    return weights


def quorum_wipeout_probability(
    n: int,
    quorum_size: int,
    p_fail: float,
    *,
    trials: int = 200_000,
    seed: SeedLike = None,
) -> ImportanceResult:
    """P(a *fixed* quorum of ``quorum_size`` nodes all fail) — paper §4 example.

    The closed form is ``p_fail ** quorum_size``; the importance-sampled
    estimate exists to demonstrate the machinery on an independently
    verifiable rare event (N=100, q=10, p=10% → 1e-10).
    """
    if not 0 < quorum_size <= n:
        raise InvalidConfigurationError(f"quorum size {quorum_size} invalid for n={n}")
    if not 0.0 < p_fail < 1.0:
        raise InvalidConfigurationError("p_fail must be in (0, 1)")
    rng = as_generator(seed)
    # Only the quorum members matter; tilt them to 50/50.
    q = 0.5
    log_ratio_fail = math.log(p_fail) - math.log(q)
    log_ratio_ok = math.log1p(-p_fail) - math.log1p(-q)
    weights = np.zeros(trials)
    for t in range(trials):
        failed = rng.random(quorum_size) < q
        if failed.all():
            weights[t] = math.exp(quorum_size * log_ratio_fail)
        # Trials with any survivor contribute zero.
        _ = log_ratio_ok  # documented: survivor terms never weight violations
    mean = float(weights.mean())
    stderr = float(weights.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("nan")
    ess = (weights.sum() ** 2 / (weights**2).sum()) if weights.any() else 0.0
    estimate = Estimate(
        value=mean,
        stderr=stderr,
        ci_low=max(0.0, mean - 1.96 * stderr),
        ci_high=min(1.0, mean + 1.96 * stderr),
    )
    if mean == 0.0:
        raise EstimationError("no wipe-out sampled even under tilting; increase trials")
    return ImportanceResult(estimate, trials, (q,) * quorum_size, ess)
