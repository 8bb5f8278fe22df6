"""Maximum-likelihood fitting of fault curves from failure logs (paper §4).

The paper's vision "hinges on the ability to accurately express ... fault
curves ... computed from telemetry".  This module closes the loop with the
:mod:`repro.telemetry` substrate: given observed lifetimes (with right
censoring for machines still alive at observation end) it fits constant,
Weibull and piecewise-constant hazard models and selects among them by AIC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._stats import minimize_bounded
from repro.errors import FittingError, InvalidConfigurationError
from repro.faults.curves import (
    ConstantHazard,
    FaultCurve,
    PiecewiseConstantCurve,
    WeibullCurve,
)


@dataclass(frozen=True)
class CurveFit:
    """Result of fitting one candidate hazard model.

    ``log_likelihood`` and ``aic`` allow model comparison;
    ``n_parameters`` is the count used in the AIC penalty.
    """

    curve: FaultCurve
    log_likelihood: float
    n_parameters: int
    model_name: str

    @property
    def aic(self) -> float:
        """Akaike information criterion (lower is better)."""
        return 2.0 * self.n_parameters - 2.0 * self.log_likelihood


def _validate_observations(durations: Sequence[float], observed: Sequence[bool]) -> tuple[np.ndarray, np.ndarray]:
    durations_arr = np.asarray(durations, dtype=float)
    observed_arr = np.asarray(observed, dtype=bool)
    if durations_arr.ndim != 1 or durations_arr.size == 0:
        raise InvalidConfigurationError("durations must be a non-empty 1-D sequence")
    if observed_arr.shape != durations_arr.shape:
        raise InvalidConfigurationError("observed flags must match durations in length")
    if np.any(durations_arr < 0):
        raise InvalidConfigurationError("durations must be non-negative")
    return durations_arr, observed_arr


def fit_constant_hazard(durations: Sequence[float], observed: Sequence[bool]) -> CurveFit:
    """MLE for a constant hazard with right censoring.

    The estimator is the classic exposure ratio: ``rate = failures / total
    machine-hours``.  ``observed[i]`` is True when machine ``i`` actually
    failed at ``durations[i]`` and False when it was still alive (censored).
    """
    durations_arr, observed_arr = _validate_observations(durations, observed)
    exposure = float(durations_arr.sum())
    failures = int(observed_arr.sum())
    if exposure <= 0:
        raise FittingError("zero total exposure; cannot fit a hazard rate")
    rate = failures / exposure
    if failures == 0:
        # No failures observed: the MLE is 0, which yields a degenerate
        # log-likelihood of 0 (all survival terms vanish).
        return CurveFit(ConstantHazard(0.0), 0.0, 1, "constant")
    log_lik = failures * math.log(rate) - rate * exposure
    return CurveFit(ConstantHazard(rate), log_lik, 1, "constant")


def fit_weibull(
    durations: Sequence[float],
    observed: Sequence[bool],
    *,
    shape_bounds: tuple[float, float] = (0.05, 20.0),
) -> CurveFit:
    """Censored Weibull MLE via profile likelihood on the shape parameter.

    For a fixed shape ``k`` the scale has a closed-form MLE, so we reduce
    fitting to a 1-D bounded optimisation over ``k`` — robust and fast.
    """
    durations_arr, observed_arr = _validate_observations(durations, observed)
    failures = int(observed_arr.sum())
    if failures == 0:
        raise FittingError("cannot fit a Weibull with zero observed failures")
    event_times = durations_arr[observed_arr]
    if np.any(event_times <= 0):
        raise FittingError("observed failure times must be positive for Weibull fitting")

    def negative_profile_log_lik(shape: float) -> float:
        powered = durations_arr**shape
        scale_pow = powered.sum() / failures  # lambda^k MLE
        log_lik = (
            failures * math.log(shape)
            - failures * math.log(scale_pow)
            + (shape - 1.0) * np.log(event_times).sum()
            - powered.sum() / scale_pow
        )
        return -log_lik

    shape, negative_log_lik, converged = minimize_bounded(
        negative_profile_log_lik, *shape_bounds
    )
    if not converged:
        raise FittingError("Weibull shape optimisation failed: evaluation budget exhausted")
    scale = float((durations_arr**shape).sum() / failures) ** (1.0 / shape)
    return CurveFit(WeibullCurve(shape, scale), -float(negative_log_lik), 2, "weibull")


def fit_piecewise_hazard(
    durations: Sequence[float],
    observed: Sequence[bool],
    breakpoints: Sequence[float],
) -> CurveFit:
    """Piecewise-constant hazard MLE on fixed breakpoints.

    Each segment's rate is its own exposure ratio.  Useful for recovering
    bathtub-ish shapes without committing to a parametric family, and for
    quantifying rollout-window hazard spikes.
    """
    durations_arr, observed_arr = _validate_observations(durations, observed)
    points = tuple(float(b) for b in breakpoints)
    if not points or points[0] != 0.0:
        raise InvalidConfigurationError("breakpoints must start at 0.0")
    edges = list(points) + [math.inf]
    rates: list[float] = []
    log_lik = 0.0
    n_params = 0
    for i in range(len(points)):
        seg_start, seg_end = edges[i], edges[i + 1]
        exposure = float(np.clip(np.minimum(durations_arr, seg_end) - seg_start, 0.0, None).sum())
        events = int(
            (observed_arr & (durations_arr > seg_start) & (durations_arr <= seg_end)).sum()
        )
        if exposure <= 0:
            rates.append(0.0)
            continue
        rate = events / exposure
        rates.append(rate)
        n_params += 1
        if events > 0:
            log_lik += events * math.log(rate)
        log_lik -= rate * exposure
    curve = PiecewiseConstantCurve(points, tuple(rates))
    return CurveFit(curve, log_lik, max(n_params, 1), "piecewise")


def select_best_fit(
    durations: Sequence[float],
    observed: Sequence[bool],
    *,
    piecewise_breakpoints: Sequence[float] | None = None,
) -> CurveFit:
    """Fit all candidate families and return the lowest-AIC model.

    Candidates: constant hazard, Weibull, and (optionally) piecewise
    constant on the supplied breakpoints.  Families that cannot be fitted
    (e.g. Weibull with zero events) are silently skipped; at least the
    constant model always succeeds.
    """
    candidates = [fit_constant_hazard(durations, observed)]
    try:
        candidates.append(fit_weibull(durations, observed))
    except FittingError:
        pass
    if piecewise_breakpoints is not None:
        try:
            candidates.append(fit_piecewise_hazard(durations, observed, piecewise_breakpoints))
        except FittingError:
            pass
    return min(candidates, key=lambda fit: fit.aic)
