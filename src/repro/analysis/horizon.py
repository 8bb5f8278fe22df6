"""Multi-window reliability horizons (paper §2: fault likelihood evolves).

The §3 analysis is per-window.  Deployments live for years, fault curves
age, and operators repair between windows.  This module chains per-window
analyses into horizon-level statements:

* :func:`reliability_over_horizon` — the time series of per-window
  Safe&Live as the fleet ages along its fault curves (the "when does my
  deployment drop below target?" curve);
* :func:`horizon_survival` — P(no bad window over the whole horizon),
  under either the repair model (failed nodes replaced between windows,
  making windows independent) or the no-repair model (failures
  accumulate);
* :func:`first_subtarget_window` — the preemptive-reconfiguration deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.analysis.counting import counting_reliability
from repro.analysis.result import from_nines
from repro.errors import InvalidConfigurationError
from repro.faults.curves import FaultCurve
from repro.faults.mixture import Fleet, NodeModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import ProtocolSpec

SpecFactory = Callable[[int], "ProtocolSpec"]


@dataclass(frozen=True)
class WindowPoint:
    """One window's projected reliability."""

    window_index: int
    start_hours: float
    safe_and_live: float


def fleet_for_window(
    curves: Sequence[FaultCurve], start_hours: float, window_hours: float
) -> Fleet:
    """Project aging fault curves onto one analysis window."""
    if window_hours <= 0:
        raise InvalidConfigurationError("window must be positive")
    return Fleet(
        tuple(
            NodeModel(p_crash=c.failure_probability(start_hours, start_hours + window_hours))
            for c in curves
        )
    )


def reliability_over_horizon(
    spec_factory: SpecFactory,
    curves: Sequence[FaultCurve],
    *,
    window_hours: float,
    n_windows: int,
) -> list[WindowPoint]:
    """Per-window Safe&Live series as the hardware ages.

    Each point conditions on the fleet having been kept at full strength
    (failures repaired with like-for-like hardware of the same age) — the
    standard rolling-window view an SRE dashboard would show.

    The whole horizon is submitted to the reliability engine as one
    :class:`~repro.engine.ScenarioSet` (each scenario stamped with its
    window), landing in a single shared counting-DP sweep; per-window
    values are bit-identical to evaluating each window separately.
    """
    from repro.engine import Scenario, default_engine

    if n_windows <= 0:
        raise InvalidConfigurationError("n_windows must be positive")
    spec = spec_factory(len(curves))
    starts = [index * window_hours for index in range(n_windows)]
    fleets = [fleet_for_window(curves, start, window_hours) for start in starts]
    scenarios = [
        Scenario(
            spec=spec,
            fleet=fleet,
            method="counting",
            window_hours=window_hours,
            label=f"window[{index}] @ {start:g}h",
        )
        for index, (start, fleet) in enumerate(zip(starts, fleets))
    ]
    results = default_engine().run(scenarios).values
    return [
        WindowPoint(
            window_index=index,
            start_hours=start,
            safe_and_live=result.safe_and_live.value,
        )
        for index, (start, result) in enumerate(zip(starts, results))
    ]


def horizon_survival(
    spec_factory: SpecFactory,
    curves: Sequence[FaultCurve],
    *,
    window_hours: float,
    n_windows: int,
    repair_between_windows: bool = True,
) -> float:
    """P(every window over the horizon is safe-and-live).

    With repair, windows are independent (failed hardware is replaced with
    identical-age stock before the next window) and the survival is the
    product of per-window probabilities.  Without repair, a window's
    failures persist: survival is computed on the joint event "never more
    failures than the spec tolerates", evaluated conservatively as the
    probability that cumulative failures stay within the *liveness* budget
    at every window boundary — for constant-hazard curves this reduces to
    one window of the total length, which is the closed form we use.
    """
    if n_windows <= 0:
        raise InvalidConfigurationError("n_windows must be positive")
    if repair_between_windows:
        survival = 1.0
        for point in reliability_over_horizon(
            spec_factory, curves, window_hours=window_hours, n_windows=n_windows
        ):
            survival *= point.safe_and_live
        return survival
    # No repair: failures accumulate, so the horizon behaves as one long
    # window covering [0, n_windows * window_hours].
    spec = spec_factory(len(curves))
    fleet = fleet_for_window(curves, 0.0, n_windows * window_hours)
    return counting_reliability(spec, fleet).safe_and_live.value


def first_subtarget_window(
    spec_factory: SpecFactory,
    curves: Sequence[FaultCurve],
    *,
    window_hours: float,
    target_nines: float,
    max_windows: int = 200,
) -> WindowPoint | None:
    """First window whose projected Safe&Live misses the target.

    This is the deadline a preemptive-reconfiguration policy (§4) must act
    before.  Returns ``None`` when the horizon never dips below target.
    """
    if target_nines <= 0:
        raise InvalidConfigurationError("target_nines must be positive")
    target = from_nines(target_nines)
    for point in reliability_over_horizon(
        spec_factory, curves, window_hours=window_hours, n_windows=max_windows
    ):
        if point.safe_and_live < target:
            return point
    return None


def expected_bad_windows(
    spec_factory: SpecFactory,
    curves: Sequence[FaultCurve],
    *,
    window_hours: float,
    n_windows: int,
) -> float:
    """Expected number of windows violating Safe&Live over the horizon.

    The linearity-of-expectation companion to :func:`horizon_survival`:
    useful for SLO budgeting ("how many bad maintenance windows per year
    should we plan for?").
    """
    points = reliability_over_horizon(
        spec_factory, curves, window_hours=window_hours, n_windows=n_windows
    )
    return float(sum(1.0 - p.safe_and_live for p in points))


def annualized_downtime_minutes(
    window_unreliability: float, *, window_hours: float
) -> float:
    """Translate per-window violation mass into minutes/year of exposure.

    Interprets a violated window as unavailable for its whole duration —
    deliberately conservative, matching the paper's observation that
    recovery time, not just violation probability, drives end-to-end
    availability (§4 "End-to-end guarantees").
    """
    if not 0.0 <= window_unreliability <= 1.0:
        raise InvalidConfigurationError("window_unreliability must be in [0, 1]")
    if window_hours <= 0:
        raise InvalidConfigurationError("window must be positive")
    windows_per_year = 8766.0 / window_hours
    return window_unreliability * windows_per_year * window_hours * 60.0
