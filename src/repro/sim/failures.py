"""Fault injection driven by fault curves (paper §2 → §3 validation loop).

Bridges :mod:`repro.faults` and the simulator: sample per-node failure
times from fault curves (or fixed failure configurations from the
analysis layer) and schedule the corresponding crash/recovery events on a
:class:`repro.sim.cluster.Cluster`.  This is what lets protocol executions
be checked against the predicate-level Safe/Live classification.  For the
declarative superset — partitions, loss/delay bursts, correlated bursts
and Byzantine behaviour activation — see :mod:`repro.injection`, which
compiles fault *plans* down to the schedules this module applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.analysis.config import FailureConfig, FaultKind
from repro.errors import InvalidConfigurationError
from repro.faults.curves import FaultCurve
from repro.sim.cluster import Cluster


@dataclass(frozen=True)
class InjectionPlan:
    """Concrete failure schedule for one run."""

    crash_times: dict[int, float]  # node_id -> virtual time of fail-stop
    recovery_times: dict[int, float]  # node_id -> virtual recovery time

    @property
    def crashed_nodes(self) -> frozenset[int]:
        return frozenset(self.crash_times)

    def apply(self, cluster: Cluster) -> None:
        """Schedule the plan's crashes and recoveries on a cluster."""
        for node_id, crash_time in sorted(self.crash_times.items()):
            cluster.crash_at(node_id, crash_time)
        for node_id, recover_time in sorted(self.recovery_times.items()):
            if node_id not in self.crash_times:
                raise InvalidConfigurationError(
                    f"recovery scheduled for node {node_id} that never crashes"
                )
            if recover_time <= self.crash_times[node_id]:
                raise InvalidConfigurationError(
                    f"node {node_id} recovery at {recover_time} precedes its crash"
                )
            cluster.recover_at(node_id, recover_time)


def draw_repair_time(
    crash_time: float,
    mean_time_to_repair: float,
    duration: float,
    rng: np.random.Generator,
) -> float | None:
    """One exponential repair draw, or ``None`` when it lands past the run.

    The single definition of the crash-recovery draw shared by
    :func:`plan_from_config` and the fault-plan events
    (:class:`repro.injection.CrashStop`, :class:`repro.injection.CorrelatedBurst`),
    so the drop-late-repairs guard cannot drift between them.
    """
    recover_time = crash_time + float(rng.exponential(mean_time_to_repair))
    return recover_time if recover_time < duration else None


def plan_from_config(
    config: FailureConfig,
    *,
    duration: float,
    crash_window: tuple[float, float] | None = None,
    mean_time_to_repair: float | None = None,
    seed: SeedLike = None,
) -> InjectionPlan:
    """Materialise an analysis-layer configuration into a crash schedule.

    CRASH nodes fail-stop at a uniformly random time inside
    ``crash_window`` (default: the first half of the run); with
    ``mean_time_to_repair`` set (sim-seconds), each draws an exponential
    repair delay and recovers — crash-recovery parity with
    :func:`plan_from_curves`, including its guard that repairs landing at
    or past ``duration`` are dropped (the node stays down, matching the
    analysis model where an unrepaired window failure is terminal).
    BYZANTINE nodes are never scheduled here: their misbehaviour is
    configured at node construction — use a
    :class:`repro.injection.FaultPlan` adversary section, which activates
    registered behaviour classes through the campaign runner.
    """
    if duration <= 0:
        raise InvalidConfigurationError("duration must be positive")
    window = crash_window if crash_window is not None else (0.0, duration / 2.0)
    if not 0.0 <= window[0] < window[1] <= duration:
        raise InvalidConfigurationError(f"invalid crash window {window}")
    if mean_time_to_repair is not None and mean_time_to_repair <= 0:
        raise InvalidConfigurationError("mean_time_to_repair must be positive")
    rng = as_generator(seed)
    crash_times: dict[int, float] = {}
    recovery_times: dict[int, float] = {}
    for node_id, kind in enumerate(config.kinds):
        if kind is not FaultKind.CRASH:
            continue
        crash_time = float(rng.uniform(*window))
        crash_times[node_id] = crash_time
        if mean_time_to_repair is not None:
            recover_time = draw_repair_time(
                crash_time, mean_time_to_repair, duration, rng
            )
            if recover_time is not None:
                recovery_times[node_id] = recover_time
    return InjectionPlan(crash_times=crash_times, recovery_times=recovery_times)


def plan_from_curves(
    curves: Sequence[FaultCurve],
    *,
    duration: float,
    hours_per_sim_second: float = 1.0,
    mean_time_to_repair: float | None = None,
    seed: SeedLike = None,
) -> InjectionPlan:
    """Sample failure times from fault curves and map them to sim time.

    ``hours_per_sim_second`` converts curve time (hours) to simulator time
    (seconds); with MTTR set, crashed nodes recover after an exponential
    repair delay (also in hours).
    """
    if duration <= 0:
        raise InvalidConfigurationError("duration must be positive")
    if hours_per_sim_second <= 0:
        raise InvalidConfigurationError("hours_per_sim_second must be positive")
    rng = as_generator(seed)
    horizon_hours = duration * hours_per_sim_second
    crash_times: dict[int, float] = {}
    recovery_times: dict[int, float] = {}
    for node_id, curve in enumerate(curves):
        failure_hours = curve.sample_failure_time(rng, horizon=horizon_hours)
        if not math.isfinite(failure_hours) or failure_hours >= horizon_hours:
            continue
        crash_time = failure_hours / hours_per_sim_second
        # Guard the open interval: crashing exactly at t=0 races node start.
        crash_times[node_id] = max(crash_time, 1e-9)
        if mean_time_to_repair is not None:
            repair_hours = float(rng.exponential(mean_time_to_repair))
            recover_time = (failure_hours + repair_hours) / hours_per_sim_second
            if recover_time < duration:
                recovery_times[node_id] = recover_time
    return InjectionPlan(crash_times=crash_times, recovery_times=recovery_times)
