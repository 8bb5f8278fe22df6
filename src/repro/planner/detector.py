"""Probabilistic failure detection — φ-accrual (paper §4).

"Probabilistic approaches can be further used to design new types of
failure detectors, which are more realistic and accurate."  The φ-accrual
detector (Hayashibara et al.) is the canonical probabilistic detector: it
outputs a continuous suspicion level

    φ(t) = -log10( P(heartbeat arrives after t | arrival history) )

instead of a binary verdict, letting callers pick their own
false-positive/detection-latency point — the same nines-style thinking the
paper advocates for consensus guarantees.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro._stats import normal_isf
from repro.errors import InvalidConfigurationError


@dataclass(frozen=True)
class SuspicionLevel:
    """φ value plus the derived binary verdict at a threshold."""

    phi: float
    threshold: float

    @property
    def suspected(self) -> bool:
        return self.phi >= self.threshold

    @property
    def false_positive_probability(self) -> float:
        """P(node actually alive despite φ at this level) = 10^-φ."""
        return 10.0 ** (-self.phi)


class PhiAccrualDetector:
    """φ-accrual failure detector over one monitored node's heartbeats.

    Inter-arrival times are modelled as a normal distribution fitted to a
    sliding window; φ is the -log10 of the normal tail beyond the current
    silence.  ``min_std`` guards degenerate windows (perfectly regular
    heartbeats would make any delay infinitely suspicious).
    """

    def __init__(
        self,
        *,
        window_size: int = 200,
        threshold: float = 8.0,
        min_std: float = 0.05,
    ):
        if window_size < 2:
            raise InvalidConfigurationError("window_size must be at least 2")
        if threshold <= 0:
            raise InvalidConfigurationError("threshold must be positive")
        if min_std <= 0:
            raise InvalidConfigurationError("min_std must be positive")
        self._intervals: deque[float] = deque(maxlen=window_size)
        self._last_arrival: float | None = None
        self.threshold = threshold
        self._min_std = min_std

    def heartbeat(self, arrival_time: float) -> None:
        """Record a heartbeat arrival (monotonically increasing times)."""
        if self._last_arrival is not None:
            interval = arrival_time - self._last_arrival
            if interval < 0:
                raise InvalidConfigurationError("heartbeat times must be non-decreasing")
            self._intervals.append(interval)
        self._last_arrival = arrival_time

    def _statistics(self) -> tuple[float, float]:
        intervals = list(self._intervals)
        mean = sum(intervals) / len(intervals)
        variance = sum((x - mean) ** 2 for x in intervals) / max(len(intervals) - 1, 1)
        std = max(math.sqrt(variance), self._min_std * max(mean, 1e-9))
        return mean, std

    def phi(self, now: float) -> float:
        """Current suspicion level; 0 while the history is too short."""
        if self._last_arrival is None or len(self._intervals) < 2:
            return 0.0
        elapsed = now - self._last_arrival
        if elapsed < 0:
            raise InvalidConfigurationError("now precedes the last heartbeat")
        mean, std = self._statistics()
        z = (elapsed - mean) / std
        tail = _normal_sf(z)
        if tail <= 0.0:
            return float("inf")
        return -math.log10(tail)

    def level(self, now: float) -> SuspicionLevel:
        return SuspicionLevel(phi=self.phi(now), threshold=self.threshold)

    def time_to_suspicion(self, phi_target: float | None = None) -> float:
        """Silence duration after which φ reaches the (given or own) threshold."""
        target = self.threshold if phi_target is None else phi_target
        if target <= 0:
            raise InvalidConfigurationError("phi target must be positive")
        if len(self._intervals) < 2:
            return float("inf")
        mean, std = self._statistics()
        z = normal_isf(10.0 ** (-target))
        return mean + z * std


def _normal_sf(z: float) -> float:
    """Standard normal survival function."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))
