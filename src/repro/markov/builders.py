"""Markov-model builders for replicated clusters (paper §2, §5 Zorfu).

States count failed replicas; failure transitions run at ``(n - k)·λ`` and
repairs at ``min(k, repair_slots)·μ``.  From these chains we derive the
metrics the storage community uses — and the paper says consensus should
adopt — MTTF (time to losing liveness), MTTDL (time to losing data), and
steady-state availability under repair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable

from repro._stats import binom_sf
from repro.errors import InvalidConfigurationError
from repro.markov.chain import (
    ContinuousTimeMarkovChain,
    TransitionRates,
    mean_time_to_absorption,
)


@dataclass(frozen=True)
class ClusterMarkovModel:
    """Birth–death model of an ``n``-replica cluster with repair.

    Parameters
    ----------
    n:
        Replica count.
    failure_rate_per_hour:
        Per-replica constant hazard λ.
    repair_rate_per_hour:
        Per-repair-slot rate μ (1 / mean-time-to-repair).
    repair_slots:
        Concurrent repairs allowed (1 = single repair crew, n = fully
        parallel re-provisioning).
    """

    n: int
    failure_rate_per_hour: float
    repair_rate_per_hour: float
    repair_slots: int = 1

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise InvalidConfigurationError(f"n must be positive, got {self.n}")
        if self.failure_rate_per_hour < 0 or self.repair_rate_per_hour < 0:
            raise InvalidConfigurationError("rates must be non-negative")
        if self.repair_slots < 0:
            raise InvalidConfigurationError("repair_slots must be non-negative")

    def chain(self, *, absorbing_at: int | None = None) -> ContinuousTimeMarkovChain:
        """Build the CTMC on states ``0..n`` failed.

        ``absorbing_at`` truncates repairs at that failure count, making it
        absorbing — the construction used for mean-time-to-X questions.
        """
        if absorbing_at is not None and not 0 < absorbing_at <= self.n:
            raise InvalidConfigurationError(
                f"absorbing_at={absorbing_at} outside (0, {self.n}]"
            )
        # States beyond the absorbing boundary are unreachable; excluding
        # them keeps the transient block non-singular.
        top = self.n if absorbing_at is None else absorbing_at
        rates: dict[tuple[int, int], float] = {}
        for failed in range(top):
            rates[(failed, failed + 1)] = (self.n - failed) * self.failure_rate_per_hour
        for failed in range(1, top + 1):
            if absorbing_at is not None and failed >= absorbing_at:
                continue
            slots = min(failed, self.repair_slots)
            if slots > 0 and self.repair_rate_per_hour > 0:
                rates[(failed, failed - 1)] = slots * self.repair_rate_per_hour
        states = list(range(top + 1))
        return ContinuousTimeMarkovChain(states, TransitionRates(rates))

    @cached_property
    def _repairable_chain(self) -> ContinuousTimeMarkovChain:
        """The full chain (no absorbing state), built once per model and
        shared by every MTTF, MTTDL and availability question asked of it."""
        return self.chain()

    # ------------------------------------------------------------------
    # Storage-style metrics
    # ------------------------------------------------------------------
    def mean_time_to_failure_count(self, threshold: int) -> float:
        """Mean hours from all-healthy until ``threshold`` replicas are down.

        Solved on the leading ``threshold × threshold`` block of the
        repairable chain's generator.  That block *is* the transient block
        of ``chain(absorbing_at=threshold)``: rows below the threshold
        carry the same failure and repair rates in both chains, and each
        diagonal entry is minus the sum of at most two nonzero rates, which
        rounds once whatever zeros pad the row.  So every threshold of a
        model shares one chain build, bit-identically.
        """
        if not 0 < threshold <= self.n:
            raise InvalidConfigurationError(
                f"threshold={threshold} outside (0, {self.n}]"
            )
        generator = self._repairable_chain.generator
        return mean_time_to_absorption(generator[:threshold, :threshold], 0)

    def mttf_liveness(self, quorum_size: int) -> float:
        """MTTF for liveness: time until fewer than ``quorum_size`` replicas remain."""
        threshold = self.n - quorum_size + 1
        if threshold <= 0:
            return 0.0
        return self.mean_time_to_failure_count(threshold)

    def mttdl(self, persistence_quorum: int) -> float:
        """Mean time to data loss: all ``persistence_quorum`` copies down at once.

        Matches the adversarial durability model of
        :class:`repro.protocols.reliability_aware.ObliviousDurabilityRaftSpec`:
        data is lost when ``persistence_quorum`` simultaneous failures can
        cover the quorum that persisted the data.
        """
        if not 0 < persistence_quorum <= self.n:
            raise InvalidConfigurationError(
                f"persistence_quorum={persistence_quorum} outside (0, {self.n}]"
            )
        return self.mean_time_to_failure_count(persistence_quorum)

    def steady_state_distribution(self) -> dict:
        """Stationary distribution π of the repairable chain (one CTMC solve)."""
        if self.repair_rate_per_hour <= 0:
            raise InvalidConfigurationError("availability under repair needs μ > 0")
        return self._repairable_chain.steady_state()

    def steady_state_availabilities(
        self, quorum_sizes: Iterable[int], *, pi: dict | None = None
    ) -> list[float]:
        """Long-run fraction of time each ``quorum_size`` quorum is formable.

        Every quorum is read off one prefix pass over π in failure-count
        order.  The pass is a plain left-to-right accumulation: the builtin
        ``sum()`` is not used because from Python 3.12 on it compensates
        float rounding (Neumaier summation), which would make availability
        depend on the interpreter.  ``pi`` optionally supplies a
        precomputed :meth:`steady_state_distribution`; passing it skips the
        linear solve but changes nothing bit-wise.  A quorum larger than
        ``n`` is never formable: its value is the empty sum, ``0``.
        """
        if self.repair_rate_per_hour <= 0:
            raise InvalidConfigurationError("availability under repair needs μ > 0")
        if pi is None:
            pi = self.steady_state_distribution()
        # at_most[k]: the mass of the states with fewer than k replicas down.
        at_most = list(accumulate((pi[failed] for failed in range(self.n + 1)), initial=0))
        return [
            at_most[min(max(self.n - quorum_size + 1, 0), self.n + 1)]
            for quorum_size in quorum_sizes
        ]

    def steady_state_availability(
        self, quorum_size: int, *, pi: dict | None = None
    ) -> float:
        """:meth:`steady_state_availabilities` of one quorum."""
        return self.steady_state_availabilities((quorum_size,), pi=pi)[0]

    def window_unavailability(self, quorum_size: int, window_hours: float) -> float:
        """P(cluster has lost quorum at the end of a window, no repairs mid-window).

        Diagnostic linking the Markov view to the paper's per-window
        failure-probability view.
        """
        p_window = -math.expm1(-self.failure_rate_per_hour * window_hours)
        max_failed = self.n - quorum_size
        return binom_sf(max_failed, self.n, p_window)


def mttf_comparison(
    models: dict[str, ClusterMarkovModel], quorum_size_of: dict[str, int]
) -> dict[str, float]:
    """MTTF (liveness) for a family of named cluster designs."""
    missing = set(models) - set(quorum_size_of)
    if missing:
        raise InvalidConfigurationError(f"missing quorum sizes for {sorted(missing)}")
    return {
        name: model.mttf_liveness(quorum_size_of[name]) for name, model in models.items()
    }
