"""Markov-model builders for replicated clusters (paper §2, §5 Zorfu).

States count failed replicas; failure transitions run at ``λ_k = (n - k)·λ``
and repairs at ``μ_k = min(k, repair_slots)·μ``.  From these chains we
derive the metrics the storage community uses — and the paper says
consensus should adopt — MTTF (time to losing liveness), MTTDL (time to
losing data), and steady-state availability under repair.

The chain is birth–death, so every metric has a closed form that costs
its arithmetic and solves nothing: the stationary distribution is the
product form ``π_k ∝ Π_{i<k} λ_i / μ_{i+1}``, and the mean time to ``t``
failures is ``Σ_{k<t} T_k`` over the first-passage times ``T_0 = 1/λ_0``,
``T_k = (1 + μ_k·T_{k-1}) / λ_k``.  Every term is positive, so nothing
cancels: the values hold to a few ulps per state where a dense solve of
the generator loses the MTTF of a stiff chain (λ ≪ μ) entirely.
:meth:`ClusterMarkovModel.chain` still builds the generator, for
:mod:`repro.markov.simulate` and for generic chain questions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable

from repro._stats import binom_sf
from repro.errors import InvalidConfigurationError
from repro.markov.chain import ContinuousTimeMarkovChain, TransitionRates


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

    @cached_property
    def _rates(self) -> tuple[list[float], list[float]]:
        """``λ_k`` for ``k`` in ``0..n-1`` and ``μ_k`` for ``k`` in ``0..n``."""
        lam, mu, slots = self.failure_rate_per_hour, self.repair_rate_per_hour, self.repair_slots
        return (
            [(self.n - failed) * lam for failed in range(self.n)],
            [min(failed, slots) * mu for failed in range(self.n + 1)],
        )

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
        up, down = self._rates
        rates = {(failed, failed + 1): up[failed] for failed in range(top)}
        repairable = range(1, top + 1 if absorbing_at is None else top)
        rates.update(((k, k - 1), down[k]) for k in repairable if down[k] > 0)
        return ContinuousTimeMarkovChain(list(range(top + 1)), TransitionRates(rates))

    @cached_property
    def _hitting_times(self) -> tuple[float, ...]:
        """Mean hours from all-healthy to ``t`` failures, at index ``t - 1``.

        The running sums of the first-passage times ``T_k`` from ``k`` to
        ``k + 1`` failures: leaving ``k`` takes ``1 / (λ_k + μ_k)`` and
        returns to ``k - 1`` with probability ``μ_k / (λ_k + μ_k)``, so
        ``λ_k·T_k = 1 + μ_k·T_{k-1}``.  A chain that never fails never
        reaches any threshold.
        """
        if self.failure_rate_per_hour == 0:
            return (math.inf,) * self.n
        passage, passages = 0.0, []
        for up, down in zip(*self._rates):
            passage = (1.0 + down * passage) / up
            passages.append(passage)
        return tuple(accumulate(passages))

    # ------------------------------------------------------------------
    # Storage-style metrics
    # ------------------------------------------------------------------
    def mean_time_to_failure_count(self, threshold: int) -> float:
        """Mean hours from all-healthy until ``threshold`` replicas are down.

        The sum of the first-passage times below the threshold (see the
        module docstring); every threshold of a model reads one pass.
        """
        if not 0 < threshold <= self.n:
            raise InvalidConfigurationError(
                f"threshold={threshold} outside (0, {self.n}]"
            )
        return self._hitting_times[threshold - 1]

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
        """Stationary distribution π of the repairable chain, by failure count.

        The product form ``π_k / π_{k-1} = λ_{k-1} / μ_k``, walked out from
        the most likely count (the ratio falls as ``k`` grows, so every
        weight is at most one and none overflows), then normalised.
        Without repair slots the chain ends at ``n`` failures; without
        failures it stays at zero; with neither no state is stationary.
        """
        if self.repair_rate_per_hour <= 0:
            raise InvalidConfigurationError("availability under repair needs μ > 0")
        up, down = self._rates
        steps = list(zip(up, down[1:]))  # π_{k+1} / π_k = λ_k / μ_{k+1}
        if any(a == 0 == b for a, b in steps):
            raise InvalidConfigurationError(
                "steady state undefined (chain reducible or absorbing)"
            )
        mode = sum(a > b for a, b in steps)
        weights = [1.0]
        for a, b in reversed(steps[:mode]):
            weights.append(weights[-1] * b / a)
        weights.reverse()
        for a, b in steps[mode:]:
            weights.append(weights[-1] * a / b)
        total = math.fsum(weights)
        return {failed: weight / total for failed, weight in enumerate(weights)}

    def steady_state_availabilities(
        self, quorum_sizes: Iterable[int], *, pi: dict | None = None
    ) -> list[float]:
        """Long-run fraction of time each ``quorum_size`` quorum is formable.

        Every quorum is read off one prefix pass over π in failure-count
        order.  The pass is a plain left-to-right accumulation: the builtin
        ``sum()`` is not used because from Python 3.12 on it compensates
        float rounding (Neumaier summation), which would make availability
        depend on the interpreter.  ``pi`` optionally supplies a
        precomputed :meth:`steady_state_distribution`; passing it skips
        computing π again but changes nothing bit-wise.  A quorum larger than
        ``n`` is never formable: its value is the empty sum, ``0``.
        """
        if self.repair_rate_per_hour <= 0:
            raise InvalidConfigurationError("availability under repair needs μ > 0")
        if pi is None:
            pi = self.steady_state_distribution()
        # at_most[k]: the mass of the states with fewer than k replicas down;
        # capped at one, since normalised π may sum an ulp past it.
        at_most = list(accumulate((pi[failed] for failed in range(self.n + 1)), initial=0))
        return [
            min(at_most[min(max(self.n - quorum_size + 1, 0), self.n + 1)], 1.0)
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
