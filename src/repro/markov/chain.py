"""Continuous-time Markov chains (paper §2: MTTF/MTBF/MTTDL machinery).

The storage community quantifies reliability with Markov models whose
states are system configurations and whose transitions carry failure (λ)
and repair (μ) rates.  This module is a small, exact CTMC toolkit:
steady-state distributions, absorption times (the mean-time-to-X family)
and hitting probabilities — solved with dense linear algebra, for any
small chain.  The replicated-cluster chains of
:mod:`repro.markov.builders` are birth–death, and answer in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro._stats import ctmc_transient
from repro.errors import InvalidConfigurationError

State = Hashable


def mean_time_to_absorption(q_tt: np.ndarray, start: int) -> float:
    """Mean hitting time from transient row ``start`` of the block ``q_tt``.

    Solves ``Q_tt · t = -1`` — the fundamental-matrix computation behind
    MTTF/MTTDL figures — densely, which is kept for generic chains.  It
    loses precision on stiff birth–death chains (failure rates far below
    repair rates): the solve cancels, so a cluster's MTTF can come out
    many times too low, or as ``inf``.
    :class:`repro.markov.builders.ClusterMarkovModel` answers its chains
    in closed form instead.  Returns ``inf`` when the system is singular
    or the solution is negative: either means the absorbing set is
    unreachable from part of the transient block (or the solve lost it).
    """
    try:
        times = np.linalg.solve(q_tt, -np.ones(q_tt.shape[0]))
    except np.linalg.LinAlgError:
        return float("inf")
    value = float(times[start])
    return float("inf") if value < 0 else value


@dataclass(frozen=True)
class TransitionRates:
    """Sparse rate description: ``rates[(src, dst)] = rate`` (per hour)."""

    rates: Mapping[tuple[State, State], float]

    def __post_init__(self) -> None:
        for (src, dst), rate in self.rates.items():
            if src == dst:
                raise InvalidConfigurationError(f"self-transition {src}->{dst} not allowed")
            if rate < 0:
                raise InvalidConfigurationError(f"negative rate {rate} on {src}->{dst}")


class ContinuousTimeMarkovChain:
    """A finite CTMC with an explicit generator matrix.

    States may be any hashable labels; internally they map to indices in
    the order supplied.
    """

    def __init__(self, states: Sequence[State], transitions: TransitionRates):
        if not states:
            raise InvalidConfigurationError("chain needs at least one state")
        if len(set(states)) != len(states):
            raise InvalidConfigurationError("duplicate states")
        self.states = tuple(states)
        self._index = {state: i for i, state in enumerate(self.states)}
        size = len(self.states)
        generator = np.zeros((size, size))
        for (src, dst), rate in transitions.rates.items():
            if src not in self._index or dst not in self._index:
                raise InvalidConfigurationError(f"transition {src}->{dst} uses unknown state")
            generator[self._index[src], self._index[dst]] += rate
        np.fill_diagonal(generator, 0.0)
        np.fill_diagonal(generator, -generator.sum(axis=1))
        self.generator = generator

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index_of(self, state: State) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise InvalidConfigurationError(f"unknown state {state!r}") from None

    # ------------------------------------------------------------------
    # Steady state
    # ------------------------------------------------------------------
    def steady_state(self) -> dict[State, float]:
        """Stationary distribution π with πQ = 0, Σπ = 1.

        Requires an irreducible chain (no absorbing states); the linear
        system is solved with the normalisation row replacing one balance
        equation.
        """
        size = self.n_states
        a = self.generator.T.copy()
        a[-1, :] = 1.0
        b = np.zeros(size)
        b[-1] = 1.0
        try:
            pi = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise InvalidConfigurationError(
                "steady state undefined (chain reducible or absorbing)"
            ) from exc
        if np.any(pi < -1e-9):
            raise InvalidConfigurationError("steady state solve produced negative mass")
        pi = np.clip(pi, 0.0, None)
        pi = pi / pi.sum()
        return {state: float(pi[i]) for i, state in enumerate(self.states)}

    # ------------------------------------------------------------------
    # Absorption analysis: the MTTF / MTTDL family
    # ------------------------------------------------------------------
    def expected_time_to_absorption(
        self, start: State, absorbing: Sequence[State]
    ) -> float:
        """Mean hitting time of the absorbing set from ``start`` (hours).

        Solves ``Q_tt · t = -1`` on the transient block — the standard
        fundamental-matrix computation behind MTTF/MTTDL figures.
        Returns ``inf`` when the absorbing set is unreachable.
        """
        absorbing_idx = {self.index_of(s) for s in absorbing}
        if not absorbing_idx:
            raise InvalidConfigurationError("absorbing set must be non-empty")
        start_idx = self.index_of(start)
        if start_idx in absorbing_idx:
            return 0.0
        transient = [i for i in range(self.n_states) if i not in absorbing_idx]
        position = {i: k for k, i in enumerate(transient)}
        q_tt = self.generator[np.ix_(transient, transient)]
        return mean_time_to_absorption(q_tt, position[start_idx])

    def absorption_probability(
        self, start: State, target: Sequence[State], absorbing: Sequence[State]
    ) -> float:
        """P(first absorption happens in ``target``), target ⊆ absorbing."""
        absorbing_idx = [self.index_of(s) for s in absorbing]
        target_idx = {self.index_of(s) for s in target}
        if not target_idx <= set(absorbing_idx):
            raise InvalidConfigurationError("target must be a subset of absorbing states")
        start_idx = self.index_of(start)
        if start_idx in target_idx:
            return 1.0
        if start_idx in set(absorbing_idx):
            return 0.0
        transient = [i for i in range(self.n_states) if i not in set(absorbing_idx)]
        position = {i: k for k, i in enumerate(transient)}
        q_tt = self.generator[np.ix_(transient, transient)]
        rates_to_target = self.generator[np.ix_(transient, sorted(target_idx))].sum(axis=1)
        try:
            probs = np.linalg.solve(q_tt, -rates_to_target)
        except np.linalg.LinAlgError as exc:
            raise InvalidConfigurationError("absorption probabilities undefined") from exc
        return float(np.clip(probs[position[start_idx]], 0.0, 1.0))

    def transient_distribution(self, start: State, t_hours: float) -> dict[State, float]:
        """Distribution after ``t_hours`` starting from ``start`` (uniformization)."""
        if t_hours < 0:
            raise InvalidConfigurationError("time must be non-negative")
        p0 = np.zeros(self.n_states)
        p0[self.index_of(start)] = 1.0
        pt = ctmc_transient(self.generator, p0, t_hours)
        return {state: float(pt[i]) for i, state in enumerate(self.states)}
