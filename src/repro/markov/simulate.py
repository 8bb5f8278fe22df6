"""Stochastic CTMC trajectory simulation (Gillespie / SSA).

Monte-Carlo counterpart to the exact solvers in :mod:`repro.markov.chain`:
draws explicit state trajectories, used to (a) validate the linear-algebra
answers and (b) extract distributions the closed forms do not expose, such
as the *spread* of time-to-data-loss rather than just its mean (the
Greenan et al. "mean time to meaningless" critique the paper cites).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.errors import InvalidConfigurationError
from repro.markov.chain import ContinuousTimeMarkovChain, State


@dataclass(frozen=True)
class Trajectory:
    """One simulated path: states visited and the times they were entered."""

    states: tuple[State, ...]
    entry_times: tuple[float, ...]

    @property
    def final_state(self) -> State:
        return self.states[-1]

    @property
    def end_time(self) -> float:
        return self.entry_times[-1]

    def time_in_state(self, state: State, horizon: float) -> float:
        """Total dwell time in ``state`` up to ``horizon``."""
        total = 0.0
        for i, s in enumerate(self.states):
            start = self.entry_times[i]
            end = self.entry_times[i + 1] if i + 1 < len(self.states) else horizon
            if s == state and start < horizon:
                total += min(end, horizon) - start
        return total


def simulate_trajectory(
    chain: ContinuousTimeMarkovChain,
    start: State,
    *,
    horizon: float,
    absorbing: Sequence[State] = (),
    seed: SeedLike = None,
) -> Trajectory:
    """Gillespie simulation until ``horizon`` or absorption."""
    if horizon <= 0:
        raise InvalidConfigurationError("horizon must be positive")
    rng = as_generator(seed)
    absorbing_idx = {chain.index_of(s) for s in absorbing}
    current = chain.index_of(start)
    now = 0.0
    states: list[State] = [chain.states[current]]
    times: list[float] = [0.0]
    while now < horizon and current not in absorbing_idx:
        exit_rate = -chain.generator[current, current]
        if exit_rate <= 0:
            break  # absorbing by construction
        dwell = float(rng.exponential(1.0 / exit_rate))
        now += dwell
        if now >= horizon:
            break
        rates = chain.generator[current].copy()
        rates[current] = 0.0
        probabilities = rates / rates.sum()
        current = int(rng.choice(chain.n_states, p=probabilities))
        states.append(chain.states[current])
        times.append(now)
    return Trajectory(tuple(states), tuple(times))


def _trajectory_streams(seed: SeedLike, trials: int):
    """Per-trajectory generators for the batch helpers below (lazily).

    One ``SeedSequence`` child per *trajectory* (the worker-count-
    independence contract of :mod:`repro.analysis.kernels`): trajectory
    ``t`` depends only on ``(seed, t)``, so a ``trials=N`` run is a
    bit-identical prefix of a ``trials=M > N`` run and trajectories can be
    fanned across workers in any chunking without changing a single draw.

    Children are spawned one at a time as the iterator is consumed —
    repeated ``spawn(1)`` calls advance the parent's child counter exactly
    like one ``spawn(trials)`` (same ``spawn_key`` sequence, so the same
    streams as :func:`repro.analysis.kernels.spawn_shard_generators`) —
    keeping memory O(1) for million-trajectory sweeps instead of
    materialising every generator up front.
    """
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq
    else:
        seq = np.random.SeedSequence(seed)
    return (np.random.default_rng(seq.spawn(1)[0]) for _ in range(trials))


def sample_absorption_times(
    chain: ContinuousTimeMarkovChain,
    start: State,
    absorbing: Sequence[State],
    *,
    trials: int = 1_000,
    horizon: float = float("inf"),
    seed: SeedLike = None,
) -> np.ndarray:
    """Sampled hitting times of the absorbing set (``inf`` when censored).

    Against :meth:`ContinuousTimeMarkovChain.expected_time_to_absorption`
    this exposes the full distribution — MTTDL's long tail included.
    Every trajectory draws from its own spawned ``SeedSequence`` stream
    (see :func:`_trajectory_streams`), so a shorter run is a prefix of a
    longer one.
    """
    if trials <= 0:
        raise InvalidConfigurationError("trials must be positive")
    streams = _trajectory_streams(seed, trials)
    absorbing_set = set(absorbing)
    bounded_horizon = horizon if np.isfinite(horizon) else 1e12
    times = np.empty(trials)
    for t, rng in enumerate(streams):
        trajectory = simulate_trajectory(
            chain, start, horizon=bounded_horizon, absorbing=absorbing, seed=rng
        )
        if trajectory.final_state in absorbing_set:
            times[t] = trajectory.end_time
        else:
            times[t] = np.inf
    return times


def empirical_availability(
    chain: ContinuousTimeMarkovChain,
    start: State,
    up_states: Sequence[State],
    *,
    horizon: float,
    trials: int = 200,
    seed: SeedLike = None,
) -> float:
    """Fraction of simulated time spent in ``up_states`` (validates π).

    Trajectories draw from per-trajectory spawned streams (see
    :func:`_trajectory_streams`) and the summed up-time is accumulated in
    trajectory order, so the value depends only on ``(trials, seed)``.
    """
    if horizon <= 0 or trials <= 0:
        raise InvalidConfigurationError("horizon and trials must be positive")
    streams = _trajectory_streams(seed, trials)
    up = set(up_states)
    total_up = 0.0
    for rng in streams:
        trajectory = simulate_trajectory(chain, start, horizon=horizon, seed=rng)
        total_up += sum(trajectory.time_in_state(s, horizon) for s in up)
    return total_up / (trials * horizon)
