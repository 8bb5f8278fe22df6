"""Correlated-failure models (paper §2 point 3).

The paper stresses that faults cluster: software rollouts, rack-level
vibration/temperature, platform-wide TEE vulnerabilities.  The analysis in
§3 assumes independence "for simplification"; this module provides the
models needed to relax that assumption:

* :class:`IndependentFailures` — the §3 baseline.
* :class:`CommonShockModel` — background independent failures plus shock
  events that take out whole groups at once (Marshall–Olkin flavour).
* :class:`BetaBinomialContagion` — exchangeable correlation via a shared
  latent failure intensity (captures "bad day" effects like a fleet-wide
  rollout regression).

All models expose the same two capabilities:

* ``sample(rng)`` → a boolean failure vector for one window, used by the
  Monte-Carlo estimator and the simulator's fault injector;
* ``marginal_probabilities()`` → per-node marginals, so any correlated
  model can be compared against its independent approximation.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._rng import SeedLike, as_generator
from repro._stats import log_beta, log_binom
from repro.errors import InvalidConfigurationError, InvalidProbabilityError
from repro.faults.mixture import Fleet


class CorrelationModel(ABC):
    """Joint distribution over failure indicator vectors for one window."""

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of nodes."""

    @abstractmethod
    def sample(self, seed: SeedLike = None) -> np.ndarray:
        """Draw one boolean failure vector of length :attr:`n`."""

    @abstractmethod
    def marginal_probabilities(self) -> np.ndarray:
        """Per-node failure probability (length-:attr:`n` float vector)."""

    def sample_many(self, trials: int, seed: SeedLike = None) -> np.ndarray:
        """Draw ``trials`` failure vectors as a (trials, n) boolean matrix.

        The base implementation stacks per-trial :meth:`sample` calls; the
        built-in models override it with one-pass vectorized draws (whole
        arrays per model, no per-trial Python loop).  Each override
        documents its seeded stream: :class:`IndependentFailures` consumes
        the generator exactly as the per-trial loop did, while
        :class:`CommonShockModel` and :class:`BetaBinomialContagion` draw
        in blocked order, so their seeded samples differ from (but are
        distributed identically to) the historical stacked loop.
        """
        rng = as_generator(seed)
        return np.stack([self.sample(rng) for _ in range(trials)])

    def empirical_pairwise_correlation(self, trials: int = 20_000, seed: SeedLike = None) -> float:
        """Mean pairwise Pearson correlation of failure indicators (MC estimate)."""
        samples = self.sample_many(trials, seed).astype(float)
        if self.n < 2:
            return 0.0
        corr = np.corrcoef(samples, rowvar=False)
        mask = ~np.eye(self.n, dtype=bool)
        values = corr[mask]
        values = values[np.isfinite(values)]
        return float(values.mean()) if values.size else 0.0


@dataclass(frozen=True)
class IndependentFailures(CorrelationModel):
    """Independent per-node failures — the paper's §3 baseline."""

    fleet: Fleet

    @property
    def n(self) -> int:
        return self.fleet.n

    def sample(self, seed: SeedLike = None) -> np.ndarray:
        rng = as_generator(seed)
        p = np.array(self.fleet.failure_probabilities)
        return rng.random(self.n) < p

    def sample_many(self, trials: int, seed: SeedLike = None) -> np.ndarray:
        """One-pass vectorized draws.

        A single ``(trials, n)`` uniform block consumes the generator in
        the same (trial, node) order as per-trial :meth:`sample` calls, so
        seeded samples are unchanged from the stacked loop.
        """
        rng = as_generator(seed)
        p = np.array(self.fleet.failure_probabilities)
        return rng.random((trials, self.n)) < p

    def marginal_probabilities(self) -> np.ndarray:
        return np.array(self.fleet.failure_probabilities)


@dataclass(frozen=True)
class ShockGroup:
    """A set of node indices that fail together when a shock fires.

    ``probability`` is the chance the shock fires during the window and
    ``lethality`` the chance each member actually dies given the shock
    (1.0 = the rollout bricks every machine in the group).
    """

    members: tuple[int, ...]
    probability: float
    lethality: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise InvalidProbabilityError(f"shock probability must be in [0,1], got {self.probability}")
        if not 0.0 <= self.lethality <= 1.0:
            raise InvalidProbabilityError(f"shock lethality must be in [0,1], got {self.lethality}")
        if len(set(self.members)) != len(self.members):
            raise InvalidConfigurationError("shock group has duplicate members")


@dataclass(frozen=True)
class CommonShockModel(CorrelationModel):
    """Background independent failures plus correlated group shocks.

    A node fails if its own background coin comes up failure **or** any
    shock covering it fires and is lethal to it.  With no shocks this
    degenerates exactly to :class:`IndependentFailures`.
    """

    fleet: Fleet
    shocks: tuple[ShockGroup, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for shock in self.shocks:
            for member in shock.members:
                if not 0 <= member < self.fleet.n:
                    raise InvalidConfigurationError(
                        f"shock '{shock.name}' references node {member} outside fleet of {self.fleet.n}"
                    )

    @property
    def n(self) -> int:
        return self.fleet.n

    def sample(self, seed: SeedLike = None) -> np.ndarray:
        rng = as_generator(seed)
        p = np.array(self.fleet.failure_probabilities)
        failed = rng.random(self.n) < p
        for shock in self.shocks:
            if rng.random() < shock.probability:
                members = np.array(shock.members, dtype=int)
                hit = rng.random(members.size) < shock.lethality
                failed[members[hit]] = True
        return failed

    def sample_many(self, trials: int, seed: SeedLike = None) -> np.ndarray:
        """One-pass vectorized draws: whole arrays per model, no trial loop.

        Draw order is *blocked* — one ``(trials, n)`` background block,
        then per shock one ``(trials,)`` firing block and one
        ``(trials, |members|)`` lethality block (drawn unconditionally,
        where the scalar :meth:`sample` draws lethality only when the
        shock fires).  The joint distribution is identical, but seeded
        samples differ from the historical stacked per-trial loop.
        """
        rng = as_generator(seed)
        p = np.array(self.fleet.failure_probabilities)
        failed = rng.random((trials, self.n)) < p
        for shock in self.shocks:
            fires = rng.random(trials) < shock.probability
            members = np.array(shock.members, dtype=int)
            hits = rng.random((trials, members.size)) < shock.lethality
            failed[:, members] |= fires[:, None] & hits
        return failed

    def marginal_probabilities(self) -> np.ndarray:
        """Exact marginals: independence of background coin and each shock."""
        survive = 1.0 - np.array(self.fleet.failure_probabilities)
        for shock in self.shocks:
            hit = shock.probability * shock.lethality
            for member in shock.members:
                survive[member] *= 1.0 - hit
        return 1.0 - survive

    def failure_count_pmf(self, max_exact_shocks: int = 20) -> np.ndarray:
        """PMF of the total failure count, exact by shock-subset conditioning.

        Conditioned on which shocks fire, nodes fail independently, so the
        count is Poisson-binomial; the unconditional PMF is the mixture over
        all 2^s shock subsets.  Practical for ``s <= max_exact_shocks``.
        """
        shocks = self.shocks
        if len(shocks) > max_exact_shocks:
            raise InvalidConfigurationError(
                f"{len(shocks)} shocks exceeds exact limit {max_exact_shocks}; use sampling"
            )
        from repro.analysis.counting import poisson_binomial_pmf

        base = np.array(self.fleet.failure_probabilities)
        pmf = np.zeros(self.n + 1)
        for mask in range(1 << len(shocks)):
            weight = 1.0
            p = base.copy()
            for bit, shock in enumerate(shocks):
                if mask >> bit & 1:
                    weight *= shock.probability
                    for member in shock.members:
                        p[member] = 1.0 - (1.0 - p[member]) * (1.0 - shock.lethality)
                else:
                    weight *= 1.0 - shock.probability
            if weight > 0.0:
                pmf += weight * poisson_binomial_pmf(p)
        return pmf


@dataclass(frozen=True)
class BetaBinomialContagion(CorrelationModel):
    """Exchangeable correlation via a latent Beta-distributed intensity.

    Each window draws ``q ~ Beta(alpha, beta)`` and then every node fails
    independently with probability ``q``.  The marginal failure probability
    is ``alpha / (alpha + beta)`` and pairwise correlation is
    ``1 / (alpha + beta + 1)`` — so ``alpha + beta`` directly tunes how
    "clustered" failures are (small sum = strong contagion).
    """

    n_nodes: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.n_nodes < 0:
            raise InvalidConfigurationError(f"n_nodes must be non-negative, got {self.n_nodes}")
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidConfigurationError("alpha and beta must be positive")

    @classmethod
    def from_marginal_and_correlation(
        cls, n_nodes: int, marginal: float, correlation: float
    ) -> "BetaBinomialContagion":
        """Construct from target per-node marginal and pairwise correlation."""
        if not 0.0 < marginal < 1.0:
            raise InvalidProbabilityError(f"marginal must be in (0,1), got {marginal}")
        if not 0.0 < correlation < 1.0:
            raise InvalidProbabilityError(f"correlation must be in (0,1), got {correlation}")
        total = 1.0 / correlation - 1.0
        return cls(n_nodes=n_nodes, alpha=marginal * total, beta=(1.0 - marginal) * total)

    @property
    def n(self) -> int:
        return self.n_nodes

    @property
    def marginal(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def pairwise_correlation(self) -> float:
        return 1.0 / (self.alpha + self.beta + 1.0)

    def sample(self, seed: SeedLike = None) -> np.ndarray:
        rng = as_generator(seed)
        q = rng.beta(self.alpha, self.beta)
        return rng.random(self.n_nodes) < q

    def sample_many(self, trials: int, seed: SeedLike = None) -> np.ndarray:
        """One-pass vectorized draws: all intensities, then all uniforms.

        Draw order is blocked (``trials`` Beta intensities followed by one
        ``(trials, n)`` uniform block) instead of the scalar loop's
        interleaved beta/uniform pairs, so seeded samples differ from the
        historical stacked loop; the joint distribution is identical.
        """
        rng = as_generator(seed)
        q = rng.beta(self.alpha, self.beta, size=trials)
        return rng.random((trials, self.n_nodes)) < q[:, None]

    def marginal_probabilities(self) -> np.ndarray:
        return np.full(self.n_nodes, self.marginal)

    def failure_count_pmf(self) -> np.ndarray:
        """Exact beta-binomial PMF of the failure count."""
        n, a, b = self.n_nodes, self.alpha, self.beta
        ks = np.arange(n + 1)
        log_pmf = (
            log_binom(n, ks)
            + log_beta(ks + a, n - ks + b)
            - log_beta(a, b)
        )
        pmf = np.exp(log_pmf)
        return pmf / pmf.sum()


def rollout_shock(fleet: Fleet, probability: float, *, lethality: float = 1.0) -> ShockGroup:
    """Fleet-wide shock: the paper's CrowdStrike-style rollout regression."""
    return ShockGroup(tuple(range(fleet.n)), probability, lethality, name="rollout")


def rack_shocks(
    fleet: Fleet, rack_size: int, probability: float, *, lethality: float = 1.0
) -> tuple[ShockGroup, ...]:
    """Partition the fleet into racks of ``rack_size`` and give each a shock."""
    if rack_size <= 0:
        raise InvalidConfigurationError(f"rack_size must be positive, got {rack_size}")
    groups = []
    for start in range(0, fleet.n, rack_size):
        members = tuple(range(start, min(start + rack_size, fleet.n)))
        groups.append(ShockGroup(members, probability, lethality, name=f"rack-{start // rack_size}"))
    return tuple(groups)


def correlated_fleet_sampler(
    fleet: Fleet, shocks: Sequence[ShockGroup] = ()
) -> CorrelationModel:
    """Convenience: independent model if no shocks, else common-shock model."""
    if not shocks:
        return IndependentFailures(fleet)
    return CommonShockModel(fleet, tuple(shocks))
