"""Probabilistic quorums — O(√N) quorums intersecting w.h.p. (paper §4, §5).

Malkhi–Reiter–Wright probabilistic quorum systems give up *guaranteed*
intersection: quorums are uniform ``k``-subsets, and two independently
sampled quorums overlap only with high probability.  The paper argues this
is exactly the right trade once guarantees are probabilistic anyway.  This
module computes the relevant exact probabilities (hypergeometric overlap,
overlap-in-a-correct-node) and sizes quorums to meet nines targets.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Iterator

from repro._rng import SeedLike, as_generator
from repro._stats import hypergeom_pmf
from repro.errors import InvalidConfigurationError
from repro.quorums.system import QuorumSystem


class ProbabilisticQuorums(QuorumSystem):
    """Uniform ``k``-subset quorums (no deterministic intersection).

    ``is_quorum`` accepts any superset of a ``k``-subset, i.e. any set of
    at least ``k`` nodes — the *access* rule.  The probabilistic value is
    in the sampling/overlap analysis, not membership.
    """

    def __init__(self, n: int, k: int):
        super().__init__(n)
        if not 1 <= k <= n:
            raise InvalidConfigurationError(f"quorum size k={k} outside [1, {n}]")
        self.k = k

    @classmethod
    def sqrt_sized(cls, n: int, multiplier: float = 1.0) -> "ProbabilisticQuorums":
        """The classic ``k = ⌈multiplier · √n⌉`` construction."""
        if multiplier <= 0:
            raise InvalidConfigurationError("multiplier must be positive")
        return cls(n, min(n, max(1, math.ceil(multiplier * math.sqrt(n)))))

    def is_quorum(self, nodes: FrozenSet[int]) -> bool:
        return len(self.validate_universe(nodes)) >= self.k

    def minimal_quorums(self) -> Iterator[FrozenSet[int]]:
        import itertools

        for combo in itertools.combinations(range(self.n), self.k):
            yield frozenset(combo)

    def sample_quorum(self, seed: SeedLike = None) -> frozenset[int]:
        """Draw one uniform ``k``-subset."""
        rng = as_generator(seed)
        return frozenset(int(i) for i in rng.choice(self.n, size=self.k, replace=False))

    # ------------------------------------------------------------------
    # Exact overlap probabilities
    # ------------------------------------------------------------------
    def overlap_pmf(self) -> list[float]:
        """PMF of |Q1 ∩ Q2| for two independent uniform quorums (hypergeometric)."""
        return [hypergeom_pmf(m, self.n, self.k, self.k) for m in range(self.k + 1)]

    def intersection_probability(self) -> float:
        """P(two independent quorums share at least one node)."""
        return 1.0 - hypergeom_pmf(0, self.n, self.k, self.k)

    def intersection_in_correct_probability(self, p_fail: float) -> float:
        """P(two quorums share ≥1 *correct* node), iid node failures.

        Conditions on the overlap size ``m`` (hypergeometric) and applies
        ``1 - p_fail^m`` — exactly the quantity §4 says Chernoff bounds
        cannot deliver because quorum draws are dependent through overlap.
        """
        if not 0.0 <= p_fail <= 1.0:
            raise InvalidConfigurationError("p_fail must be in [0, 1]")
        total = 0.0
        for m, mass in enumerate(self.overlap_pmf()):
            if m == 0 or mass == 0.0:
                continue
            total += mass * (1.0 - p_fail**m)
        return total

    def __repr__(self) -> str:
        return f"ProbabilisticQuorums(n={self.n}, k={self.k})"


def minimum_quorum_size_for_intersection(n: int, target_nines: float) -> int:
    """Smallest ``k`` such that two uniform ``k``-quorums overlap with the target nines."""
    if target_nines <= 0:
        raise InvalidConfigurationError("target_nines must be positive")
    target = 1.0 - 10.0 ** (-target_nines)
    for k in range(1, n + 1):
        if ProbabilisticQuorums(n, k).intersection_probability() >= target:
            return k
    return n


def minimum_quorum_size_for_correct_intersection(
    n: int, p_fail: float, target_nines: float
) -> int:
    """Smallest ``k`` whose pairwise *correct-node* overlap meets the nines target."""
    if target_nines <= 0:
        raise InvalidConfigurationError("target_nines must be positive")
    target = 1.0 - 10.0 ** (-target_nines)
    for k in range(1, n + 1):
        if ProbabilisticQuorums(n, k).intersection_in_correct_probability(p_fail) >= target:
            return k
    return n
