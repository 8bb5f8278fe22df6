"""Quorum-intersection probability calculations (paper §4).

The paper highlights that computing intersection probabilities is the
technically hard part of probability-native consensus: "quorums are not
formed independently, but instead must intersect ... traditional tools like
Chernoff bounds no longer apply."  This module collects the exact
computations that *are* available:

* hypergeometric overlap of sampled quorums (dependence handled by
  conditioning on overlap size);
* probability that window failures wipe out a fixed quorum (the §4
  ten-billion-to-one example);
* probability that every pair of threshold quorums keeps a correct node in
  common for heterogeneous fleets.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from repro._stats import binom_sf, hypergeom_pmf
from repro.analysis.counting import poisson_binomial_pmf
from repro.errors import InvalidConfigurationError


def prob_random_quorums_overlap(n: int, k1: int, k2: int) -> float:
    """P(two independent uniform subsets of sizes k1, k2 share a node)."""
    _check_sizes(n, k1, k2)
    return 1.0 - hypergeom_pmf(0, n, k1, k2)


def prob_random_quorums_overlap_in_correct(n: int, k1: int, k2: int, p_fail: float) -> float:
    """P(two uniform subsets share ≥1 *correct* node), iid failures.

    Conditions on overlap size (hypergeometric) then applies
    ``1 - p_fail^m``.  This generalises the same-size computation in
    :mod:`repro.quorums.probabilistic` to asymmetric quorum sizes
    (persistence vs view-change).
    """
    _check_sizes(n, k1, k2)
    _check_probability(p_fail)
    total = 0.0
    for m in range(1, min(k1, k2) + 1):
        mass = hypergeom_pmf(m, n, k1, k2)
        if mass > 0.0:
            total += mass * (1.0 - p_fail**m)
    return total


def prob_fixed_quorum_wiped_out(quorum_failure_probs: Sequence[float]) -> float:
    """P(every member of a *fixed* quorum fails) = Π p_u.

    The §4 example: |Q_per| = 10 at p = 10% → 1e-10.
    """
    for p in quorum_failure_probs:
        _check_probability(p)
    return math.prod(quorum_failure_probs)


def prob_failure_count_reaches(n: int, p_fail: float, threshold: int) -> float:
    """P(at least ``threshold`` of ``n`` iid nodes fail) — binomial tail.

    The other half of the §4 example: N=100, p=10% → P(≥10 failures) ≈ 50%.
    """
    _check_probability(p_fail)
    if threshold <= 0:
        return 1.0
    if threshold > n:
        return 0.0
    return binom_sf(threshold - 1, n, p_fail)


def prob_threshold_pair_intersects_in_correct(
    failure_probs: Sequence[float], k1: int, k2: int, *, exact_limit: int = 20
) -> float:
    """P(every k1-quorum × k2-quorum pair shares a correct node), heterogeneous.

    For threshold systems the worst pair is the one packing failures
    densest, so the predicate reduces to: every pair of subsets of sizes
    k1, k2 drawn from the *correct+failed* pool intersects in a correct
    node iff  (n - #failed_acting_nodes...).  Concretely, a violating pair
    exists iff one can pick k1 + k2 nodes (with overlap allowed only on
    failed nodes) such that the overlap contains no correct node — which
    for thresholds happens iff ``k1 + k2 - n`` ≤ #failed in the overlap
    region; the exact criterion is that the number of *correct* nodes is at
    most ``k1 + k2 - n - 1``... — rather than reason informally we
    enumerate for small ``n`` and use the count criterion for thresholds:

        every pair intersects in a correct node
        ⟺  #correct > n - (k1 + k2 - n) ... simplified below.

    Derivation: choose quorums Q1, Q2 minimising correct overlap.  The
    overlap can be made as small as ``k1 + k2 - n`` nodes, and the
    adversary fills it with failed nodes first; a correct node is forced
    into *every* overlap iff  #failed < k1 + k2 - n  is false... i.e. the
    pair property holds iff ``#failed ≤ k1 + k2 - n - 1``.  We therefore
    return ``P(#failed < k1 + k2 - n)`` via the Poisson-binomial PMF, and
    cross-check by enumeration when ``n ≤ exact_limit`` (tests do this).
    """
    n = len(failure_probs)
    _check_sizes(n, k1, k2)
    slack = k1 + k2 - n
    if slack <= 0:
        # Quorums need not overlap at all: the property can always be violated.
        return 0.0
    pmf = poisson_binomial_pmf(list(failure_probs))
    return float(pmf[:slack].sum())


def enumerate_threshold_pair_property(
    failed: frozenset[int], n: int, k1: int, k2: int
) -> bool:
    """Brute-force oracle: does every (k1, k2) quorum pair meet in a correct node?

    Exponential; used by tests to validate
    :func:`prob_threshold_pair_intersects_in_correct`.
    """
    _check_sizes(n, k1, k2)
    universe = range(n)
    for q1 in itertools.combinations(universe, k1):
        set1 = frozenset(q1)
        for q2 in itertools.combinations(universe, k2):
            overlap = set1 & frozenset(q2)
            if not (overlap - failed):
                return False
    return True


def _check_sizes(n: int, k1: int, k2: int) -> None:
    if n <= 0:
        raise InvalidConfigurationError(f"n must be positive, got {n}")
    for k in (k1, k2):
        if not 1 <= k <= n:
            raise InvalidConfigurationError(f"quorum size {k} outside [1, {n}]")


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise InvalidConfigurationError(f"probability {p} outside [0, 1]")
