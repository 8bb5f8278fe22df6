"""Committee sampling (paper §4 third step, §5 King–Saia / Algorand).

When fleet reliability exceeds application requirements, run consensus on a
sampled committee instead of the full cluster.  This module quantifies the
two failure modes of a sampled committee:

* it may contain *no* correct node (kills both safety and liveness), and
* its faulty fraction may exceed the protocol threshold (e.g. ≥ 1/3 for a
  BFT committee).

Both are computed exactly — binomial for iid node failures, hypergeometric
for a fixed number of faulty nodes in the parent cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._rng import SeedLike, as_generator
from repro._stats import binom_cdf, hypergeom_pmf
from repro.errors import InvalidConfigurationError


def prob_committee_all_faulty(p_fail: float, committee_size: int) -> float:
    """P(a sampled committee of distinct nodes is entirely faulty), iid failures.

    The §3 example: N=100, p=1%, k=5 → 1e-10, i.e. "ten nines that a random
    quorum of five includes at least one correct node".
    """
    if not 0.0 <= p_fail <= 1.0:
        raise InvalidConfigurationError("p_fail must lie in [0, 1]")
    if committee_size <= 0:
        raise InvalidConfigurationError("committee size must be positive")
    return p_fail**committee_size


def prob_committee_contains_correct(p_fail: float, committee_size: int) -> float:
    """Complement of :func:`prob_committee_all_faulty`."""
    return 1.0 - prob_committee_all_faulty(p_fail, committee_size)


def committee_faulty_count_pmf(n: int, n_faulty: int, committee_size: int) -> list[float]:
    """PMF of the number of faulty members when sampling from a fixed cluster.

    Hypergeometric: the cluster has ``n_faulty`` faulty nodes out of ``n``;
    the committee is a uniform ``committee_size``-subset.
    """
    if not 0 <= n_faulty <= n:
        raise InvalidConfigurationError(f"n_faulty={n_faulty} outside [0, {n}]")
    if not 0 < committee_size <= n:
        raise InvalidConfigurationError(f"committee_size={committee_size} outside (0, {n}]")
    return [
        hypergeom_pmf(j, n, n_faulty, committee_size)
        for j in range(committee_size + 1)
    ]


def prob_committee_fraction_safe(
    n: int, n_faulty: int, committee_size: int, max_faulty_fraction: float = 1.0 / 3.0
) -> float:
    """P(committee faulty fraction stays below the protocol threshold)."""
    if not 0.0 < max_faulty_fraction <= 1.0:
        raise InvalidConfigurationError("max_faulty_fraction must be in (0, 1]")
    limit = math.ceil(max_faulty_fraction * committee_size) - 1
    pmf = committee_faulty_count_pmf(n, n_faulty, committee_size)
    return float(sum(pmf[: limit + 1]))


def required_committee_size(p_fail: float, target_nines: float) -> int:
    """Smallest committee guaranteeing ≥1 correct member with the target nines.

    Closed form: ``k = ceil(target_nines / -log10(p_fail))``.
    """
    if not 0.0 < p_fail < 1.0:
        raise InvalidConfigurationError("p_fail must lie in (0, 1)")
    if target_nines <= 0:
        raise InvalidConfigurationError("target_nines must be positive")
    per_node_nines = -math.log10(p_fail)
    return max(1, math.ceil(target_nines / per_node_nines))


@dataclass(frozen=True)
class CommitteeReliability:
    """Reliability of running a threshold protocol on a sampled committee."""

    n: int
    committee_size: int
    p_fail: float
    max_faulty_fraction: float

    def probability_committee_ok(self) -> float:
        """P(sampled committee's faulty fraction is below threshold), iid.

        With iid failures, sampling distinct nodes keeps member failures
        iid, so the faulty count is Binomial(committee_size, p_fail).
        """
        limit = math.ceil(self.max_faulty_fraction * self.committee_size) - 1
        return binom_cdf(limit, self.committee_size, self.p_fail)


def smallest_bft_committee(p_fail: float, target_nines: float, *, max_size: int = 2_000) -> int:
    """Smallest committee whose faulty fraction stays < 1/3 with target nines.

    Scans sizes (stepping by 3 keeps the threshold boundary aligned) until
    the binomial tail clears the target; raises when no size up to
    ``max_size`` suffices — reliability of the node pool is then the binding
    constraint, not committee size.
    """
    if not 0.0 < p_fail < 1.0:
        raise InvalidConfigurationError("p_fail must lie in (0, 1)")
    target = 1.0 - 10.0 ** (-target_nines)
    for size in range(1, max_size + 1):
        limit = math.ceil(size / 3.0) - 1
        if binom_cdf(limit, size, p_fail) >= target:
            return size
    raise InvalidConfigurationError(
        f"no committee up to {max_size} meets {target_nines} nines at p={p_fail}"
    )


def sample_committee(n: int, committee_size: int, seed: SeedLike = None) -> frozenset[int]:
    """Uniformly sample a committee of distinct node indices."""
    if not 0 < committee_size <= n:
        raise InvalidConfigurationError(f"committee_size={committee_size} outside (0, {n}]")
    rng = as_generator(seed)
    return frozenset(int(i) for i in rng.choice(n, size=committee_size, replace=False))
