"""Committee-sampled deployments (paper §4, third step).

"In deployments where nodes' reliability exceeds application requirements,
probabilistic protocols can sample committees."  These helpers answer the
planning question: *if I run consensus on a random k-of-n committee, what
Safe/Live guarantee do I actually get — and what is the smallest committee
meeting my target?*

Reliability of a sampled committee is the expectation of the base
protocol's reliability over the committee draw: computed exactly by
enumerating committees for small ``n`` (or collapsing by symmetry for
homogeneous fleets), and by seeded sampling otherwise.

Committee evaluation runs on the reliability engine: every candidate
committee of one assessment shares the same spec and size, so the whole
draw — thousands of sub-fleets — is submitted as one
:class:`~repro.engine.ScenarioSet` and lands in a single shared
counting-DP sweep, with duplicate committees answered from the engine's
cache.  Per-committee values are bit-identical to scalar evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro._rng import SeedLike, as_generator
from repro.analysis.counting import counting_reliability
from repro.analysis.result import from_nines
from repro.engine import Scenario, default_engine
from repro.errors import InvalidConfigurationError
from repro.faults.mixture import Fleet
from repro.protocols.base import ProtocolSpec

SpecFactory = Callable[[int], ProtocolSpec]

#: Enumerate committees exactly up to this many combinations.
_EXACT_COMMITTEE_LIMIT = 50_000


@dataclass(frozen=True)
class CommitteeAssessment:
    """Expected reliability of running the protocol on a sampled committee."""

    n: int
    committee_size: int
    safe: float
    live: float
    safe_and_live: float
    method: str


def _subfleet(fleet: Fleet, members: tuple[int, ...]) -> Fleet:
    return Fleet(tuple(fleet[i] for i in members))


def _mean_committee_reliability(
    spec: ProtocolSpec, fleet: Fleet, committees: Sequence[tuple[int, ...]]
) -> tuple[float, float, float]:
    """Mean Safe/Live/Safe&Live over candidate committees, engine-batched.

    One :class:`ScenarioSet` for all committees: same spec, same size, so
    the engine runs a single shared DP sweep over the distinct sub-fleets.
    The accumulation order matches the historical per-committee loop, so
    the means are bit-identical.
    """
    scenarios = [
        Scenario(spec=spec, fleet=_subfleet(fleet, members), method="counting")
        for members in committees
    ]
    results = default_engine().run(scenarios).values
    safe = live = both = 0.0
    for result in results:
        safe += result.safe.value
        live += result.live.value
        both += result.safe_and_live.value
    count = len(committees)
    return safe / count, live / count, both / count


def committee_reliability(
    spec_factory: SpecFactory,
    fleet: Fleet,
    committee_size: int,
    *,
    samples: int = 2_000,
    seed: SeedLike = None,
) -> CommitteeAssessment:
    """Expected Safe/Live of the protocol over a uniform committee draw.

    Homogeneous fleets collapse to a single evaluation; heterogeneous ones
    are enumerated exactly when ``C(n, k)`` is small and sampled otherwise.
    """
    if not 0 < committee_size <= fleet.n:
        raise InvalidConfigurationError(
            f"committee_size={committee_size} outside (0, {fleet.n}]"
        )
    spec = spec_factory(committee_size)
    if not spec.symmetric:
        raise InvalidConfigurationError("committee analysis needs a symmetric base spec")

    if fleet.is_homogeneous:
        result = counting_reliability(spec, _subfleet(fleet, tuple(range(committee_size))))
        return CommitteeAssessment(
            n=fleet.n,
            committee_size=committee_size,
            safe=result.safe.value,
            live=result.live.value,
            safe_and_live=result.safe_and_live.value,
            method="homogeneous",
        )

    total_committees = math.comb(fleet.n, committee_size)
    if total_committees <= _EXACT_COMMITTEE_LIMIT:
        committees = list(itertools.combinations(range(fleet.n), committee_size))
        safe, live, both = _mean_committee_reliability(spec, fleet, committees)
        return CommitteeAssessment(
            n=fleet.n,
            committee_size=committee_size,
            safe=safe,
            live=live,
            safe_and_live=both,
            method=f"exact over {total_committees} committees",
        )

    # Committee draws keep the historical generator stream; only the
    # evaluations are batched.
    rng = as_generator(seed)
    committees = [
        tuple(int(i) for i in rng.choice(fleet.n, size=committee_size, replace=False))
        for _ in range(samples)
    ]
    safe, live, both = _mean_committee_reliability(spec, fleet, committees)
    return CommitteeAssessment(
        n=fleet.n,
        committee_size=committee_size,
        safe=safe,
        live=live,
        safe_and_live=both,
        method=f"sampled over {samples} committees",
    )


def smallest_committee_for_target(
    spec_factory: SpecFactory,
    fleet: Fleet,
    target_nines: float,
    *,
    sizes: range | None = None,
    seed: SeedLike = None,
) -> CommitteeAssessment | None:
    """Smallest odd committee whose expected Safe&Live meets the target.

    Returns ``None`` when even the full cluster misses it — the signal to
    buy better nodes instead of bigger committees.
    """
    if target_nines <= 0:
        raise InvalidConfigurationError("target_nines must be positive")
    target = from_nines(target_nines)
    scan = sizes if sizes is not None else range(1, fleet.n + 1, 2)
    for size in scan:
        if not 0 < size <= fleet.n:
            continue
        assessment = committee_reliability(spec_factory, fleet, size, seed=seed)
        if assessment.safe_and_live >= target:
            return assessment
    return None
