"""Exact enumeration over failure configurations (paper §3).

The reference estimator: walk every reachable configuration (up to ``3^N``
once crash/Byzantine are distinguished; outcomes with zero probability are
pruned), evaluate the protocol predicates, and sum the probabilities of the
safe / live configurations.  Exponential, so guarded by a state budget —
it exists to (a) handle *asymmetric* predicates exactly at small N and
(b) cross-validate the polynomial counting estimator.

:func:`exact_reliability` runs on a vectorized path (the engine's
``exact`` estimator): the configuration code matrix is enumerated once per
(fleet size, per-node outcome support) pattern and memoised together with
each row's crash and Byzantine counts, per-config probabilities are NumPy
products accumulated in node order, and symmetric specs read verdicts from
their cached count masks at the memoised counts.  The multiplication and
summation orders reproduce the historical recursive walk exactly, so
results are bit-identical to the pre-vectorized estimator.
"""

from __future__ import annotations

import heapq
from typing import Iterator, NamedTuple

import numpy as np

from repro.analysis.config import FailureConfig, FaultKind
from repro.analysis.result import Estimate, ReliabilityResult
from repro.errors import EstimationError, InvalidConfigurationError
from repro.faults.mixture import Fleet
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import ProtocolSpec

#: Refuse enumerations beyond this many configurations (≈ 4 million).
DEFAULT_MAX_CONFIGS = 1 << 22

#: FaultKind outcome codes in the historical enumeration order.
_KIND_ORDER = (FaultKind.CORRECT, FaultKind.CRASH, FaultKind.BYZANTINE)


class _Enumeration(NamedTuple):
    """One support signature's configurations: the ``(K, n)`` int8 code
    matrix and each row's crash / Byzantine count (read-only arrays)."""

    codes: np.ndarray
    crash_counts: np.ndarray
    byz_counts: np.ndarray


#: Memoised enumerations, keyed by per-node outcome support.  Bounded:
#: entries are evicted oldest-first beyond this count, and enumerations
#: whose code matrix is larger than ``_ENUM_CACHE_MAX_ELEMENTS`` are never
#: cached.  The counts live in the same entry as the codes, so they are
#: evicted with them.
_ENUM_CACHE: dict[tuple, _Enumeration] = {}
_ENUM_CACHE_MAX_ENTRIES = 16
_ENUM_CACHE_MAX_ELEMENTS = 1 << 24


def _outcome_choices(fleet: Fleet) -> list[list[tuple[FaultKind, float]]]:
    """Per-node outcome/probability lists with zero-probability pruning."""
    choices: list[list[tuple[FaultKind, float]]] = []
    for node in fleet:
        node_choices = []
        if node.p_correct > 0.0:
            node_choices.append((FaultKind.CORRECT, node.p_correct))
        if node.p_crash > 0.0:
            node_choices.append((FaultKind.CRASH, node.p_crash))
        if node.p_byzantine > 0.0:
            node_choices.append((FaultKind.BYZANTINE, node.p_byzantine))
        if not node_choices:
            raise InvalidConfigurationError("node has no outcome with positive probability")
        choices.append(node_choices)
    return choices


def configuration_count(fleet: Fleet) -> int:
    """Number of positive-probability configurations the fleet induces."""
    count = 1
    for node_choices in _outcome_choices(fleet):
        count *= len(node_choices)
    return count


def enumerate_configurations(
    fleet: Fleet, *, max_configs: int = DEFAULT_MAX_CONFIGS
) -> Iterator[tuple[FailureConfig, float]]:
    """Yield every positive-probability ``(configuration, probability)`` pair.

    Raises :class:`EstimationError` when the configuration count exceeds
    ``max_configs`` — callers should fall back to Monte-Carlo.
    """
    total = configuration_count(fleet)
    if total > max_configs:
        raise EstimationError(
            f"{total} configurations exceed the exact-enumeration budget of {max_configs}"
        )
    choices = _outcome_choices(fleet)

    def recurse(index: int, kinds: list[FaultKind], probability: float) -> Iterator[tuple[FailureConfig, float]]:
        if index == len(choices):
            yield FailureConfig(tuple(kinds)), probability
            return
        for kind, p in choices[index]:
            kinds.append(kind)
            yield from recurse(index + 1, kinds, probability * p)
            kinds.pop()

    yield from recurse(0, [], 1.0)


def _support_signature(fleet: Fleet) -> tuple:
    """Per-node tuple of the outcome codes carrying positive probability.

    Two fleets with the same signature induce the *same* configuration
    matrix (only the probabilities differ), which is what lets the
    enumeration be computed once per (n, support) and shared.
    """
    signature = []
    for node in fleet:
        codes = []
        if node.p_correct > 0.0:
            codes.append(0)
        if node.p_crash > 0.0:
            codes.append(1)
        if node.p_byzantine > 0.0:
            codes.append(2)
        if not codes:
            raise InvalidConfigurationError("node has no outcome with positive probability")
        signature.append(tuple(codes))
    return tuple(signature)


def _enumeration(signature: tuple) -> _Enumeration:
    """All positive-support configurations of a signature, with their counts.

    Code rows appear in the historical recursion order (node 0's outcome
    varies slowest), so ordered reductions over the rows reproduce the
    generator walk of :func:`enumerate_configurations` exactly.
    """
    cached = _ENUM_CACHE.get(signature)
    if cached is not None:
        return cached
    axes = [np.array(codes, dtype=np.int8) for codes in signature]
    if axes:
        mesh = np.meshgrid(*axes, indexing="ij")
        codes = np.stack([m.reshape(-1) for m in mesh], axis=1)
    else:
        codes = np.zeros((1, 0), dtype=np.int8)
    enumeration = _Enumeration(
        codes, (codes == 1).sum(axis=1), (codes == 2).sum(axis=1)
    )
    for array in enumeration:
        array.setflags(write=False)
    if codes.size <= _ENUM_CACHE_MAX_ELEMENTS:
        while len(_ENUM_CACHE) >= _ENUM_CACHE_MAX_ENTRIES:
            _ENUM_CACHE.pop(next(iter(_ENUM_CACHE)))
        _ENUM_CACHE[signature] = enumeration
    return enumeration


def _configuration_probabilities(fleet: Fleet, codes: np.ndarray) -> np.ndarray:
    """Per-configuration probability products, accumulated in node order.

    Multiplies one node at a time (vectorized across configurations), the
    same operation sequence as the recursive enumeration, so each entry is
    bit-identical to the probability the generator yields for that row.
    """
    outcome_p = np.array(
        [(node.p_correct, node.p_crash, node.p_byzantine) for node in fleet]
    )
    probabilities = np.ones(codes.shape[0])
    for node_index in range(codes.shape[1]):
        probabilities *= outcome_p[node_index, codes[:, node_index]]
    return probabilities


def _exact_verdicts(
    spec: "ProtocolSpec", enumeration: _Enumeration
) -> tuple[np.ndarray, np.ndarray]:
    """(safe, live) boolean vectors for every configuration row."""
    codes = enumeration.codes
    if spec.symmetric:
        from repro.analysis.kernels import verdict_masks

        masks = verdict_masks(spec)
        counts = (enumeration.crash_counts, enumeration.byz_counts)
        return masks.safe[counts], masks.live[counts]
    safe = np.empty(codes.shape[0], dtype=bool)
    live = np.empty(codes.shape[0], dtype=bool)
    for row_index, row in enumerate(codes):
        config = FailureConfig(tuple(_KIND_ORDER[code] for code in row))
        safe[row_index] = spec.is_safe(config)
        live[row_index] = spec.is_live(config)
    return safe, live


def exact_reliability(
    spec: "ProtocolSpec", fleet: Fleet, *, max_configs: int = DEFAULT_MAX_CONFIGS
) -> ReliabilityResult:
    """Safe/Live/Safe&Live probabilities by full enumeration.

    Works for any spec — symmetric or not — but is exponential in ``n``.
    Vectorized: the configuration matrix and its per-row counts come from
    the per-(n, support) enumeration cache, probabilities are NumPy
    products, and verdicts are count-mask lookups for symmetric specs
    (per-configuration predicate calls otherwise).  Values are
    bit-identical to the historical per-configuration walk.
    """
    if fleet.n != spec.n:
        raise InvalidConfigurationError(f"fleet has {fleet.n} nodes but spec expects {spec.n}")
    total = configuration_count(fleet)
    if total > max_configs:
        raise EstimationError(
            f"{total} configurations exceed the exact-enumeration budget of {max_configs}"
        )
    from repro.analysis.kernels import masked_sum

    enumeration = _enumeration(_support_signature(fleet))
    codes = enumeration.codes
    probabilities = _configuration_probabilities(fleet, codes)
    safe, live = _exact_verdicts(spec, enumeration)
    p_safe = masked_sum(probabilities, safe)
    p_live = masked_sum(probabilities, live)
    p_both = masked_sum(probabilities, safe & live)
    return ReliabilityResult(
        protocol=spec.name,
        n=fleet.n,
        safe=Estimate.exact(min(p_safe, 1.0)),
        live=Estimate.exact(min(p_live, 1.0)),
        safe_and_live=Estimate.exact(min(p_both, 1.0)),
        method="exact",
        detail=f"enumerated {codes.shape[0]} configurations",
    )


def worst_configurations(
    spec: "ProtocolSpec",
    fleet: Fleet,
    *,
    predicate: str = "safe",
    limit: int = 10,
    max_configs: int = DEFAULT_MAX_CONFIGS,
) -> list[tuple[FailureConfig, float]]:
    """The most probable configurations that *violate* a predicate.

    Useful for explaining a reliability number: "your top risk is these two
    specific nodes failing together".  ``predicate`` is ``"safe"``,
    ``"live"`` or ``"safe_and_live"``.

    Violations are streamed through a bounded ``heapq.nlargest`` selection,
    so memory stays O(limit) instead of materialising (and fully sorting)
    every violating configuration.
    """
    checks = {
        "safe": spec.is_safe,
        "live": spec.is_live,
        "safe_and_live": spec.is_safe_and_live,
    }
    if predicate not in checks:
        raise InvalidConfigurationError(f"unknown predicate {predicate!r}")
    if limit <= 0:
        return []
    check = checks[predicate]
    return heapq.nlargest(
        limit,
        (
            (config, probability)
            for config, probability in enumerate_configurations(
                fleet, max_configs=max_configs
            )
            if probability > 0.0 and not check(config)
        ),
        key=lambda pair: pair[1],
    )
