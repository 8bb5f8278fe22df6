"""Exact enumeration over failure configurations (paper §3).

The reference estimator: walk every reachable configuration (up to ``3^N``
once crash/Byzantine are distinguished; outcomes with zero probability are
pruned), evaluate the protocol predicates, and sum the probabilities of the
safe / live configurations.  Exponential, so guarded by a state budget —
it exists to (a) handle *asymmetric* predicates exactly at small N and
(b) cross-validate the polynomial counting estimator.

:func:`exact_reliability_batch` runs on a vectorized path (the engine's
``exact`` estimator batches its rows through it, and
:func:`exact_reliability` is a batch of one): fleets are grouped by
per-node outcome support; each pattern's configuration code matrix is
enumerated once and memoised together with each row's crash and Byzantine
counts, its verdicts are evaluated once per batch (symmetric specs read
their cached count masks at the memoised counts), and a group's
per-config probabilities are outer products accumulated in node order.
The multiplication and summation orders reproduce the historical
recursive walk exactly, so results are bit-identical to the
pre-vectorized estimator.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator, NamedTuple, Sequence

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
    return math.prod(map(len, _support_signature(fleet)))


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


def _support_codes(p_crash: float, p_byzantine: float) -> tuple[int, ...]:
    """The outcome codes of one node that carry positive probability."""
    p_correct = max(0.0, 1.0 - (p_crash + p_byzantine))  # NodeModel.p_correct
    codes = tuple(
        code
        for code, p in enumerate((p_correct, p_crash, p_byzantine))
        if p > 0.0
    )
    if not codes:
        raise InvalidConfigurationError("node has no outcome with positive probability")
    return codes


def _support_signature(fleet: Fleet) -> tuple:
    """Per-node tuple of the outcome codes carrying positive probability.

    Two fleets with the same signature induce the *same* configuration
    matrix (only the probabilities differ), which is what lets the
    enumeration be computed once per (n, support) and shared.  Read off
    :attr:`Fleet.probability_key`, whose runs of equal nodes share one
    pair object, so a run costs one support computation.
    """
    signature = []
    previous = codes = None
    for pair in fleet.probability_key:
        if pair is not previous:
            codes = _support_codes(*pair)
            previous = pair
        signature.append(codes)
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


def _configuration_probabilities(fleets: Sequence[Fleet], signature: tuple) -> np.ndarray:
    """``(F, K)`` per-configuration probability products of same-signature fleets.

    Built as successive outer products over each node's positive-support
    outcome probabilities, node 0 slowest — the row order of
    :func:`_enumeration`'s code matrix.  Entry ``[f, k]`` is
    ``((1.0·p0)·p1)·…``, the multiplication sequence of the recursive
    enumeration, so it is bit-identical to the probability the generator
    yields for that configuration.
    """
    count = len(fleets)
    pairs = np.array([fleet.probability_array for fleet in fleets])  # (F, n, 2)
    p_correct = np.maximum(0.0, 1.0 - (pairs[:, :, 0] + pairs[:, :, 1]))
    outcomes = np.concatenate((p_correct[:, :, None], pairs), axis=2)  # _KIND_ORDER
    # Every node's support columns in one gather; node i owns a slice.
    columns = [3 * node + code for node, codes in enumerate(signature) for code in codes]
    factors = outcomes.reshape(count, -1)[:, None, columns]
    probabilities = np.ones((count, 1, 1))
    start = 0
    for codes in signature:
        stop = start + len(codes)
        probabilities = (probabilities * factors[:, :, start:stop]).reshape(count, -1, 1)
        start = stop
    return probabilities.reshape(count, -1)


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


def exact_reliability_batch(
    spec: "ProtocolSpec",
    fleets: Sequence[Fleet],
    *,
    max_configs: int = DEFAULT_MAX_CONFIGS,
) -> list[ReliabilityResult]:
    """Safe/Live/Safe&Live probabilities of many fleets by full enumeration.

    Works for any spec — symmetric or not — but is exponential in ``n``.
    Fleets are grouped by support signature: each group shares one
    memoised configuration matrix and one evaluation of the verdicts
    (count-mask lookups for symmetric specs, per-configuration predicate
    calls otherwise), builds its ``(F, K)`` probability table by outer
    products (:func:`_configuration_probabilities`), and reduces it with
    the ordered :func:`~repro.analysis.kernels.masked_sum_batch`.  A group
    is cut into chunks of at most ``_BATCH_CHUNK_FLOATS`` table entries —
    the default ``max_configs`` — or of one fleet where a single table is
    larger, so a chunk never holds more than the largest table one fleet
    may enumerate.  Values are bit-identical to the historical
    per-configuration walk, whatever the batch, its order and its chunks.

    Fleets are checked in order: one whose size does not match the spec,
    or whose configuration count exceeds ``max_configs``, raises before
    anything is enumerated.
    """
    from repro.analysis import kernels

    groups: dict[tuple, list[int]] = {}
    for index, fleet in enumerate(fleets):
        if fleet.n != spec.n:
            raise InvalidConfigurationError(
                f"fleet has {fleet.n} nodes but spec expects {spec.n}"
            )
        signature = _support_signature(fleet)
        total = math.prod(map(len, signature))
        if total > max_configs:
            raise EstimationError(
                f"{total} configurations exceed the exact-enumeration budget of {max_configs}"
            )
        groups.setdefault(signature, []).append(index)

    results: list = [None] * len(fleets)
    for signature, members in groups.items():
        enumeration = _enumeration(signature)
        configs = enumeration.codes.shape[0]
        safe, live = _exact_verdicts(spec, enumeration)
        masks = (safe, live, safe & live)
        detail = f"enumerated {configs} configurations"
        chunk = max(1, kernels._BATCH_CHUNK_FLOATS // configs)
        for lo in range(0, len(members), chunk):
            part = members[lo : lo + chunk]
            probabilities = _configuration_probabilities(
                [fleets[index] for index in part], signature
            )
            sums = [kernels.masked_sum_batch(probabilities, mask) for mask in masks]
            values = np.minimum(sums, 1.0).tolist()
            for index, p_safe, p_live, p_both in zip(part, *values):
                results[index] = ReliabilityResult(
                    spec.name,
                    spec.n,
                    Estimate(p_safe),
                    Estimate(p_live),
                    Estimate(p_both),
                    "exact",
                    detail,
                )
    return results


def exact_reliability(
    spec: "ProtocolSpec", fleet: Fleet, *, max_configs: int = DEFAULT_MAX_CONFIGS
) -> ReliabilityResult:
    """:func:`exact_reliability_batch` of one fleet."""
    return exact_reliability_batch(spec, [fleet], max_configs=max_configs)[0]


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
