"""Vectorized estimation kernels: the array-level hot path of the engine.

The paper's pitch is that probability-native reliability analysis should be
cheap enough to run continuously — per deployment, per window, per what-if.
This module provides the batched linear-algebra primitives that make the
flexible estimator APIs in :mod:`repro.analysis` run at NumPy speed:

* **Verdict masks** — for symmetric specs, the ``(n+1) x (n+1)`` boolean
  arrays ``safe[c, b]`` / ``live[c, b]`` over crash/Byzantine count pairs,
  and each failure kind's line of them.  Shared by every equal spec
  (:func:`verdict_masks`, :meth:`ProtocolSpec.verdict_masks`) and each
  evaluated on its first read, they turn every counting aggregation into
  a ``(pmf * mask).sum()`` reduction and every symmetric Monte-Carlo tally
  into a read of a count histogram — predicates run ``O(n)`` times per
  *grouping key* for a line, ``O(n^2)`` for the grid, not per evaluation.

* **Count PMFs** — a fleet with one failure kind (crash-only or
  Byzantine-only — every fleet :meth:`ScenarioSet.grid` builds by
  default) has its PMF on one line of ``n+1`` counts (:func:`count_lines`):
  ``Binomial(n, p)`` in closed form when its nodes share one model, a 1-D
  recursion otherwise (:func:`_count_pmf_1d`, the joint DP's loop on one
  axis).  :func:`joint_count_pmf_batch` runs the trinomial
  Poisson-binomial dynamic program over the ``(n+1)^2`` grid for ``F``
  fleets at once, each bit-identical to the node-by-node loop; only
  fleets carrying both kinds (:func:`mixed_support`) need it.

* **One counting sweep** — :func:`counting_sweep` is the one place batched
  counting rows are built: the engine's counting groups and
  :func:`counting_reliability_batch` both call it.  It reads every
  one-kind fleet's count line in one call and runs the joint DP for the
  others chunk by chunk, and reduces each PMF against every spec of the
  batch; its results equal the scalar
  :func:`repro.analysis.counting.counting_reliability` whole.

* **Batched Monte-Carlo** — symmetric specs tally each trial by its
  (crashes, Byzantine) count pair, binned into one histogram; no node is
  ever classified.  When every node shares one model with one failure
  kind — crash-only ``(p, 0)`` or Byzantine-only ``(0, p)`` —
  :func:`monte_carlo_tally` draws one multinomial histogram per shard
  over the ``n + 1`` counts of ``Binomial(n, p)``, weighted by its closed
  form, never the counting DP.  Every other fleet (mixed kinds, several
  models) draws chunked ``(trials, n)`` uniforms in the (trial, node)
  order of the historical per-trial loop, so its seeded tallies equal
  that loop's, and counts each trial's crashes and Byzantine nodes
  straight from the uniforms (two threshold passes, one binned over its
  kind's line when the fleet has one failure kind; scalar thresholds when
  every node shares one model).  Asymmetric specs draw the same uniforms,
  classify every node (:func:`classify_uniforms`) and get ``np.unique``
  row dedup: Python predicates run once per *distinct* configuration, not
  per trial.

* **Sharded execution** — :func:`plan_shards` splits a trial budget into
  worker-count-independent shard blocks, :func:`spawn_shard_sequences`
  gives each shard an independent ``SeedSequence``-spawned stream, and
  :func:`monte_carlo_tally_sharded` maps the shards through
  :func:`repro.runtime.run_supervised` (in the calling thread, or over a
  thread or process pool), merging tallies in shard order, after
  evaluating the masks its shards read.  Spawned streams are the only
  sampling contract: a seeded estimate is a function of ``(trials, seed,
  shard_trials)`` and never of where the shards ran.

* **One-pass Birnbaum** — :func:`loo_weighted_products` combines prefix
  count-DPs with a backward weight recursion to produce all ``n``
  leave-one-out inner products ``<pmf without node u, W>`` in a single
  ``O(n^3)`` sweep, which is what makes :func:`birnbaum_importances`
  (and the ranking / gradient / upgrade-planner APIs built on it) ~2n
  times cheaper than re-running the counting DP per node.

Ordering note: every reduction that feeds an *exact* estimator (counting
here, enumeration in :func:`repro.analysis.exact.exact_reliability_batch`)
uses :func:`masked_sum` (or its batched twin :func:`masked_sum_batch`), a
sequential row-major ``np.add.accumulate`` reproducing the historical
nested-loop summation order, so exact results stay bit-identical across
the scalar, batched, and masked paths on every supported interpreter.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from repro._stats import binom_pmf_matrix, binom_pmf_vector
from repro.analysis.config import FailureConfig, FaultKind
from repro.analysis.result import Estimate, ReliabilityResult
from repro.errors import InvalidConfigurationError
from repro.faults.mixture import Fleet, HashedKey
from repro.runtime import run_supervised

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import ProtocolSpec

#: Target number of uniforms per Monte-Carlo chunk (~8 MB of float64); a
#: one-model, one-kind fleet draws one multinomial histogram per shard.
_CHUNK_DRAWS = 1 << 20

#: Cap on floats materialised per batched chunk (~32 MB of float64): the
#: engine's counting-group PMFs and the exact batch's probability tables.
_BATCH_CHUNK_FLOATS = 1 << 22

#: Outcome codes used by the vectorized trinomial classifier.
_CODE_CORRECT, _CODE_CRASH, _CODE_BYZANTINE = 0, 1, 2
_CODE_TO_KIND = {
    _CODE_CORRECT: FaultKind.CORRECT,
    _CODE_CRASH: FaultKind.CRASH,
    _CODE_BYZANTINE: FaultKind.BYZANTINE,
}


# ---------------------------------------------------------------------------
# Verdict masks
# ---------------------------------------------------------------------------
class MaskLine(NamedTuple):
    """One failure kind's line of a spec's verdict masks: entry ``k`` is
    the verdict for ``k`` failures of that kind and none of the other.
    (The masks' whole grid is held in one too, as 2-D arrays.)"""

    safe: np.ndarray
    live: np.ndarray
    both: np.ndarray

    def for_metric(self, metric: str) -> np.ndarray:
        """The boolean mask backing one reliability metric."""
        if metric not in ("safe", "live", "safe_and_live"):
            raise InvalidConfigurationError(f"unknown metric {metric!r}")
        return getattr(self, "both" if metric == "safe_and_live" else metric)


class VerdictMasks:
    """Count-pair truth tables of one symmetric spec's predicates.

    ``safe[c, b]`` / ``live[c, b]`` hold the predicate verdicts for ``c``
    crashes and ``b`` Byzantine nodes; entries outside the valid triangle
    ``c + b <= n`` are ``False``.  ``both`` is the elementwise AND.  The
    ``(n+1)^2`` grid is evaluated on its first read; a row whose fleet
    carries one failure kind reads only that kind's :class:`MaskLine`
    (:meth:`line`, ``O(n)`` predicate calls), so it never builds the grid.
    """

    def __init__(self, spec: "ProtocolSpec"):
        if not spec.symmetric:
            raise InvalidConfigurationError(
                f"{spec.name} is not symmetric; verdict masks do not apply"
            )
        self.n = spec.n
        self._spec = spec

    def _evaluate(self, shape, cells) -> MaskLine:
        """Verdicts at ``(index, (crashes, byzantine))`` cells of a
        ``shape`` array of ``False``."""
        safe, live = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
        for index, pair in cells:
            safe[index] = self._spec.is_safe_counts(*pair)
            live[index] = self._spec.is_live_counts(*pair)
        both = safe & live
        for mask in (safe, live, both):
            mask.setflags(write=False)
        return MaskLine(safe, live, both)

    @cached_property
    def _grid(self) -> MaskLine:
        counts = range(self.n + 1)
        pairs = ((c, b) for c in counts for b in range(self.n + 1 - c))
        return self._evaluate((self.n + 1,) * 2, ((pair, pair) for pair in pairs))

    safe = property(lambda self: self._grid.safe)
    live = property(lambda self: self._grid.live)
    both = property(lambda self: self._grid.both)

    @cached_property
    def _lines(self) -> tuple[MaskLine, MaskLine]:
        counts = range(self.n + 1)
        return (
            self._evaluate(self.n + 1, ((k, (k, 0)) for k in counts)),
            self._evaluate(self.n + 1, ((k, (0, k)) for k in counts)),
        )

    def line(self, byzantine: bool) -> MaskLine:
        """The grid's column ``[:, 0]`` (crashes only) or, with
        ``byzantine``, its row ``[0, :]`` (Byzantine nodes only)."""
        return self._lines[bool(byzantine)]

    def for_kind(self, kind: int) -> MaskLine:
        """What a row over a fleet of :func:`fleet_kind` ``kind`` reads,
        evaluated: the crash (0) or Byzantine (1) line, or (2) the grid."""
        return self._grid if kind == 2 else self._lines[kind]

    def for_metric(self, metric: str) -> np.ndarray:
        """The boolean mask backing one reliability metric."""
        return self._grid.for_metric(metric)


#: Verdict masks by spec grouping key, one table for the process.  Equal
#: keys promise identical predicates (the engine's memo relies on the same
#: promise), so every spec instance with a key shares one masks object: a
#: spec parsed afresh for each daemon request does not re-run the
#: predicate loops.  Locked, and bounded like
#: :mod:`repro.analysis.exact`'s enumeration cache: the oldest entries are
#: evicted beyond ``_MASKS_MAX_ENTRIES`` entries or ``_MASKS_MAX_CELLS``
#: count-pair cells in all, and the newest entry is always kept.  An entry
#: is charged, on each insert, what it holds: its two ``n + 1`` lines, and
#: its ``(n+1)^2`` grid once a row has built it.
_MASKS: dict[tuple, VerdictMasks] = {}
_MASKS_LOCK = threading.Lock()
_MASKS_MAX_ENTRIES = 256
_MASKS_MAX_CELLS = 1 << 22


def _masks_cells(masks: VerdictMasks) -> int:
    """The count-pair cells one ``_MASKS`` entry is charged."""
    side = masks.n + 1
    return 2 * side + (side * side if "_grid" in masks.__dict__ else 0)


def verdict_masks(spec: "ProtocolSpec") -> VerdictMasks:
    """A spec's verdict masks, one object per grouping key.

    Specs are immutable after construction and equal grouping keys evaluate
    every count pair alike, so two equal specs built separately get the
    same masks object (see ``_MASKS``).  Building one evaluates nothing:
    its grid and lines are evaluated on first read, outside the lock.
    """
    key = spec.grouping_key()
    with _MASKS_LOCK:
        masks = _MASKS.get(key)
        if masks is None:
            masks = _MASKS[key] = VerdictMasks(spec)
            while len(_MASKS) > 1 and (
                len(_MASKS) > _MASKS_MAX_ENTRIES
                or sum(map(_masks_cells, _MASKS.values())) > _MASKS_MAX_CELLS
            ):
                del _MASKS[next(iter(_MASKS))]
    return masks


# ---------------------------------------------------------------------------
# Ordered reductions (bit-identical to the historical nested loops)
# ---------------------------------------------------------------------------
def masked_sum(pmf: np.ndarray, mask: np.ndarray) -> float:
    """Sum ``pmf`` where ``mask`` holds, in row-major sequential order.

    Reproduces the historical ``for c: for b: total += mass`` accumulation
    exactly (IEEE addition is order-sensitive), which is what keeps the
    exact estimators bit-identical to their pre-kernel values.  The
    accumulation is the strictly sequential ``np.add.accumulate`` behind
    :func:`masked_sum_batch`: the builtin ``sum()`` is not used because
    from Python 3.12 on it compensates float rounding
    (Neumaier summation), which would make the scalar estimators disagree
    in the last bits with the planner's batched rows.
    """
    selected = pmf[mask]
    return float(np.add.accumulate(selected)[-1]) if selected.size else 0.0


def masked_sum_batch(pmfs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-PMF masked sums for a ``(F, ...)`` stack, order-preserving.

    Boolean indexing selects each PMF's masked entries in row-major scan
    order (a count grid or one line of it, or an exact batch's
    configuration row) and the cumulative sum accumulates them strictly
    left to right (``out[i] = out[i-1] + x[i]``), so every row reproduces
    the exact IEEE addition sequence of :func:`masked_sum` — bit-identical
    per fleet, one NumPy pass for the whole batch.
    """
    selected = pmfs[:, mask]
    if selected.shape[1] == 0:
        return np.zeros(selected.shape[0])
    return np.add.accumulate(selected, axis=1)[:, -1]


def reliability_values(pmf: np.ndarray, masks: VerdictMasks) -> tuple[float, float, float]:
    """(P[safe], P[live], P[safe&live]) of a joint count PMF, clamped to 1."""
    return (
        min(masked_sum(pmf, masks.safe), 1.0),
        min(masked_sum(pmf, masks.live), 1.0),
        min(masked_sum(pmf, masks.both), 1.0),
    )


# ---------------------------------------------------------------------------
# Batched joint-count DP
# ---------------------------------------------------------------------------
def fleet_probability_matrix(fleets: Sequence[Fleet]) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-node crash/Byzantine probabilities into (F, n) arrays.

    Stacks each fleet's cached :attr:`~repro.faults.mixture.Fleet.probability_array`.
    """
    if not fleets:
        raise InvalidConfigurationError("need at least one fleet")
    n = fleets[0].n
    if any(fleet.n != n for fleet in fleets):
        raise InvalidConfigurationError("all fleets in a batch must have the same size")
    pairs = np.array([fleet.probability_array for fleet in fleets]).reshape(len(fleets), n, 2)
    crash, byz = np.ascontiguousarray(pairs.transpose(2, 0, 1))
    return crash, byz


def fleet_kind(pairs: np.ndarray) -> int:
    """Where an ``(n, 2)`` fleet's failure counts lie on the count grid:
    ``0`` crashes only (or no failure mass), ``1`` Byzantine nodes only,
    ``2`` both kinds, filling the grid."""
    crash, byz = pairs.any(axis=0).tolist()
    return 2 if crash and byz else int(byz)


def mixed_support(crash: np.ndarray, byz: np.ndarray) -> np.ndarray:
    """Which rows of an ``(F, n)`` batch carry both crash and Byzantine mass.

    Those are the fleets whose count PMF fills the ``(n+1)^2`` grid; every
    other row (crash-only, Byzantine-only, or no failure mass at all) has
    its PMF on one line of it (:func:`count_lines`).
    """
    return crash.any(axis=1) & byz.any(axis=1)


def joint_count_pmf_batch(crash: np.ndarray, byz: np.ndarray) -> np.ndarray:
    """Joint crash/Byzantine count PMFs for ``F`` fleets at once, by the
    node-by-node trinomial DP.

    ``crash`` and ``byz`` are ``(F, n)`` probability arrays; the result is
    ``(F, n+1, n+1)`` with ``out[f, c, b] = P[c crashes, b byz]`` for fleet
    ``f``.  Every update is elementwise per fleet, so each slice is
    bit-identical to the single-fleet result
    (:func:`repro.analysis.counting.joint_count_pmf`).
    """
    crash = np.asarray(crash, dtype=float)
    byz = np.asarray(byz, dtype=float)
    if crash.shape != byz.shape or crash.ndim != 2:
        raise InvalidConfigurationError("crash/byzantine arrays must share an (F, n) shape")
    return _joint_count_pmf_2d(crash, byz, np.maximum(0.0, 1.0 - crash - byz))


def _count_pmf_1d(fail: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``(F, n+1)`` count PMFs of fleets with one failure kind.

    The 2-D loop of :func:`_joint_count_pmf_2d` restricted to the one axis
    that carries mass: the same growing window, the same ping-pong
    buffers, the same multiply-by-``ok`` then add-the-shifted-failure step.
    The absent kind only ever adds ``+0.0`` to non-negative entries in the
    2-D loop — an exact no-op — so each line is bit-identical to the
    grid's.
    The buffers are count-major, ``(n+1, F)``, so each step multiplies
    whole contiguous rows by one node's contiguous column; the result is
    their transpose (a view).
    """
    fleets, n = fail.shape
    pmf = np.zeros((n + 1, fleets))
    pmf[0] = 1.0
    scratch, shifted = np.empty_like(pmf), np.empty_like(pmf)
    ok, fail = np.ascontiguousarray(ok.T), np.ascontiguousarray(fail.T)
    for node in range(n):
        k = node + 1  # entries [0, k) may be nonzero pre-update
        src = pmf[:k]
        dst = scratch[: k + 1]
        dst[k] = 0.0
        np.multiply(src, ok[node], out=dst[:k])
        dst[1:] += np.multiply(src, fail[node], out=shifted[:k])
        pmf, scratch = scratch, pmf
    return pmf.T


def _joint_count_pmf_2d(crash: np.ndarray, byz: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """``(F, n+1, n+1)`` joint count PMFs by the windowed trinomial DP."""
    fleets, n = crash.shape
    # Grow the active window with the node count: after k nodes only counts
    # in [0, k] x [0, k] carry mass, so the update runs on a (k+1)^2 view
    # instead of the full (n+1)^2 grid — a ~3x flop saving at large n.
    # Outside the window every operation would produce exact zeros, so the
    # restriction leaves each entry bit-identical to the full-grid update.
    # Two ping-pong buffers avoid per-node allocation; only the window's
    # new border row/column needs zeroing each step.
    pmf = np.zeros((fleets, n + 1, n + 1))
    pmf[:, 0, 0] = 1.0
    scratch = np.empty_like(pmf)
    for node in range(n):
        k = node + 1  # entries [0, k) x [0, k) may be nonzero pre-update
        src = pmf[:, :k, :k]
        dst = scratch[:, : k + 1, : k + 1]
        dst[:, k, :] = 0.0
        dst[:, :k, k] = 0.0
        np.multiply(src, ok[:, node, None, None], out=dst[:, :k, :k])
        dst[:, 1 : k + 1, :k] += src * crash[:, node, None, None]
        dst[:, :k, 1 : k + 1] += src * byz[:, node, None, None]
        pmf, scratch = scratch, pmf
    return pmf


def count_lines(fail: np.ndarray) -> np.ndarray:
    """``(F, n+1)`` failure-count PMFs of ``F`` fleets with one failure kind.

    ``fail`` is ``(F, n)``: each node's probability of failing in the
    fleet's one kind.  A fleet whose nodes share one probability ``p``
    counts ``Binomial(n, p)`` failures: its row is the closed form, one
    :func:`~repro._stats.binom_pmf_matrix` call for every such fleet of the
    batch, so it equals ``binom_pmf_vector(n, p)`` bit for bit.  The other
    fleets run the node-by-node recursion :func:`_count_pmf_1d`.  Every
    step is row-wise, so a fleet's line does not depend on its batch: the
    scalar :func:`~repro.analysis.counting.counting_reliability` (a batch
    of one) and :func:`counting_sweep` read the same bits.
    """
    fleets, n = fail.shape
    one_model = (fail == fail[:, :1]).all(axis=1)
    if one_model.all():
        return binom_pmf_matrix(n, fail[:, 0].tolist())
    several = fail[~one_model]
    lines = np.empty((fleets, n + 1))
    lines[~one_model] = _count_pmf_1d(several, np.maximum(0.0, 1.0 - several))
    if one_model.any():
        lines[one_model] = binom_pmf_matrix(n, fail[one_model, 0].tolist())
    return lines


class CountingSweep(NamedTuple):
    """What one :func:`counting_sweep` computed.

    ``results`` holds one counting result per row, in row order;
    ``fleets`` counts the unique fleets swept and ``fleets_1d`` how many
    of them were read as one count line (:func:`count_lines`).
    """

    results: list[ReliabilityResult]
    fleets: int
    fleets_1d: int


def _shared_estimates(values: np.ndarray, table: dict[float, Estimate]) -> list[Estimate]:
    """One exact :class:`Estimate` per value, equal values sharing one frozen
    object through ``table``: a sweep repeats few values (every Raft row is
    safe with probability 1.0), and building an Estimate costs far more
    than finding one."""
    return [
        table.get(value) or table.setdefault(value, Estimate(value))
        for value in values.tolist()
    ]


def counting_sweep(rows: Sequence[tuple["ProtocolSpec", Fleet]]) -> CountingSweep:
    """Counting reliability of same-size ``(spec, fleet)`` rows in one sweep.

    The count PMF depends only on the fleet, so each *unique* fleet (by
    :attr:`~repro.faults.mixture.Fleet.hashed_key`) is computed once and
    reduced against every spec asking about it: Raft and Ben-Or share
    crash fleets, PBFT and Byzantine Ben-Or Byzantine ones.  Rows sharing
    a spec (by grouping key) reduce together through
    :func:`masked_sum_batch`.  A crash-only or Byzantine-only fleet's PMF
    is one count line (:func:`count_lines`, every such fleet of the sweep
    at once), reduced against that kind's :class:`MaskLine`.  A fleet
    carrying both kinds runs the joint DP, a chunk of at most
    ``_BATCH_CHUNK_FLOATS`` PMF entries at a time, each chunk reduced
    before the next is swept, so peak memory stays near the cap.  Per-row
    results equal :func:`repro.analysis.counting.counting_reliability`
    whole — same PMF bits, same left-to-right masked accumulation.  No
    rows give no results.
    """
    if not rows:
        return CountingSweep([], 0, 0)
    slots: dict[HashedKey, int] = {}  # fleet key -> position in ``unique``
    unique: list[Fleet] = []
    # spec grouping key -> (spec, its rows, their fleets' slots)
    groups: dict[tuple, tuple["ProtocolSpec", list[int], list[int]]] = {}
    for index, (spec, fleet) in enumerate(rows):
        slot = slots.setdefault(fleet.hashed_key, len(unique))
        if slot == len(unique):
            unique.append(fleet)
        group = groups.get(spec.grouping_key())
        if group is None:
            group = groups[spec.grouping_key()] = (spec, [], [])
        group[1].append(index)
        group[2].append(slot)
    crash, byz = fleet_probability_matrix(unique)
    total, n = crash.shape
    for spec, _, _ in groups.values():
        if not spec.symmetric:
            raise InvalidConfigurationError(
                f"{spec.name} is not symmetric; the counting estimator does not apply"
            )
        if spec.n != n:
            raise InvalidConfigurationError(
                f"fleets have {n} nodes but spec expects {spec.n}"
            )
    # A fleet's PMF is one count line (one kind) or the whole grid (both
    # kinds): ``kind`` 0 / 1 reads the masks' crash / Byzantine line, 2 the
    # grid.  ``at`` is the fleet's row in the block of PMFs holding it.
    mixed = mixed_support(crash, byz)
    kind = np.where(mixed, 2, byz.any(axis=1))
    at = np.empty(total, dtype=np.intp)
    results: list = [None] * len(rows)
    estimates: dict[float, Estimate] = {}  # see _shared_estimates

    def reduce(fleets: np.ndarray, pmfs: np.ndarray) -> None:
        at[fleets] = np.arange(fleets.size)
        for spec, indices, slots in groups.values():
            slots = np.array(slots)
            held = np.isin(slots, fleets)
            for k in np.unique(kind[slots[held]]).tolist():
                selected = held & (kind[slots] == k)
                masks = verdict_masks(spec).for_kind(k)
                p_safe, p_live, p_both = (
                    _shared_estimates(
                        np.minimum(masked_sum_batch(pmfs[at[slots[selected]]], mask), 1.0),
                        estimates,
                    )
                    for mask in (masks.safe, masks.live, masks.both)
                )
                for index, safe, live, both in zip(
                    np.array(indices)[selected].tolist(), p_safe, p_live, p_both
                ):
                    results[index] = ReliabilityResult(spec.name, n, safe, live, both, "counting")

    one_kind, many = np.flatnonzero(~mixed), np.flatnonzero(mixed)
    reduce(one_kind, count_lines((crash + byz)[one_kind]))  # the other kind is all zeros
    chunk = max(1, _BATCH_CHUNK_FLOATS // ((n + 1) * (n + 1)))
    for lo in range(0, many.size, chunk):
        chosen = many[lo : lo + chunk]
        reduce(chosen, joint_count_pmf_batch(crash[chosen], byz[chosen]))
    return CountingSweep(results, total, one_kind.size)


def counting_reliability_batch(
    spec: "ProtocolSpec", fleets: Sequence[Fleet]
) -> list[ReliabilityResult]:
    """Counting reliability of one spec over many same-size fleets: the
    one-spec :func:`counting_sweep`."""
    return counting_sweep([(spec, fleet) for fleet in fleets]).results


# ---------------------------------------------------------------------------
# Batched Monte-Carlo
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BatchTally:
    """Safe/live/both hit counts accumulated over a batched sampling run."""

    trials: int
    safe: int
    live: int
    both: int


def require_positive_int(value, name: str = "trials") -> int:
    """``value`` as a positive ``int`` — the one check of a trial budget.

    NumPy integers are accepted; ``bool`` and every non-integer
    (``2.5``, ``1e4``) are rejected rather than truncated or used.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfigurationError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise InvalidConfigurationError(f"{name} must be positive, got {value}")
    return int(value)


def _chunk_sizes(trials: int, n: int) -> list[int]:
    """Split ``trials`` into chunk sizes bounded by the per-chunk draw budget
    (a one-model, one-kind tally draws one multinomial histogram per shard).

    Invariants (see the boundary tests in ``tests/test_analysis_kernels.py``):
    the sizes sum to ``trials``, every chunk is positive, and no chunk draws
    more than ``max(_CHUNK_DRAWS, n)`` uniforms.  ``trials <= chunk`` — which
    always happens for huge ``n``, where the budget only allows a handful of
    trials per chunk — yields a *single undersized chunk* rather than a
    full-plus-remainder split.  Non-positive ``trials`` yields no chunks
    (callers validate; this keeps the helper total).
    """
    if trials <= 0:
        return []
    chunk = max(1, _CHUNK_DRAWS // max(n, 1))
    if trials <= chunk:
        return [trials]
    full, rest = divmod(trials, chunk)
    return [chunk] * full + ([rest] if rest else [])


def classify_uniforms(
    uniforms: np.ndarray, crash_p: np.ndarray, byz_p: np.ndarray
) -> np.ndarray:
    """Trinomial classification of a ``(m, n)`` uniform block.

    Matches the scalar sampler: ``u < p_crash`` is a crash,
    ``p_crash <= u < p_crash + p_byzantine`` is Byzantine, else correct.
    Returns ``int8`` outcome codes.  Only the paths that need each node's
    outcome use it — asymmetric tallies and :func:`predicate_tally`;
    symmetric tallies count the same rule without building codes.
    """
    codes = np.zeros(uniforms.shape, dtype=np.int8)
    crash = uniforms < crash_p
    byz = ~crash & (uniforms < crash_p + byz_p)
    codes[crash] = _CODE_CRASH
    codes[byz] = _CODE_BYZANTINE
    return codes


def _config_from_codes(row: np.ndarray) -> FailureConfig:
    return FailureConfig(tuple(_CODE_TO_KIND[int(code)] for code in row))


def _row_counts(hits: np.ndarray) -> np.ndarray:
    """Per-row ``True`` counts of a boolean ``(m, n)`` block, as ``intp``.

    ``einsum`` over the bytes is several times faster than
    ``count_nonzero(axis=1)``; its ``uint8`` accumulator is exact while a
    row holds at most 255 nodes.
    """
    if hits.shape[1] <= np.iinfo(np.uint8).max:
        return np.einsum("ij->i", hits.view(np.uint8)).astype(np.intp)
    return np.count_nonzero(hits, axis=1)


def _tally_symmetric(
    masks: VerdictMasks, crash_counts, byz_counts
) -> tuple[int, int, int]:
    """Safe/live/both hits of per-trial count pairs, binned over the
    ``(n+1)^2`` count pairs.  Either count may be the scalar ``0``: then
    every trial lies on one line of that grid, so the trials are binned
    over the other kind's ``n + 1`` counts and read against that line —
    the same integer hits in ``O(n)`` rather than ``O(n^2)``."""
    width = masks.n + 1
    if np.ndim(crash_counts) == 0 or np.ndim(byz_counts) == 0:  # one kind
        byzantine = np.ndim(crash_counts) == 0
        hist = np.bincount(byz_counts if byzantine else crash_counts, minlength=width)
        return _tally_histogram(masks, hist, _BYZANTINE_LINE if byzantine else _CRASH_LINE)
    hist = np.bincount(
        crash_counts * width + byz_counts, minlength=width * width
    ).reshape(width, width)
    return _tally_histogram(masks, hist)


#: One failure kind's line of the count grid: the crash column, the
#: Byzantine row.
_CRASH_LINE, _BYZANTINE_LINE = np.s_[:, 0], np.s_[0, :]


def _tally_histogram(masks: VerdictMasks, hist, line=np.s_[:]) -> tuple[int, int, int]:
    """Safe/live/both hits of a trial histogram over the masks' cells at
    ``line``: the whole grid, or one kind's column ``[:, 0]`` / row
    ``[0, :]``, read from that kind's :class:`MaskLine` (the grid is not
    built for a line)."""
    read = masks if line == np.s_[:] else masks.line(line == _BYZANTINE_LINE)
    return (
        int(hist[read.safe].sum()),
        int(hist[read.live].sum()),
        int(hist[read.both].sum()),
    )


def _tally_asymmetric(
    spec: "ProtocolSpec", codes: np.ndarray
) -> tuple[int, int, int]:
    """Dedup configurations so predicates run once per distinct row."""
    unique_rows, counts = np.unique(codes, axis=0, return_counts=True)
    safe = live = both = 0
    for row, count in zip(unique_rows, counts.tolist()):
        config = _config_from_codes(row)
        row_safe = spec.is_safe(config)
        row_live = spec.is_live(config)
        if row_safe:
            safe += count
        if row_live:
            live += count
        if row_safe and row_live:
            both += count
    return safe, live, both


def _binomial_tally(
    masks: VerdictMasks, n: int, crash_p: float, byz_p: float, trials: int,
    rng: np.random.Generator,
) -> BatchTally:
    """Symmetric tally of a one-model, one-kind fleet: each trial's failure
    count is ``Binomial(n, p)`` (``p`` the nonzero of ``crash_p``/``byz_p``),
    so the histogram of ``trials`` counts is one ``rng.multinomial`` over
    the closed-form PMF, read against the kind's :class:`MaskLine`.

    ``O(n)`` whatever ``trials`` is: ~25 µs + 0.2 µs per count, against
    0.03-0.1 µs per trial for one binomial per trial.  Crossover near
    ``trials ~ 3 n`` (per shard, per-trial -> histogram, µs): ``n = 25``,
    6 250 trials 205 -> 33, 64 trials 15 -> 33; ``n = 1 001``, 6 250
    trials 596 -> 272, 256 trials 46 -> 278.  The default plan (>= 4 096
    trials per shard) stays above it below ``n`` of about 1 400.
    """
    hist = rng.multinomial(trials, binom_pmf_vector(n, crash_p + byz_p))  # one of them is 0
    line = _BYZANTINE_LINE if byz_p else _CRASH_LINE
    return BatchTally(trials, *_tally_histogram(masks, hist, line))


def monte_carlo_tally(
    spec: "ProtocolSpec",
    fleet: Fleet,
    trials: int,
    rng: np.random.Generator,
) -> BatchTally:
    """Batched independent-trinomial Monte-Carlo tally.

    Symmetric specs never classify nodes: a trial's verdict depends only
    on its (crashes, Byzantine) count pair, tallied by one histogram over
    the count pairs.  How a trial's counts are drawn depends on the fleet:

    * **One model, one failure kind** — each trial's failure count is
      ``Binomial(n, p)``: one multinomial histogram per shard over the
      ``n + 1`` counts (:func:`_binomial_tally`), distributed as the
      histogram of ``trials`` independent trials.  It stays an
      independent check on the counting DP: a closed-form PMF sampled by
      NumPy, where the DP convolves the Poisson-binomial node by node.
    * **Every other fleet** (mixed kinds, several models) draws chunked
      ``(m, n)`` uniforms in (trial, node) order, the stream of a per-trial
      loop.  Each row's counts are taken straight from the uniforms —
      ``count(u < p_crash)`` crashes and ``count(u < p_crash +
      p_byzantine)`` minus that Byzantine nodes, the same rule as
      :func:`classify_uniforms` (``p_byzantine >= 0``, so the first set
      lies inside the second).  A single-model mixed-kind fleet compares
      the uniforms against its two scalars rather than broadcast
      ``n``-vectors: each element meets the same double either way.  A
      fleet with one kind and several models counts only its failures,
      binned over that kind's line (the other kind counts 0 in every trial).

    Asymmetric specs draw the same uniforms, classify each node and go
    through :func:`np.unique` row dedup.
    """
    pairs = fleet.probability_array
    crash_p, byz_p = np.ascontiguousarray(pairs.T)
    masks = verdict_masks(spec) if spec.symmetric else None
    kind = fleet_kind(pairs)
    if masks is not None and fleet.n and (pairs == pairs[0]).all():
        crash_p, byz_p = pairs[0]  # one model: compare against scalars
        if kind < 2:  # one kind: count ~ Binomial(n, p)
            return _binomial_tally(masks, fleet.n, crash_p, byz_p, trials, rng)
    fail_p = crash_p + byz_p  # on a one-kind fleet the other kind adds exact zeros
    safe = live = both = 0
    for size in _chunk_sizes(trials, fleet.n):
        uniforms = rng.random((size, fleet.n))
        if masks is not None:
            fail_counts = _row_counts(uniforms < fail_p)
            if kind < 2:  # the absent kind counts 0 in every trial
                counts = (0, fail_counts) if kind else (fail_counts, 0)
                s, l, b = _tally_symmetric(masks, *counts)
            else:
                crash_counts = _row_counts(uniforms < crash_p)
                s, l, b = _tally_symmetric(masks, crash_counts, fail_counts - crash_counts)
        else:
            s, l, b = _tally_asymmetric(
                spec, classify_uniforms(uniforms, crash_p, byz_p)
            )
        safe += s
        live += l
        both += b
    return BatchTally(trials=trials, safe=safe, live=live, both=both)


def correlated_tally(
    spec: "ProtocolSpec",
    model,
    trials: int,
    rng: np.random.Generator,
    failure_kind: FaultKind,
) -> BatchTally:
    """Batched tally under a correlated failure model.

    ``model.sample_many`` draws whole arrays per chunk (the built-in models
    vectorize it one-pass; see :mod:`repro.faults.correlation` for each
    model's documented seeded-stream behaviour).
    """
    masks = verdict_masks(spec) if spec.symmetric else None
    code = _CODE_CRASH if failure_kind is FaultKind.CRASH else _CODE_BYZANTINE
    safe = live = both = 0
    for size in _chunk_sizes(trials, spec.n):
        failed = np.asarray(model.sample_many(size, rng), dtype=bool)
        if masks is not None:
            fail_counts = _row_counts(failed)
            if failure_kind is FaultKind.CRASH:
                s, l, b = _tally_symmetric(masks, fail_counts, 0)
            else:
                s, l, b = _tally_symmetric(masks, 0, fail_counts)
        else:
            codes = np.where(failed, np.int8(code), np.int8(_CODE_CORRECT))
            s, l, b = _tally_asymmetric(spec, codes)
        safe += s
        live += l
        both += b
    return BatchTally(trials=trials, safe=safe, live=live, both=both)


def predicate_tally(
    fleet: Fleet,
    predicate: Callable[[FailureConfig], bool],
    trials: int,
    rng: np.random.Generator,
) -> int:
    """Hits of an arbitrary configuration predicate over batched trials.

    Python predicates are opaque, so every chunk is deduped with
    :func:`np.unique` and the predicate runs once per distinct
    configuration.
    """
    crash_p, byz_p = np.ascontiguousarray(fleet.probability_array.T)
    hits = 0
    for size in _chunk_sizes(trials, fleet.n):
        uniforms = rng.random((size, fleet.n))
        codes = classify_uniforms(uniforms, crash_p, byz_p)
        unique_rows, counts = np.unique(codes, axis=0, return_counts=True)
        for row, count in zip(unique_rows, counts.tolist()):
            if predicate(_config_from_codes(row)):
                hits += count
    return hits


# ---------------------------------------------------------------------------
# Shard planning and multi-core execution
# ---------------------------------------------------------------------------
#: Fixed parallelism grain of a spawned-stream shard plan.  The shard count
#: is a function of the trial budget alone — never of the worker count — so
#: sharded results are identical whether 1 or 16 workers execute the plan.
_SHARD_GRAIN = 16

#: Minimum trials per shard: below this the per-shard generator/dispatch
#: overhead dominates the vectorized tally.
_MIN_SHARD_TRIALS = 4096


@dataclass(frozen=True)
class ShardPlan:
    """How a trial budget splits into independently-seeded shards.

    ``shards`` holds the per-shard trial counts in execution/merge order.
    The plan depends only on ``trials`` and ``shard_trials`` (both recorded),
    which is the determinism contract: worker counts and executor modes can
    vary freely without changing any sharded estimate.
    """

    trials: int
    shard_trials: int
    shards: tuple[int, ...]

    @property
    def num_shards(self) -> int:
        return len(self.shards)


def plan_shards(trials: int, shard_trials: int | None = None) -> ShardPlan:
    """Split ``trials`` into shard blocks for spawned-stream execution.

    With ``shard_trials`` unset, the plan targets :data:`_SHARD_GRAIN` equal
    shards but never shrinks a shard below :data:`_MIN_SHARD_TRIALS` — small
    budgets produce fewer (or one) shards instead of many tiny ones.
    """
    trials = require_positive_int(trials)
    if shard_trials is None:
        shard_trials = max(_MIN_SHARD_TRIALS, -(-trials // _SHARD_GRAIN))
    else:
        shard_trials = require_positive_int(shard_trials, "shard_trials")
    full, rest = divmod(trials, shard_trials)
    shards = (shard_trials,) * full + ((rest,) if rest else ())
    return ShardPlan(trials=trials, shard_trials=shard_trials, shards=shards)


def spawn_shard_sequences(seed, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent per-shard seed sequences via ``SeedSequence.spawn``.

    An ``int``/``None`` seed roots a fresh :class:`numpy.random.SeedSequence`;
    a ready-made generator spawns children off its own seed sequence (which
    advances its spawn counter — deterministic, since every sharded run
    spawns exactly the plan's shard count).  The children — not generators —
    are the retry-determinism anchor: a generator advances as it draws, but
    ``np.random.default_rng(child)`` rebuilds the *same* stream from the
    same child every time, which is how the supervised runtime re-executes
    a failed shard bit-identically.
    """
    if count <= 0:
        raise InvalidConfigurationError(f"shard count must be positive, got {count}")
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq
    else:
        seq = np.random.SeedSequence(seed)
    return list(seq.spawn(count))


def spawn_shard_generators(seed, count: int) -> list[np.random.Generator]:
    """``count`` independent per-shard generators via ``SeedSequence.spawn``.

    Generator view of :func:`spawn_shard_sequences` (one per child, same
    spawn order).  Child streams are statistically independent of each
    other.
    """
    return [
        np.random.default_rng(child) for child in spawn_shard_sequences(seed, count)
    ]


def rebuild_shard_generators(
    children: Sequence[np.random.SeedSequence],
) -> list[np.random.Generator]:
    """Fresh generators from already-spawned ``SeedSequence`` children.

    The rebuild half of the :func:`spawn_shard_sequences` contract: callers
    that keep the children (the campaign backend, the supervised runtime's
    retry path) mint identical streams from them any number of times.
    Living here keeps generator construction inside the declared
    stream-boundary module (see ``repro.contracts``).
    """
    return [np.random.default_rng(child) for child in children]


def merge_tallies(tallies: Sequence[BatchTally]) -> BatchTally:
    """Combine per-shard tallies (shard order; integer sums are exact)."""
    if not tallies:
        raise InvalidConfigurationError("need at least one tally to merge")
    return BatchTally(
        trials=sum(t.trials for t in tallies),
        safe=sum(t.safe for t in tallies),
        live=sum(t.live for t in tallies),
        both=sum(t.both for t in tallies),
    )


def _tally_shard(payload) -> BatchTally:
    """Process-pool entry point: one shard of a sharded Monte-Carlo tally."""
    spec, fleet, shard_trials, rng = payload
    return monte_carlo_tally(spec, fleet, shard_trials, rng)


def monte_carlo_tally_sharded(
    spec: "ProtocolSpec",
    fleet: Fleet,
    trials: int,
    seed,
    *,
    jobs: int = 1,
    shard_trials: int | None = None,
    mode: str = "process",
    supervision=None,
    chaos=None,
) -> tuple[BatchTally, ShardPlan]:
    """Spawned-stream Monte-Carlo tally, mapped through the shard runtime.

    The trial budget is split by :func:`plan_shards`, each shard draws from
    its own :func:`spawn_shard_sequences` stream, and the per-shard tallies
    are merged in shard order — so the result depends on ``(trials, seed,
    shard_trials)`` but never on ``jobs`` or ``mode``.

    ``supervision`` (a :class:`repro.runtime.Supervision`; default: one
    attempt per shard, worker errors propagate unchanged) adds timeouts and
    retries: a failed shard retries on a generator rebuilt from the *same*
    spawned child, so a retried run stays bit-identical to a clean one;
    under ``on_shard_failure='degrade'`` the surviving shards merge into a
    smaller tally (``tally.trials`` reports the effective count).
    ``chaos`` injects worker faults for self-tests.
    """
    plan = plan_shards(trials, shard_trials)
    children = spawn_shard_sequences(seed, plan.num_shards)
    if spec.symmetric:
        # Evaluate what the shards read before they fan out: forked workers
        # inherit it and thread shards do not each evaluate it again.
        verdict_masks(spec).for_kind(fleet_kind(fleet.probability_array))

    def build(index: int):
        # Thread/serial workers advance the payload generator in place, so a
        # retry must restart the stream from the original spawned child.
        return (
            spec,
            fleet,
            plan.shards[index],
            np.random.default_rng(children[index]),
        )

    tallies, _report = run_supervised(
        _tally_shard,
        [build(index) for index in range(plan.num_shards)],
        jobs=jobs,
        mode=mode,
        supervision=supervision,
        rebuild=build,
        chaos=chaos,
    )
    return merge_tallies([tally for tally in tallies if tally is not None]), plan


# ---------------------------------------------------------------------------
# One-pass leave-one-out products (Birnbaum importance et al.)
# ---------------------------------------------------------------------------
def loo_weighted_products(
    crash_p: np.ndarray, byz_p: np.ndarray, weights: Sequence[np.ndarray]
) -> np.ndarray:
    """All-nodes leave-one-out inner products in one O(n^3) sweep per weight.

    For each node ``u`` and weight matrix ``W`` this returns

        ``S[w, u] = sum_{c,b} P[counts over fleet \\ {u} = (c, b)] * W[c, b]``

    without ever materialising the ``n`` leave-one-out PMFs.  Forward pass:
    prefix count-DPs over nodes ``[0, u)``.  Backward pass: the weight
    recursion ``G_i = p_ok_i G_{i+1} + p_crash_i shift_c(G_{i+1}) +
    p_byz_i shift_b(G_{i+1})``, which folds nodes ``[u+1, n)`` *and* the
    weight into one array.  Then ``S[w, u] = <prefix_u, G_{u+1}>``.
    """
    crash_p = np.asarray(crash_p, dtype=float)
    byz_p = np.asarray(byz_p, dtype=float)
    n = crash_p.size
    if byz_p.shape != (n,):
        raise InvalidConfigurationError("crash/byzantine vectors must share a length")
    shape = (n + 1, n + 1)
    weight_stack = np.array([np.asarray(w, dtype=float) for w in weights])
    if weight_stack.shape[1:] != shape:
        raise InvalidConfigurationError(f"weights must each have shape {shape}")
    ok_p = np.maximum(0.0, 1.0 - crash_p - byz_p)

    # Backward weight recursion: suffix[i] = G_i stacked over all weights.
    suffix = np.empty((n + 1,) + weight_stack.shape)
    suffix[n] = weight_stack
    for i in range(n - 1, -1, -1):
        nxt = suffix[i + 1]
        cur = nxt * ok_p[i]
        cur[:, :-1, :] += nxt[:, 1:, :] * crash_p[i]
        cur[:, :, :-1] += nxt[:, :, 1:] * byz_p[i]
        suffix[i] = cur

    # Forward prefix DP, streaming the inner products.
    out = np.empty((weight_stack.shape[0], n))
    prefix = np.zeros(shape)
    prefix[0, 0] = 1.0
    for u in range(n):
        out[:, u] = np.tensordot(suffix[u + 1], prefix, axes=([1, 2], [0, 1]))
        updated = prefix * ok_p[u]
        updated[1:, :] += prefix[:-1, :] * crash_p[u]
        updated[:, 1:] += prefix[:, :-1] * byz_p[u]
        prefix = updated
    return out


def _shift_weight(weight: np.ndarray, kind: FaultKind) -> np.ndarray:
    """Weight seen by a leave-one-out PMF when the held-out node fails."""
    shifted = np.zeros_like(weight)
    if kind is FaultKind.CRASH:
        shifted[:-1, :] = weight[1:, :]
    else:
        shifted[:, :-1] = weight[:, 1:]
    return shifted


def birnbaum_importances(
    spec: "ProtocolSpec",
    fleet: Fleet,
    *,
    metric: str = "safe_and_live",
    failure_kind: FaultKind = FaultKind.CRASH,
) -> np.ndarray:
    """Birnbaum importance of every node in a single O(n^3) pass.

    ``B_u = P(metric | u correct) - P(metric | u failed)`` for all ``u``,
    via :func:`loo_weighted_products` with the metric's verdict mask and its
    failure-shifted companion — ~2n times cheaper than conditioning the
    counting DP per node.  Symmetric specs only.
    """
    if fleet.n != spec.n:
        raise InvalidConfigurationError(
            f"fleet has {fleet.n} nodes but spec expects {spec.n}"
        )
    if failure_kind is FaultKind.CORRECT:
        raise InvalidConfigurationError("failure_kind cannot be CORRECT")
    masks = verdict_masks(spec)
    weight = masks.for_metric(metric).astype(float)
    crash_p = np.array(fleet.crash_probabilities)
    byz_p = np.array(fleet.byzantine_probabilities)
    products = loo_weighted_products(
        crash_p, byz_p, (weight, _shift_weight(weight, failure_kind))
    )
    correct, failed = products
    return np.minimum(correct, 1.0) - np.minimum(failed, 1.0)


def upgrade_metric_values(
    spec: "ProtocolSpec",
    fleet: Fleet,
    replacement_crash: float,
    replacement_byz: float,
    *,
    metric: str = "safe_and_live",
) -> np.ndarray:
    """Metric value after swapping each node for a replacement, one pass.

    ``out[u]`` is the exact metric of ``fleet.replace(u, replacement)``:
    the leave-one-out PMF of node ``u`` combined with the replacement's
    trinomial step, evaluated against the metric mask — all ``n`` what-ifs
    in O(n^3) instead of n separate counting DPs.
    """
    masks = verdict_masks(spec)
    weight = masks.for_metric(metric).astype(float)
    crash_p = np.array(fleet.crash_probabilities)
    byz_p = np.array(fleet.byzantine_probabilities)
    products = loo_weighted_products(
        crash_p,
        byz_p,
        (
            weight,
            _shift_weight(weight, FaultKind.CRASH),
            _shift_weight(weight, FaultKind.BYZANTINE),
        ),
    )
    ok = max(0.0, 1.0 - replacement_crash - replacement_byz)
    values = ok * products[0] + replacement_crash * products[1] + replacement_byz * products[2]
    return np.minimum(values, 1.0)
