"""ReliabilityEngine: the one front door for every reliability question.

Every submission is a :class:`~repro.engine.query.Query` and every reply
an :class:`~repro.engine.result.AnswerSet`.  :meth:`ReliabilityEngine.run`
coerces what it is given — bare scenarios become
:class:`~repro.engine.query.ReliabilityQuery` rows — groups the rows by
kind, and answers each group through the one memo path: probe the bounded
LRU memo under the row's own :meth:`~repro.engine.query.Query.cache_key`,
fold in-batch duplicates onto the first row that asks, hand the *distinct
misses* to the backend registered for the kind
(:func:`repro.engine.registry.register_backend`), and store what comes
back.  Backends compute, the engine remembers: the scenario planner
(shared counting-DP sweeps, pool fan-out) is the ``reliability`` backend
(:mod:`repro.engine.planner`), the CTMC and simulation backends live in
:mod:`repro.engine.backends`, and none of them reads or writes the memo
or calls back into :meth:`run`.  :meth:`ReliabilityEngine.answer_inline`
is the one call for a thread that must not block (the daemon's event
loop): one row from the memo, or computed in place when
:data:`INLINE_MAX_N` bounds its work, else ``None``.  What stays here is
what every kind shares: the memo, the per-engine backend overrides, and
the kind router.  The engine package reads no clock — spans time what
runs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from repro.engine.execution import SERIAL, ExecutionPolicy
from repro.engine.query import Query, QuerySet, coerce_query
from repro.engine.registry import BackendFn, MemoMisses, get_backend
from repro.engine.result import Answer, AnswerSet, Provenance
from repro.engine.scenario import Scenario, ScenarioSet
from repro.errors import EstimationError
from repro.obs.trace import current_tracer

# Importing the backend modules registers the built-in query backends
# (reliability; availability / mttf / simulation) with the registry.
import repro.engine.backends  # noqa: F401  (import-for-effect)
import repro.engine.planner  # noqa: F401  (import-for-effect)

#: The bound of :meth:`ReliabilityEngine.answer_inline`: the largest ``n``
#: whose memo miss it computes on the calling thread, by estimator (a
#: ``reliability`` row's resolved method) or by kind (the Markov rows).
#: On a 2-vCPU host (best of 30, one row, service policy) the slowest row
#: at a limit took 0.61 ms (PBFT counting with mixed failures, n = 32);
#: one past each limit, counting at n = 33 took 0.32 ms (Raft) and
#: 0.65 ms (PBFT, mixed), a Markov chain at n = 33 at most 0.25 ms and
#: exact at n = 9 0.95 ms (PBFT, mixed) — a fifth of the interpreter's
#: 5 ms switch interval, which an executor thread may already hold the
#: GIL for.  Past the bound the work grows without limit (scalar counting
#: at n = 257: 78 ms; exact at n = 13: 0.28 s), and every other method or
#: kind is never bounded.
INLINE_MAX_N: Mapping[str, int] = {
    "counting": 32,
    "exact": 8,
    "availability": 32,
    "mttf": 32,
}

#: The backends the bound was measured on, by kind, frozen at import: a
#: kind re-registered globally or overridden per engine is never bounded.
_STOCK_BACKENDS: Mapping[str, BackendFn] = {
    kind: get_backend(kind) for kind in ("reliability", "availability", "mttf")
}


@lru_cache(maxsize=256)
def _hit_provenance(estimator: str, backend: str) -> Provenance:
    """What a memo hit reports; shared by every entry of one estimator and
    backend, so a stored row costs the memo a 2-tuple and nothing else."""
    return Provenance(estimator, cache_hit=True, backend=backend)


class ReliabilityEngine:
    """Kind router and bounded LRU memo in front of the query backends.

    Parameters
    ----------
    cache_size:
        Bound on the memo cache (least-recently-used eviction).  ``0``
        disables cross-run caching; in-run deduplication still applies.
    policy:
        Default :class:`~repro.engine.ExecutionPolicy` for :meth:`run`
        calls that do not pass one.  The default is serial execution;
        answers are byte-identical under every policy.
    """

    def __init__(
        self,
        *,
        cache_size: int = 1024,
        policy: ExecutionPolicy | None = None,
    ):
        self._backend_overrides: dict[str, BackendFn] = {}
        self._cache_size = max(0, int(cache_size))
        self._policy = policy if policy is not None else SERIAL
        self._memo: OrderedDict[tuple, object] = OrderedDict()
        # One engine may be shared across request threads (repro.serve):
        # every memo access and counter update happens under this lock —
        # get + move_to_end must be atomic or a concurrent eviction turns
        # the recency refresh into a KeyError.
        self._lock = threading.RLock()
        self.cache_hits = 0
        self.cache_misses = 0

    # -- backend resolution ------------------------------------------------
    def backend(self, kind: str) -> BackendFn:
        override = self._backend_overrides.get(kind)
        return override if override is not None else get_backend(kind)

    def register_backend(self, kind: str, fn: BackendFn) -> None:
        """Install a per-engine query-backend override.

        Memo keys do not name the backend, so the memo is cleared: rows
        the replaced backend answered must not be served as ``fn``'s.
        """
        self._backend_overrides[kind] = fn
        self.cache_clear()

    # -- memo cache --------------------------------------------------------
    def cache_clear(self) -> None:
        with self._lock:
            self._memo.clear()

    def cache_info(self) -> dict:
        """Consistent snapshot of the memo counters (for /metrics et al.)."""
        with self._lock:
            hits, misses = self.cache_hits, self.cache_misses
            size = len(self._memo)
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "size": size,
            "max_size": self._cache_size,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }

    # -- execution ---------------------------------------------------------
    def run_query(
        self, query: Query | Scenario, policy: ExecutionPolicy | None = None
    ) -> Answer:
        """Answer a single query (cache-aware, no cross-query batching)."""
        return self.run([query], policy=policy)[0]

    def answer_inline(
        self, query: Query | Scenario, policy: ExecutionPolicy | None = None
    ) -> Answer | None:
        """One row from the memo, or computed here when its work is
        bounded; ``None`` otherwise.  Safe on a thread that must not block
        (the daemon's event loop).

        This is :meth:`run`'s memo path for one row, plus one rule: a miss
        is computed here, on the calling thread, only when the row is a
        ``counting`` or ``exact`` ``reliability`` row or an
        ``availability`` / ``mttf`` row, no per-engine or global override
        replaces its kind's stock backend, and its ``n`` is within
        :data:`INLINE_MAX_N`.  A hit or such a miss is the answer
        :meth:`run` gives for the row — same value, provenance, counts,
        LRU recency and ``engine.queries`` → ``backend.<kind>`` span pair.
        Every other miss (sampling, simulation, a backend override,
        anything larger) is declined at the probe and returns ``None`` with
        nothing counted, stored or exported: the caller runs it where
        blocking is allowed, and that :meth:`run` counts the row's one
        miss, so every submitted row is still one hit or one miss.
        """
        active = policy if policy is not None else self._policy
        query = coerce_query(query)
        answers = [None]
        with current_tracer().span("engine.queries", queries=1, kinds=1) as span:
            if not self._answer_group(query.kind, [query], [0], answers, active, inline=True):
                span.discard()
        return answers[0]

    def _bounded(self, query: Query) -> bool:
        """Whether :meth:`answer_inline` may compute ``query`` in place:
        its method (a ``reliability`` row) or kind has a bound in
        :data:`INLINE_MAX_N`, its ``n`` is within it, and its kind's
        backend is the stock one the bound was measured on."""
        kind = query.kind
        name = query.scenario.resolved_method() if kind == "reliability" else kind
        limit = INLINE_MAX_N.get(name)
        return (
            limit is not None
            and query.n <= limit
            and self.backend(kind) is _STOCK_BACKENDS[kind]
        )

    def run(
        self,
        items: QuerySet | ScenarioSet | Iterable[Query | Scenario],
        policy: ExecutionPolicy | None = None,
    ) -> AnswerSet:
        """Answer a batch of queries, in submission order.

        Rows are grouped by kind (submission order preserved within each
        group).  Within a group every row is probed in the memo under its
        own ``cache_key``; the distinct misses go, in one call, to the
        backend registered for the kind — per-engine overrides first, then
        the global registry — which batches internally (shared DP sweeps,
        shared CTMC models, sharded replica fan-out); computed answers are
        stored and everything is scattered back into submission order.
        Each submitted row counts exactly one memo hit or one miss: of
        in-batch duplicates the row that computes counts the miss and
        every later one a hit, even when the first row's answer was not
        stored (a disabled memo, a degraded answer, an eviction).

        ``policy`` (default: the engine's constructor policy, itself
        defaulting to serial) picks the executor the backends fan work
        out on.  Answer values depend only on the queries and the
        policy's ``shard_trials`` — never on the worker count or executor
        mode.
        """
        active = policy if policy is not None else self._policy
        queries = [coerce_query(item) for item in items]
        answers: list = [None] * len(queries)
        by_kind: dict[str, list[int]] = {}
        for index, query in enumerate(queries):
            by_kind.setdefault(query.kind, []).append(index)
        with current_tracer().span(
            "engine.queries", queries=len(queries), kinds=len(by_kind)
        ):
            for kind, indices in by_kind.items():
                self._answer_group(kind, queries, indices, answers, active)
        return AnswerSet(tuple(answers))

    def _answer_group(
        self,
        kind: str,
        queries: Sequence[Query],
        indices: Sequence[int],
        answers: list,
        policy: ExecutionPolicy,
        inline: bool = False,
    ) -> bool:
        """One kind group under its ``backend.<kind>`` span; ``False`` (the
        span discarded) when :meth:`_answer_kind` declines an ``inline``
        row."""
        backend = self.backend(kind)
        with current_tracer().span(
            f"backend.{kind}", queries=len(indices), mode=policy.mode, jobs=policy.jobs
        ) as span:
            misses = self._answer_kind(kind, backend, queries, indices, answers, policy, inline)
            if misses is None:
                span.discard()
                return False
            span.set("memo_hits", len(indices) - misses)
            span.set("memo_misses", misses)
        return True

    def _answer_kind(
        self,
        kind: str,
        backend: BackendFn,
        queries: Sequence[Query],
        indices: Sequence[int],
        answers: list,
        policy: ExecutionPolicy,
        inline: bool = False,
    ) -> int | None:
        """The memo path of one kind group; returns how many rows computed.

        Every row's key is built once.  One pass under the lock probes
        every row, in submission order, and folds in-batch duplicates onto
        the first row that asks; one backend call takes the distinct
        misses; one more pass under the lock stores what came back and
        refreshes the duplicates' recency — so hit/miss counts and the
        LRU's order are a pure function of the submission.  A duplicate
        counts a hit even when its first row was not stored.  A row whose
        key is ``None`` is never shared or stored, and neither is a
        ``degraded`` answer (a later run may complete the campaign).  If
        the backend raises, none of this group's rows is stored.  With
        ``inline`` (:meth:`answer_inline`'s one row) a miss that
        :meth:`_bounded` refuses returns ``None`` before anything is
        counted.
        """
        shard_trials = policy.shard_trials
        keys = [queries[index].cache_key(shard_trials) for index in indices]
        misses, firsts = MemoMisses(), []  # the distinct misses and their rows
        slots: dict[tuple, int] = {}  # key -> position in ``misses``
        hits, duplicates = [], []  # (row, stored value), (row, slot)
        with self._lock:
            memo = self._memo
            for index, key in zip(indices, keys):
                cached = memo.get(key)  # a None key is never stored
                if cached is not None:
                    memo.move_to_end(key)
                    hits.append((index, cached))
                elif inline and not self._bounded(queries[index]):
                    return None
                elif key is not None and slots.setdefault(key, len(firsts)) < len(firsts):
                    duplicates.append((index, slots[key]))
                else:
                    firsts.append(index)
                    misses.append(queries[index])
                    misses.keys.append(key)
            self.cache_hits += len(hits)
            self.cache_misses += len(firsts)
        for index, (value, provenance) in hits:
            answers[index] = Answer(queries[index], value, provenance)
        if not firsts:
            return 0
        computed = backend(misses, policy)
        if len(computed) != len(firsts):
            raise EstimationError(
                f"backend for {kind!r} returned {len(computed)} answers "
                f"for {len(firsts)} queries"
            )
        hit = None
        with self._lock:
            for index, key, answer in zip(firsts, misses.keys, computed):
                answers[index] = answer
                made = answer.provenance
                if key is None or made.degraded or not self._cache_size:
                    continue
                if hit is None or hit.estimator != made.estimator or hit.backend != made.backend:
                    hit = _hit_provenance(made.estimator, made.backend)
                memo[key] = (answer.value, hit)
            while len(memo) > self._cache_size:
                memo.popitem(last=False)
            for _, slot in duplicates:  # each a hit; recency only if stored
                if misses.keys[slot] in memo:
                    memo.move_to_end(misses.keys[slot])
            self.cache_hits += len(duplicates)
        for index, slot in duplicates:
            source = computed[slot]
            answers[index] = Answer(
                queries[index],
                source.value,
                replace(source.provenance, cache_hit=True, shards=1, report=None),
            )
        return len(firsts)


_DEFAULT_ENGINE: ReliabilityEngine | None = None


def default_engine() -> ReliabilityEngine:
    """The process-wide engine behind the planner/horizon/CLI consumers.
    Sharing one instance is what makes the memo cache pay off across
    layers (a planner sweep warms the cache the CLI then hits)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ReliabilityEngine()
    return _DEFAULT_ENGINE
