"""Single-flight coalescing of identical in-flight queries.

Production traffic repeats itself: a popular dashboard asks the same
availability question from a hundred sessions at once.  The engine memo
already deduplicates *completed* answers, but without coalescing, a
burst of identical queries that all miss the cold cache would each start
their own campaign — N executions of bit-identical work.  The registry
below keys every execution by the row's engine memo key — the key its
answer is stored under, so a joiner is exactly a row the memo would
answer once the execution finishes — and hands latecomers the *same*
future the first arrival started: one execution, fanned-out results, and
a counter proving it.

The registry lives on the daemon's single event loop, so the in-flight
dict needs no lock — only executor results cross threads, through the
loop-owned futures.  Awaiters are shielded from each other: a client
disconnecting mid-wait cancels its own await, never the shared
execution (which still completes and warms the engine memo).
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Hashable

# Not used here: benchmarks/perf/layers.py times it from this module.
from repro.engine.query import canonical_query_key  # noqa: F401


class InflightRegistry:
    """Map of memo key → the one task computing its answer."""

    def __init__(self) -> None:
        self._inflight: dict[Hashable, asyncio.Task] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    async def run(
        self, key: Hashable, start: Callable[[], Awaitable]
    ) -> tuple[object, bool]:
        """Await ``key``'s answer; returns ``(value, joined_existing)``.

        The first caller for a key invokes ``start()`` and registers the
        task; concurrent callers with the same key await that task
        instead of starting their own.  The entry is removed when the
        task settles, so later repeats re-execute (or, usually, hit the
        engine memo).  Errors propagate to every awaiter.
        """
        task = self._inflight.get(key)
        joined = task is not None
        if task is None:
            task = asyncio.ensure_future(start())
            self._inflight[key] = task
            task.add_done_callback(
                lambda finished, key=key: self._inflight.pop(key, None)
            )
        return await asyncio.shield(task), joined
