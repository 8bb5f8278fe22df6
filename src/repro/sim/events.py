"""Deterministic discrete-event scheduler.

Foundation of :mod:`repro.sim`: a priority queue of timestamped callbacks
with a monotonically increasing sequence number as tiebreak, so identical
seeds always replay identical executions — the property every simulator
test and every failure-injection experiment relies on.

Heap entries are plain tuples ``(time, seq, action, handle)``, so the heap
orders them with C tuple comparison.  Invariant: ``seq`` is unique per
scheduler, so comparison is decided by ``(time, seq)`` and never reaches
``action`` — actions need not be comparable, and event order is exactly
schedule order among equal times.  ``handle`` is ``None`` for events
posted through :meth:`EventScheduler.post_after`, which nobody can cancel.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from typing import Callable, Collection, Optional

from repro.errors import SimulationError

Action = Callable[[], None]


class EventHandle:
    """A scheduled event's cancellation token."""

    __slots__ = ("time", "cancelled", "_fired", "_scheduler")

    def __init__(self, time: float, scheduler: "EventScheduler"):
        #: Virtual time the event is due.
        self.time = time
        #: True once :meth:`cancel` was called (even after the event ran).
        self.cancelled = False
        self._fired = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            if not self._fired:
                self._scheduler._pending -= 1


class EventScheduler:
    """Single-threaded event loop with virtual time (seconds)."""

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Action, Optional[EventHandle]]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._pending = 0
        #: What the running :meth:`run_until` may still execute: events due
        #: at or before ``_until``, while ``_processed`` stays below
        #: ``_limit``.  Outside a run (and so under :meth:`step`) ``_until``
        #: is not after ``now`` and ``_limit`` not above ``_processed``.
        self._until = 0.0
        self._limit = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Live (scheduled, not cancelled, not yet run) events — O(1).

        Maintained as a counter on schedule/cancel/execute rather than
        scanned from the queue, so busy simulations can poll it per step.
        """
        return self._pending

    def reach(self) -> tuple[float, int]:
        """How far the run in progress goes: ``(t_end, events_left)``.

        ``t_end`` is the slice end of the :meth:`run_until` call executing
        the current event, and ``events_left`` how many more events it may
        execute before its livelock guard trips.  An action that stands in
        for later events (:meth:`count_events`) must keep them inside
        both.  Outside :meth:`run_until` — under :meth:`step` or between
        runs — ``t_end`` is not after ``now`` and nothing more is allowed.
        """
        return self._until, self._limit - self._processed

    def next_event_time(self, skip: Collection[EventHandle] = ()) -> float:
        """Due time of the earliest live event not in ``skip`` (``inf`` if none).

        Live means scheduled, not cancelled and not yet run; events posted
        with :meth:`post_after` (in-flight messages) are always live.  An
        event at the returned time with a handle outside ``skip`` was
        scheduled before anything the caller schedules now, so it runs
        first among equal times.
        """
        best = math.inf
        for time, _, _, handle in self._queue:
            if time < best and (
                handle is None or not (handle.cancelled or handle in skip)
            ):
                best = time
        return best

    def count_events(self, count: int) -> None:
        """Count ``count`` events an action ran in closed form.

        For an action that computes the effect of events it never
        schedules (:meth:`repro.sim.raft.RaftNode.on_timer`): they count
        in :attr:`processed_events` and against the livelock guard of the
        run in progress exactly as if they had been executed.
        """
        self._processed += count

    def schedule_at(self, time: float, action: Action) -> EventHandle:
        """Schedule ``action`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} before now={self._now}")
        handle = EventHandle(time, self)
        heapq.heappush(self._queue, (time, next(self._sequence), action, handle))
        self._pending += 1
        return handle

    def schedule_after(self, delay: float, action: Action) -> EventHandle:
        """Schedule ``action`` after a non-negative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, action)

    def post_after(self, delay: float, action: Action) -> None:
        """Like :meth:`schedule_after` for an event nobody will cancel.

        No handle is built — the per-message path of the network.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(
            self._queue, (self._now + delay, next(self._sequence), action, None)
        )
        self._pending += 1

    def step(self) -> bool:
        """Execute the next event; return False when the queue is empty."""
        queue = self._queue
        while queue:
            time, _, action, handle = heapq.heappop(queue)
            if handle is not None:
                if handle.cancelled:
                    continue
                handle._fired = True
            self._pending -= 1
            self._now = time
            self._processed += 1
            action()
            return True
        return False

    def run_until(self, t_end: float, *, max_events: Optional[int] = None) -> None:
        """Run events up to virtual time ``t_end`` (inclusive).

        ``max_events`` guards against livelock in buggy protocols: once
        that many events have run and another is still due, this raises
        :class:`SimulationError` rather than spinning forever.
        """
        if t_end < self._now:
            raise SimulationError(f"t_end={t_end} precedes now={self._now}")
        queue = self._queue
        heappop = heapq.heappop
        # Counted on ``_processed``, which actions may also advance
        # (:meth:`count_events`); ``reach`` reads the same two bounds.
        limit = self._processed + (sys.maxsize if max_events is None else max_events)
        self._until, self._limit = t_end, limit
        try:
            # The body of ``step`` inlined: this loop is the simulator's hot path.
            while queue and queue[0][0] <= t_end:
                time, _, action, handle = queue[0]
                if handle is not None and handle.cancelled:
                    heappop(queue)
                    continue
                if self._processed >= limit:
                    raise SimulationError(
                        f"exceeded {max_events} events before t={t_end}; likely livelock"
                    )
                heappop(queue)
                if handle is not None:
                    handle._fired = True
                self._pending -= 1
                self._now = time
                self._processed += 1
                action()
        finally:
            self._until, self._limit = self._now, self._processed
        self._now = t_end

    def run_to_completion(self, *, max_events: int = 1_000_000) -> None:
        """Run every live event (at most ``max_events`` before raising)."""
        executed = 0
        while self._pending:
            if executed == max_events:
                raise SimulationError(f"exceeded {max_events} events; likely livelock")
            self.step()
            executed += 1
