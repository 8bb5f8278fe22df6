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
from typing import Callable, Optional

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
        executed = 0
        # The body of ``step`` inlined: this loop is the simulator's hot path.
        while queue and queue[0][0] <= t_end:
            time, _, action, handle = queue[0]
            if handle is not None and handle.cancelled:
                heappop(queue)
                continue
            if executed == max_events:
                raise SimulationError(
                    f"exceeded {max_events} events before t={t_end}; likely livelock"
                )
            heappop(queue)
            if handle is not None:
                handle._fired = True
            executed += 1
            self._pending -= 1
            self._now = time
            self._processed += 1
            action()
        self._now = t_end

    def run_to_completion(self, *, max_events: int = 1_000_000) -> None:
        """Run every live event (at most ``max_events`` before raising)."""
        executed = 0
        while self._pending:
            if executed == max_events:
                raise SimulationError(f"exceeded {max_events} events; likely livelock")
            self.step()
            executed += 1
