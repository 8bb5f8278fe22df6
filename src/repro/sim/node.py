"""Process abstraction for simulated protocol nodes.

A :class:`Process` is a state machine driven by three callbacks —
``on_start``, ``on_message`` and named timers — with crash/recover
lifecycle management.  Protocol implementations (Raft, PBFT) subclass it;
the harness in :mod:`repro.sim.cluster` wires processes to the network and
scheduler.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.events import EventHandle, EventScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network


class Process(ABC):
    """One simulated node: identity, messaging helpers, timers, lifecycle."""

    def __init__(
        self,
        node_id: int,
        scheduler: EventScheduler,
        network: "Network",
        rng: np.random.Generator,
    ):
        self.node_id = node_id
        self._scheduler = scheduler
        self._network = network
        self._rng = rng
        self._running = False
        self._crashed = False
        #: Armed timers: the queued wake-up and the deadline it serves.
        self._timers: dict[str, EventHandle] = {}
        self._deadlines: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        return self._running and not self._crashed

    @property
    def is_crashed(self) -> bool:
        return self._crashed

    @property
    def now(self) -> float:
        return self._scheduler.now

    def start(self) -> None:
        if self._running:
            raise SimulationError(f"node {self.node_id} already started")
        self._running = True
        self.on_start()

    def crash(self) -> None:
        """Fail-stop: cancel timers, drop future deliveries."""
        if self._crashed:
            return
        self._crashed = True
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self._deadlines.clear()
        self.on_crash()

    def recover(self) -> None:
        """Restart after a crash, keeping only durable state.

        Subclasses override :meth:`on_recover` to reset volatile state (the
        Raft paper's volatile/persistent split).
        """
        if not self._crashed:
            raise SimulationError(f"node {self.node_id} is not crashed")
        self._crashed = False
        self.on_recover()

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst: int, payload: object) -> None:
        if self._running and not self._crashed:
            self._network.send(self.node_id, dst, payload)

    def broadcast(self, payload: object, *, include_self: bool = False) -> None:
        if self._running and not self._crashed:
            self._network.broadcast(self.node_id, payload, include_self=include_self)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, name: str, delay: float) -> None:
        """(Re)arm a named timer; ``on_timer(name)`` fires once, ``delay`` from now.

        Deferred-deadline contract: the timer fires exactly once, at the
        deadline of the *last* ``set_timer`` call (``now + delay`` as
        computed in that call), however often it was re-armed before.
        Pushing a deadline *later* only records it — the wake-up already
        queued is left alone and, finding the deadline moved, re-posts
        itself at the recorded deadline — so a protocol may re-arm a
        timeout on every message without touching the event queue.  Only a
        deadline that moves *earlier* cancels the queued wake-up and pushes
        a new one.  An early wake-up is a scheduler event but never calls
        ``on_timer``.
        """
        deadline = self._scheduler.now + delay
        handle = self._timers.get(name)
        if handle is None or deadline < handle.time:
            # Schedule before cancelling: a deadline in the past raises and
            # must leave the armed timer as it was.
            self._wake_at(name, deadline)
            if handle is not None:
                handle.cancel()
        self._deadlines[name] = deadline

    def emulate_timer(
        self,
        name: str,
        times: Sequence[float],
        deadlines: Sequence[float],
        until: float,
    ) -> Optional[tuple[int, Optional[float]]]:
        """What :meth:`set_timer` re-arms would do over a stretch, without the events.

        Say ``set_timer(name, deadlines[i] - times[i])`` runs at each of the
        increasing instants ``times`` (none before now, and ``deadlines[i]``
        being what that call computes), nothing else touches the timer, and
        the stretch ends just before ``until`` (after the last of
        ``times``).  Under :meth:`set_timer`'s contract this returns
        ``(wake_ups, wake)``: how many early wake-ups the timer's queued
        events take before ``until``, and when its queued wake-up is due at
        the end — ``None`` if that is still the wake-up queued now.  The
        deadline at the end is ``deadlines[-1]``.  It returns ``None``
        instead if the timer would fire (call :meth:`on_timer`) before
        ``until``; a wake-up due exactly at ``until`` is left queued.

        *Tie rule*: a wake-up due exactly at one of ``times`` runs before
        that re-arm.  It is the scheduler's order when the event that
        re-arms was queued after the wake-up was.  Nothing is changed
        here; :meth:`settle_timer` installs a result.
        """
        handle = self._timers.get(name)
        wake = math.inf if handle is None else handle.time
        deadline = self._deadlines.get(name, math.inf)
        wake_ups = 0
        moved = False
        # Invariant: wake <= deadline.  A wake-up before the deadline re-posts
        # itself at the deadline, so the timer fires iff the deadline comes.
        for time, rearmed in zip(times, deadlines):
            if deadline <= time:
                return None
            if wake <= time:
                wake_ups += 1
                wake = deadline
                moved = True
            deadline = rearmed
            if rearmed < wake:
                wake = rearmed
                moved = True
        if wake < until:
            if deadline < until:
                return None
            wake_ups += 1
            wake = deadline
            moved = True
        return wake_ups, (wake if moved else None)

    def settle_timer(self, name: str, wake: Optional[float], deadline: float) -> None:
        """Install an :meth:`emulate_timer` result: the timer's deadline, and
        a new wake-up at ``wake`` in place of the queued one unless ``None``."""
        if wake is not None:
            handle = self._timers.get(name)
            self._wake_at(name, wake)
            if handle is not None:
                handle.cancel()
        self._deadlines[name] = deadline

    def wake_up(self, name: str) -> Optional[EventHandle]:
        """The queued wake-up of timer ``name`` (``None`` when it is not armed)."""
        return self._timers.get(name)

    def cancel_timer(self, name: str) -> None:
        handle = self._timers.pop(name, None)
        if handle is not None:
            handle.cancel()
            del self._deadlines[name]

    def has_timer(self, name: str) -> bool:
        return name in self._timers

    def _wake_at(self, name: str, time: float) -> None:
        self._timers[name] = self._scheduler.schedule_at(
            time, partial(self._fire_timer, name)
        )

    def _fire_timer(self, name: str) -> None:
        deadline = self._deadlines[name]
        if deadline > self._scheduler.now:
            # Woke early: the deadline was pushed later since this wake-up
            # was queued.
            self._wake_at(name, deadline)
            return
        del self._timers[name], self._deadlines[name]
        if self._running and not self._crashed:
            self.on_timer(name)

    # ------------------------------------------------------------------
    # Protocol callbacks
    # ------------------------------------------------------------------
    @abstractmethod
    def on_start(self) -> None:
        """Called once when the node boots."""

    @abstractmethod
    def on_message(self, src: int, payload: object) -> None:
        """Called for every delivered message while running."""

    def on_timer(self, name: str) -> None:  # pragma: no cover - optional hook
        """Called when a named timer fires (default: ignore)."""

    def on_crash(self) -> None:  # pragma: no cover - optional hook
        """Called when the node crashes (default: nothing)."""

    def on_recover(self) -> None:  # pragma: no cover - optional hook
        """Called when the node recovers (default: nothing)."""

    def frozen_log(self, commands: Sequence[object]) -> Optional[tuple[int, object]]:
        """This node's share of the frozen-log certificate, or ``None``.

        ``commands`` are the values clients have handed the cluster.  A
        node that returns ``(version, log)`` promises all of the following
        (:meth:`repro.sim.cluster.Cluster.verdict_final` turns the
        promises of all nodes into a stopping rule and states the proof):

        * ``log`` is its durable log — what it restarts from after a crash
          — compared across nodes with ``==``, and ``version`` changes
          whenever that log is written;
        * the log holds every value in ``commands``, and the node proposes
          a new entry only for a client value its log does not hold;
        * while every node it hears from holds an equal log, nothing it
          receives makes it write its own;
        * if it is running, it has decided its whole log and decides a
          slot at most once between restarts;

        and, whatever it returns, that while it is crashed its answer for
        the same ``commands`` does not change until it recovers
        (:meth:`repro.sim.cluster.Cluster.run_to_verdict` walks past the
        checkpoints before the recovery of a crashed node answering
        ``None``).

        The default makes no promise, so a cluster with any such node
        (PBFT, a Byzantine override, a third-party protocol) always runs
        to its horizon — every run that is executed does; a campaign
        executes one per distinct fault realisation when the run reads no
        random stream (:func:`repro.injection.run_replica`).  A subclass
        that changes what the inherited promise rests on must override
        this too.
        """
        return None

    def __repr__(self) -> str:
        state = "crashed" if self._crashed else ("up" if self._running else "new")
        return f"{type(self).__name__}(id={self.node_id}, {state})"


class IdleProcess(Process):
    """A process that does nothing — useful filler in harness tests."""

    def on_start(self) -> None:
        pass

    def on_message(self, src: int, payload: object) -> None:
        pass
