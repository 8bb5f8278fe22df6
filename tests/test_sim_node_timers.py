"""Deferred-deadline timers of :class:`repro.sim.node.Process`.

``set_timer`` may be called on every message: pushing a deadline later
must not touch the event queue, and whatever the sequence of re-arms the
timer fires once, at the deadline of the last call.  ``emulate_timer``
says what a stretch of such re-arms does without running it, and
``settle_timer`` installs that: ``N`` re-arms driven by a real scheduler
leave what one emulation call computes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import EventScheduler
from repro.sim.network import Network
from repro.sim.node import Process


class _Recorder(Process):
    """Bare process: remembers when each timer fired."""

    def __init__(self, scheduler: EventScheduler):
        network = Network(scheduler, seed=0)
        super().__init__(0, scheduler, network, np.random.default_rng(0))
        network.attach(self)
        self.fired: list[tuple[str, float]] = []

    def on_start(self) -> None:
        pass

    def on_message(self, src: int, payload: object) -> None:
        pass

    def on_timer(self, name: str) -> None:
        self.fired.append((name, self.now))


@pytest.fixture
def scheduler() -> EventScheduler:
    return EventScheduler()


@pytest.fixture
def process(scheduler) -> _Recorder:
    node = _Recorder(scheduler)
    node.start()
    return node


def test_fires_once_at_the_deadline_of_the_last_set_timer(scheduler, process):
    process.set_timer("t", 0.3)
    scheduler.run_until(0.1)
    process.set_timer("t", 0.7)
    scheduler.run_until(0.25)
    expected = scheduler.now + 0.37
    process.set_timer("t", 0.37)
    scheduler.run_to_completion()
    assert process.fired == [("t", expected)]
    assert scheduler.pending_events == 0


def test_extensions_leave_the_queue_alone(scheduler, process):
    process.set_timer("t", 0.01)
    queued = len(scheduler._queue)
    for step in range(1000):
        scheduler.run_until(step * 0.001)
        process.set_timer("t", 0.01)
        assert len(scheduler._queue) == queued
    assert scheduler.pending_events == 1
    assert process.fired == []


def test_early_wake_up_reposts_without_calling_on_timer(scheduler, process):
    process.set_timer("t", 0.2)
    process.set_timer("t", 0.5)
    scheduler.run_until(0.3)  # the wake-up queued for 0.2 has run
    assert process.fired == []
    assert process.has_timer("t")
    assert scheduler.pending_events == 1
    scheduler.run_until(0.5)
    assert process.fired == [("t", 0.5)]
    assert not process.has_timer("t")


def test_earlier_deadline_cancels_and_repushes(scheduler, process):
    process.set_timer("t", 0.5)
    first = process._timers["t"]
    process.set_timer("t", 0.2)
    assert first.cancelled
    assert process._timers["t"] is not first
    assert scheduler.pending_events == 1
    scheduler.run_to_completion()
    assert process.fired == [("t", 0.2)]


def test_equal_deadline_is_not_rescheduled(scheduler, process):
    process.set_timer("t", 0.5)
    first = process._timers["t"]
    process.set_timer("t", 0.5)
    assert process._timers["t"] is first and not first.cancelled


def test_has_timer_from_arm_to_fire(scheduler, process):
    assert not process.has_timer("t")
    process.set_timer("t", 0.1)
    process.set_timer("t", 0.4)
    for t in (0.05, 0.1, 0.25, 0.399):
        scheduler.run_until(t)
        assert process.has_timer("t")
    scheduler.run_until(0.4)
    assert not process.has_timer("t")
    assert process.fired == [("t", 0.4)]


def test_timer_rearmed_from_on_timer_runs_again(scheduler):
    class Periodic(_Recorder):
        def on_timer(self, name: str) -> None:
            super().on_timer(name)
            if len(self.fired) < 3:
                self.set_timer(name, 0.1)

    node = Periodic(scheduler)
    node.start()
    node.set_timer("tick", 0.1)
    scheduler.run_to_completion()
    assert [name for name, _ in node.fired] == ["tick"] * 3


def test_independent_timers_do_not_share_deadlines(scheduler, process):
    process.set_timer("a", 0.1)
    process.set_timer("b", 0.2)
    process.set_timer("a", 0.3)
    scheduler.run_to_completion()
    assert process.fired == [("b", 0.2), ("a", 0.3)]


@pytest.mark.parametrize("extended", [False, True])
def test_cancel_timer_leaves_no_wake_up(scheduler, process, extended):
    process.set_timer("t", 0.2)
    if extended:
        process.set_timer("t", 0.6)
    process.cancel_timer("t")
    assert not process.has_timer("t")
    assert scheduler.pending_events == 0
    scheduler.run_until(1.0)
    assert process.fired == []
    process.cancel_timer("t")  # idempotent


@pytest.mark.parametrize("extended", [False, True])
def test_crash_and_recover_leave_no_wake_up(scheduler, process, extended):
    process.set_timer("t", 0.2)
    if extended:
        process.set_timer("t", 0.6)
    scheduler.run_until(0.1)
    process.crash()
    assert not process.has_timer("t")
    assert scheduler.pending_events == 0
    process.recover()
    scheduler.run_until(1.0)
    assert process.fired == []
    # The recovered process arms afresh.
    process.set_timer("t", 0.5)
    scheduler.run_to_completion()
    assert process.fired == [("t", 1.5)]


def test_deadline_in_the_past_raises_and_keeps_the_armed_timer(scheduler, process):
    process.set_timer("t", 0.2)
    with pytest.raises(SimulationError):
        process.set_timer("t", -0.1)
    scheduler.run_to_completion()
    assert process.fired == [("t", 0.2)]


def test_election_timeout_draw_matches_generator_uniform():
    """``RaftNode._arm_election_timer`` draws ``low + (high - low) * random()``:
    the same floats, from the same stream positions, as ``rng.uniform``."""
    low, high = 0.15, 0.30
    ours = np.random.default_rng(2026)
    reference = np.random.default_rng(2026)
    for _ in range(100_000):
        assert low + (high - low) * ours.random() == float(reference.uniform(low, high))
    assert ours.random() == reference.random()


# ---------------------------------------------------------------------------
# emulate_timer / settle_timer: N re-arms on a scheduler == one call
# ---------------------------------------------------------------------------
#: Re-arm instants, delays and ``until`` are multiples of ``_GRID`` so that
#: wake-ups land exactly on re-arms; each re-arm is queued ``_LEAD`` before
#: it runs, after every wake-up due at its instant (the tie rule's order).
_GRID, _LEAD = 1 / 16, 1 / 64


def _armed(scheduler, initial):
    """A started recorder whose timer ``t`` was armed at 0 with ``initial``
    delays, counting its early wake-ups."""
    node = _Recorder(scheduler)
    node.early = []
    fire = node._fire_timer

    def counting(name):
        if node._deadlines[name] > scheduler.now:
            node.early.append(scheduler.now)
        fire(name)

    node._fire_timer = counting
    node.start()
    for delay in initial:
        node.set_timer("t", delay)
    return node


def _drive(initial, times, delays, until):
    """The real stretch: re-arm at each of ``times``, run to just before
    ``until``; returns the node and the emulation computed at the start."""
    scheduler = EventScheduler()
    node = _armed(scheduler, initial)
    node.queued = node._timers.get("t")
    emulated = node.emulate_timer(
        "t", times, [time + delay for time, delay in zip(times, delays)], until
    )
    for time, delay in zip(times, delays):
        scheduler.schedule_at(
            time - _LEAD,
            lambda delay=delay: scheduler.schedule_after(
                _LEAD, lambda: node.set_timer("t", delay)
            ),
        )
    scheduler.run_until(until - _LEAD / 2)
    return node, emulated


_ticks = st.integers(1, 40).map(lambda k: k * _GRID)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    initial=st.lists(_ticks, max_size=2),
    gaps=st.lists(st.integers(1, 6), max_size=8),
    delays=st.lists(st.integers(0, 40).map(lambda k: k * _GRID), min_size=8, max_size=8),
    tail=st.integers(1, 10),
)
def test_property_rearms_on_a_scheduler_equal_one_emulation(initial, gaps, delays, tail):
    times = list(np.cumsum(gaps, dtype=float) * _GRID)
    delays = delays[: len(times)]
    until = (times[-1] if times else 0.0) + tail * _GRID
    node, emulated = _drive(initial, times, delays, until)
    fired = [time for name, time in node.fired if time < until]
    if emulated is None:
        assert fired
        return
    assert fired == []
    wake_ups, wake = emulated
    assert wake_ups == len(node.early)
    # settle_timer on a twin armed alike installs the same end state.
    twin = _armed(EventScheduler(), initial)
    queued = twin._timers.get("t")
    deadline = times[-1] + delays[-1] if times else twin._deadlines.get("t")
    if deadline is not None:
        twin.settle_timer("t", wake, deadline)
    assert twin._deadlines == node._deadlines
    assert {k: h.time for k, h in twin._timers.items()} == {
        k: h.time for k, h in node._timers.items()
    }
    # ``None``: the wake-up queued at the start is the one still queued.
    assert (node._timers.get("t") is node.queued) == (wake is None)
    assert (twin._timers.get("t") is queued) == (wake is None)
    assert twin._scheduler.pending_events == node._scheduler.pending_events


def test_a_wake_up_due_at_a_rearm_runs_first():
    # Armed for 0.25, pushed to 0.5: the wake-up at 0.25 meets the re-arm at
    # 0.25 that pushes the deadline to 0.75.  It runs first and re-posts at
    # 0.5 — the deadline then in force — which the re-arm keeps.  (Run
    # after the re-arm, it would have re-posted at 0.75.)
    node, emulated = _drive([0.25, 0.5], [0.25], [0.5], 0.5)
    assert emulated == (1, 0.5)
    assert node.early == [0.25]
    assert node._timers["t"].time == 0.5 and node._deadlines["t"] == 0.75


def test_a_deadline_reached_before_until_is_a_timer_that_fires():
    assert _drive([0.25], [0.125], [0.0625], 0.25)[1] is None  # fires at 0.1875
    assert _drive([0.25], [], [], 0.3125)[1] is None  # fires at 0.25
    # A deadline exactly at ``until`` is left queued: nothing fired yet.
    node, emulated = _drive([0.25], [], [], 0.25)
    assert emulated == (0, None) and node.fired == []


def test_a_rearm_to_the_queued_instant_keeps_the_queued_wake_up():
    node, emulated = _drive([0.5], [0.25], [0.25], 0.375)
    assert emulated == (0, None)
    assert node._timers["t"] is node.queued
