"""Deferred-deadline timers of :class:`repro.sim.node.Process`.

``set_timer`` may be called on every message: pushing a deadline later
must not touch the event queue, and whatever the sequence of re-arms the
timer fires once, at the deadline of the last call.
"""

from __future__ import annotations

import numpy as np
import pytest

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
