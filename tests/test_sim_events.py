"""Unit tests for the discrete-event scheduler."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventScheduler


class TestScheduling:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        fired: list[str] = []
        scheduler.schedule_at(2.0, lambda: fired.append("late"))
        scheduler.schedule_at(1.0, lambda: fired.append("early"))
        scheduler.run_until(3.0)
        assert fired == ["early", "late"]

    def test_fifo_tiebreak_at_equal_times(self):
        scheduler = EventScheduler()
        fired: list[int] = []
        for i in range(5):
            scheduler.schedule_at(1.0, lambda i=i: fired.append(i))
        scheduler.run_until(1.0)
        assert fired == [0, 1, 2, 3, 4]

    def test_now_advances_with_events(self):
        scheduler = EventScheduler()
        seen: list[float] = []
        scheduler.schedule_at(0.5, lambda: seen.append(scheduler.now))
        scheduler.run_until(1.0)
        assert seen == [0.5]
        assert scheduler.now == 1.0

    def test_schedule_after(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_after(0.25, lambda: fired.append(scheduler.now))
        scheduler.run_until(1.0)
        assert fired == [0.25]

    def test_nested_scheduling(self):
        scheduler = EventScheduler()
        fired: list[float] = []

        def outer():
            scheduler.schedule_after(0.5, lambda: fired.append(scheduler.now))

        scheduler.schedule_at(1.0, outer)
        scheduler.run_until(2.0)
        assert fired == [1.5]

    def test_cancellation(self):
        scheduler = EventScheduler()
        fired = []
        handle = scheduler.schedule_at(1.0, lambda: fired.append(1))
        handle.cancel()
        scheduler.run_until(2.0)
        assert fired == []
        assert handle.cancelled

    def test_events_beyond_horizon_not_fired(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(5.0, lambda: fired.append(1))
        scheduler.run_until(4.0)
        assert fired == []
        scheduler.run_until(6.0)
        assert fired == [1]

    def test_cannot_schedule_in_past(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(1.0, lambda: None)
        scheduler.run_until(2.0)
        with pytest.raises(SimulationError):
            scheduler.schedule_at(1.5, lambda: None)

    def test_cannot_run_backwards(self):
        scheduler = EventScheduler()
        scheduler.run_until(5.0)
        with pytest.raises(SimulationError):
            scheduler.run_until(4.0)

    def test_livelock_guard(self):
        scheduler = EventScheduler()

        def respawn():
            scheduler.schedule_after(0.0, respawn)

        scheduler.schedule_at(0.0, respawn)
        with pytest.raises(SimulationError):
            scheduler.run_until(1.0, max_events=1000)

    def test_counters(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(2.0, lambda: None)
        assert scheduler.pending_events == 2
        scheduler.run_until(1.5)
        assert scheduler.processed_events == 1
        assert scheduler.pending_events == 1

    def test_pending_counter_tracks_cancellation(self):
        scheduler = EventScheduler()
        keep = scheduler.schedule_at(1.0, lambda: None)
        drop = scheduler.schedule_at(2.0, lambda: None)
        assert scheduler.pending_events == 2
        drop.cancel()
        assert scheduler.pending_events == 1
        drop.cancel()  # idempotent: no double decrement
        assert scheduler.pending_events == 1
        scheduler.run_to_completion()
        assert scheduler.pending_events == 0
        assert scheduler.processed_events == 1
        assert not keep.cancelled

    def test_cancel_after_fire_does_not_corrupt_counter(self):
        scheduler = EventScheduler()
        handle = scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(2.0, lambda: None)
        scheduler.run_until(1.5)
        assert scheduler.pending_events == 1
        handle.cancel()  # event already executed; counter must not drift
        assert scheduler.pending_events == 1
        scheduler.run_to_completion()
        assert scheduler.pending_events == 0

    def test_pending_counter_with_cancelled_head(self):
        scheduler = EventScheduler()
        head = scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(2.0, lambda: None)
        head.cancel()
        assert scheduler.pending_events == 1
        assert scheduler.step()  # skips the cancelled head, runs the live event
        assert scheduler.pending_events == 0
        assert scheduler.processed_events == 1


class _Incomparable:
    """A callable payload whose comparisons blow up if the heap reaches them."""

    def __init__(self, fired: list[int], tag: int):
        self._fired = fired
        self._tag = tag

    def __call__(self) -> None:
        self._fired.append(self._tag)

    def __lt__(self, other):
        raise AssertionError("heap ordering fell through to the action")

    __gt__ = __le__ = __ge__ = __eq__ = __lt__
    __hash__ = None


class TestEventKernel:
    def test_ordering_never_compares_actions(self):
        scheduler = EventScheduler()
        fired: list[int] = []
        for tag in range(6):
            if tag % 2:
                scheduler.post_after(1.0, _Incomparable(fired, tag))
            else:
                scheduler.schedule_at(1.0, _Incomparable(fired, tag))
        scheduler.run_until(1.0)
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_posted_events_count_and_interleave_fifo(self):
        scheduler = EventScheduler()
        fired: list[str] = []
        scheduler.schedule_at(1.0, lambda: fired.append("a"))
        assert scheduler.post_after(1.0, lambda: fired.append("b")) is None
        scheduler.schedule_after(1.0, lambda: fired.append("c"))
        scheduler.post_after(0.5, lambda: fired.append("first"))
        assert scheduler.pending_events == 4
        scheduler.run_until(0.75)
        assert (scheduler.processed_events, scheduler.pending_events) == (1, 3)
        scheduler.run_to_completion()
        assert fired == ["first", "a", "b", "c"]
        assert (scheduler.processed_events, scheduler.pending_events) == (4, 0)

    def test_post_after_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            EventScheduler().post_after(-0.1, lambda: None)

    def test_cancelled_head_beyond_horizon_does_not_advance_time(self):
        scheduler = EventScheduler()
        fired: list[float] = []
        scheduler.schedule_at(5.0, lambda: fired.append(scheduler.now)).cancel()
        scheduler.schedule_at(6.0, lambda: fired.append(scheduler.now))
        scheduler.run_until(4.0)
        assert scheduler.now == 4.0
        assert fired == []
        assert scheduler.pending_events == 1
        scheduler.run_until(6.0)
        assert fired == [6.0]
        assert scheduler.processed_events == 1

    @pytest.mark.parametrize("drain", ["run_until", "run_to_completion"])
    def test_max_events_is_an_exact_bound(self, drain):
        """Regression: ``max_events=3`` used to let a fourth event run."""

        def run(scheduler):
            if drain == "run_until":
                scheduler.run_until(1.0, max_events=3)
            else:
                scheduler.run_to_completion(max_events=3)

        scheduler = EventScheduler()
        fired: list[int] = []
        for i in range(4):
            scheduler.schedule_at(0.1 * i, lambda i=i: fired.append(i))
        with pytest.raises(SimulationError):
            run(scheduler)
        assert fired == [0, 1, 2]
        assert scheduler.pending_events == 1

        # Exactly max_events due events (plus a cancelled one) is not a livelock.
        scheduler = EventScheduler()
        for i in range(3):
            scheduler.schedule_at(0.1 * i, lambda: None)
        scheduler.schedule_at(0.5, lambda: None).cancel()
        run(scheduler)
        assert scheduler.processed_events == 3
