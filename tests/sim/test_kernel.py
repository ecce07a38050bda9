"""Tests for the discrete-event simulator kernel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, 3.0)
        sim.schedule(1.0, fired.append, 1.0)
        sim.schedule(2.0, fired.append, 2.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]
        assert sim.now == 3.0

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.schedule(1.0, lambda: sim.schedule_at(5.0, times.append, sim.now))
        sim.run()
        # The inner callback records its own firing time.
        assert sim.now == 5.0

    def test_schedule_at_keeps_the_exact_time(self):
        # A round trip through a delay loses the last bit here: 1 + 2**-53
        # is a tie both ways and rounds to 1.0.
        now, at = 2.0**-53, 1.0 + 2.0**-52
        assert now + (at - now) != at
        sim = Simulator()
        fired = []
        sim.schedule_at(now, lambda: sim.schedule_at(at, fired.append, 0))
        sim.run()
        assert sim.now == at and fired == [0]

    @given(
        now=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        gap=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    )
    def test_schedule_at_time_is_bit_exact(self, now, gap):
        at = now + gap
        sim = Simulator()
        sim.schedule_at(now, lambda: None)
        sim.run()
        assert sim.now == now
        sim.schedule_at(at, lambda: None)
        sim.run()
        assert sim.now == at

    def test_nested_scheduling_during_callback(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(2.0, inner)

        def inner():
            fired.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 3.0)]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule(1.0, fired.append, "x")
        timer.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        timer = sim.schedule(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        sim.run()

    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 10)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        # Remaining events still runnable afterwards.
        sim.run()
        assert fired == [1, 10]

    def test_step_returns_false_when_idle(self):
        sim = Simulator()
        assert sim.step() is False

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        timer = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        timer.cancel()
        assert sim.peek() == 2.0

    def test_peek_empty(self):
        sim = Simulator()
        assert sim.peek() is None

    def test_pending_events_counts_live_timers(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        timer = sim.schedule(2.0, lambda: None)
        timer.cancel()
        assert sim.pending_events == 1
        sim.run()

    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=50))
    def test_firing_order_is_sorted_by_time(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, fired.append, delay)
        sim.run()
        assert fired == sorted(fired)


class TestCompaction:
    def test_sweep_keeps_pending_exact_and_heap_bounded(self):
        sim = Simulator()
        live = []
        for index in range(1000):
            timer = sim.schedule(1.0 + index, lambda: None)
            if index % 5 == 0:
                live.append(timer)
            else:
                timer.cancel()
        assert sim.pending_events == len(live)
        # The sweep keeps dead entries to at most the live count (plus
        # the small-heap threshold under which sweeps never trigger).
        assert len(sim._heap) <= 2 * len(live) + sim.COMPACTION_MIN_HEAP

    def test_small_heaps_never_swept(self):
        sim = Simulator()
        timers = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
        for timer in timers[1:]:
            timer.cancel()
        # Below COMPACTION_MIN_HEAP the dead entries just sit there.
        assert len(sim._heap) == 10
        assert sim.pending_events == 1

    def test_sweep_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        keep = []
        for index in range(500):
            timer = sim.schedule(1.0 + index, fired.append, index)
            if index % 7 == 0:
                keep.append(index)
            else:
                timer.cancel()
        sim.run()
        assert fired == keep

    def test_cancel_after_sweep_is_harmless(self):
        sim = Simulator()
        timers = [sim.schedule(1.0 + i, lambda: None) for i in range(200)]
        for timer in timers[:150]:
            timer.cancel()
        # These were already swept off the heap; cancelling again must
        # not corrupt the live count.
        for timer in timers[:150]:
            timer.cancel()
        assert sim.pending_events == 50
        sim.run()
        assert sim.pending_events == 0


class TestScheduleAtPast:
    def test_past_time_raises_with_both_clocks(self):
        from repro.errors import SchedulingError

        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0
        with pytest.raises(SchedulingError) as exc:
            sim.schedule_at(3.0, lambda: None)
        message = str(exc.value)
        assert "t=3.0" in message
        assert "5.0" in message  # names `now`, not just the delta

    def test_exactly_now_is_allowed(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(5.0, fired.append, "ok")
        sim.run()
        assert fired == ["ok"]
