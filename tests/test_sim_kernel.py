"""Tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


class TestScheduling:
    def test_simple_order(self, sim):
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_fifo_ties(self, sim):
        log = []
        for i in range(10):
            sim.schedule(1.0, log.append, i)
        sim.run()
        assert log == list(range(10))

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_args_passed(self, sim):
        out = []
        sim.schedule(0.0, lambda a, b: out.append(a + b), 2, 3)
        sim.run()
        assert out == [5]


class TestClock:
    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(4.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.5]
        assert sim.now == 4.5

    def test_run_until_inclusive(self, sim):
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(2.0, log.append, 2)
        sim.schedule(2.0001, log.append, 3)
        sim.run(until=2.0)
        assert log == [1, 2]
        assert sim.now == 2.0

    def test_run_until_advances_clock_without_events(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_events_scheduled_during_run(self, sim):
        log = []

        def chain(k):
            log.append(k)
            if k < 3:
                sim.schedule(1.0, chain, k + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert log == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestCancellation:
    def test_cancelled_event_skipped(self, sim):
        log = []
        ev = sim.schedule(1.0, log.append, "x")
        sim.schedule(2.0, log.append, "y")
        sim.cancel(ev)
        sim.run()
        assert log == ["y"]

    def test_pending_counts_only_live(self, sim):
        ev1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        sim.cancel(ev1)
        assert sim.pending == 1

    def test_cancelled_discards_counted_across_runs(self, sim):
        """Every cancelled heap entry is counted once, by the ``run``
        that pops it; one still queued is not counted yet."""
        n, cancel = 20, (0, 1, 4, 5, 9, 13, 19)
        log = []
        events = [sim.schedule(1.0 + i, log.append, i) for i in range(n)]
        for i in cancel:
            sim.cancel(events[i])
        sim.run(until=11.0)  # runs 2, 3, 6, 7, 8, 10; drops 0, 1, 4, 5, 9
        assert log == [2, 3, 6, 7, 8, 10]
        assert sim.cancelled_discarded == 5
        assert sim.pending == 7  # 11, 12, 14..18; cancelled 13, 19 still queued
        sim.run(until=20.5)  # drops 13 and 19
        assert sim.pending == 0
        assert sim.cancelled_discarded == len(cancel)
        assert log == [i for i in range(n) if i not in cancel]
        assert sim.events_executed == n - len(cancel)


class TestRunControl:
    def test_nested_run_rejected(self, sim):
        def inner():
            sim.run()

        sim.schedule(1.0, inner)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_executed_counter(self, sim):
        for i in range(7):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 7
