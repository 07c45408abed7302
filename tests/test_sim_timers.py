"""Tests for PeriodicTimer."""

import numpy as np
import pytest

from repro.sim.timers import PeriodicTimer


class TestPeriodicTimer:
    def test_regular_ticks(self, sim):
        times = []
        PeriodicTimer(sim, 2.0, lambda: times.append(sim.now))
        sim.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_start_offset(self, sim):
        times = []
        PeriodicTimer(sim, 2.0, lambda: times.append(sim.now), start_offset=0.5)
        sim.run(until=5.0)
        assert times == [0.5, 2.5, 4.5]

    def test_stop(self, sim):
        times = []
        timer = PeriodicTimer(sim, 1.0, lambda: times.append(sim.now))
        sim.schedule(2.5, timer.stop)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]
        # the queued tick at t=3 is discarded, never executed
        assert sim.events_executed == 3  # two ticks and the stop
        assert sim.cancelled_discarded == 1
        assert sim.pending == 0

    def test_stop_from_callback(self, sim):
        timer_box = []

        def cb():
            if sim.now >= 3.0:
                timer_box[0].stop()

        timer_box.append(PeriodicTimer(sim, 1.0, cb))
        sim.run(until=10.0)
        assert timer_box[0].ticks == 3

    def test_jitter_bounds(self, sim):
        times = []
        rng = np.random.default_rng(0)
        PeriodicTimer(sim, 1.0, lambda: times.append(sim.now), jitter=0.2, rng=rng)
        sim.run(until=50.0)
        gaps = np.diff(times)
        assert len(times) > 40
        # Consecutive jittered ticks differ by interval +- jitter.
        assert gaps.min() >= 1.0 - 0.2 - 1e-9
        assert gaps.max() <= 1.0 + 0.2 + 1e-9

    def test_jitter_requires_rng(self, sim):
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 1.0, lambda: None, jitter=0.1)

    def test_invalid_interval(self, sim):
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_ticks_counter(self, sim):
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        sim.run(until=5.5)
        assert timer.ticks == 5
