"""Self-rescheduling timers.

:class:`PeriodicTimer` drives periodic protocol actions (beaconing,
JOIN-QUERY floods, mobility ticks).  Optional uniform jitter desynchronizes
nodes — without it, all 50 beacons of a scenario would collide at exactly
the same instants every interval, which no real radio would do.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.sim.kernel import Simulator


class PeriodicTimer:
    """Calls ``callback()`` every ``interval`` seconds until stopped.

    Parameters
    ----------
    sim:
        The simulation environment.
    interval:
        Nominal period in seconds (> 0).
    callback:
        Zero-argument callable invoked on each tick.
    jitter:
        Each tick is displaced by ``U(-jitter/2, +jitter/2)`` seconds,
        clamped so time never goes backwards.  Requires ``rng``.
    rng:
        NumPy generator used for jitter draws.
    start_offset:
        Delay before the first tick (default: one jittered interval).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        start_offset: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self.sim = sim
        self.interval = float(interval)
        self.callback = callback
        self.jitter = float(jitter)
        self.rng = rng
        self.ticks = 0
        self._stopped = False
        first = self._jittered(self.interval) if start_offset is None else start_offset
        self._event = sim.schedule(max(0.0, first), self._fire)

    def _jittered(self, base: float) -> float:
        if self.jitter == 0.0:
            return base
        assert self.rng is not None
        return max(0.0, base + float(self.rng.uniform(-0.5, 0.5)) * self.jitter)

    def _fire(self) -> None:
        self.ticks += 1
        self.callback()
        if not self._stopped:
            self._event = self.sim.schedule(self._jittered(self.interval), self._fire)

    def stop(self) -> None:
        """Cancel all future ticks."""
        self._stopped = True
        self.sim.cancel(self._event)
