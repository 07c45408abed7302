"""The simulation environment: clock, event heap, run loop.

Usage::

    sim = Simulator()
    sim.schedule(1.0, lambda: print("hello at t=1"))
    sim.run(until=10.0)

The kernel guarantees:

* time never goes backwards (scheduling in the past raises),
* events at equal time fire in insertion order,
* ``run(until=T)`` executes every event with ``time <= T`` and leaves
  ``now == T``.

An event is its heap entry: a ``[time, seq, callback, args]`` list, so
C list comparison orders the heap by ``(time, seq)`` (``seq`` is
unique, so the callback is never compared).  :meth:`Simulator.cancel`
clears the entry's callback in O(1); :meth:`Simulator.run` discards
cleared entries when they reach the top of the heap.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised on kernel misuse (e.g. scheduling into the past)."""


class Simulator:
    """Discrete-event simulation environment.

    Attributes
    ----------
    events_executed:
        DES events executed.  Every kernel callback counts one; a
        callback that stands for several logical events credits the
        rest itself.  The medium completes a whole frame in one
        callback and credits one event per frame reception, so the
        count (persisted in every DES record) is one per reception.
    cancelled_discarded:
        Cancelled events :meth:`run` popped off the heap and skipped.
        A cancelled event still queued is not counted yet.  Kept out
        of records.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[list] = []
        self._seq = 0
        self._running = False
        self.events_executed = 0
        self.cancelled_discarded = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> list:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``.

        Returns the event, which :meth:`cancel` accepts.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = [float(time), seq, callback, args]
        heapq.heappush(self._heap, event)
        return event

    @staticmethod
    def cancel(event: list) -> None:
        """Cancel a scheduled event; :meth:`run` skips it when popped."""
        event[2] = None

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or ``until`` is reached.

        ``until`` is inclusive: events scheduled exactly at ``until`` run,
        and the clock is advanced to ``until`` on return.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        horizon = float("inf") if until is None else until
        try:
            while heap:
                event = heap[0]
                callback = event[2]
                if callback is None:
                    heappop(heap)
                    self.cancelled_discarded += 1
                    continue
                if event[0] > horizon:
                    break
                heappop(heap)
                self._now = event[0]
                self.events_executed += 1
                callback(*event[3])
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return sum(1 for event in self._heap if event[2] is not None)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Simulator(now={self._now:.6f}, pending={self.pending})"
