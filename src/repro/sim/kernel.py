"""The simulation environment: clock, event heap, run control.

Usage::

    sim = Simulator()
    sim.schedule(1.0, lambda: print("hello at t=1"))
    sim.run(until=10.0)

The kernel guarantees:

* time never goes backwards (scheduling in the past raises),
* events at equal time fire in (priority, insertion) order,
* ``run(until=T)`` executes every event with ``time <= T`` and leaves
  ``now == T``.

The heap holds ``(time, priority, seq, event)`` tuples, so C tuple
comparison orders it (``seq`` is unique, so the event itself is never
compared).  This is the queue layout SimPy uses.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import Event


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
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_executed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        time = float(time)
        seq = self._seq
        ev = Event(time, priority, seq, callback, args)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, ev))
        return ev

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Execute the single next event.  Returns False if none remain."""
        self._drop_cancelled()
        if not self._heap:
            return False
        ev = heapq.heappop(self._heap)[3]
        self._now = ev.time
        self.events_executed += 1
        ev.callback(*ev.args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``stop()``.

        ``until`` is inclusive: events scheduled exactly at ``until`` run,
        and the clock is advanced to ``until`` on return.  ``max_events``
        counts kernel callbacks, not :attr:`events_executed`: a medium
        frame completion is one callback however many receptions it
        credits.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        horizon = float("inf") if until is None else until
        executed = 0
        try:
            while not self._stopped and heap:
                entry = heap[0]
                ev = entry[3]
                if ev.cancelled:
                    heappop(heap)
                    continue
                if entry[0] > horizon:
                    break
                heappop(heap)
                self._now = entry[0]
                self.events_executed += 1
                executed += 1
                ev.callback(*ev.args)
                if max_events is not None and executed >= max_events:
                    break
        finally:
            self._running = False
        if until is not None and not self._stopped and self._now < until:
            self._now = until

    def stop(self) -> None:
        """Stop the current ``run`` after the in-flight event finishes."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    # ------------------------------------------------------------------
    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Simulator(now={self._now:.6f}, pending={self.pending})"
