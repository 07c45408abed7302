"""Event objects for the simulation kernel.

An :class:`Event` is a scheduled callback.  The kernel orders its heap by
``(time, priority, seq)`` tuples built beside each event, where ``seq`` is
a global insertion counter, so events at the same timestamp with the same
priority fire in FIFO order — this makes simulations bit-for-bit
deterministic for a given seed.  Events themselves define no ordering.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A scheduled callback, fired in ``(time, priority, seq)`` order.

    Do not construct directly — use :meth:`repro.sim.kernel.Simulator.schedule`.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event cancelled; the kernel will skip it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, prio={self.priority}, {name}, {state})"
