"""Discrete-event simulation kernel.

This subpackage replaces the ns-2 core the paper ran on: scheduled
events (:mod:`repro.sim.events`), a simulation environment with a
deterministic event heap, scheduling and run control
(:mod:`repro.sim.kernel`) and self-rescheduling timers
(:mod:`repro.sim.timers`).

The kernel is intentionally minimal and allocation-light: events are
``__slots__`` objects, the heap orders ``(time, priority, seq, event)``
tuples so ties are broken FIFO by a sequence counter, and cancellation
is O(1) lazy (cancelled events are skipped when popped).

Exports resolve on first use (:func:`repro.lazy_exports`): importing
the package loads none of its submodules; reading a name loads the
one module that defines it.
"""

from repro import lazy_exports

_LAZY_EXPORTS = {
    "Event": "events",
    "Simulator": "kernel",
    "SimulationError": "kernel",
    "PeriodicTimer": "timers",
}

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
