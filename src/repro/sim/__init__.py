"""Discrete-event simulation kernel.

This subpackage replaces the ns-2 core the paper ran on: a simulation
environment with a deterministic event heap, scheduling and a run loop
(:mod:`repro.sim.kernel`) and self-rescheduling timers
(:mod:`repro.sim.timers`).

The kernel is intentionally minimal and allocation-light: an event is
its own heap entry, a ``[time, seq, callback, args]`` list, so ties are
broken FIFO by a sequence counter, and cancellation is O(1) lazy (a
cancelled entry's callback is cleared and the entry is skipped when
popped).

Exports resolve on first use (:func:`repro.lazy_exports`): importing
the package loads none of its submodules; reading a name loads the
one module that defines it.
"""

from repro import lazy_exports

_LAZY_EXPORTS = {
    "Simulator": "kernel",
    "SimulationError": "kernel",
    "PeriodicTimer": "timers",
}

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
