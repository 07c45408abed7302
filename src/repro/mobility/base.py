"""Abstract mobility interface."""

from __future__ import annotations

import abc

import numpy as np

from repro.util.geometry import Arena


class MobilityModel(abc.ABC):
    """Provides node positions as a function of simulation time.

    Implementations advance internal state lazily, so ``positions`` must be
    called with non-decreasing ``t`` (the simulator's clock is monotone, so
    this holds naturally).
    """

    def __init__(self, n_nodes: int, arena: Arena) -> None:
        if n_nodes <= 0:
            raise ValueError("need at least one node")
        self.n = int(n_nodes)
        self.arena = arena
        self._last_query_t = -np.inf

    @abc.abstractmethod
    def _positions_at(self, t: float) -> np.ndarray:
        """Return the (n, 2) position array at time t (t is validated)."""

    def positions(self, t: float) -> np.ndarray:
        """Positions at time ``t`` (seconds); ``t`` must be non-decreasing."""
        if t < self._last_query_t:
            raise ValueError(
                f"mobility queried backwards in time ({t} < {self._last_query_t})"
            )
        self._last_query_t = t
        pos = self._positions_at(float(t))
        return pos
