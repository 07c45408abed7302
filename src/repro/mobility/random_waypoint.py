"""Random way-point mobility with the Yoon–Liu–Noble minimum-speed fix.

Each node repeats: pick a uniform destination in the arena, travel to it in
a straight line at a speed drawn uniformly from ``[v_min, v_max]``, pause
for ``pause_time`` seconds, repeat.  The paper (section 6) explicitly
conforms to the fix from "Random Waypoint Considered Harmful"
(Yoon, Liu, Noble — INFOCOM'03): ``v_min`` must be strictly positive, which
prevents the long-run average speed from decaying toward zero.

The implementation is leg-based and vectorized: per node we store the
current leg ``(t0, t1, src, dst)``; legs are regenerated lazily for exactly
the nodes whose legs expired, and position interpolation across all nodes is
a single broadcasting expression.  Each leg's ``dst - src`` and span are
cached and recomputed only once the earliest leg end has passed.
"""

from __future__ import annotations

import numpy as np

from repro.mobility.base import MobilityModel
from repro.util.geometry import Arena

_MIN_LEG = 1e-9  # guard against zero-length travel legs


class RandomWaypoint(MobilityModel):
    """Random way-point process for ``n_nodes`` nodes.

    Parameters
    ----------
    v_min, v_max:
        Speed bounds in m/s.  ``v_min`` must be > 0 (Noble fix); the paper
        sweeps ``v_max`` from 1 to 20 m/s.
    pause_time:
        Pause duration at each way-point, seconds (0 disables pausing).
    rng:
        Generator for placement, way-points and speeds.
    """

    def __init__(
        self,
        n_nodes: int,
        arena: Arena,
        v_min: float,
        v_max: float,
        pause_time: float = 0.0,
        rng: np.random.Generator = None,
        initial_positions: np.ndarray = None,
    ) -> None:
        super().__init__(n_nodes, arena)
        if rng is None:
            raise ValueError("RandomWaypoint requires an rng")
        if v_min <= 0:
            raise ValueError(
                "v_min must be > 0 (Yoon-Liu-Noble fix; the paper requires "
                "non-zero minimum velocity)"
            )
        if v_max < v_min:
            raise ValueError("v_max must be >= v_min")
        if pause_time < 0:
            raise ValueError("pause_time must be non-negative")
        self.v_min = float(v_min)
        self.v_max = float(v_max)
        self.pause_time = float(pause_time)
        self.rng = rng

        if initial_positions is not None:
            pos = np.asarray(initial_positions, dtype=float)
            if pos.shape != (n_nodes, 2):
                raise ValueError(f"initial_positions must be ({n_nodes}, 2)")
            if not arena.contains(pos).all():
                raise ValueError("initial positions outside the arena")
        else:
            pos = arena.sample_points(n_nodes, rng)

        n = self.n
        self._t0 = np.zeros(n)
        self._t1 = np.zeros(n)  # forces leg generation at first query
        self._src = pos.copy()
        self._dst = pos.copy()
        self._paused = np.zeros(n, dtype=bool)
        self._pos_buf = pos.copy()
        # Per-leg terms of the interpolation, valid until the earliest leg
        # end ``_next_end`` has passed (-inf: not computed yet).
        self._delta = np.zeros((n, 2))
        self._safe_span = np.ones(n)
        self._next_end = -np.inf
        self._frac = np.zeros(n)

    # ------------------------------------------------------------------
    def _new_leg(self, i: int, t: float) -> None:
        """Start the next leg for node ``i`` at time ``t``."""
        here = self._dst[i]
        if not self._paused[i] and self.pause_time > 0.0:
            # Just arrived: pause in place.
            self._paused[i] = True
            self._t0[i] = t
            self._t1[i] = t + self.pause_time
            self._src[i] = here
            self._dst[i] = here
            return
        self._paused[i] = False
        target = self.arena.sample_points(1, self.rng)[0]
        speed = float(self.rng.uniform(self.v_min, self.v_max))
        dist = float(np.hypot(*(target - here)))
        duration = max(dist / speed, _MIN_LEG)
        self._t0[i] = t
        self._t1[i] = t + duration
        self._src[i] = here
        self._dst[i] = target

    def _positions_at(self, t: float) -> np.ndarray:
        if t > self._next_end:
            expired = np.nonzero(self._t1 < t)[0]
            # A node may burn through several short legs before t; loop
            # until every node's current leg covers t.
            while expired.size:
                for i in expired:
                    self._new_leg(int(i), float(self._t1[i]))
                expired = np.nonzero(self._t1 < t)[0]
            np.subtract(self._dst, self._src, out=self._delta)
            span = self._t1 - self._t0
            # zero-span legs have src == dst
            self._safe_span = np.where(span > 0.0, span, 1.0)
            self._next_end = float(self._t1.min())
        frac = self._frac
        np.subtract(t, self._t0, out=frac)
        np.divide(frac, self._safe_span, out=frac)
        np.maximum(frac, 0.0, out=frac)
        np.minimum(frac, 1.0, out=frac)
        np.multiply(self._delta, frac[:, None], out=self._pos_buf)
        self._pos_buf += self._src
        return self._pos_buf

    # ------------------------------------------------------------------
    def current_speeds(self, t: float) -> np.ndarray:
        """Instantaneous speeds at time ``t`` (0 while pausing)."""
        self.positions(t)
        span = self._t1 - self._t0
        dist = np.hypot(
            self._dst[:, 0] - self._src[:, 0], self._dst[:, 1] - self._src[:, 1]
        )
        speeds = np.zeros_like(dist)
        np.divide(dist, span, out=speeds, where=span > 0)
        speeds[self._paused] = 0.0
        return speeds
