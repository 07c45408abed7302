"""Planar geometry helpers for the simulation arena.

Positions are ``(n, 2)`` float64 NumPy arrays throughout the codebase; the
hot paths (pairwise distances, range queries) are fully vectorized as the
scientific-Python guides recommend — no Python-level loops over node pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class Arena:
    """Rectangular simulation area ``[0, width] x [0, height]`` in metres.

    The paper's evaluation uses a 750 m x 750 m arena (section 6).
    """

    width: float = 750.0
    height: float = 750.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("arena dimensions must be positive")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorized containment test for an ``(n, 2)`` array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        return (
            (pts[:, 0] >= 0.0)
            & (pts[:, 0] <= self.width)
            & (pts[:, 1] >= 0.0)
            & (pts[:, 1] <= self.height)
        )

    def sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``n`` uniform points inside the arena."""
        pts = rng.random((n, 2))
        pts[:, 0] *= self.width
        pts[:, 1] *= self.height
        return pts

    @property
    def diagonal(self) -> float:
        """Length of the arena diagonal (an upper bound on any distance)."""
        return float(np.hypot(self.width, self.height))


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two 2-D points."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.hypot(a[0] - b[0], a[1] - b[1]))


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Full ``(n, n)`` Euclidean distance matrix, vectorized.

    Uses the broadcasting identity ``|x - y|^2 = |x|^2 + |y|^2 - 2 x.y`` with
    a clip to guard against tiny negative values from floating-point
    cancellation.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of points")
    sq = np.einsum("ij,ij->i", pts, pts)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.clip(d2, 0.0, None, out=d2)
    d = np.sqrt(d2)
    np.fill_diagonal(d, 0.0)
    return d


def clamp_point(point: np.ndarray, arena: Arena) -> np.ndarray:
    """Clamp a point into the arena (used defensively by mobility models)."""
    p = np.asarray(point, dtype=float).copy()
    p[0] = min(max(p[0], 0.0), arena.width)
    p[1] = min(max(p[1], 0.0), arena.height)
    return p


def unit_vector(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, float]:
    """Return ``(direction, length)`` from ``src`` toward ``dst``.

    A zero-length segment yields a zero direction vector.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    delta = dst - src
    length = float(np.hypot(delta[0], delta[1]))
    if length == 0.0:
        return np.zeros(2), 0.0
    return delta / length, length
