"""Soft-state neighbor tables.

Beacon-driven protocols learn their neighborhood from received frames.
Each entry records when the neighbor was last heard, the sender's position
at transmit time (beacons carry coordinates, which is how nodes estimate
link distances / transmission energies), and the protocol state advertised
in the beacon.  Entries expire after ``timeout`` seconds of silence —
"When beacon is not received from a node, all the neighboring nodes sense a
disconnection of the node" (section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.ids import NodeId


@dataclass
class NeighborInfo:
    """What one node knows about one neighbor."""

    node: NodeId
    last_heard: float
    position: Optional[np.ndarray] = None
    state: Dict[str, Any] = field(default_factory=dict)

    def distance_from(self, pos: np.ndarray) -> float:
        """Euclidean distance from ``pos`` to the advertised position."""
        if self.position is None:
            raise ValueError(f"neighbor {self.node} has no known position")
        return float(
            np.hypot(pos[0] - self.position[0], pos[1] - self.position[1])
        )


class NeighborTable:
    """Mapping of neighbor id -> :class:`NeighborInfo` with soft expiry."""

    def __init__(self, timeout: float) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = float(timeout)
        self._entries: Dict[NodeId, NeighborInfo] = {}

    # ------------------------------------------------------------------
    def update(
        self,
        node: NodeId,
        now: float,
        position: Optional[Sequence[float]] = None,
        state: Optional[Dict[str, Any]] = None,
    ) -> NeighborInfo:
        """Refresh (or create) the entry for ``node``.

        ``position`` (an ``(x, y)`` pair or array) is copied into a float
        array; ``state`` is kept as given, not copied.  A beacon's payload
        is shared by every receiver's table, so nothing may mutate it
        after it is sent.
        """
        info = self._entries.get(node)
        if info is None:
            info = NeighborInfo(node=node, last_heard=now)
            self._entries[node] = info
        info.last_heard = now
        if position is not None:
            info.position = np.array(position, dtype=float)
        if state is not None:
            info.state = state
        return info

    def expire(self, now: float) -> List[NodeId]:
        """Drop entries silent for longer than ``timeout``; return them."""
        dead = [
            nid
            for nid, info in self._entries.items()
            if now - info.last_heard > self.timeout
        ]
        for nid in dead:
            del self._entries[nid]
        return dead

    def forget(self, node: NodeId) -> None:
        """Explicitly drop a neighbor (e.g. on observed link failure)."""
        self._entries.pop(node, None)

    # ------------------------------------------------------------------
    def get(self, node: NodeId) -> Optional[NeighborInfo]:
        return self._entries.get(node)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[NeighborInfo]:
        return iter(list(self._entries.values()))

    def states(self) -> Dict[NodeId, Dict[str, Any]]:
        """Every entry's advertised state, by neighbor id (table order)."""
        return {nid: info.state for nid, info in self._entries.items()}

    def distances_from(self, pos: np.ndarray) -> Dict[NodeId, float]:
        """Distance from ``pos`` to every entry with a known position.

        One vector ``np.hypot`` over the stacked positions; each value
        equals :meth:`NeighborInfo.distance_from` bit for bit (the scalar
        and the vector ``np.hypot`` share one float64 kernel, whereas
        ``math.hypot`` rounds differently on some pairs).
        """
        located = [
            (nid, info.position)
            for nid, info in self._entries.items()
            if info.position is not None
        ]
        if not located:
            return {}
        xy = np.array([p for _, p in located])
        d = np.hypot(pos[0] - xy[:, 0], pos[1] - xy[:, 1])
        return dict(zip([nid for nid, _ in located], d.tolist()))

    def ids(self) -> List[NodeId]:
        """Current neighbor ids (unordered)."""
        return list(self._entries.keys())

    def items(self) -> List[Tuple[NodeId, NeighborInfo]]:
        return list(self._entries.items())
