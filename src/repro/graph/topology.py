"""Abstract network topology for the static/round-model algorithms.

A :class:`Topology` is an undirected graph ``G = (V, E)`` (paper section 5)
with Euclidean edge lengths, a designated multicast source (tree root) and
a set of group members.  It can be built from node positions + a radio
range, or from an explicit edge list with distances (the paper's Figure 1
gives edge distances only).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.util.geometry import pairwise_distances
from repro.util.ids import NodeId

Edge = Tuple[NodeId, NodeId]


class Topology:
    """Undirected distance-weighted graph with multicast group info.

    Attributes
    ----------
    n:
        Number of nodes (ids are ``0..n-1``).
    dist:
        ``(n, n)`` matrix; ``np.inf`` where no edge, 0 on the diagonal.
    source:
        Multicast source / tree root.
    members:
        Multicast group (always includes the source).
    """

    def __init__(
        self,
        dist: np.ndarray,
        source: NodeId,
        members: Iterable[NodeId],
    ) -> None:
        dist = np.asarray(dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("dist must be square")
        if not np.allclose(dist, dist.T, equal_nan=True):
            raise ValueError("dist must be symmetric (undirected graph)")
        n = dist.shape[0]
        if not (0 <= source < n):
            raise ValueError("source out of range")
        off_diag = ~np.eye(n, dtype=bool)
        finite = np.isfinite(dist) & off_diag
        if np.any(dist[finite] <= 0):
            raise ValueError("edge distances must be positive")
        self.n = n
        self.dist = dist.copy()
        np.fill_diagonal(self.dist, 0.0)
        self.source = int(source)
        mem = {int(m) for m in members}
        for m in mem:
            if not (0 <= m < n):
                raise ValueError(f"member {m} out of range")
        mem.add(self.source)
        self.members: FrozenSet[NodeId] = frozenset(mem)
        # one nonzero over the matrix: rows come out in order, ids ascending
        heads, tails = np.nonzero(finite)
        ids = tails.tolist()
        self._adj: List[List[NodeId]] = []
        i = 0
        for degree in np.bincount(heads, minlength=n).tolist():
            self._adj.append(ids[i:i + degree])
            i += degree
        self._dist_rows: Optional[List[Dict[NodeId, float]]] = None
        self._sorted_nbr_dists: Optional[List[List[float]]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_positions(
        cls,
        positions: np.ndarray,
        max_range: float,
        source: NodeId,
        members: Iterable[NodeId],
    ) -> "Topology":
        """Unit-disk graph: nodes within ``max_range`` are neighbors."""
        d = pairwise_distances(np.asarray(positions, dtype=float))
        out = d.copy()
        out[(d > max_range)] = np.inf
        np.fill_diagonal(out, 0.0)
        return cls(out, source, members)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Mapping[Edge, float],
        source: NodeId,
        members: Iterable[NodeId],
    ) -> "Topology":
        """Explicit edge list ``{(u, v): distance}``."""
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        for (u, v), d in edges.items():
            if u == v:
                raise ValueError("self-loop")
            dist[u, v] = dist[v, u] = float(d)
        return cls(dist, source, members)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def neighbors(self, v: NodeId) -> List[NodeId]:
        """Adjacent node ids of ``v``."""
        return self._adj[v]

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return u != v and np.isfinite(self.dist[u, v])

    def degree(self, v: NodeId) -> int:
        return len(self._adj[v])

    def neighbor_distances(self, v: NodeId) -> List[Tuple[NodeId, float]]:
        """``(neighbor, distance)`` pairs for ``v``."""
        return [(u, float(self.dist[v, u])) for u in self._adj[v]]

    def dist_rows(self) -> List[Dict[NodeId, float]]:
        """Row ``v`` maps each neighbor ``u`` to ``float(dist[v, u])``.

        Rule evaluations read one neighbor distance per candidate; a dict
        of Python floats answers that without a numpy scalar index.  The
        rows are built together on first use, in O(edges).
        """
        rows = self._dist_rows
        if rows is None:
            rows = self._dist_rows = self._build_dist_rows()
        return rows

    def _build_dist_rows(self) -> List[Dict[NodeId, float]]:
        edges = np.isfinite(self.dist)
        np.fill_diagonal(edges, False)
        values = self.dist[edges].tolist()  # row-major: the order of _adj
        rows: List[Dict[NodeId, float]] = []
        i = 0
        for row in self._adj:
            j = i + len(row)
            rows.append(dict(zip(row, values[i:j])))
            i = j
        return rows

    def neighbors_within(self, v: NodeId, radius: float) -> List[NodeId]:
        """Graph neighbors of ``v`` no farther than ``radius``."""
        return [u for u in self._adj[v] if self.dist[v, u] <= radius + 1e-12]

    def count_within(self, v: NodeId, radius: float) -> int:
        """``len(neighbors_within(v, radius))`` in O(log deg).

        Pricing a chain under SS-SPST-E queries the in-range neighbor
        *count* at every ancestor; per-node sorted distance lists (built
        lazily on first use) turn each query into one bisection with the
        exact tolerance semantics of :meth:`neighbors_within`.
        """
        rows = self._sorted_nbr_dists
        if rows is None:
            rows = [sorted(row.values()) for row in self.dist_rows()]
            self._sorted_nbr_dists = rows
        return bisect_right(rows[v], radius + 1e-12)

    def is_connected(self) -> bool:
        """BFS connectivity over the whole node set."""
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in self._adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n

    def bfs_hops(self, root: Optional[NodeId] = None) -> np.ndarray:
        """Hop distance from ``root`` (default: the source); inf if unreachable."""
        root = self.source if root is None else root
        hops = np.full(self.n, np.inf)
        hops[root] = 0
        frontier = [root]
        level = 0
        while frontier:
            level += 1
            nxt: List[NodeId] = []
            for v in frontier:
                for u in self._adj[v]:
                    if hops[u] == np.inf:
                        hops[u] = level
                        nxt.append(u)
            frontier = nxt
        return hops

    def to_networkx(self) -> "object":
        """Export as a :mod:`networkx` graph (distances as 'weight')."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for v in range(self.n):
            for u in self._adj[v]:
                if u > v:
                    g.add_edge(v, u, weight=float(self.dist[v, u]))
        return g

    @property
    def non_members(self) -> Set[NodeId]:
        return set(range(self.n)) - set(self.members)

    def __repr__(self) -> str:  # pragma: no cover
        n_edges = sum(len(a) for a in self._adj) // 2
        return (
            f"Topology(n={self.n}, edges={n_edges}, source={self.source}, "
            f"members={sorted(self.members)})"
        )
