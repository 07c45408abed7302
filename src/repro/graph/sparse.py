"""Adjacency-list topology for deep-scale round-model studies.

The base :class:`~repro.graph.topology.Topology` stores a dense ``(n, n)``
distance matrix — 800 MB of float64 at n = 10^4, unbuildable at 10^5.
:class:`SparseTopology` keeps the same query interface over CSR adjacency
arrays: geometric deployments are sparse (expected degree is set by the
radio range, not by ``n``), so memory and construction go from O(n^2)
to O(n + E).

Compatibility notes:

* ``topo.dist`` stays readable *per pair* — every consumer in the
  codebase indexes it as ``dist[u, v]``, which :class:`_SparseDist`
  answers by binary search (``inf`` for a non-edge, ``0.0`` on the
  diagonal, exactly like the dense matrix).  Whole-matrix scans are not
  supported; the one former scanner (``CostMetric.infinity``) now asks
  for :attr:`max_edge_dist` first.
* Tolerance semantics are identical: range queries use the same
  ``radius + 1e-12`` key as the dense ``count_within``/
  ``neighbors_within``, so both topology classes feed bit-identical
  values to the engines.
* :meth:`csr_arrays` hands the adjacency arrays to
  :class:`~repro.core.array_engine.EdgeCsr` without another O(E) Python
  pass (the array engine is the intended companion at this scale).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.topology import Topology
from repro.util.ids import NodeId


class _SparseDist:
    """Pair-indexable stand-in for the dense distance matrix."""

    __slots__ = ("_indptr", "_nbr", "_dist")

    def __init__(self, indptr: np.ndarray, nbr: np.ndarray, dist: np.ndarray) -> None:
        self._indptr = indptr
        self._nbr = nbr
        self._dist = dist

    def __getitem__(self, key: Tuple[int, int]) -> float:
        u, v = key
        if u == v:
            return 0.0
        i0, i1 = int(self._indptr[u]), int(self._indptr[u + 1])
        i = i0 + int(np.searchsorted(self._nbr[i0:i1], v))
        if i < i1 and int(self._nbr[i]) == v:
            return float(self._dist[i])
        return math.inf


def _geometric_edges(
    pos: np.ndarray, radius: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-disk edge discovery over explicit coordinates.

    Returns canonical (id-sorted) CSR arrays ``(indptr, nbr, dist)``.
    Grid bucketing keeps it at O(n * expected degree): candidate pairs
    come only from the 3x3 cell neighborhood of each node, never from
    the full O(n^2) pair set.  The grid origin is the coordinate minimum
    (bucketing only *proposes* pairs; the ``d <= radius`` test decides,
    so the result is shift-invariant).

    Distances are the direct ``sqrt(sum((a - b)^2))`` — numerically
    *tighter* than the dense path's ``|x|^2 + |y|^2 - 2 x.y`` identity
    (:func:`repro.util.geometry.pairwise_distances`), so the two
    ``from_positions`` constructors agree to within one ulp per edge;
    they are not guaranteed bit-identical (BLAS GEMM rounding depends
    on the matrix shape, so the dense values cannot be reproduced from
    gathered pairs).
    """
    n = len(pos)
    rel = pos - pos.min(axis=0, keepdims=True)
    cell = np.floor(rel / radius).astype(np.int64)
    ncell = int(cell.max()) + 1 if n else 1
    cid = cell[:, 0] * ncell + cell[:, 1]
    order = np.argsort(cid, kind="stable")
    sorted_cid = cid[order]
    starts = np.searchsorted(sorted_cid, np.arange(ncell * ncell))
    ends = np.searchsorted(sorted_cid, np.arange(ncell * ncell), side="right")

    heads: List[np.ndarray] = []
    tails: List[np.ndarray] = []
    dists: List[np.ndarray] = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            a = cell[:, 0] + dx
            b = cell[:, 1] + dy
            ok = (a >= 0) & (a < ncell) & (b >= 0) & (b < ncell)
            if not ok.any():
                continue
            vs = np.flatnonzero(ok)
            nc = a[vs] * ncell + b[vs]
            cnts = ends[nc] - starts[nc]
            if int(cnts.sum()) == 0:
                continue
            reps = np.repeat(vs, cnts)
            offs = np.repeat(starts[nc], cnts) + (
                np.arange(int(cnts.sum()), dtype=np.int64)
                - np.repeat(
                    np.concatenate(([0], np.cumsum(cnts)[:-1])), cnts
                )
            )
            us = order[offs]
            keep = us != reps
            reps, us = reps[keep], us[keep]
            delta = pos[reps] - pos[us]
            d2 = np.einsum("ij,ij->i", delta, delta)
            d = np.sqrt(d2)
            keep = d <= radius
            heads.append(reps[keep])
            tails.append(us[keep])
            dists.append(d[keep])
    if heads:
        hv = np.concatenate(heads)
        tv = np.concatenate(tails)
        dv = np.concatenate(dists)
    else:  # pragma: no cover - degenerate field
        hv = tv = np.zeros(0, dtype=np.int64)
        dv = np.zeros(0, dtype=np.float64)
    o = np.lexsort((tv, hv))
    hv, tv, dv = hv[o], tv[o], dv[o]
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(hv, minlength=n)))
    ).astype(np.int64)
    return indptr, tv, dv


class SparseTopology(Topology):
    """CSR-backed :class:`Topology` (same queries, no dense matrix)."""

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        nbr: np.ndarray,
        ndist: np.ndarray,
        source: NodeId,
        members: Iterable[NodeId],
    ) -> None:
        # Deliberately does NOT call Topology.__init__ (which builds and
        # validates the dense matrix); it re-creates the same attribute
        # surface from the CSR arrays.
        self.n = int(n)
        if not (0 <= source < self.n):
            raise ValueError("source out of range")
        self.source = int(source)
        mem = {int(m) for m in members}
        for m in mem:
            if not (0 <= m < self.n):
                raise ValueError(f"member {m} out of range")
        mem.add(self.source)
        self.members: FrozenSet[NodeId] = frozenset(mem)

        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._nbr = np.asarray(nbr, dtype=np.int64)
        self._ndist = np.asarray(ndist, dtype=np.float64)
        if len(self._indptr) != self.n + 1:
            raise ValueError("indptr must have n+1 entries")
        if len(self._nbr) != len(self._ndist):
            raise ValueError("nbr and ndist must align")
        if self._ndist.size and float(self._ndist.min()) <= 0.0:
            raise ValueError("edge distances must be positive")
        # Rows must be id-sorted for the binary-search lookups.
        for v in range(self.n):
            row = self._nbr[self._indptr[v]:self._indptr[v + 1]]
            if row.size and np.any(np.diff(row) <= 0):
                raise ValueError("neighbor rows must be strictly id-sorted")
        self.dist = _SparseDist(self._indptr, self._nbr, self._ndist)
        self._adj: List[List[NodeId]] = [
            [int(u) for u in self._nbr[self._indptr[v]:self._indptr[v + 1]]]
            for v in range(self.n)
        ]
        # Per-row distance-sorted copies for O(log deg) range counting.
        rowid = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(self._indptr)
        )
        order = np.lexsort((self._ndist, rowid))
        self._sdist = self._ndist[order]
        self._sorted_nbr_dists = None  # base-class field, never built here
        self._dist_rows = None
        #: largest edge length — the whole-matrix fact OC_max needs,
        #: precomputed so no consumer ever scans ``dist``.
        self.max_edge_dist: float = (
            float(self._ndist.max()) if self._ndist.size else 0.0
        )

    # ------------------------------------------------------------------
    @classmethod
    def random_geometric(
        cls,
        n: int,
        *,
        side: float = 1000.0,
        radius: float = 60.0,
        source: NodeId = 0,
        member_fraction: float = 0.25,
        seed: int = 0,
    ) -> "SparseTopology":
        """Uniform deployment on a ``side x side`` field, unit-disk edges.

        Grid bucketing keeps edge discovery at O(n * expected degree):
        candidate pairs come only from the 3x3 cell neighborhood of each
        node, never from the full O(n^2) pair set.
        """
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.0, side, size=(n, 2))
        indptr, tv, dv = _geometric_edges(pos, radius)
        members = rng.choice(n, size=max(1, int(n * member_fraction)), replace=False)
        return cls(n, indptr, tv, dv, source, members)

    @classmethod
    def from_positions(
        cls,
        positions: np.ndarray,
        max_range: float,
        source: NodeId,
        members: Iterable[NodeId],
    ) -> "SparseTopology":
        """Sparse counterpart of :meth:`Topology.from_positions`: the
        same unit-disk edge rule (``d <= max_range``) over explicit
        coordinates, stored as CSR instead of a dense matrix."""
        pos = np.asarray(positions, dtype=np.float64)
        n = len(pos)
        indptr, nbr, nd = _geometric_edges(pos, float(max_range))
        return cls(n, indptr, nbr, nd, source, members)

    # ------------------------------------------------------------------
    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, nbr, dist)`` for the array engine's :class:`EdgeCsr`."""
        return self._indptr, self._nbr, self._ndist

    # ------------------------------------------------------------------
    # Query overrides that would otherwise touch the dense matrix rowwise
    # ------------------------------------------------------------------
    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return u != v and math.isfinite(self.dist[u, v])

    def neighbor_distances(self, v: NodeId) -> List[Tuple[NodeId, float]]:
        i0, i1 = int(self._indptr[v]), int(self._indptr[v + 1])
        return [
            (int(u), float(d))
            for u, d in zip(self._nbr[i0:i1], self._ndist[i0:i1])
        ]

    def _build_dist_rows(self) -> List[Dict[NodeId, float]]:
        nbr, nd, ptr = self._nbr.tolist(), self._ndist.tolist(), self._indptr.tolist()
        return [
            dict(zip(nbr[ptr[v]:ptr[v + 1]], nd[ptr[v]:ptr[v + 1]]))
            for v in range(self.n)
        ]

    def neighbors_within(self, v: NodeId, radius: float) -> List[NodeId]:
        i0, i1 = int(self._indptr[v]), int(self._indptr[v + 1])
        key = radius + 1e-12
        return [
            int(u)
            for u, d in zip(self._nbr[i0:i1], self._ndist[i0:i1])
            if d <= key
        ]

    def count_within(self, v: NodeId, radius: float) -> int:
        i0, i1 = int(self._indptr[v]), int(self._indptr[v + 1])
        return int(
            np.searchsorted(self._sdist[i0:i1], radius + 1e-12, side="right")
        )

    def to_networkx(self) -> "object":
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for v in range(self.n):
            i0, i1 = int(self._indptr[v]), int(self._indptr[v + 1])
            for u, d in zip(self._nbr[i0:i1], self._ndist[i0:i1]):
                if int(u) > v:
                    g.add_edge(v, int(u), weight=float(d))
        return g

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SparseTopology(n={self.n}, edges={len(self._nbr) // 2}, "
            f"source={self.source}, members={len(self.members)})"
        )
