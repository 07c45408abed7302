"""Mobility analysis: the fault process behind the protocol dynamics.

The paper's explanations lean on a causal chain — *speed -> topology-change
(fault) rate -> stabilization lag -> PDR/energy* — without measuring the
middle link.  These helpers quantify it: given any mobility model, they
sample the unit-disk neighbor graph over time and count link births/deaths
(the "faults" self-stabilization must absorb).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mobility.base import MobilityModel
from repro.util.geometry import pairwise_distances


@dataclass(frozen=True)
class LinkChurnStats:
    """Link-event statistics over an observation window."""

    duration: float
    link_breaks: int
    link_births: int
    mean_degree: float
    samples: int

    @property
    def break_rate(self) -> float:
        """Link breaks per second — the paper's 'fault rate'."""
        return self.link_breaks / self.duration if self.duration > 0 else 0.0

    @property
    def event_rate(self) -> float:
        """All link events per second."""
        return (self.link_breaks + self.link_births) / self.duration if self.duration else 0.0


@dataclass(frozen=True)
class MobilityProfile:
    """Link churn and partitioning over one sample grid (the per-run
    fault-process diagnostics the DES backend reports).

    ``partition_fraction`` is the fraction of samples where the unit-disk
    graph is disconnected: a structural ceiling on any protocol's PDR,
    since packets cannot cross a partition regardless of routing.
    """

    churn: LinkChurnStats
    partition_fraction: float


def mobility_profile(
    mobility: MobilityModel,
    max_range: float,
    duration: float,
    dt: float = 1.0,
    t0: float = 0.0,
) -> MobilityProfile:
    """Sample the adjacency every ``dt`` and derive churn (link
    transitions) *and* partition statistics in one pass.

    Mobility models advance lazily and reject backwards queries, so
    computing churn and partitioning separately would need two model
    instances; this single pass is what the experiment runner uses to
    attach fault-process diagnostics to every DES run.
    """
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
    times = np.arange(t0, t0 + duration + 1e-9, dt)
    upper = np.triu_indices(mobility.n, k=1)
    prev = None
    breaks = births = disconnected = 0
    degrees = []
    for t in times:
        pos = mobility.positions(float(t))
        d = pairwise_distances(pos)
        adj = (d <= max_range) & (d > 0.0)
        degrees.append(adj.sum(axis=1).mean())
        if prev is not None:
            a, p = adj[upper], prev[upper]
            breaks += int(np.count_nonzero(p & ~a))
            births += int(np.count_nonzero(~p & a))
        prev = adj
        if not _connected(adj):
            disconnected += 1
    return MobilityProfile(
        churn=LinkChurnStats(
            duration=float(times[-1] - times[0]),
            link_breaks=breaks,
            link_births=births,
            mean_degree=float(np.mean(degrees)),
            samples=len(times),
        ),
        partition_fraction=disconnected / len(times),
    )


def _connected(adj: np.ndarray) -> bool:
    """Reachability of every node from node 0 in a boolean adjacency:
    one frontier expansion (breadth-first level) per pass."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())
