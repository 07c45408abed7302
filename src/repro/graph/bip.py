"""BIP / MIP reference tree constructions (Wieselthier et al., INFOCOM'00).

The paper cites BIP/MIP as the classical centralized heuristics for
energy-efficient broadcast/multicast trees; we implement them as a
reference point for the paper-claim tests (how close does distributed,
self-stabilizing SS-SPST-E come to a centralized construction?).

* **BIP** (Broadcast Incremental Power): grow a broadcast tree from the
  source, always adding the uncovered node with minimum *incremental*
  transmit power — exploiting the wireless multicast advantage (raising an
  existing transmitter's power only costs the difference).
* **MIP** (Multicast Incremental Power): build BIP, then prune branches
  with no group member (the "sweep" step of the original paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.energy.radio import RadioModel
from repro.graph.topology import Topology
from repro.graph.tree import TreeAssignment
from repro.util.ids import NodeId


def bip_tree(topo: Topology, radio: RadioModel) -> TreeAssignment:
    """Broadcast Incremental Power spanning tree rooted at the source."""
    n = topo.n
    parents: List[Optional[NodeId]] = [None] * n
    in_tree = [False] * n
    in_tree[topo.source] = True
    radius = [0.0] * n  # current power-controlled radius of each tree node

    for _ in range(n - 1):
        best = None  # (incremental_cost, tie_id, parent, child, new_radius)
        for u in range(n):
            if not in_tree[u]:
                continue
            for v in topo.neighbors(u):
                if in_tree[v]:
                    continue
                d = float(topo.dist[u, v])
                inc = radio.tx_cost_per_bit(d) - (
                    radio.tx_cost_per_bit(radius[u]) if radius[u] > 0 else 0.0
                )
                inc = max(inc, 0.0)
                key = (inc, v, u)
                if best is None or key < best[:3]:
                    best = (inc, v, u, d)
        if best is None:
            break  # disconnected remainder
        _, v, u, d = best
        parents[v] = u
        in_tree[v] = True
        radius[u] = max(radius[u], d)
    return TreeAssignment(topo, parents)


def mip_tree(topo: Topology, radio: RadioModel) -> TreeAssignment:
    """Multicast Incremental Power: BIP followed by non-member pruning.

    Nodes pruned from the data tree keep their parent pointers (they still
    belong to the spanning structure, as in SS-SPST's logical pruning), but
    the returned assignment drops subtrees that contain no member *and*
    hang below a member-free branch — matching MIP's sweep, which removes
    them from the transmission schedule entirely.
    """
    base = bip_tree(topo, radio)
    flags = base.flags()
    parents: List[Optional[NodeId]] = list(base.parents)
    for v in range(topo.n):
        if not flags[v] and parents[v] is not None:
            # Member-free subtree roots are detached from the data tree.
            parent = parents[v]
            if parent is not None and not flags[v]:
                parents[v] = None if v != topo.source else None
    # Re-validate: detached nodes are simply disconnected in the result.
    return TreeAssignment(topo, parents)
