"""Reconstructions of the paper's worked examples.

**Figure 1 topology** (Examples 1-5).  The paper gives the 13 edge
*distances* of the 10-node example but not the adjacency, which must be
reconstructed from the narrative.  The reconstruction below is the unique
assignment we found consistent with the derivable behaviour:

* SS-SPST (Figure 2): node 3 attaches directly to the source over the long
  200.03 m edge (hop count wins), tree stabilizes top-down;
* SS-SPST-T (Figure 3): node 3 relays through node 7 (75.37 m) because the
  summed link energy beats one 200 m hop, and node 5 stays on node 4;
* SS-SPST-F (Example 3): node 3 is drawn toward node 4, whose radius is
  already stretched by node 5 (the incremental "costliest child" cost of
  joining 4 is just a reception);
* SS-SPST-E (Example 5 / Figure 6): node 4's surroundings (non-group
  nodes 8, 9 plus its parent) make transmitting from 4 expensive in discard
  energy, pushing members 5 and 3 toward node 6.

The printed edge weights of Figures 3/4/6 are mutually inconsistent under
any first-order radio constants (see docs/deviations.md, "Worked
examples"), so the F/E examples are validated by their *qualitative*
claims rather than an exact tree match; the hop and T trees are validated
exactly.

**Figure 5 topology**: the fully specified discard-energy example — node X
must choose between two parents with identical path costs, one of which has
three non-group neighbors that would overhear every transmission.
SS-SPST-E picks the quiet parent; every other metric is indifferent (and
falls to the id tie-break).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.energy.radio import FirstOrderRadioModel
from repro.graph.topology import Topology

#: radio used by the worked examples: first-order constants with a
#: reception cost high enough for overhearing to matter (real 802.11-era
#: radios receive at a large fraction of transmit power).
EXAMPLE_RADIO = FirstOrderRadioModel(
    e_elec=50e-9,
    e_rx=200e-9,
    eps_amp=100e-12,
    alpha=2.0,
    max_range=250.0,
    d_floor=1.0,
)

#: Figure 1 edge distances (metres), reconstructed adjacency.
FIGURE1_EDGES: Dict[Tuple[int, int], float] = {
    (0, 1): 120.10,
    (0, 7): 120.06,
    (0, 2): 120.04,
    (0, 3): 200.03,
    (0, 6): 120.02,
    (7, 4): 75.27,
    (7, 3): 75.37,
    (3, 4): 120.34,
    (3, 6): 120.56,
    (4, 5): 120.45,
    (4, 8): 75.48,
    (4, 9): 75.49,
    (5, 6): 120.36,
}

#: multicast group of the worked example: source 0 plus member nodes;
#: 4 and 6 are relays, 8 and 9 are the overhearing non-group nodes.
FIGURE1_MEMBERS = (0, 1, 2, 3, 5, 7)


def figure1_topology() -> Topology:
    """The 10-node worked example of Figures 1-6."""
    return Topology.from_edges(10, FIGURE1_EDGES, source=0, members=FIGURE1_MEMBERS)


#: Exact trees derivable from the narrative (parent of node i at index i).
#: Deviations from the printed figures are discussed in docs/deviations.md:
#: the published edge lists of Figures 2-4 are mutually inconsistent with
#: Figure 6 under any superlinear radio model, and node 5's parent (4 in
#: the printed trees) resolves to its strictly closer neighbor 6 here.
FIGURE2_HOP_PARENTS = [None, 0, 0, 0, 7, 6, 0, 0, 4, 4]
FIGURE3_TX_PARENTS = [None, 0, 0, 7, 7, 6, 0, 0, 4, 4]


def figure5_topology() -> Topology:
    """The Figure-5 discard-energy example.

    Node ids: 0 = root R, 1 and 2 = candidate parents, 3 = joining node X,
    4-6 = non-group neighbors of node 1.  Both candidate parents are 100 m
    from the root and 100 m from X; the non-group nodes sit 60-80 m from
    node 1, inside any transmission that reaches X.
    """
    edges = {
        (0, 1): 100.0,
        (0, 2): 100.0,
        (1, 3): 100.0,
        (2, 3): 100.0,
        (1, 4): 60.0,
        (1, 5): 70.0,
        (1, 6): 80.0,
    }
    return Topology.from_edges(7, edges, source=0, members=(0, 3))
