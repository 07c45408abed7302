#!/usr/bin/env python
"""Self-stabilization from arbitrary corruption — the Dijkstra story.

Starts the SS-SPST-E round model from a *deliberately corrupted* global
state (random parent cycles, garbage costs and hop counts), shows the
per-round total-cost trajectory as the system heals itself (Lemma 1),
verifies closure (Lemma 2) and loop freedom (Lemma 3), then injects a
topology fault (edge removal) and watches it re-stabilize.

Usage::

    python examples/self_stabilization_demo.py [seed]
"""

import sys

import numpy as np

from repro.core import (
    RoundEngine,
    arbitrary_states,
    check_closure,
    check_loop_freedom,
    is_legitimate,
    metric_by_name,
)
from repro.core.examples import EXAMPLE_RADIO
from repro.graph import Topology


def make_topology(rng) -> Topology:
    while True:
        n = 24
        pos = rng.random((n, 2)) * 450.0
        members = [int(x) for x in rng.choice(n, size=8, replace=False)]
        topo = Topology.from_positions(pos, 250.0, source=0, members=members)
        if topo.is_connected():
            return topo


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    rng = np.random.default_rng(seed)
    topo = make_topology(rng)
    metric = metric_by_name("energy", EXAMPLE_RADIO)
    executor = RoundEngine(
        topo, metric, daemon="randomized", rng=np.random.default_rng(seed + 1)
    )

    print(f"topology: {topo.n} nodes, members {sorted(topo.members)}")
    corrupted = arbitrary_states(topo, metric, rng)
    print(f"initial state legitimate? {is_legitimate(topo, metric, corrupted)}")

    result = executor.run(corrupted, max_rounds=300)
    print(f"\nconverged in {result.rounds} rounds; cost trajectory (J/bit x 1e6):")
    for i, c in enumerate(result.cost_history[: result.rounds + 1]):
        bar = "#" * max(1, int(40 * c / max(result.cost_history)))
        print(f"  round {i:2d}: {c*1e6:12.3f}  {bar}")

    print(f"\nLemma 2 (closure) : {check_closure(topo, metric, executor, result.states).holds}")
    print(f"Lemma 3 (no loops): {check_loop_freedom(topo, result.states).holds}")

    # Inject a fault: remove the tree edge closest to the source.
    tree = result.tree(topo)
    edge = tree.edges()[0]
    print(f"\ninjecting fault: removing edge {edge}")
    dist2 = topo.dist.copy()
    dist2[edge[0], edge[1]] = dist2[edge[1], edge[0]] = np.inf
    topo2 = Topology(dist2, topo.source, topo.members)
    executor2 = RoundEngine(
        topo2, metric, daemon="randomized", rng=np.random.default_rng(seed + 2)
    )
    result2 = executor2.run(list(result.states), max_rounds=300)
    print(f"re-stabilized in {result2.rounds} rounds; "
          f"legitimate={is_legitimate(topo2, metric, result2.states)}")


if __name__ == "__main__":
    main()
