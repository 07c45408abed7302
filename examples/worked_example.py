#!/usr/bin/env python
"""The paper's worked example (Figures 1-6) in the round model.

Stabilizes the reconstructed 10-node topology under all four cost metrics
(SS-SPST / -T / -F / -E), prints the resulting trees, round counts, and
energy accounting, then demonstrates the Figure-5 discard-energy steering
and the comparison against the exhaustive minimum-energy tree.

Usage::

    python examples/worked_example.py
"""

from repro.core import RoundEngine, fresh_states, metric_by_name
from repro.core.examples import EXAMPLE_RADIO, figure1_topology
from repro.core.metrics import METRIC_NAMES, PROTOCOL_LABELS, EnergyAwareMetric
from repro.experiments.paper_examples import format_examples_report


def render_tree(parents, members) -> str:
    """Draw parent pointers as an indented forest."""
    children = {}
    for v, p in enumerate(parents):
        children.setdefault(p, []).append(v)

    lines = []

    def walk(v, depth):
        tag = "*" if v in members else " "
        lines.append("  " * depth + f"{tag}{v}")
        for c in children.get(v, []):
            walk(c, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)


def main() -> None:
    topo = figure1_topology()
    print("Topology: 10 nodes, 13 edges (Figure 1 reconstruction)")
    print(f"group members (*): {sorted(topo.members)}\n")

    e_metric = EnergyAwareMetric(EXAMPLE_RADIO)
    for name in METRIC_NAMES:
        metric = metric_by_name(name, EXAMPLE_RADIO)
        res = RoundEngine(topo, metric, daemon="synchronous").run(
            fresh_states(topo, metric)
        )
        tree = res.tree(topo)
        print(f"--- {PROTOCOL_LABELS[name]} "
              f"(stabilized in {res.rounds} rounds)")
        print(render_tree([s.parent for s in res.states], topo.members))
        print(f"    E-metric tree cost : {e_metric.tree_cost(topo, tree)*1e9:8.1f} nJ/bit")
        print(f"    discard component  : {e_metric.tree_discard_cost(topo, tree)*1e9:8.1f} nJ/bit")
        print(f"    forwarding nodes   : {sorted(tree.forwarding_nodes())}\n")

    print(format_examples_report())


if __name__ == "__main__":
    main()
