#!/usr/bin/env python
"""The paper's worked example (Figures 1-6) in the round model.

Stabilizes the reconstructed 10-node topology under all four cost metrics
(SS-SPST / -T / -F / -E), prints the resulting trees, round counts, and
energy accounting, then demonstrates the Figure-5 discard-energy steering
and the comparison against the exhaustive minimum-energy tree.

Usage::

    python examples/worked_example.py
"""

from repro.core.examples import figure1_topology
from repro.experiments.paper_examples import (
    format_examples_report,
    run_figure1_examples,
)


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

    outcomes = run_figure1_examples()
    for oc in outcomes.values():
        print(f"--- {oc.label} (stabilized in {oc.rounds} rounds)")
        print(render_tree(oc.parents, topo.members))
        print(f"    E-metric tree cost : {oc.e_cost:8.1f} nJ/bit")
        print(f"    discard component  : {oc.e_discard:8.1f} nJ/bit")
        print(f"    forwarding nodes   : {oc.forwarding}\n")

    print(format_examples_report(outcomes))


if __name__ == "__main__":
    main()
