"""Runner for the paper's worked examples (Figures 1-6, Examples 1-5).

Executes the round model on the reconstructed Figure-1 topology for all
four metrics and on the Figure-5 discard example, and reports stabilized
trees, round counts, per-metric tree costs and the comparison against the
exhaustive optimum — the static-analysis counterpart of the DES figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core import RoundEngine, fresh_states, metric_by_name
from repro.core.examples import EXAMPLE_RADIO, figure1_topology, figure5_topology
from repro.core.metrics import METRIC_NAMES, PROTOCOL_LABELS, EnergyAwareMetric
from repro.graph import exhaustive_min_energy_tree
from repro.graph.tree import TreeAssignment


@dataclass
class ExampleOutcome:
    """Result of stabilizing one metric on the worked example."""

    metric: str
    label: str
    rounds: int
    converged: bool
    parents: List[Optional[int]]
    e_cost: float  # tree cost under the E metric (nJ/bit)
    e_discard: float  # discard component (nJ/bit)
    forwarding: List[int]


def run_figure1_examples() -> Dict[str, ExampleOutcome]:
    """Stabilize the Figure-1 topology under every metric."""
    topo = figure1_topology()
    e_metric = EnergyAwareMetric(EXAMPLE_RADIO)
    out: Dict[str, ExampleOutcome] = {}
    for name in METRIC_NAMES:
        metric = metric_by_name(name, EXAMPLE_RADIO)
        res = RoundEngine(topo, metric, daemon="synchronous").run(
            fresh_states(topo, metric)
        )
        tree = res.tree(topo)
        out[name] = ExampleOutcome(
            metric=name,
            label=PROTOCOL_LABELS[name],
            rounds=res.rounds,
            converged=res.converged,
            parents=[s.parent for s in res.states],
            e_cost=e_metric.tree_cost(topo, tree) * 1e9,
            e_discard=e_metric.tree_discard_cost(topo, tree) * 1e9,
            forwarding=sorted(tree.forwarding_nodes()),
        )
    return out


def run_figure5_example() -> Dict[str, Optional[int]]:
    """X's chosen parent under each metric on the Figure-5 topology."""
    topo = figure5_topology()
    parents: Dict[str, Optional[int]] = {}
    for name in METRIC_NAMES:
        metric = metric_by_name(name, EXAMPLE_RADIO)
        res = RoundEngine(topo, metric, daemon="synchronous").run(
            fresh_states(topo, metric)
        )
        parents[name] = res.states[3].parent
    return parents


def optimality_gap() -> Dict[str, float]:
    """SS-SPST-E fixpoint cost vs. the exhaustive E_min on the example.

    Returns the stabilized E-tree cost, the exhaustive optimum, and their
    ratio (1.0 = the distributed protocol found the global optimum).
    """
    topo = figure1_topology()
    metric = EnergyAwareMetric(EXAMPLE_RADIO)
    res = RoundEngine(topo, metric, daemon="synchronous").run(
        fresh_states(topo, metric)
    )
    tree_cost = metric.tree_cost(topo, res.tree(topo))
    _, best_cost = exhaustive_min_energy_tree(topo, metric)
    return {
        "stabilized_nj": tree_cost * 1e9,
        "optimal_nj": best_cost * 1e9,
        "ratio": tree_cost / best_cost if best_cost else float("inf"),
    }


def format_examples_report(outcomes: Dict[str, ExampleOutcome]) -> str:
    """One printable report covering Examples 1-5, given the Figure-1
    stabilizations of :func:`run_figure1_examples`."""
    lines = ["# Worked example (Figures 1-6) — round model"]
    for oc in outcomes.values():
        lines.append(
            f"{oc.label:11s} rounds={oc.rounds} converged={oc.converged} "
            f"E-cost={oc.e_cost:8.1f} nJ/bit discard={oc.e_discard:6.1f} "
            f"forwarders={oc.forwarding}"
        )
        lines.append(f"{'':11s} parents={oc.parents}")
    lines.append("# Figure 5 — X's parent under each metric")
    for name, parent in run_figure5_example().items():
        lines.append(f"{PROTOCOL_LABELS[name]:11s} X -> {parent}")
    gap = optimality_gap()
    lines.append(
        f"# E_min gap: stabilized {gap['stabilized_nj']:.1f} vs optimal "
        f"{gap['optimal_nj']:.1f} nJ/bit (ratio {gap['ratio']:.3f})"
    )
    return "\n".join(lines)
