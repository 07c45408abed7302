"""Ablation: how close does distributed SS-SPST-E get to the true E_min?

Compares the stabilized tree's E-metric cost against the exhaustive
optimum on small random graphs and against the BIP/MIP and local-search
heuristics at evaluation scale.
"""

import numpy as np

from repro.core import RoundEngine, fresh_states
from repro.core.examples import EXAMPLE_RADIO
from repro.core.metrics import EnergyAwareMetric
from repro.graph import (
    Topology,
    bip_tree,
    exhaustive_min_energy_tree,
    local_search_min_energy_tree,
)


def _small_graphs(count=5, n=7):
    out = []
    rng = np.random.default_rng(7)
    while len(out) < count:
        pos = rng.random((n, 2)) * 260.0
        members = [int(x) for x in rng.choice(n, size=3, replace=False)]
        topo = Topology.from_positions(pos, 250.0, source=0, members=members)
        if topo.is_connected():
            out.append(topo)
    return out


def _gap_study():
    ratios = []
    for i, topo in enumerate(_small_graphs()):
        metric = EnergyAwareMetric(EXAMPLE_RADIO)
        res = RoundEngine(
            topo, metric, daemon="randomized", rng=np.random.default_rng(i)
        ).run(fresh_states(topo, metric), max_rounds=300)
        if not res.converged:
            continue
        cost = metric.tree_cost(topo, res.tree(topo))
        _, best = exhaustive_min_energy_tree(topo, metric, max_trees=500_000)
        ratios.append(cost / best if best > 0 else 1.0)
    return ratios


def test_distributed_vs_exhaustive(benchmark):
    ratios = benchmark.pedantic(_gap_study, rounds=1, iterations=1)
    print(f"\nE_min ratios (stabilized/optimal): {[f'{r:.3f}' for r in ratios]}")
    assert ratios, "no graph converged"
    assert all(r >= 1.0 - 1e-9 for r in ratios)  # optimum is a lower bound
    assert float(np.mean(ratios)) <= 1.35  # greedy fixpoints stay close


def test_vs_heuristics(benchmark):
    """SS-SPST-E vs centralized BIP and local search at 30 nodes."""
    rng = np.random.default_rng(11)
    while True:
        pos = rng.random((30, 2)) * 600.0
        members = [int(x) for x in rng.choice(30, size=10, replace=False)]
        topo = Topology.from_positions(pos, 250.0, source=0, members=members)
        if topo.is_connected():
            break
    metric = EnergyAwareMetric(EXAMPLE_RADIO)

    def _all():
        res = RoundEngine(
            topo, metric, daemon="randomized", rng=np.random.default_rng(0)
        ).run(fresh_states(topo, metric), max_rounds=400)
        ss = metric.tree_cost(topo, res.tree(topo)) if res.converged else float("inf")
        bip = metric.tree_cost(topo, bip_tree(topo, EXAMPLE_RADIO))
        _, ls = local_search_min_energy_tree(topo, metric)
        return ss, bip, ls

    ss, bip, ls = benchmark.pedantic(_all, rounds=1, iterations=1)
    print(f"\nSS-SPST-E={ss*1e9:.1f}  BIP={bip*1e9:.1f}  local-search={ls*1e9:.1f} nJ/bit")
    # The distributed protocol should be comparable to (or beat) BIP under
    # the E objective, since BIP ignores overhearing.
    assert ss <= bip * 1.5
