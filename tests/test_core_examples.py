"""Reproduction tests for the paper's worked examples (Figures 1-6).

The exactly derivable facts (hop and T trees, round ordering, Figure-5
steering, cost dominance of the E tree) are asserted; EXPERIMENTS.md
documents why the F/E example trees of Figures 4/6 are validated through
their qualitative claims rather than an edge-for-edge match.
"""

import pytest

from repro.core import (
    RoundEngine,
    fresh_states,
    is_legitimate,
    metric_by_name,
)
from repro.core.examples import (
    EXAMPLE_RADIO,
    FIGURE1_EDGES,
    FIGURE1_MEMBERS,
    FIGURE2_HOP_PARENTS,
    FIGURE3_TX_PARENTS,
    figure1_topology,
    figure5_topology,
)
from repro.core.metrics import METRIC_NAMES, EnergyAwareMetric
from repro.experiments.paper_examples import optimality_gap


@pytest.fixture(scope="module")
def topo():
    return figure1_topology()


@pytest.fixture(scope="module")
def results(topo):
    out = {}
    for name in METRIC_NAMES:
        m = metric_by_name(name, EXAMPLE_RADIO)
        res = RoundEngine(topo, m, daemon="synchronous").run(fresh_states(topo, m))
        out[name] = (m, res)
    return out


class TestTopologyReconstruction:
    def test_all_13_weights_used(self):
        assert len(FIGURE1_EDGES) == 13
        weights = sorted(FIGURE1_EDGES.values())
        assert weights == sorted(
            [120.10, 120.06, 120.56, 120.45, 120.34, 200.03, 120.02,
             75.37, 75.27, 120.04, 120.36, 75.48, 75.49]
        )

    def test_connected_with_10_nodes(self, topo):
        assert topo.n == 10
        assert topo.is_connected()

    def test_group_composition(self, topo):
        assert set(FIGURE1_MEMBERS) == set(topo.members)
        assert topo.non_members == {4, 6, 8, 9}


class TestExample1SSspst:
    def test_hop_tree_matches_figure2(self, topo, results):
        _, res = results["hop"]
        assert res.converged
        assert [s.parent for s in res.states] == FIGURE2_HOP_PARENTS

    def test_three_rounds_as_in_paper(self, results):
        """Example 1: 'SS-SPST protocol takes 3 rounds to stabilize'."""
        _, res = results["hop"]
        assert res.rounds == 3


class TestExample2SSspstT:
    def test_tx_tree_matches_figure3(self, topo, results):
        _, res = results["tx"]
        assert res.converged
        assert [s.parent for s in res.states] == FIGURE3_TX_PARENTS

    def test_node3_relays_through_node7(self, results):
        """'It is more energy efficient if node 3 makes node 7 its parent
        instead of node 0' (Example 2)."""
        _, res = results["tx"]
        assert res.states[3].parent == 7


class TestExample3SSspstF:
    def test_f_converges(self, results):
        _, res = results["farthest"]
        assert res.converged

    def test_f_takes_more_rounds_than_hop(self, results):
        """The paper's narrative: metric refinement costs extra rounds
        (hop: 3, T: 4, F: 5 in the paper's counting)."""
        assert results["farthest"][1].rounds >= results["hop"][1].rounds

    def test_f_is_discard_blind(self, topo, results):
        """F picks the costliest-child-optimal tree regardless of
        overhearing: its discard energy exceeds the E tree's."""
        em = metric_by_name("energy", EXAMPLE_RADIO)
        f_tree = results["farthest"][1].tree(topo)
        e_tree = results["energy"][1].tree(topo)
        assert em.tree_discard_cost(topo, f_tree) > em.tree_discard_cost(topo, e_tree)


class TestExample5SSspstE:
    def test_e_converges_and_legitimate(self, topo, results):
        m, res = results["energy"]
        assert res.converged
        assert is_legitimate(topo, m, res.states)

    def test_members_route_around_node4(self, topo, results):
        """Example 5: 'it will be better for nodes 5 and 3 to join node 6
        instead of node 4' — node 4's transmissions would be overheard by
        the non-group nodes 8 and 9."""
        _, res = results["energy"]
        assert res.states[5].parent == 6
        assert res.states[3].parent == 6

    def test_node4_transmits_no_data(self, topo, results):
        """With 5 and 3 gone, node 4's children are only the non-members
        8, 9: the branch is pruned and node 4 goes silent."""
        _, res = results["energy"]
        tree = res.tree(topo)
        assert 4 not in tree.forwarding_nodes()
        assert tree.data_tx_radius(4) == 0.0

    def test_e_tree_cheapest_under_e_metric(self, topo, results):
        em = metric_by_name("energy", EXAMPLE_RADIO)
        e_cost = em.tree_cost(topo, results["energy"][1].tree(topo))
        for other in ("hop", "tx", "farthest"):
            other_cost = em.tree_cost(topo, results[other][1].tree(topo))
            assert e_cost <= other_cost + 1e-15, other

    def test_stabilization_round_ordering(self, results):
        """Paper ordering: hop (3) <= T (4) <= F (5) = E (5).  Our executor
        reproduces the ordering though absolute counts differ by one for
        the richer metrics (see EXPERIMENTS.md)."""
        r = {k: res.rounds for k, (_, res) in results.items()}
        assert r["hop"] <= r["tx"] <= r["farthest"]
        assert r["energy"] >= r["tx"]

    def test_e_min_gap(self):
        """The distributed fixpoint must be within 25% of the global
        optimum on the worked example (it is exactly optimal in our
        reconstruction)."""
        gap = optimality_gap()
        assert gap["ratio"] <= 1.25


class TestFigure5:
    def test_only_e_avoids_the_noisy_parent(self):
        topo5 = figure5_topology()
        parents = {}
        for name in METRIC_NAMES:
            m = metric_by_name(name, EXAMPLE_RADIO)
            res = RoundEngine(topo5, m, daemon="synchronous").run(
                fresh_states(topo5, m)
            )
            assert res.converged
            parents[name] = res.states[3].parent
        # X (node 3) equidistant from 1 and 2; only E sees the three
        # non-group overhearers around 1.
        assert parents["energy"] == 2
        assert parents["hop"] == 1  # id tie-break
        assert parents["tx"] == 1
        assert parents["farthest"] == 1

    def test_non_group_nodes_attach_somewhere(self):
        topo5 = figure5_topology()
        m = metric_by_name("energy", EXAMPLE_RADIO)
        res = RoundEngine(topo5, m, daemon="synchronous").run(fresh_states(topo5, m))
        tree = res.tree(topo5)
        assert tree.spans_all()  # NG nodes join the spanning tree too
