"""Tests for round-model fault injection."""

import numpy as np
import pytest

from repro.core import (
    RoundEngine,
    fresh_states,
    is_legitimate,
    metric_by_name,
)
from repro.core.examples import EXAMPLE_RADIO, figure1_topology
from repro.core.faults import EdgeFault, NodeCrash, run_with_faults


@pytest.fixture
def topo():
    return figure1_topology()


def hop_executor_factory(topo):
    m = metric_by_name("hop", EXAMPLE_RADIO)
    return RoundEngine(topo, m, daemon="central")


class TestEdgeFault:
    def test_removal(self, topo):
        t2 = EdgeFault(0, 3).apply(topo)
        assert not t2.has_edge(0, 3)
        assert topo.has_edge(0, 3)  # original untouched

    def test_addition(self, topo):
        t2 = EdgeFault(1, 7, add=True, distance=90.0).apply(topo)
        assert t2.has_edge(1, 7)
        assert t2.dist[1, 7] == 90.0

    def test_addition_requires_distance(self, topo):
        with pytest.raises(ValueError):
            EdgeFault(1, 7, add=True).apply(topo)


class TestNodeCrash:
    def test_crash_isolates_node(self, topo):
        t2 = NodeCrash(4).apply(topo)
        assert t2.degree(4) == 0
        # Nodes 8, 9 only connected through 4: now unreachable.
        assert not t2.is_connected()

    def test_source_crash_rejected(self, topo):
        with pytest.raises(ValueError):
            NodeCrash(topo.source).apply(topo)


class TestRunWithFaults:
    def test_recovers_from_edge_removal(self, topo):
        m = metric_by_name("hop", EXAMPLE_RADIO)
        result = run_with_faults(
            topo,
            hop_executor_factory,
            fresh_states(topo, m),
            faults=[EdgeFault(0, 3)],  # node 3 loses its direct link
        )
        assert result.all_converged
        rec = result.recoveries[0]
        assert rec.rounds_to_restabilize >= 1  # 3 must re-route (via 7 or 4)
        assert is_legitimate(result.final_topology, m, result.final_states)

    def test_multiple_sequential_faults(self, topo):
        m = metric_by_name("hop", EXAMPLE_RADIO)
        result = run_with_faults(
            topo,
            hop_executor_factory,
            fresh_states(topo, m),
            faults=[EdgeFault(0, 3), EdgeFault(7, 3), NodeCrash(4)],
        )
        assert result.all_converged
        assert len(result.recoveries) == 3
        # After crashing node 4, members 8/9-side topology is partitioned;
        # node 3 lost every path shown and must sit at OC_max or re-route
        # through 6 — either way the state is legitimate for the topology.
        assert is_legitimate(result.final_topology, m, result.final_states)

    def test_edge_addition_can_improve_tree(self, topo):
        """Closure is about faults; an *improvement* opportunity (new
        short edge to the source) must also be adopted."""
        m = metric_by_name("tx", EXAMPLE_RADIO)

        def factory(t):
            return RoundEngine(t, m, daemon="central")

        result = run_with_faults(
            topo,
            factory,
            fresh_states(topo, m),
            faults=[EdgeFault(0, 4, add=True, distance=40.0)],
        )
        assert result.all_converged
        # Node 4 now adopts the source directly (40 m beats any relay).
        assert result.final_states[4].parent == 0

    def test_no_faults_is_plain_stabilization(self, topo):
        m = metric_by_name("hop", EXAMPLE_RADIO)
        result = run_with_faults(
            topo, hop_executor_factory, fresh_states(topo, m), faults=[]
        )
        # The central daemon propagates within a round (id order), so it
        # needs fewer rounds than the synchronous executor's 3.
        assert 1 <= result.initial_rounds <= 3
        assert result.recoveries == []
        assert result.max_recovery_rounds == 0
