"""Tests for the update rule, executors, legitimacy and lemma checkers."""

import numpy as np
import pytest

from repro.core import (
    GlobalView,
    NodeState,
    RoundEngine,
    arbitrary_states,
    check_closure,
    check_convergence,
    check_loop_freedom,
    compute_update,
    extract_tree,
    fresh_states,
    guard_violated,
    is_legitimate,
    metric_by_name,
)
from repro.core.convergence import cost_monotone_after_join
from repro.core.examples import EXAMPLE_RADIO, figure1_topology
from repro.core.metrics import METRIC_NAMES
from repro.graph import Topology


@pytest.fixture
def topo():
    return figure1_topology()


def line(n, spacing=100.0, members=None):
    edges = {(i, i + 1): spacing for i in range(n - 1)}
    return Topology.from_edges(
        n, edges, source=0, members=members if members is not None else range(n)
    )


class TestRule:
    def test_root_state_constant(self, topo):
        m = metric_by_name("hop", EXAMPLE_RADIO)
        states = arbitrary_states(topo, m, np.random.default_rng(0))
        view = GlobalView(topo, states)
        assert compute_update(topo, m, view, topo.source) == NodeState(None, 0.0, 0)

    def test_disconnected_when_no_candidates(self):
        t = line(3)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        # Everyone disconnected: node 2's only neighbor (1) has hop == H_max.
        states = fresh_states(t, m)
        view = GlobalView(t, states)
        ns = compute_update(t, m, view, 2)
        assert ns.parent is None
        assert ns.cost == m.infinity(t)
        assert ns.hop == t.n

    def test_joins_root_neighbor_first(self):
        t = line(3)
        m = metric_by_name("hop", EXAMPLE_RADIO)
        view = GlobalView(t, fresh_states(t, m))
        ns = compute_update(t, m, view, 1)
        assert ns.parent == 0 and ns.hop == 1 and ns.cost == 1.0

    def test_incumbent_preferred_on_tie(self):
        """Two equidistant parents: the current one wins (hysteresis)."""
        edges = {(0, 1): 100.0, (0, 2): 100.0, (1, 3): 80.0, (2, 3): 80.0}
        t = Topology.from_edges(4, edges, source=0, members=range(4))
        m = metric_by_name("hop", EXAMPLE_RADIO)
        states = [
            NodeState(None, 0.0, 0),
            NodeState(0, 1.0, 1),
            NodeState(0, 1.0, 1),
            NodeState(2, 2.0, 2),  # currently on the higher-id parent
        ]
        view = GlobalView(t, states)
        assert compute_update(t, m, view, 3).parent == 2

    def test_guard_violated(self, topo):
        m = metric_by_name("hop", EXAMPLE_RADIO)
        states = fresh_states(topo, m)
        view = GlobalView(topo, states)
        assert guard_violated(topo, m, view, 1)  # should join the root
        assert not guard_violated(topo, m, view, topo.source)


class TestExecutors:
    @pytest.mark.parametrize("name", ["hop", "tx"])
    @pytest.mark.parametrize("daemon", ["synchronous", "central"])
    def test_convergence_fresh(self, topo, name, daemon):
        m = metric_by_name(name, EXAMPLE_RADIO)
        res = RoundEngine(topo, m, daemon=daemon).run(fresh_states(topo, m))
        assert res.converged
        assert is_legitimate(topo, m, res.states)
        assert res.tree(topo).spans_all()

    def test_sync_hop_stabilizes_level_by_level(self):
        """On a line of n nodes, sync hop stabilization takes n-1 rounds
        (the paper: 'first round stabilizes the root followed by
        consecutive levels in the next rounds')."""
        for n in (3, 5, 8):
            t = line(n)
            m = metric_by_name("hop", EXAMPLE_RADIO)
            res = RoundEngine(t, m, daemon="synchronous").run(fresh_states(t, m))
            assert res.converged
            assert res.rounds == n - 1

    def test_moves_counted(self, topo):
        m = metric_by_name("hop", EXAMPLE_RADIO)
        res = RoundEngine(topo, m, daemon="synchronous").run(fresh_states(topo, m))
        assert res.moves >= topo.n - 1  # every non-root moved at least once

    def test_disconnected_component_goes_to_infinity(self):
        t = Topology.from_edges(4, {(0, 1): 50.0, (2, 3): 50.0}, source=0, members=[1, 3])
        m = metric_by_name("hop", EXAMPLE_RADIO)
        res = RoundEngine(t, m, daemon="central").run(fresh_states(t, m))
        assert res.converged
        assert res.states[1].parent == 0
        assert res.states[2].parent is None and res.states[2].cost == m.infinity(t)
        assert res.states[3].parent is None

    def test_randomized_daemon_deterministic_given_rng(self, topo):
        m = metric_by_name("energy", EXAMPLE_RADIO)
        r1 = RoundEngine(
            topo, m, daemon="randomized", rng=np.random.default_rng(5)
        ).run(fresh_states(topo, m))
        r2 = RoundEngine(
            topo, m, daemon="randomized", rng=np.random.default_rng(5)
        ).run(fresh_states(topo, m))
        assert [s.parent for s in r1.states] == [s.parent for s in r2.states]


class TestLemmas:
    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_lemma1_convergence_fresh(self, topo, name):
        m = metric_by_name(name, EXAMPLE_RADIO)
        executor = RoundEngine(
            topo, m, daemon="randomized", rng=np.random.default_rng(1)
        )
        report = check_convergence(topo, m, executor, fresh_states(topo, m))
        assert report.holds, report.detail

    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_lemma2_closure(self, topo, name):
        m = metric_by_name(name, EXAMPLE_RADIO)
        executor = RoundEngine(topo, m, daemon="central")
        res = RoundEngine(
            topo, m, daemon="randomized", rng=np.random.default_rng(2)
        ).run(fresh_states(topo, m))
        assert res.converged
        report = check_closure(topo, m, executor, res.states)
        assert report.holds, report.detail

    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_lemma3_loop_freedom(self, topo, name):
        m = metric_by_name(name, EXAMPLE_RADIO)
        res = RoundEngine(
            topo, m, daemon="randomized", rng=np.random.default_rng(3)
        ).run(fresh_states(topo, m))
        report = check_loop_freedom(topo, res.states)
        assert report.holds, report.detail

    def test_lemma1_from_arbitrary_state_with_cycle(self, topo):
        """Plant a parent cycle; the hop ceiling must break it (Lemma 3)."""
        m = metric_by_name("hop", EXAMPLE_RADIO)
        states = fresh_states(topo, m)
        # Cycle: 4 -> 3 -> 7 -> 4 with bogus finite costs and small hops.
        states[4] = NodeState(3, 2.0, 2)
        states[3] = NodeState(7, 2.0, 2)
        states[7] = NodeState(4, 2.0, 2)
        executor = RoundEngine(topo, m, daemon="central")
        res = executor.run(states)
        assert res.converged
        assert extract_tree(topo, res.states) is not None
        assert is_legitimate(topo, m, res.states)

    def test_cost_monotone_for_hop(self, topo):
        m = metric_by_name("hop", EXAMPLE_RADIO)
        res = RoundEngine(topo, m, daemon="synchronous").run(fresh_states(topo, m))
        assert cost_monotone_after_join(res)

    def test_closure_rejects_illegitimate_input(self, topo):
        m = metric_by_name("hop", EXAMPLE_RADIO)
        executor = RoundEngine(topo, m, daemon="central")
        report = check_closure(topo, m, executor, fresh_states(topo, m))
        assert not report.holds
