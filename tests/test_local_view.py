"""Unit tests for the beacon-driven LocalView — the distributed
realization of the NodeView interface (shared with the round model)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import EnergyAwareMetric, HopMetric
from repro.core.state import NodeState
from repro.energy import FirstOrderRadioModel
from repro.groups.models import GroupSpec
from repro.mobility import StaticPlacement
from repro.net import MacConfig, Network
from repro.protocols.registry import make_agent_factory
from repro.protocols.ss_spst import LocalView, SSSPSTAgent
from repro.metrics.hub import MetricsHub
from repro.net.neighbors import NeighborTable
from repro.sim import Simulator
from repro.util.geometry import Arena
from repro.util.rng import RngStreams

RADIO = FirstOrderRadioModel(e_elec=1e-6, e_rx=0.3e-6, max_range=250.0)


def settled_network(positions, protocol="ss-spst-e", members=None, until=10.0):
    sim = Simulator()
    streams = RngStreams(21)
    mob = StaticPlacement(
        len(positions), Arena(1000, 1000), positions=np.array(positions, dtype=float)
    )
    net = Network(sim, mob, RADIO, streams, mac_config=MacConfig())
    receivers = tuple(members if members is not None else range(1, mob.n))
    net.set_groups([GroupSpec(0, 0, receivers)])
    net.hub = MetricsHub({0: len(receivers)})
    net.attach_agents(make_agent_factory(protocol))
    net.start()
    sim.run(until=until)
    return sim, net


class TestLocalViewBasics:
    def test_neighbors_exclude_own_children(self):
        # Chain 0-1-2: node 1's view must not offer its child 2 as parent.
        sim, net = settled_network([[0, 0], [200, 0], [400, 0]])
        view = LocalView(net.nodes[1].agent)
        assert 2 not in view.neighbors_of(1)
        assert 0 in view.neighbors_of(1)

    def test_state_of_reflects_beacons(self):
        sim, net = settled_network([[0, 0], [200, 0], [400, 0]])
        view = LocalView(net.nodes[2].agent)
        st = view.state_of(1)
        assert isinstance(st, NodeState)
        assert st.parent == 0
        assert st.hop == 1

    def test_dist_from_positions(self):
        sim, net = settled_network([[0, 0], [200, 0], [400, 0]])
        view = LocalView(net.nodes[1].agent)
        assert view.dist(1, 0) == pytest.approx(200.0, abs=1.0)

    def test_member_and_flag(self):
        sim, net = settled_network([[0, 0], [200, 0], [400, 0]], members=[2])
        view = LocalView(net.nodes[1].agent)
        assert view.states[2]["member"] is True
        assert view.flag_of(2) is True
        # Node 1 itself: relay flagged by its member child.
        assert view.flag_of(1) is True
        assert LocalView(net.nodes[0].agent).states[1]["member"] is False


def _bits(x: float) -> str:
    return float(x).hex()


COORD = st.floats(-2000.0, 2000.0, allow_nan=False, allow_infinity=False)


class TestVectorDistances:
    """The beacon tick computes every neighbour distance with one vector
    ``np.hypot``; the trajectories stay those of one scalar ``np.hypot``
    per pair only if the two agree bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        pos=st.tuples(COORD, COORD),
        points=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=40),
    )
    def test_vector_hypot_equals_scalar(self, pos, points):
        me = np.array(pos, dtype=float)
        xy = np.array(points, dtype=float)  # stacked (k, 2)
        vector = np.hypot(me[0] - xy[:, 0], me[1] - xy[:, 1]).tolist()
        scalar = [float(np.hypot(me[0] - x, me[1] - y)) for x, y in xy]
        assert [_bits(d) for d in vector] == [_bits(d) for d in scalar]

    def test_vector_hypot_equals_scalar_on_many_arena_pairs(self):
        rng = np.random.default_rng(7)
        me = rng.uniform(0.0, 750.0, size=2)
        xy = rng.uniform(0.0, 750.0, size=(20_000, 2))
        vector = np.hypot(me[0] - xy[:, 0], me[1] - xy[:, 1]).tolist()
        scalar = [float(np.hypot(me[0] - x, me[1] - y)) for x, y in xy]
        assert vector == scalar

    @settings(max_examples=100, deadline=None)
    @given(
        pos=st.tuples(COORD, COORD),
        points=st.lists(st.tuples(COORD, COORD), min_size=0, max_size=30),
    )
    def test_table_distances_equal_distance_from(self, pos, points):
        table = NeighborTable(timeout=5.0)
        for nid, point in enumerate(points):
            table.update(nid, now=0.0, position=point)
        table.update(len(points), now=0.0)  # no position: left out
        me = np.array(pos, dtype=float)
        dists = table.distances_from(me)
        assert list(dists) == list(range(len(points)))
        for nid, d in dists.items():
            assert _bits(d) == _bits(table.get(nid).distance_from(me))


    def test_table_distances_equal_distance_from_on_arena_pairs(self):
        # about 0.6% of such pairs round differently under math.hypot
        rng = np.random.default_rng(11)
        me = rng.uniform(0.0, 750.0, size=2)
        table = NeighborTable(timeout=5.0)
        for nid, point in enumerate(rng.uniform(0.0, 750.0, size=(5_000, 2))):
            table.update(nid, now=0.0, position=tuple(point.tolist()))
        dists = table.distances_from(me)
        assert [_bits(d) for d in dists.values()] == [
            _bits(info.distance_from(me)) for info in table
        ]


class TestViewMemo:
    def test_dist_and_state_of_equal_the_table(self):
        sim, net = settled_network(
            [[0, 0], [150, 0], [0, 240], [180, 170], [330, 60]], until=12.0
        )
        for node in net.nodes:
            view = LocalView(node.agent)
            ids = view.table.ids()
            assert ids and sorted(view.dists) == sorted(ids)
            for u in ids:
                info = view.table.get(u)
                assert _bits(view.dist(node.id, u)) == _bits(
                    info.distance_from(view.my_pos)
                )
                st_u = info.state
                fresh = NodeState(parent=st_u["parent"], cost=st_u["cost"], hop=st_u["hop"])
                assert view.state_of(u) == fresh
                # built once per view, then served from the memo
                assert view.state_of(u) is view.state_of(u)
            assert view.state_of(node.id) is node.agent.state

    def test_views_do_not_share_a_memo(self):
        sim, net = settled_network([[0, 0], [200, 0], [400, 0]])
        agent = net.nodes[2].agent
        first = LocalView(agent)
        sim.run(until=14.0)  # more beacons arrive
        second = LocalView(agent)
        assert second.state_of(1) is not first.state_of(1)
        st_1 = agent.table.get(1).state
        assert second.state_of(1) == NodeState(st_1["parent"], st_1["cost"], st_1["hop"])

    def test_beacon_distances_are_the_views(self):
        """The beacon's radius bookkeeping and neighbour-distance list
        equal what per-neighbour ``distance_from`` gives."""
        sim, net = settled_network(
            [[0, 0], [150, 0], [0, 240], [180, 170], [330, 60]], until=12.0
        )
        for node in net.nodes:
            agent = node.agent
            view = LocalView(agent)
            pos = node.position
            book = agent._radius_bookkeeping(view.dists)
            by_child = sorted(
                ((c.distance_from(pos), c.node) for c in agent._children()),
                reverse=True,
            )
            assert book["r_all_tops"] == by_child[: agent.TOPS]
            assert sorted(view.dists.values()) == sorted(
                info.distance_from(pos) for info in agent.table
            )


class TestRadiusBookkeeping:
    def test_radius_without_costliest_child(self):
        # Star: 0 with children 1 (150 m) and 2 (240 m).
        sim, net = settled_network([[0, 0], [150, 0], [0, 240]])
        a1 = net.nodes[1].agent
        view = LocalView(a1)
        # From 1's standpoint: 0's flagged radius without 2 would be 150.
        assert view.radius_without(0, 2, flagged_only=True) == pytest.approx(150.0, abs=2.0)
        # And without 1 itself: 240 remains.
        assert view.radius_without(0, 1, flagged_only=True) == pytest.approx(240.0, abs=2.0)

    def test_radius_without_non_child_is_noop(self):
        sim, net = settled_network([[0, 0], [150, 0], [0, 240]])
        view = LocalView(net.nodes[1].agent)
        full = view.radius_without(0, 99, flagged_only=True)
        assert full == pytest.approx(240.0, abs=2.0)

    def test_count_in_range_uses_sorted_dists(self):
        sim, net = settled_network([[0, 0], [150, 0], [0, 240]], protocol="ss-spst-e")
        view = LocalView(net.nodes[1].agent)
        assert view.count_in_range(0, 160.0) == 1  # just node 1
        assert view.count_in_range(0, 241.0) == 2
        assert view.count_in_range(0, 0.0) == 0


class TestPathPrice:
    def test_hop_metric_ignores_coupling(self):
        sim, net = settled_network([[0, 0], [200, 0], [400, 0]], protocol="ss-spst")
        agent2 = net.nodes[2].agent
        view = LocalView(agent2)
        metric = HopMetric(RADIO)
        assert view.path_price(1, 2, True, metric) == view.state_of(1).cost

    def test_lighting_pruned_branch_costs_more(self):
        """A member evaluating a pruned relay pays for lighting the branch:
        the flagged price exceeds the unflagged one."""
        # 0 source; 1 is a pruned relay (no members beyond); 2 a member.
        sim, net = settled_network(
            [[0, 0], [200, 0], [0, 200], [400, 0]], members=[2], until=12.0
        )
        # Node 3 (non-member here... make it member-like check via prices)
        agent3 = net.nodes[3].agent
        view = LocalView(agent3)
        if 1 in view.table.ids():
            st = view.table.get(1).state
            metric = EnergyAwareMetric(RADIO)
            flagged = view.path_price(1, 3, True, metric)
            unflagged = view.path_price(1, 3, False, metric)
            assert flagged >= unflagged

    def test_shared_parent_correction_prices_detachment(self):
        """The static 5-node configuration that used to flip-flop: after
        settling, every node's guard must hold (no pending moves)."""
        sim, net = settled_network(
            [[0, 0], [150, 0], [300, 0], [150, 150], [300, 150]],
            protocol="ss-spst-e",
            until=30.0,
        )
        changes_now = sum(n.agent.parent_changes for n in net.nodes)
        sim.run(until=90.0)
        assert sum(n.agent.parent_changes for n in net.nodes) == changes_now


class TestMediumCapture:
    def test_strong_signal_captures(self):
        """A close transmitter's frame survives a distant interferer."""
        from repro.net.medium import WirelessMedium
        from tests.test_net import RecordingAgent, data_packet, make_network

        # Receiver 1 sits 10 m from sender 0 (rx power (40/10)^2 = 16) and
        # 240 m from interferer 2 (rx power (250/240)^2 ~= 1.09): the
        # power ratio ~14.7 clears CPThresh = 10.
        sim, net = make_network([[0, 0], [10, 0], [250, 0]])
        net.medium.capture_threshold = 10.0
        net.medium.broadcast(0, data_packet(0, seq=1), tx_range=40.0)
        net.medium.broadcast(2, data_packet(2, seq=2), tx_range=250.0)
        sim.run()
        got = [p.origin for _, p in net.nodes[1].agent.received]
        assert got == [0]  # close frame captured; distant one lost at 1

    def test_comparable_signals_collide(self):
        from tests.test_net import data_packet, make_network

        sim, net = make_network([[0, 0], [100, 0], [200, 0]])
        net.medium.capture_threshold = 10.0
        net.medium.broadcast(0, data_packet(0, seq=1), tx_range=120.0)
        net.medium.broadcast(2, data_packet(2, seq=2), tx_range=120.0)
        sim.run()
        assert net.nodes[1].agent.received == []
