"""Tests for MAODV, ODMRP and flooding agents."""

import numpy as np
import pytest

from repro.energy import FirstOrderRadioModel
from repro.groups.models import GroupSpec
from repro.metrics.hub import MetricsHub
from repro.mobility import StaticPlacement, TraceMobility
from repro.net import MacConfig, Network, Packet, PacketKind
from repro.protocols import odmrp
from repro.protocols.base import DuplicateCache
from repro.protocols.registry import PROTOCOL_NAMES, make_agent_factory
from repro.sim import Simulator
from repro.util.geometry import Arena
from repro.util.rng import RngStreams

ARENA = Arena(1200.0, 1200.0)
RADIO = FirstOrderRadioModel(e_elec=1e-6, e_rx=0.3e-6, max_range=250.0)


def build(positions, protocol, members=None, mobility=None):
    sim = Simulator()
    streams = RngStreams(11)
    mob = mobility or StaticPlacement(
        len(positions), ARENA, positions=np.array(positions, dtype=float)
    )
    net = Network(sim, mob, RADIO, streams, mac_config=MacConfig())
    receivers = tuple(members if members is not None else range(1, mob.n))
    net.set_groups([GroupSpec(0, 0, receivers)])
    hub = MetricsHub({0: len(receivers)})
    net.hub = hub
    net.attach_agents(make_agent_factory(protocol))
    net.start()
    return sim, net, hub


LINE = [[0, 0], [200, 0], [400, 0], [600, 0]]


class TestRegistry:
    def test_all_names_construct(self):
        for name in PROTOCOL_NAMES:
            sim, net, hub = build(LINE, name)
            assert all(n.agent is not None for n in net.nodes)

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            make_agent_factory("ospf")


class TestFlooding:
    def test_delivers_along_line(self):
        sim, net, hub = build(LINE, "flooding", members=[3])
        net.nodes[0].agent.originate_data()
        sim.run(until=2.0)
        assert hub.data_delivered == 1  # the far member got it

    def test_every_node_rebroadcasts_once(self):
        sim, net, hub = build(LINE, "flooding", members=[3])
        net.nodes[0].agent.originate_data()
        sim.run(until=2.0)
        # 4 transmissions of the same flow: origin + 3 relays.
        assert net.medium.stats.frames_sent == 4

    def test_duplicate_suppression(self):
        sim, net, hub = build([[0, 0], [150, 0], [300, 0]], "flooding", members=[2])
        net.nodes[0].agent.originate_data()
        sim.run(until=2.0)
        sent_first = net.medium.stats.frames_sent
        assert sent_first == 3  # no rebroadcast storms


class TestMaodv:
    def test_members_join_tree(self):
        sim, net, hub = build(LINE, "maodv", members=[3])
        sim.run(until=20.0)
        assert net.nodes[3].agent.tree_fresh
        # Intermediate relays were activated by the MACT chain.
        assert net.nodes[1].agent.on_tree
        assert net.nodes[2].agent.on_tree

    def test_data_delivery_after_join(self):
        sim, net, hub = build(LINE, "maodv", members=[3])
        sim.run(until=20.0)
        for k in range(5):
            sim.schedule(0.2 * k, net.nodes[0].agent.originate_data)
        sim.run(until=25.0)
        assert hub.data_delivered >= 4

    def test_rreq_floods_when_stale(self):
        sim, net, hub = build(LINE, "maodv", members=[3])
        sim.run(until=20.0)
        assert net.nodes[3].agent.control_frames["rreq"] >= 1

    def test_hello_floods_from_leader(self):
        sim, net, hub = build(LINE, "maodv", members=[3])
        sim.run(until=20.0)
        assert net.nodes[0].agent.control_frames["hello"] >= 3

    def test_branch_breaks_stop_delivery(self):
        """Remove the only relay: the member must fall off the tree."""
        traces = [
            [(0.0, 100.0, 600.0)],
            [(0.0, 300.0, 600.0), (30.0, 300.0, 600.0), (36.0, 1100.0, 1100.0)],
            [(0.0, 500.0, 600.0)],
        ]
        mob = TraceMobility(ARENA, traces)
        sim, net, hub = build(None, "maodv", members=[2], mobility=mob)
        sim.run(until=25.0)
        assert net.nodes[2].agent.tree_fresh
        sim.run(until=70.0)
        # Relay gone: no path exists, tree state must have expired.
        assert not net.nodes[2].agent.tree_fresh


class TestOdmrp:
    def test_forwarding_group_forms(self):
        sim, net, hub = build(LINE, "odmrp", members=[3])
        sim.run(until=10.0)
        # Relays 1 and 2 sit on the member's reverse path.
        assert net.nodes[1].agent.in_forwarding_group
        assert net.nodes[2].agent.in_forwarding_group

    def test_non_path_nodes_stay_out(self):
        # Node 3 hangs off the side; only member is node 2.
        positions = [[0, 0], [200, 0], [400, 0], [200, 200]]
        sim, net, hub = build(positions, "odmrp", members=[2])
        sim.run(until=10.0)
        assert not net.nodes[3].agent.in_forwarding_group

    def test_data_delivery(self):
        sim, net, hub = build(LINE, "odmrp", members=[3])
        sim.run(until=10.0)
        # Space the packets out (a same-instant burst collides at the MAC).
        for k in range(5):
            sim.schedule(0.2 * k, net.nodes[0].agent.originate_data)
        sim.run(until=15.0)
        assert hub.data_delivered >= 4

    def test_forwarding_group_soft_state_expires(self):
        sim, net, hub = build(LINE, "odmrp", members=[3])
        sim.run(until=10.0)
        agent1 = net.nodes[1].agent
        assert agent1.in_forwarding_group
        # Stop the query refresh; FG membership must lapse.
        net.nodes[0].agent.stop()
        sim.run(until=10.0 + odmrp.FG_TIMEOUT + 4.0)
        assert not agent1.in_forwarding_group

    def test_queries_piggyback_data_size(self):
        assert odmrp.QUERY_BYTES > odmrp.PIGGYBACK_BYTES == 512


class TestCrossProtocolInvariants:
    @pytest.mark.parametrize("protocol", ["ss-spst-e", "maodv", "odmrp", "flooding"])
    def test_deliveries_never_exceed_expected(self, protocol):
        sim, net, hub = build(LINE, protocol, members=[2, 3])
        sim.run(until=15.0)
        for _ in range(10):
            net.nodes[0].agent.originate_data()
        sim.run(until=25.0)
        assert hub.data_delivered <= 10 * 2

    @pytest.mark.parametrize("protocol", ["ss-spst", "maodv", "odmrp", "flooding"])
    def test_energy_strictly_positive_when_active(self, protocol):
        sim, net, hub = build(LINE, protocol, members=[3])
        sim.run(until=15.0)
        net.nodes[0].agent.originate_data()
        sim.run(until=20.0)
        assert net.total_energy() > 0.0

    @pytest.mark.parametrize("protocol", ["ss-spst", "ss-spst-e", "maodv", "odmrp"])
    def test_dead_source_stops_traffic(self, protocol):
        sim, net, hub = build(LINE, protocol, members=[3])
        sim.run(until=15.0)
        net.nodes[0].battery.remaining_j = 1e-12
        net.nodes[0].battery.draw(1.0)  # deplete
        assert not net.nodes[0].alive


class TestDuplicateSuppression:
    """``flow_key`` (with its int kind code) as the duplicate-cache key."""

    def test_kinds_sharing_origin_seq_group_stay_distinct(self):
        packets = [Packet(kind, 1, 4, 9, 64, group=2) for kind in PacketKind]
        assert len({p.flow_key for p in packets}) == len(PacketKind)
        cache = DuplicateCache()
        assert [cache.seen_before(p.flow_key) for p in packets] == [False] * len(packets)
        assert all(cache.seen_before(p.flow_key) for p in packets)

    @pytest.mark.parametrize("kind", list(PacketKind))
    def test_relay_preserves_flow_key(self, kind):
        p = Packet(kind, 0, 0, 7, 64, group=3)
        hop2 = p.relay(5).relay(6, extra_payload={"hops": 2})
        assert hop2.flow_key == p.flow_key
        assert hop2.uid != p.uid

    def test_lru_eviction_order_over_capacity_plus_one(self):
        cache = DuplicateCache(capacity=3)
        keys = [Packet(PacketKind.DATA, 0, 0, seq, 64).flow_key for seq in range(4)]
        for k in keys[:3]:
            cache.seen_before(k)
        assert cache.seen_before(keys[0])  # touch: keys[1] is now oldest
        assert not cache.seen_before(keys[3])  # capacity + 1 -> evict keys[1]
        assert [k in cache for k in keys] == [True, False, True, True]
        assert not cache.seen_before(keys[1])  # evicted: accepted again

    def test_lru_matches_a_reference_list(self):
        rng = np.random.default_rng(5)
        kinds = list(PacketKind)
        cache, order = DuplicateCache(capacity=8), []
        for _ in range(500):
            key = Packet(kinds[int(rng.integers(3))], 0, int(rng.integers(3)),
                         int(rng.integers(6)), 64).flow_key
            hit = key in order
            if hit:
                order.remove(key)
            order.append(key)
            if len(order) > 8:
                order.pop(0)
            assert cache.seen_before(key) == hit
        assert len(cache) == len(order) and all(k in cache for k in order)

