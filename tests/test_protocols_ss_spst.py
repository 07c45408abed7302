"""Tests for the SS-SPST DES agents (beaconing, tree formation, data)."""

import numpy as np
import pytest

from repro.core.metrics import metric_by_name
from repro.energy import FirstOrderRadioModel
from repro.groups.models import GroupSpec
from repro.metrics.hub import MetricsHub
from repro.mobility import StaticPlacement, TraceMobility
from repro.net import MacConfig, Network, Packet, PacketKind
from repro.protocols.registry import make_agent_factory
from repro.protocols.ss_spst import SSSPSTAgent, SSSPSTConfig
from repro.sim import Simulator
from repro.util.geometry import Arena
from repro.util.rng import RngStreams

ARENA = Arena(1000.0, 1000.0)

#: radio used by DES protocol tests (example constants, realistic e_elec)
RADIO = FirstOrderRadioModel(e_elec=1e-6, e_rx=0.3e-6, eps_amp=100e-12, max_range=250.0)


def build(positions, protocol="ss-spst", members=None, mobility=None, beacon=1.0):
    sim = Simulator()
    streams = RngStreams(99)
    mob = mobility or StaticPlacement(
        len(positions), ARENA, positions=np.array(positions, dtype=float)
    )
    net = Network(sim, mob, RADIO, streams, mac_config=MacConfig())
    receivers = tuple(members if members is not None else range(1, mob.n))
    net.set_groups([GroupSpec(0, 0, receivers)])
    hub = MetricsHub({0: len(receivers)})
    net.hub = hub
    net.attach_agents(make_agent_factory(protocol, beacon_interval=beacon))
    net.start()
    return sim, net, hub


def agent(net, i) -> SSSPSTAgent:
    return net.nodes[i].agent


class TestTreeFormation:
    def test_line_topology_forms_chain(self):
        # 0 - 1 - 2 at 200 m spacing: only consecutive nodes in range.
        sim, net, hub = build([[0, 0], [200, 0], [400, 0]])
        sim.run(until=10.0)
        assert agent(net, 1).state.parent == 0
        assert agent(net, 2).state.parent == 1
        assert agent(net, 1).state.hop == 1
        assert agent(net, 2).state.hop == 2

    def test_star_topology(self):
        sim, net, hub = build(
            [[200, 200], [350, 200], [200, 350], [50, 200], [200, 50]]
        )
        sim.run(until=10.0)
        for i in range(1, 5):
            assert agent(net, i).state.parent == 0

    def test_source_state_is_root(self):
        sim, net, hub = build([[0, 0], [150, 0]])
        sim.run(until=5.0)
        src = agent(net, 0)
        assert src.state.parent is None
        assert src.state.cost == 0.0
        assert src.state.hop == 0

    def test_flags_propagate_bottom_up(self):
        # Chain 0-1-2 where only 2 is a member: 1 must be flagged (member
        # downstream), matching the paper's bottom-up pruning flags.
        sim, net, hub = build([[0, 0], [200, 0], [400, 0]], members=[2])
        sim.run(until=10.0)
        assert agent(net, 2).flag is True
        assert agent(net, 1).flag is True
        assert agent(net, 0).flag is True

    def test_non_member_leaf_unflagged(self):
        sim, net, hub = build([[0, 0], [200, 0], [400, 0]], members=[1])
        sim.run(until=10.0)
        assert agent(net, 2).flag is False
        assert agent(net, 1).flag is True

    @pytest.mark.parametrize("protocol", ["ss-spst", "ss-spst-t", "ss-spst-f", "ss-spst-e"])
    def test_all_variants_form_trees(self, protocol):
        positions = [[0, 0], [180, 0], [360, 0], [180, 180], [0, 180]]
        sim, net, hub = build(positions, protocol=protocol)
        sim.run(until=12.0)
        for i in range(1, 5):
            st = agent(net, i).state
            assert st.parent is not None, f"{protocol}: node {i} disconnected"
            assert st.hop < net.n


class TestDataPlane:
    def test_data_flows_down_tree(self):
        sim, net, hub = build([[0, 0], [200, 0], [400, 0]])
        sim.run(until=6.0)  # let the tree stabilize
        agent(net, 0).originate_data()
        sim.run(until=8.0)
        assert hub.data_delivered == 2  # both members got it

    def test_pruned_branch_gets_no_data(self):
        # Member 1 only; node 2 is a non-member leaf beyond 1.
        sim, net, hub = build([[0, 0], [200, 0], [400, 0]], members=[1])
        sim.run(until=6.0)
        snap_before = net.nodes[2].ledger.snapshot()
        agent(net, 0).originate_data()
        sim.run(until=8.0)
        assert hub.data_delivered == 1
        # Node 2 heard no *data*: node 1 did not forward (pruned branch).
        # (Beacons keep flowing — only the data-class buckets must freeze.)
        snap_after = net.nodes[2].ledger.snapshot()
        data_energy = lambda s: s.rx_data + s.discard_data + s.tx_data
        assert data_energy(snap_after) == pytest.approx(data_energy(snap_before))

    def test_power_control_radius(self):
        """The source transmits data just far enough for its farthest
        flagged child, not at max range."""
        sim, net, hub = build([[0, 0], [100, 0], [240, 0]], members=[1])
        sim.run(until=6.0)
        tx_before = net.nodes[0].ledger.snapshot().tx_data
        agent(net, 0).originate_data()
        sim.run(until=8.0)
        tx_spent = net.nodes[0].ledger.snapshot().tx_data - tx_before
        pkt_bits = 512 * 8
        # Paid for ~110 m (child at 100 m + 10% margin), far below 250 m.
        assert tx_spent <= RADIO.tx_energy(pkt_bits, 100.0 * 1.1 + 1.0)
        assert tx_spent < RADIO.tx_energy(pkt_bits, 250.0)

    def test_duplicate_data_discarded(self):
        sim, net, hub = build([[0, 0], [200, 0]])
        sim.run(until=6.0)
        a1 = agent(net, 1)
        pkt = Packet(PacketKind.DATA, src=0, origin=0, seq=77, size_bytes=512)
        assert a1._handle_data(pkt) is True
        dup = Packet(PacketKind.DATA, src=0, origin=0, seq=77, size_bytes=512)
        assert a1._handle_data(dup) is False

    def test_data_from_non_parent_discarded(self):
        sim, net, hub = build([[0, 0], [200, 0], [100, 170]])
        sim.run(until=6.0)
        a1 = agent(net, 1)
        stranger = 2 if a1.state.parent != 2 else 0
        pkt = Packet(PacketKind.DATA, src=stranger, origin=0, seq=5, size_bytes=512)
        assert a1._handle_data(pkt) is False

    def test_only_source_originates(self):
        sim, net, hub = build([[0, 0], [200, 0]])
        with pytest.raises(RuntimeError):
            agent(net, 1).originate_data()


class TestFaultRecovery:
    def test_parent_loss_triggers_reorganization(self):
        """Node 1 walks out of range; node 2 must re-join through node 3.

        Topology: 0 at origin; relay 1 at (200,0); member 2 at (400,0);
        alternate relay 3 at (200,60) (within range of both 0 and 2).
        Node 1 departs at t=20 s.
        """
        traces = [
            [(0.0, 100.0, 500.0)],
            [(0.0, 300.0, 500.0), (20.0, 300.0, 500.0), (26.0, 900.0, 900.0)],
            [(0.0, 500.0, 500.0)],
            [(0.0, 300.0, 560.0)],
        ]
        mob = TraceMobility(ARENA, traces)
        sim, net, hub = build(None, members=[2], mobility=mob)
        sim.run(until=15.0)
        # Initially node 2 may use either relay; force the scenario only if
        # it picked node 1 (id tie-breaks make this deterministic).
        parent_before = agent(net, 2).state.parent
        assert parent_before in (1, 3)
        sim.run(until=45.0)
        assert agent(net, 2).state.parent == 3  # node 1 is gone
        assert agent(net, 2).state.hop == 2

    def test_disconnection_sets_infinity(self):
        """A node with no neighbors declares itself disconnected."""
        traces = [
            [(0.0, 100.0, 100.0)],
            [(0.0, 300.0, 100.0), (10.0, 300.0, 100.0), (16.0, 950.0, 950.0)],
        ]
        mob = TraceMobility(ARENA, traces)
        sim, net, hub = build(None, members=[1], mobility=mob)
        sim.run(until=8.0)
        assert agent(net, 1).state.parent == 0
        sim.run(until=30.0)
        st = agent(net, 1).state
        assert st.parent is None
        assert st.cost == agent(net, 1).oc_max
        assert st.hop == agent(net, 1).h_max

    def test_count_to_infinity_bounded(self):
        """Even with churn, hop counts never exceed |V| (Lemma 3 in DES)."""
        rng_streams = RngStreams(5)
        from repro.mobility import RandomWaypoint

        mob = RandomWaypoint(12, ARENA, v_min=5.0, v_max=20.0, rng=rng_streams.get("m"))
        sim, net, hub = build(None, members=range(1, 12), mobility=mob)
        for t in range(5, 61, 5):
            sim.run(until=float(t))
            for node in net.nodes:
                assert 0 <= node.agent.state.hop <= net.n


class TestBeacons:
    def test_beacons_flow_periodically(self):
        sim, net, hub = build([[0, 0], [200, 0]], beacon=1.0)
        sim.run(until=10.5)
        # ~10 beacons each; control bytes recorded by the hub.
        assert hub.control_bytes_tx >= 2 * 9 * 28

    def test_e_beacons_larger_than_hop(self):
        p1 = build([[0, 0], [200, 0]], protocol="ss-spst")
        p2 = build([[0, 0], [200, 0]], protocol="ss-spst-e")
        for sim, net, hub in (p1, p2):
            sim.run(until=20.0)
        assert p2[2].control_bytes_tx > p1[2].control_bytes_tx

    def test_beacon_carries_position_and_state(self):
        sim, net, hub = build([[0, 0], [200, 0]])
        sim.run(until=4.0)
        info = agent(net, 1).table.get(0)
        assert info is not None
        assert info.position is not None
        assert "cost" in info.state and "hop" in info.state and "flag" in info.state

    def test_hysteresis_limits_churn_static(self):
        """On a static topology the stabilized tree must stop changing."""
        positions = [[0, 0], [150, 0], [300, 0], [150, 150], [300, 150]]
        sim, net, hub = build(positions, protocol="ss-spst-e")
        sim.run(until=20.0)
        changes_at_20 = sum(n.agent.parent_changes for n in net.nodes)
        sim.run(until=60.0)
        changes_at_60 = sum(n.agent.parent_changes for n in net.nodes)
        assert changes_at_60 == changes_at_20
