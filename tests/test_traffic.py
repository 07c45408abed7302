"""Tests for the CBR traffic source, one group and several."""

import numpy as np
import pytest

from repro.energy import FirstOrderRadioModel
from repro.groups.models import GroupSpec
from repro.metrics.hub import MetricsHub
from repro.mobility import StaticPlacement
from repro.net import MacConfig, Network
from repro.protocols.registry import make_agent_factory
from repro.sim import Simulator
from repro.traffic import CbrSource
from repro.util.geometry import Arena
from repro.util.rng import RngStreams


def build():
    sim = Simulator()
    streams = RngStreams(3)
    mob = StaticPlacement(
        3, Arena(1000, 1000), positions=np.array([[0.0, 0.0], [200.0, 0.0], [400.0, 0.0]])
    )
    net = Network(sim, mob, FirstOrderRadioModel(e_elec=1e-6), streams, mac_config=MacConfig())
    net.set_groups([GroupSpec(0, 0, (2,))])
    net.hub = MetricsHub({0: 1})
    net.attach_agents(make_agent_factory("flooding"))
    net.start()
    return sim, net


def build_three_groups():
    """Six nodes on a line, three disjoint two-node groups, SS-SPST."""
    sim = Simulator()
    mob = StaticPlacement(
        6, Arena(1000, 1000), positions=np.array([[100.0 * i, 0.0] for i in range(6)])
    )
    net = Network(sim, mob, FirstOrderRadioModel(e_elec=1e-6), RngStreams(3), mac_config=MacConfig())
    net.set_groups([GroupSpec(0, 0, (1,)), GroupSpec(1, 2, (3,)), GroupSpec(2, 4, (5,))])
    net.hub = MetricsHub({0: 1, 1: 1, 2: 1})
    net.attach_agents(make_agent_factory("ss-spst"))
    net.start()
    return sim, net


class TestCbrSource:
    def test_rate_64kbps_512B_interval(self):
        sim, net = build()
        src = CbrSource(net, rate_kbps=64.0, packet_bytes=512)
        assert src.interval == pytest.approx(512 * 8 / 64_000.0)  # 64 ms

    def test_packet_count_matches_rate(self):
        sim, net = build()
        src = CbrSource(net, rate_kbps=64.0, packet_bytes=512, start_time=0.0)
        src.start()
        sim.run(until=1.0)
        # 64 kbps / 4096 bits = 15.625 packets/s.
        assert 14 <= src.packets_sent <= 16

    def test_start_time_respected(self):
        sim, net = build()
        src = CbrSource(net, rate_kbps=64.0, start_time=5.0)
        src.start()
        sim.run(until=4.9)
        assert src.packets_sent == 0
        sim.run(until=6.0)
        assert src.packets_sent > 0

    def test_stop(self):
        sim, net = build()
        src = CbrSource(net, rate_kbps=64.0, start_time=0.0)
        src.start()
        sim.run(until=0.5)
        count = src.packets_sent
        src.stop()
        sim.run(until=2.0)
        assert src.packets_sent == count

    def test_originations_reach_hub(self):
        sim, net = build()
        src = CbrSource(net, rate_kbps=64.0, start_time=0.0)
        src.start()
        sim.run(until=1.0)
        assert net.hub.data_originated == src.packets_sent

    def test_dead_source_stops_emitting(self):
        sim, net = build()
        src = CbrSource(net, rate_kbps=64.0, start_time=0.0)
        src.start()
        sim.run(until=0.5)
        net.nodes[0].alive = False
        before = net.hub.data_originated
        sim.run(until=1.5)
        assert net.hub.data_originated == before

    def test_invalid_params(self):
        sim, net = build()
        with pytest.raises(ValueError):
            CbrSource(net, rate_kbps=0.0)
        with pytest.raises(ValueError):
            CbrSource(net, rate_kbps=64.0, packet_bytes=0)


def record_originations(net):
    """List of ``(created_at, group, origin)`` for every packet the hub sees."""
    originated = []
    on_data_originated = net.hub.on_data_originated

    def record(packet):
        originated.append((packet.created_at, packet.group, packet.origin))
        on_data_originated(packet)

    net.hub.on_data_originated = record
    return originated


class TestMultiGroupCbr:
    def test_one_staggered_clock_per_group(self):
        sim, net = build_three_groups()
        originated = record_originations(net)
        start = 1.0
        src = CbrSource(net, rate_kbps=64.0, packet_bytes=512, start_time=start)
        src.start()
        sim.run(until=start + 0.99 * src.interval)
        # each group's first packet, from that group's source, a third of
        # an interval after the previous group's
        assert originated == [
            (start + gid * src.interval / 3, gid, net.group_source_of(gid))
            for gid in range(3)
        ]
        assert [net.group_source_of(gid) for gid in range(3)] == [0, 2, 4]
        assert src.packets_sent == 3

    def test_packets_sent_counts_every_group(self):
        sim, net = build_three_groups()
        originated = record_originations(net)
        src = CbrSource(net, rate_kbps=64.0, packet_bytes=512, start_time=0.0)
        src.start()
        sim.run(until=1.0)
        counts = [sum(1 for _, g, _ in originated if g == gid) for gid in range(3)]
        assert min(counts) > 0 and max(counts) - min(counts) <= 1
        assert src.packets_sent == sum(counts) == net.hub.data_originated
