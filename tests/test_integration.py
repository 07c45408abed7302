"""End-to-end integration tests: full small scenarios for every protocol,
cross-cutting conservation invariants, and the fault-injection paths."""

import numpy as np
import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_network, run_scenario
from repro.metrics.hub import MetricsHub
from repro.protocols.registry import PROTOCOL_NAMES, make_agent_factory
from repro.traffic.cbr import CbrSource

QUICK = dict(sim_time=30.0, group_size=8, n_nodes=25, rate_kbps=16.0, traffic_start=6.0)


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_every_protocol_runs_and_delivers(protocol):
    cfg = ScenarioConfig.quick(protocol=protocol, seed=6, v_max=2.0, **QUICK)
    result = run_scenario(cfg)
    s = result.summary
    assert s.data_originated > 50
    assert s.pdr > 0.2, f"{protocol} delivered almost nothing"
    assert s.total_energy_j > 0
    assert s.avg_delay_ms > 0


@pytest.mark.parametrize("protocol", ["ss-spst", "ss-spst-e", "maodv", "odmrp"])
def test_delivery_accounting_consistent(protocol):
    cfg = ScenarioConfig.quick(protocol=protocol, seed=8, v_max=2.0, **QUICK)
    result = run_scenario(cfg)
    s = result.summary
    expected = s.data_originated * (cfg.group_size - 1)
    assert 0 <= s.data_delivered <= expected
    assert s.pdr == pytest.approx(s.data_delivered / expected)


def test_energy_conservation_across_buckets():
    """Network total equals the sum over nodes of all six ledger buckets,
    and medium-level sends match hub byte accounting."""
    cfg = ScenarioConfig.quick(protocol="ss-spst-e", seed=9, v_max=2.0, **QUICK)
    sim, net = build_network(cfg)
    hub = MetricsHub({0: len(net.group_receivers_of(0))})
    hub.set_packet_size_hint(cfg.packet_bytes)
    net.hub = hub
    net.attach_agents(make_agent_factory("ss-spst-e"))
    net.start()
    CbrSource(net, rate_kbps=cfg.rate_kbps, packet_bytes=cfg.packet_bytes,
              start_time=cfg.traffic_start).start()
    sim.run(until=cfg.sim_time)
    total = net.total_energy()
    by_bucket = sum(nd.ledger.snapshot().total for nd in net.nodes)
    assert total == pytest.approx(by_bucket)
    assert hub.control_bytes_tx > 0 and hub.data_bytes_tx > 0


def test_overhearing_energy_is_nonzero_for_ss_spst():
    """The discard bucket — the paper's motivating quantity — must be
    populated: non-intended nodes pay for every overheard frame."""
    cfg = ScenarioConfig.quick(protocol="ss-spst", seed=10, v_max=2.0, **QUICK)
    sim, net = build_network(cfg)
    hub = MetricsHub({0: len(net.group_receivers_of(0))})
    net.hub = hub
    net.attach_agents(make_agent_factory("ss-spst"))
    net.start()
    CbrSource(net, rate_kbps=cfg.rate_kbps, packet_bytes=cfg.packet_bytes,
              start_time=cfg.traffic_start).start()
    sim.run(until=cfg.sim_time)
    discard = sum(nd.ledger.snapshot().total_discard for nd in net.nodes)
    assert discard > 0.0


def test_ss_spst_e_discards_less_than_hop_variant():
    """The headline effect, end to end: for identical scenarios SS-SPST-E
    wastes less discard energy per delivered packet than SS-SPST."""
    res = {}
    for protocol in ("ss-spst", "ss-spst-e"):
        cfg = ScenarioConfig.quick(protocol=protocol, seed=11, v_max=2.0, **QUICK)
        sim, net = build_network(cfg)
        hub = MetricsHub({0: len(net.group_receivers_of(0))})
        net.hub = hub
        net.attach_agents(make_agent_factory(protocol))
        net.start()
        CbrSource(net, rate_kbps=cfg.rate_kbps, packet_bytes=cfg.packet_bytes,
                  start_time=cfg.traffic_start).start()
        sim.run(until=cfg.sim_time)
        discard = sum(nd.ledger.snapshot().discard_data for nd in net.nodes)
        res[protocol] = discard / max(hub.data_delivered, 1)
    assert res["ss-spst-e"] < res["ss-spst"]


def test_battery_depletion_injects_faults():
    """Finite batteries kill nodes mid-run; the protocol must keep running
    and the dead node must stop transmitting."""
    cfg = ScenarioConfig.quick(protocol="ss-spst", seed=12, v_max=2.0, **QUICK)
    sim, net = build_network(cfg)
    hub = MetricsHub({0: len(net.group_receivers_of(0))})
    net.hub = hub
    net.attach_agents(make_agent_factory("ss-spst"))
    net.start()
    CbrSource(net, rate_kbps=cfg.rate_kbps, packet_bytes=cfg.packet_bytes,
              start_time=cfg.traffic_start).start()
    # Give one relay-ish node a tiny battery.
    victim = net.nodes[5]
    victim.battery.capacity_j = 0.05
    victim.battery.remaining_j = 0.05
    sim.run(until=cfg.sim_time)
    assert not victim.alive
    # The rest of the network survived and kept delivering.
    assert hub.data_delivered > 0


def test_zero_loss_static_tree_delivers_everything():
    """Sanity ceiling: static nodes, no random loss, tiny network ->
    (near-)perfect delivery once stabilized."""
    cfg = ScenarioConfig.quick(
        protocol="ss-spst", seed=13, v_max=0.1, v_min=0.05, loss_prob=0.0,
        sim_time=40.0, group_size=5, n_nodes=12, rate_kbps=8.0, traffic_start=10.0,
        arena_w=400.0, arena_h=400.0,  # dense enough to be connected
    )
    result = run_scenario(cfg)
    assert result.summary.pdr > 0.9
