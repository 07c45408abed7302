"""Record-byte golden for the DES across scenario and protocol axes.

``tests/test_des_golden.py`` pins one quick scenario per protocol at the
default axes.  This file pins the same digest (sorted, compact JSON of
``record_from(result)`` without ``elapsed_s``) on the axes that take
other code paths through the medium, the beacon tick and the energy
path:

* the three non-default beacon disciplines (synchronous, central,
  weakly-fair);
* static and gauss-markov mobility (no position change between ticks,
  and a second mobility model);
* ``loss_prob=0`` (the medium's loss RNG never runs);
* SS-SPST-F, the metric that limit-cycles under round executors;
* rotating membership (mid-run joins and leaves);
* finite batteries, so nodes deplete and die mid-run and every later
  frame skips them.

A run with finite batteries has no config field: the case wraps
``runner.build_network`` and gives every node but the source a small
battery, leaving its depletion callback (``Node._die``) in place.
"""

from __future__ import annotations

import pytest

from repro.experiments import runner
from repro.experiments.backends import backend_by_name
from repro.experiments.config import ScenarioConfig

from test_des_golden import BASE, record_digest

#: per-node battery of the finite-battery cases, in joules
BATTERY_J = 0.2

#: case -> (protocol, config overrides, finite batteries?)
CASES = {
    "ss-spst-e/synchronous": ("ss-spst-e", {"daemon": "synchronous"}, False),
    "ss-spst/central": ("ss-spst", {"daemon": "central"}, False),
    "ss-spst-e/weakly-fair": ("ss-spst-e", {"daemon": "weakly-fair"}, False),
    "ss-spst-t/static": ("ss-spst-t", {"mobility": "static"}, False),
    "ss-spst-e/gauss-markov": ("ss-spst-e", {"mobility": "gauss-markov"}, False),
    "ss-spst-e/lossless": ("ss-spst-e", {"loss_prob": 0.0}, False),
    "odmrp/lossless": ("odmrp", {"loss_prob": 0.0}, False),
    "ss-spst-f/central": ("ss-spst-f", {"daemon": "central"}, False),
    "ss-spst-e/rotating": ("ss-spst-e", {"membership": "rotating"}, False),
    "ss-spst-e/battery": ("ss-spst-e", {}, True),
    "maodv/battery": ("maodv", {}, True),
}

GOLDEN = {
    "maodv/battery": (
        "6f9245b091ae98760d19beafff018c5a"
        "19fb7f417e08782efe74d78477fd11e8"
    ),
    "odmrp/lossless": (
        "a4f33878ba02bd8615a5cd6063e280be"
        "df6a737ad839d44d45bf21b787d01dcc"
    ),
    "ss-spst-e/battery": (
        "b9749217d7744839b0a81e6b489d51a1"
        "0a8dc964c3b8928070caa9c03b252abd"
    ),
    "ss-spst-e/gauss-markov": (
        "381fc217e47dca78f6bbb2ee48cfa0f6"
        "d14fd66c9134ef8e84d378274e5d3981"
    ),
    "ss-spst-e/lossless": (
        "8d9ada70cec17bbd1a636c294744973c"
        "448d16da256e47e4bc2c32bcbca5ba45"
    ),
    "ss-spst-e/rotating": (
        "851081de5a29c308ee44f87cb8d56f32"
        "2512a2675272e233840fbc561abfc646"
    ),
    "ss-spst-e/synchronous": (
        "7d11436f9845104c755eaaa07b2199c4"
        "d33012bcaacfb5d39811b2aeb7dfe341"
    ),
    "ss-spst-e/weakly-fair": (
        "8f7354f213d1652d6090b0f08f5c7627"
        "be1e850eabfacee57f3f045070ba2d8a"
    ),
    "ss-spst-f/central": (
        "f2092ab9a8c397825f22956ada2ac4a9"
        "a291059956050c61b5225abaa25bbead"
    ),
    "ss-spst-t/static": (
        "bed120b07264988601a61265589ea23e"
        "fbd004555cfbb4afb28db439004d69eb"
    ),
    "ss-spst/central": (
        "013e580a1b2908b6a3483fdeb530bce5"
        "ee02c740731a01d12377e92dab667318"
    ),
}


def _config(name: str) -> ScenarioConfig:
    protocol, overrides, _ = CASES[name]
    return ScenarioConfig.quick(protocol=protocol, **{**BASE, **overrides})


def finite_batteries(monkeypatch, battery_j: float = BATTERY_J) -> list:
    """Give every non-source node of the next built network ``battery_j``.

    Returns a list that receives the built network, so a test can read
    its nodes after the run.
    """
    built = []
    build = runner.build_network

    def build_with_batteries(config):
        sim, network = build(config)
        source = network.group_source_of(0)
        for node in network.nodes:
            if node.id != source:
                node.battery.capacity_j = battery_j
                node.battery.remaining_j = battery_j
        built.append(network)
        return sim, network

    monkeypatch.setattr(runner, "build_network", build_with_batteries)
    return built


def test_cases_and_golden_agree():
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_des_axis_record_bytes_unchanged(name, monkeypatch):
    if CASES[name][2]:
        built = finite_batteries(monkeypatch)
    backend = backend_by_name("des")
    result = backend.run(_config(name))
    if CASES[name][2]:
        # the case only pins the battery path if nodes really die
        (network,) = built
        dead = [nd.id for nd in network.nodes if not nd.alive]
        assert dead
        assert all(network.nodes[i].battery.depleted for i in dead)
    assert record_digest(backend.record_from(result)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][2]))
def test_reception_that_kills_is_not_delivered(name, monkeypatch):
    """A reception whose charge empties the receiver's battery kills it
    first: no ``Node.deliver`` runs on a dead node, and the lost
    reception keeps the medium's counters balanced."""
    from repro.net.node import Node

    built = finite_batteries(monkeypatch)
    dead_deliveries = []
    deliver = Node.deliver

    def counting_deliver(node, packet, rx_joules):
        if not node.alive:
            dead_deliveries.append(node.id)
        return deliver(node, packet, rx_joules)

    monkeypatch.setattr(Node, "deliver", counting_deliver)
    backend_by_name("des").run(_config(name))
    (network,) = built
    assert any(not nd.alive for nd in network.nodes)
    assert dead_deliveries == []
    stats = network.medium.stats
    assert stats.receptions_total == stats.frames_delivered + stats.frames_collided
