"""Micro-benchmarks of the substrate hot paths (classic pytest-benchmark).

These guard the simulator's throughput: the figure benches run hundreds of
thousands of events, so regressions here multiply across the whole suite.
"""

import numpy as np

from repro.core import GlobalView, RoundEngine, fresh_states, metric_by_name
from repro.core.examples import EXAMPLE_RADIO
from repro.graph import Topology
from repro.mobility import RandomWaypoint
from repro.net import MacConfig, Network, Packet, PacketKind
from repro.sim import Simulator
from repro.util.geometry import Arena, pairwise_distances
from repro.util.rng import RngStreams


def test_kernel_event_throughput(benchmark):
    """Schedule + execute 10k chained events."""

    def run():
        sim = Simulator()

        def chain(k):
            if k:
                sim.schedule(0.001, chain, k - 1)

        sim.schedule(0.0, chain, 10_000)
        sim.run()
        return sim.events_executed

    executed = benchmark(run)
    assert executed == 10_001


def test_pairwise_distance_50(benchmark):
    pts = np.random.default_rng(0).random((50, 2)) * 750
    d = benchmark(pairwise_distances, pts)
    assert d.shape == (50, 50)


def test_mobility_advance(benchmark):
    rng = np.random.default_rng(1)
    m = RandomWaypoint(50, Arena(), v_min=1.0, v_max=20.0, rng=rng)
    t = [0.0]

    def step():
        t[0] += 0.25
        return m.positions(t[0])

    pos = benchmark(step)
    assert pos.shape == (50, 2)


def test_medium_broadcast_50(benchmark):
    from repro.energy import FirstOrderRadioModel
    from repro.mobility import StaticPlacement

    streams = RngStreams(5)
    sim = Simulator()
    arena = Arena()
    mob = StaticPlacement(50, arena, rng=streams.get("place"))
    net = Network(sim, mob, FirstOrderRadioModel(), streams, mac_config=MacConfig(jitter_max=0.0))
    seq = [0]

    def send():
        pkt = Packet(PacketKind.DATA, 0, 0, seq[0], 512)
        seq[0] += 1
        net.medium.broadcast(0, pkt, 250.0)
        sim.run()  # drain deliveries
        return pkt

    benchmark(send)


def test_round_executor_energy_metric(benchmark):
    rng = np.random.default_rng(3)
    while True:
        pos = rng.random((30, 2)) * 500
        topo = Topology.from_positions(pos, 250.0, source=0, members=list(range(0, 30, 3)))
        if topo.is_connected():
            break
    metric = metric_by_name("energy", EXAMPLE_RADIO)

    def stabilize():
        # Randomized daemon: the sync daemon can 2-cycle under E (see
        # bench_ablation_rounds), which would poison the timing.
        ex = RoundEngine(
            topo, metric, daemon="randomized", rng=np.random.default_rng(42)
        )
        return ex.run(fresh_states(topo, metric), max_rounds=300)

    res = benchmark(stabilize)
    assert res.converged


def test_join_cost_evaluation(benchmark):
    rng = np.random.default_rng(4)
    while True:
        pos = rng.random((40, 2)) * 500
        topo = Topology.from_positions(pos, 250.0, source=0, members=list(range(0, 40, 2)))
        if topo.is_connected():
            break
    metric = metric_by_name("energy", EXAMPLE_RADIO)
    res = RoundEngine(topo, metric, daemon="synchronous").run(
        fresh_states(topo, metric)
    )
    view = GlobalView(topo, res.states)
    v = 17
    u = topo.neighbors(v)[0]

    cost = benchmark(metric.join_cost, view, v, u)
    assert cost >= 0.0
