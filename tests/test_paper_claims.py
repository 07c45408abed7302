"""The paper's claims beyond its figures, checked at small scale.

* the worked examples (Figures 1-6) through the reporting path of
  ``examples/worked_example.py``;
* stabilization rounds per metric on random graphs, and SS-SPST-F's
  "unstability" as its synchronous non-convergence rate;
* how close distributed SS-SPST-E gets to the true E_min, and to the
  centralized BIP heuristic;
* ablations of the reproduction's own design choices: power capture,
  route-flap damping and power control;
* Section 7's causal chain: speed -> fault rate -> unavailability.

Each test is seconds to tens of seconds; the whole file runs in about
a minute on two cores.  None of it reads the ``REPRO_TEST_*``
matrix variables.
"""

import numpy as np

from repro.core import RoundEngine, fresh_states, metric_by_name
from repro.core.examples import EXAMPLE_RADIO
from repro.core.metrics import METRIC_NAMES, EnergyAwareMetric
from repro.experiments.config import ScenarioConfig
from repro.experiments.paper_examples import (
    run_figure1_examples,
    run_figure5_example,
)
from repro.experiments.runner import build_network, run_scenario
from repro.graph import (
    Topology,
    bip_tree,
    exhaustive_min_energy_tree,
)
from repro.metrics.hub import MetricsHub
from repro.mobility import RandomWaypoint, link_churn
from repro.protocols.registry import make_agent_factory
from repro.protocols.ss_spst import SSSPSTConfig
from repro.traffic.cbr import CbrSource
from repro.util.geometry import Arena


# ----------------------------------------------------------------------
# Worked examples (Figures 1-6)
# ----------------------------------------------------------------------
def test_worked_examples():
    outcomes = run_figure1_examples()
    # Example 1: 3 rounds for plain SS-SPST.
    assert outcomes["hop"].rounds == 3
    # Examples 2-5: refinement costs rounds; ordering hop <= T <= F.
    assert outcomes["hop"].rounds <= outcomes["tx"].rounds <= outcomes["farthest"].rounds
    # Example 5: the E tree is cheapest under the E metric and silences
    # node 4 (whose neighborhood holds the overhearing non-members 8, 9).
    e_costs = {name: oc.e_cost for name, oc in outcomes.items()}
    assert e_costs["energy"] == min(e_costs.values())
    assert 4 not in outcomes["energy"].forwarding

    # Figure 5: only the E metric avoids the noisy parent.
    parents = run_figure5_example()
    assert parents["energy"] == 2
    assert all(parents[m] == 1 for m in ("hop", "tx", "farthest"))


# ----------------------------------------------------------------------
# Rounds to stabilize per metric (Examples 1-5: 3/4/5/5 rounds)
# ----------------------------------------------------------------------
N_GRAPHS = 30


def _random_topologies():
    out = []
    rng = np.random.default_rng(2024)
    while len(out) < N_GRAPHS:
        n = int(rng.integers(15, 40))
        pos = rng.random((n, 2)) * 500.0
        members = [int(x) for x in rng.choice(n, size=max(2, n // 3), replace=False)]
        topo = Topology.from_positions(pos, 250.0, source=0, members=members)
        if topo.is_connected():
            out.append(topo)
    return out


def test_rounds_to_stabilize():
    """Richer metrics buy energy at the price of extra stabilization
    rounds, and SS-SPST-F oscillates where the others settle."""
    topos = _random_topologies()
    stats = {}
    for name in METRIC_NAMES:
        rounds, failures = [], 0
        for i, topo in enumerate(topos):
            metric = metric_by_name(name, EXAMPLE_RADIO)
            res = RoundEngine(topo, metric, daemon="synchronous").run(
                fresh_states(topo, metric)
            )
            if not res.converged:
                # The documented F-style oscillation: retry under the
                # randomized daemon (jittered beacons).
                failures += 1
                res = RoundEngine(
                    topo, metric, daemon="randomized", rng=np.random.default_rng(i)
                ).run(fresh_states(topo, metric), max_rounds=400)
            if res.converged:
                rounds.append(res.rounds)
        stats[name] = {
            "mean_rounds": float(np.mean(rounds)) if rounds else float("nan"),
            "sync_failures": failures,
            "converged": len(rounds),
        }
    # Richer metrics stabilize no faster than hop counting.
    assert stats["hop"]["mean_rounds"] <= stats["tx"]["mean_rounds"] + 0.5
    assert stats["hop"]["mean_rounds"] <= stats["energy"]["mean_rounds"] + 0.5
    # The F metric exhibits the instability the paper reports: it fails to
    # converge under the synchronous daemon far more often than hop/T.
    assert stats["farthest"]["sync_failures"] >= stats["hop"]["sync_failures"]
    assert stats["farthest"]["sync_failures"] > 0
    # hop/T/E converge everywhere (randomized daemon); F may genuinely
    # limit-cycle on a few graphs — the instability is structural, which
    # is exactly the paper's finding ("dynamic nature causes unstability").
    for name in ("hop", "tx", "energy"):
        assert stats[name]["converged"] == N_GRAPHS
    assert stats["farthest"]["converged"] >= int(0.8 * N_GRAPHS)


# ----------------------------------------------------------------------
# Distributed SS-SPST-E vs the true E_min and centralized heuristics
# ----------------------------------------------------------------------
def _small_graphs(count=5, n=7):
    out = []
    rng = np.random.default_rng(7)
    while len(out) < count:
        pos = rng.random((n, 2)) * 260.0
        members = [int(x) for x in rng.choice(n, size=3, replace=False)]
        topo = Topology.from_positions(pos, 250.0, source=0, members=members)
        if topo.is_connected():
            out.append(topo)
    return out


def test_distributed_vs_exhaustive():
    ratios = []
    for i, topo in enumerate(_small_graphs()):
        metric = EnergyAwareMetric(EXAMPLE_RADIO)
        res = RoundEngine(
            topo, metric, daemon="randomized", rng=np.random.default_rng(i)
        ).run(fresh_states(topo, metric), max_rounds=300)
        if not res.converged:
            continue
        cost = metric.tree_cost(topo, res.tree(topo))
        _, best = exhaustive_min_energy_tree(topo, metric, max_trees=500_000)
        ratios.append(cost / best if best > 0 else 1.0)
    assert ratios, "no graph converged"
    assert all(r >= 1.0 - 1e-9 for r in ratios)  # optimum is a lower bound
    assert float(np.mean(ratios)) <= 1.35  # greedy fixpoints stay close


def test_vs_bip():
    """SS-SPST-E vs centralized BIP at 30 nodes."""
    rng = np.random.default_rng(11)
    while True:
        pos = rng.random((30, 2)) * 600.0
        members = [int(x) for x in rng.choice(30, size=10, replace=False)]
        topo = Topology.from_positions(pos, 250.0, source=0, members=members)
        if topo.is_connected():
            break
    metric = EnergyAwareMetric(EXAMPLE_RADIO)
    res = RoundEngine(
        topo, metric, daemon="randomized", rng=np.random.default_rng(0)
    ).run(fresh_states(topo, metric), max_rounds=400)
    ss = metric.tree_cost(topo, res.tree(topo)) if res.converged else float("inf")
    bip = metric.tree_cost(topo, bip_tree(topo, EXAMPLE_RADIO))
    # The distributed protocol should be comparable to (or beat) BIP under
    # the E objective, since BIP ignores overhearing.
    assert ss <= bip * 1.5


# ----------------------------------------------------------------------
# Ablations of the reproduction's design choices
# ----------------------------------------------------------------------
BASE = dict(sim_time=90.0, v_max=5.0, group_size=30)
SEEDS = (1, 2)


def _collisions(protocol, capture_threshold, seed=1, **kw):
    cfg = ScenarioConfig.quick(
        protocol=protocol, seed=seed, capture_threshold=capture_threshold,
        **{**BASE, **kw},
    )
    r = run_scenario(cfg)
    return r.frames_collided, r.summary.pdr


def test_capture_effect():
    """ns-2-style power capture converts overlapping receptions whose
    power ratio exceeds CPThresh into deliveries.  The guaranteed effect
    is mechanical — strictly fewer corrupted frames; the PDR gain follows
    in contention-heavy scenarios (flooding, large group)."""
    coll_c, pdr_c = _collisions("flooding", 10.0, group_size=50)
    coll_n, pdr_n = _collisions("flooding", 1e9, group_size=50)
    assert coll_c < coll_n
    assert pdr_c >= pdr_n - 0.02


def _churn(protocol, ss_config, seed=1, **kw):
    cfg = ScenarioConfig.quick(protocol=protocol, seed=seed, **{**BASE, **kw})
    sim, network = build_network(cfg)
    hub = MetricsHub(n_receivers=len(network.receivers))
    hub.set_packet_size_hint(cfg.packet_bytes)
    network.hub = hub
    network.attach_agents(make_agent_factory(protocol, ss_config=ss_config))
    network.start()
    CbrSource(
        network, rate_kbps=cfg.rate_kbps, packet_bytes=cfg.packet_bytes,
        start_time=cfg.traffic_start,
    ).start()
    sim.run(until=cfg.sim_time)
    return sum(n.agent.parent_changes for n in network.nodes)


def test_flap_damping():
    """Damping's mechanical effect: it must cut parent churn sharply.

    (Its PDR effect is configuration-dependent — damping wins in most
    cells of the A/B grid but not all — so the robust claim is churn.)
    """
    damped = SSSPSTConfig(switch_threshold=0.10, hold_down_intervals=3.0)
    undamped = SSSPSTConfig(switch_threshold=0.0, hold_down_intervals=0.0)
    cd = _churn("ss-spst-e", damped)
    cu = _churn("ss-spst-e", undamped)
    assert cd < cu * 0.8  # damping removes at least 20% of parent churn


def _mean_energy_per_packet(protocol):
    epps = [
        run_scenario(
            ScenarioConfig.quick(protocol=protocol, seed=seed, **BASE)
        ).summary.energy_per_packet_mj
        for seed in SEEDS
    ]
    return sum(epps) / len(epps)


def test_power_control_value():
    """SS-SPST-E (power controlled) vs flooding (full power, maximal
    redundancy): the energy gap is the headline of the whole paper."""
    e_ss = _mean_energy_per_packet("ss-spst-e")
    e_flood = _mean_energy_per_packet("flooding")
    assert e_ss < e_flood * 0.6


# ----------------------------------------------------------------------
# Section 7: speed -> fault rate -> unavailability
# ----------------------------------------------------------------------
VELOCITIES = (1.0, 5.0, 10.0, 20.0)


def test_fault_rate_drives_unavailability():
    """The middle link of the paper's causal chain (link breaks per
    second under random waypoint, as a function of v_max), correlated
    with the protocol-level symptom (SS-SPST-E unavailability)."""
    arena = Arena(750.0, 750.0)
    fault_rates = []
    unav = []
    for v in VELOCITIES:
        mob = RandomWaypoint(
            50, arena, v_min=1.0, v_max=v, rng=np.random.default_rng(17)
        )
        stats = link_churn(mob, max_range=250.0, duration=120.0, dt=1.0)
        fault_rates.append(stats.break_rate)
        cfg = ScenarioConfig.quick(protocol="ss-spst-e", v_max=v, seed=1, sim_time=90.0)
        unav.append(run_scenario(cfg).summary.unavailability)
    # The middle link: fault rate strictly grows with speed.
    assert all(a < b for a, b in zip(fault_rates, fault_rates[1:]))
    # And the symptom follows the cause: the fastest setting is less
    # available than the slowest.
    assert unav[-1] > unav[0]
    # Correlation between cause and symptom across the sweep.
    r = float(np.corrcoef(fault_rates, unav)[0, 1])
    assert r > 0.5
