"""Build and run one scenario end to end."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.backends import DesBackend, RunResult
from repro.experiments.config import ScenarioConfig
from repro.experiments.scenario_models import (
    build_scenario_space,
    resolved_models,
    scenario_key,
)
from repro.groups.metrics import group_tree_stats
from repro.metrics.hub import MetricsHub
from repro.mobility.analysis import mobility_profile
from repro.net.mac import MacConfig
from repro.net.node import Network, ProtocolAgent
from repro.protocols.registry import make_agent_factory
from repro.protocols.ss_spst import SSSPSTAgent
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer

#: adjacency sampling step (seconds) for the per-run mobility profile
CHURN_SAMPLE_DT = 1.0


def build_network(config: ScenarioConfig):
    """Construct simulator + network + group from a config (no agents).

    The scenario structure — arena, initial placement, mobility process,
    multicast groups, radio — comes from the config's scenario models via
    :func:`~repro.experiments.scenario_models.build_scenario_space`, the
    same path the rounds backend snapshots at t = 0.
    """
    sim = Simulator()
    space = build_scenario_space(config)
    network = Network(
        sim,
        space.mobility,
        space.radio,
        space.streams,
        mac_config=MacConfig(),
        bitrate_bps=config.bitrate_bps,
        loss_prob=config.loss_prob,
        capture_threshold=config.capture_threshold,
    )
    network.set_groups(space.groups)
    return sim, network


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Run one full scenario and return its metrics.

    The same seed yields the identical t = 0 placement, first mobility
    legs and group for every protocol ("We used the same scenarios to
    evaluate all the protocols", section 6) because protocol-specific
    randomness draws from separate named substreams.  Later legs are
    *not* shared: the waypoint model draws each expired leg in node
    order at whatever instants the run queries positions, so protocols
    that query at different instants (their own frame and beacon times)
    drift onto different trajectories after the first legs expire.
    """
    sim, network = build_network(config)
    hub = _simulate(config, sim, network)
    parent_changes = sum(
        agent.parent_changes
        for g in network.groups
        for agent in _agents_of(network, g.gid)
        if isinstance(agent, SSSPSTAgent)
    )
    tree_stats = _final_tree_stats(network)
    profile = _mobility_profile(config)
    summary = hub.summary(network.total_energy())
    diagnostics = dict(
        DesBackend.DIAGNOSTICS,
        parent_changes=parent_changes,
        events_executed=sim.events_executed,
        frames_sent=network.medium.stats.frames_sent,
        frames_collided=network.medium.stats.frames_collided,
        link_breaks_per_s=profile.churn.break_rate,
        link_events_per_s=profile.churn.event_rate,
        mean_degree=profile.churn.mean_degree,
        partition_fraction=profile.partition_fraction,
        fairness_jain=hub.fairness_jain(),
        group_pdr_min=hub.group_pdr_min(),
        **tree_stats,
    )
    return RunResult(config, summary, diagnostics)


def _simulate(
    config: ScenarioConfig, sim: Simulator, network: Network
) -> MetricsHub:
    """Run a built network to ``config.sim_time``; return its metrics hub.

    Installs the hub, one agent per node (one per group per node at
    k > 1), the configured traffic (one CBR clock per group at k > 1),
    the membership model's mid-run churn and the availability prober,
    then runs the simulation and stops every clock.
    """
    hub = MetricsHub(
        {g.gid: len(g.receivers) for g in network.groups},
        availability_window=max(2.0, 4.0 * 1.0 / _packets_per_second(config)),
    )
    hub.set_packet_size_hint(config.packet_bytes)
    network.hub = hub
    network.attach_agents(
        make_agent_factory(
            config.protocol,
            beacon_interval=config.beacon_interval,
            daemon=config.daemon,
        )
    )
    network.start()

    models = resolved_models(config)
    traffic = models["traffic"].build(network, config)
    traffic.start()
    # Membership models may schedule mid-run join/leave events (rotating;
    # churn only ever touches group 0, the membership model's group).
    models["membership"].install(network, config)

    # The probed sets are the live records: rotating membership changes
    # who group 0's receivers are mid-run (a no-op for static memberships).
    def _probe() -> None:
        for g in network.groups:
            hub.probe_availability(g.receivers, sim.now, group=g.gid)

    prober = PeriodicTimer(
        sim,
        config.availability_probe_interval,
        _probe,
        start_offset=config.traffic_start + config.availability_probe_interval,
    )

    sim.run(until=config.sim_time)

    network.stop()
    traffic.stop()
    prober.stop()
    return hub


def _agents_of(network: Network, gid: int) -> List[ProtocolAgent]:
    """Every node's agent for group ``gid``, in node order."""
    return [node.agent.agent_for(gid) for node in network.nodes]


def _final_tree_stats(network: Network) -> Dict[str, float]:
    """Link-stress/overlap of the final per-group trees.

    Reads settled agent state only — no RNG, no events — so computing it
    cannot perturb the run.  Empty for protocols without an explicit
    parent tree (on-demand baselines): those diagnostics keep their nan
    defaults there.
    """
    parent_maps: Dict[int, Dict[int, Optional[int]]] = {}
    sources: Dict[int, int] = {}
    receivers: Dict[int, object] = {}
    for group in network.groups:
        agents = _agents_of(network, group.gid)
        if not all(isinstance(agent, SSSPSTAgent) for agent in agents):
            return {}
        parent_maps[group.gid] = {
            agent.node.id: agent.state.parent for agent in agents
        }
        sources[group.gid] = network.group_source_of(group.gid)
        receivers[group.gid] = network.group_receivers_of(group.gid)
    return group_tree_stats(parent_maps, sources, receivers)


#: per-process profile memo — protocol/daemon sweeps share one scenario
#: per seed ("we used the same scenarios for all the protocols"), so the
#: replay is computed once per scenario, not once per run
_PROFILE_MEMO: Dict[tuple, object] = {}


def _mobility_profile(config: ScenarioConfig):
    """Fault-process statistics of the run's mobility scenario.

    Mobility models advance lazily and reject backwards queries, so the
    simulation's own (now-exhausted) model cannot be resampled; a fresh
    scenario space from the same seed is sampled on a
    ``CHURN_SAMPLE_DT`` grid instead.  That replay starts where the run
    started, but it is not the run's trajectory: the waypoint model
    draws expired legs in the order positions are queried, and the run
    queried at its own event times (see :func:`run_scenario`).  The
    profile describes the seed's scenario as sampled on the grid, the
    same for every protocol.  Memoized on
    :func:`~repro.experiments.scenario_models.scenario_key`, which
    covers the content digest of a trace file, so a file edited in
    place is replayed afresh.
    """
    key = scenario_key(config)
    profile = _PROFILE_MEMO.get(key)
    if profile is None:
        replay = build_scenario_space(config).mobility
        profile = mobility_profile(
            replay,
            config.max_range,
            duration=config.sim_time,
            dt=CHURN_SAMPLE_DT,
        )
        if len(_PROFILE_MEMO) >= 256:  # bound worker-process memory
            _PROFILE_MEMO.clear()
        _PROFILE_MEMO[key] = profile
    return profile


def _packets_per_second(config: ScenarioConfig) -> float:
    return (config.rate_kbps * 1000.0) / (config.packet_bytes * 8)
