"""Build and run one scenario end to end."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.config import ScenarioConfig
from repro.experiments.scenario_models import (
    build_scenario_space,
    resolved_models,
    scenario_content_fingerprint,
)
from repro.groups.metrics import group_tree_stats
from repro.metrics.hub import MetricsHub, RunSummary
from repro.mobility.analysis import mobility_profile
from repro.net.mac import MacConfig
from repro.net.node import Network, ProtocolAgent
from repro.protocols.registry import make_agent_factory
from repro.protocols.ss_spst import SSSPSTAgent
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer

#: adjacency sampling step (seconds) for the per-run mobility profile
CHURN_SAMPLE_DT = 1.0


@dataclass
class RunResult:
    """Summary plus protocol-level diagnostics for one run."""

    summary: RunSummary
    config: ScenarioConfig
    parent_changes: int  # SS-SPST family churn (0 for on-demand protocols)
    events_executed: int
    frames_sent: int
    # receptions (one per receiver of a frame), not frames, lost to
    # collision, half duplex or random loss
    frames_collided: int
    # Mobility fault-process diagnostics (repro.mobility.analysis),
    # sampled from a replay of the run's mobility model: link breaks are
    # the "faults" self-stabilization absorbs, partitioning the ceiling
    # on any protocol's PDR.  nan in records written before these existed.
    link_breaks_per_s: float = float("nan")
    link_events_per_s: float = float("nan")
    mean_degree: float = float("nan")
    partition_fraction: float = float("nan")
    # Cross-group diagnostics (repro.groups): fairness over per-group
    # PDRs, worst-served group, and link-stress/overlap of the k final
    # trees.  Populated for every SS-SPST-family run (a single group
    # scores fairness 1.0, stress 1.0, overlap 0.0); nan for on-demand
    # protocols and in records written before these existed.
    fairness_jain: float = float("nan")
    group_pdr_min: float = float("nan")
    link_stress_mean: float = float("nan")
    link_stress_max: float = float("nan")
    tree_overlap_ratio: float = float("nan")

    def __getattr__(self, item):
        # Convenience passthrough: result.pdr == result.summary.pdr.
        # Must raise AttributeError (not recurse) for dunders and for
        # lookups before ``summary`` exists: pickle probes instance
        # attributes like ``__setstate__`` on a not-yet-populated object,
        # which previously recursed forever and broke worker pools.
        if item.startswith("__") and item.endswith("__"):
            raise AttributeError(item)
        try:
            summary = self.__dict__["summary"]
        except KeyError:
            raise AttributeError(item) from None
        return getattr(summary, item)


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

    The same seed yields the identical mobility scenario and group for
    every protocol ("We used the same scenarios to evaluate all the
    protocols", section 6) because protocol-specific randomness draws from
    separate named substreams.
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
    return RunResult(
        summary=hub.summary(network.total_energy()),
        config=config,
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
        n_receivers=len(network.receivers),
        availability_window=max(2.0, 4.0 * 1.0 / _packets_per_second(config)),
    )
    hub.set_packet_size_hint(config.packet_bytes)
    hub.set_group_receiver_counts(
        {g.gid: len(g.receivers) for g in network.groups}
    )
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

    # The probed sets are read live: rotating membership changes who
    # group 0's receivers are mid-run (a no-op for static memberships).
    def _probe() -> None:
        for g in network.groups:
            hub.probe_availability(
                network.group_receivers_of(g.gid), sim.now, group=g.gid
            )

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
    parent tree (on-demand baselines): the RunResult keeps its nan
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


#: config fields the mobility trajectory (and so the profile) depends on
_PROFILE_FIELDS = (
    "seed",
    "n_nodes",
    "arena_w",
    "arena_h",
    "density_ref_n",
    "placement",
    "mobility",
    "model_params",
    "v_min",
    "v_max",
    "pause_time",
    "max_range",
    "sim_time",
)

#: per-process profile memo — protocol/daemon sweeps share one scenario
#: per seed ("we used the same scenarios for all the protocols"), so the
#: replay is computed once per scenario, not once per run
_PROFILE_MEMO: Dict[tuple, object] = {}


def _mobility_profile(config: ScenarioConfig):
    """Fault-process statistics of the run's mobility scenario.

    Mobility models advance lazily and reject backwards queries, so the
    simulation's own (now-exhausted) model cannot be resampled; a fresh
    scenario space replays the identical trajectory from the same seed.
    Memoized on the trajectory-relevant config fields because the
    profile is protocol-independent, plus the content digest of a trace
    file, so a file edited in place is replayed afresh.
    """
    key = tuple(getattr(config, f) for f in _PROFILE_FIELDS) + (
        scenario_content_fingerprint(config),
    )
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
