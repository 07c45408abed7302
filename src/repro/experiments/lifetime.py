"""Network-lifetime extension experiment.

The paper motivates energy awareness with battery-powered nodes but
simulates unlimited energy.  This extension gives every node a finite
battery and measures the lifetime consequences of the metric choice:
time to first node death, death curve, and delivery sustained over the
battery-limited session.  (Lifetime maximization under overhearing is the
subject of the authors' companion work, Deng & Gupta ICDCN'06 — reference
[7] of the paper.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import _simulate, build_network


@dataclass
class LifetimeResult:
    """Outcome of one battery-limited run."""

    protocol: str
    battery_j: float
    first_death_t: Optional[float]
    deaths: List[float] = field(default_factory=list)  # death times
    delivered: int = 0
    pdr: float = 0.0

    @property
    def alive_at_end(self) -> bool:
        return self.first_death_t is None


def run_lifetime(
    config: ScenarioConfig,
    battery_j: float,
) -> LifetimeResult:
    """Run one scenario with finite per-node batteries.

    The source is exempted (a dead source ends the session trivially and
    measures nothing about the tree's energy placement).  Everything
    else — agents, traffic, membership churn — runs exactly as in
    :func:`~repro.experiments.runner.run_scenario`.  Only single-group
    DES configs are accepted: a ``group_count > 1`` or
    ``backend="rounds"`` config is rejected rather than silently run as
    a different experiment.
    """
    if battery_j <= 0:
        raise ValueError("battery capacity must be positive")
    if config.backend != "des" or config.group_count != 1:
        raise ValueError(
            f"run_lifetime runs one multicast group on the DES; got "
            f"backend={config.backend!r}, group_count={config.group_count}"
        )
    sim, network = build_network(config)
    for node in network.nodes:
        if not node.is_source:
            node.battery.capacity_j = battery_j
            node.battery.remaining_j = battery_j
    summary = _simulate(config, sim, network).summary(network.total_energy())
    deaths = sorted(nd.died_at for nd in network.nodes if nd.died_at is not None)
    return LifetimeResult(
        protocol=config.protocol,
        battery_j=battery_j,
        first_death_t=deaths[0] if deaths else None,
        deaths=deaths,
        delivered=summary.data_delivered,
        pdr=summary.pdr,
    )


def _lifetime_execute(payload) -> LifetimeResult:
    """Scheduler worker: one (config, battery) lifetime run.

    Top level (picklable) so ``compare_lifetimes`` can fan out on a
    :class:`~repro.experiments.scheduler.PoolScheduler`.
    """
    config, battery_j = payload
    return run_lifetime(config, battery_j)


def compare_lifetimes(
    protocols,
    battery_j: float,
    base: Optional[ScenarioConfig] = None,
    seeds=(1, 2),
    workers: int = 1,
) -> Dict[str, List[LifetimeResult]]:
    """Battery-limited comparison across protocols on shared scenarios.

    Runs through the campaign scheduler layer: pass ``workers > 1`` to
    fan the protocol × seed grid out in parallel; results come back in
    the same deterministic order either way.
    """
    from repro.experiments.scheduler import PoolScheduler

    base = base or ScenarioConfig.quick()
    protocols = list(protocols)
    seeds = list(seeds)
    jobs = []
    for p_i, protocol in enumerate(protocols):
        for s_i, seed in enumerate(seeds):
            config = base.replace(protocol=protocol, seed=seed)
            jobs.append((p_i * len(seeds) + s_i, (config, battery_j)))

    results: List[Optional[LifetimeResult]] = [None] * len(jobs)
    PoolScheduler(workers).execute(
        _lifetime_execute, jobs, lambda i, res: results.__setitem__(i, res)
    )
    return {
        protocol: results[p_i * len(seeds) : (p_i + 1) * len(seeds)]
        for p_i, protocol in enumerate(protocols)
    }
