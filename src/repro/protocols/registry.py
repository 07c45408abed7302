"""Protocol factory: build per-node agents by protocol name."""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.daemons import require_des_daemon
from repro.core.metrics import SS_PROTOCOL_METRICS, metric_by_name
from repro.groups.agents import GroupDispatchAgent
from repro.net.node import Node, ProtocolAgent
from repro.protocols.flooding import FloodingAgent
from repro.protocols.maodv import MaodvAgent
from repro.protocols.odmrp import OdmrpAgent
from repro.protocols.ss_spst import SSSPSTAgent, SSSPSTConfig

PROTOCOL_NAMES = tuple(SS_PROTOCOL_METRICS) + ("maodv", "odmrp", "flooding")


def make_agent_factory(
    protocol: str,
    *,
    beacon_interval: float = 2.0,
    daemon: str = "distributed",
    ss_config: Optional[SSSPSTConfig] = None,
) -> Callable[[Node], ProtocolAgent]:
    """Return a ``factory(node) -> agent`` for :meth:`Network.attach_agents`.

    ``beacon_interval`` is a convenience for the SS-SPST family (the
    paper's Figure 10/11 sweep); pass a full ``ss_config`` to tune more.
    ``daemon`` selects the activation discipline realized by the SS-SPST
    beacon clocks (see :attr:`SSSPSTConfig.activation`); on-demand
    protocols have no beacon clock and ignore it.  The round-model-only
    ``adversarial-max-cost`` daemon is rejected.

    On a network that declares k > 1 groups, an SS-SPST-family factory
    gives each node one agent per group behind a
    :class:`~repro.groups.agents.GroupDispatchAgent` (group 0's agent
    built first); with one group it returns the bare agent.  The
    on-demand baselines serve group 0 only
    (:func:`~repro.experiments.scenario_models.validate_models` rejects
    them at k > 1).
    """
    protocol = protocol.lower()
    require_des_daemon(daemon)
    if protocol in SS_PROTOCOL_METRICS:
        metric_name = SS_PROTOCOL_METRICS[protocol]
        if ss_config is not None:
            config = ss_config
        else:
            # SS-SPST-F runs undamped: its "dynamic nature which causes
            # unstability" (section 7.1) is a finding the paper reports,
            # and route-flap damping would mask it.
            undamped = metric_name == "farthest"
            config = SSSPSTConfig(
                beacon_interval=beacon_interval,
                switch_threshold=0.0 if undamped else 0.10,
                hold_down_intervals=0.0 if undamped else 3.0,
                activation=daemon,
            )

        def factory(node: Node) -> ProtocolAgent:
            agents = {
                g.gid: SSSPSTAgent(
                    node,
                    metric_by_name(metric_name, node.network.radio),
                    config,
                    group_id=g.gid,
                )
                for g in node.network.groups
            }
            if len(agents) == 1:
                return agents[0]
            return GroupDispatchAgent(node, agents)

        return factory
    if protocol == "maodv":
        return MaodvAgent
    if protocol == "odmrp":
        return OdmrpAgent
    if protocol == "flooding":
        return FloodingAgent
    raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOL_NAMES}")
