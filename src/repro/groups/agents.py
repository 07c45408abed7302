"""Per-node dispatch across k concurrent SS-SPST instances.

The DES realization of multi-group multicast: every node runs one
:class:`~repro.protocols.ss_spst.SSSPSTAgent` *per group*, all sharing
the node's single MAC and the one :class:`~repro.net.medium.WirelessMedium`
— beacons and data frames from different groups genuinely contend and
collide.  :func:`repro.protocols.registry.make_agent_factory` builds the
sub-agents and wraps them in a :class:`GroupDispatchAgent` whenever the
network declares more than one group.  The dispatcher is thin glue: it
owns the k sub-agents, returns the one serving group ``gid`` from
:meth:`GroupDispatchAgent.agent_for` (the CBR source and the runner's
tree statistics go through it) and routes each received frame to the
instance whose ``group_id`` matches the frame's tag (other groups'
frames are overheard garbage to that instance, exactly like a foreign
protocol's frames are to a single agent).

Group 0's sub-agent is started first and draws from the historical
``"beacon.<id>"`` substream; groups 1..k-1 draw from their own
``derive("beacon", id, gid)`` substreams.
"""

from __future__ import annotations

from typing import Dict

from repro.net.node import Node, ProtocolAgent
from repro.net.packet import Packet
from repro.protocols.ss_spst import SSSPSTAgent


class GroupDispatchAgent(ProtocolAgent):
    """One node's k per-group SS-SPST instances behind one agent slot."""

    def __init__(self, node: Node, subagents: Dict[int, SSSPSTAgent]) -> None:
        super().__init__(node)
        if not subagents or sorted(subagents) != list(range(len(subagents))):
            raise ValueError("subagents must cover group ids 0..k-1")
        self.subagents = {gid: subagents[gid] for gid in sorted(subagents)}

    def agent_for(self, gid: int) -> SSSPSTAgent:
        """The sub-agent serving group ``gid``."""
        return self.subagents[gid]

    # ------------------------------------------------------------------
    def start(self) -> None:
        for gid in sorted(self.subagents):  # group 0 first: stream order
            self.subagents[gid].start()

    def stop(self) -> None:
        for agent in self.subagents.values():
            agent.stop()

    def on_node_death(self) -> None:
        for agent in self.subagents.values():
            agent.on_node_death()

    def on_membership_change(self) -> None:
        for agent in self.subagents.values():
            agent.on_membership_change()

    def handle_packet(self, packet: Packet) -> bool:
        agent = self.subagents.get(packet.group)
        if agent is None:
            return False  # unknown session: overheard garbage
        return agent.handle_packet(packet)
