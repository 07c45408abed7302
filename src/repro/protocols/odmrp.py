"""ODMRP: On-Demand Multicast Routing Protocol (Gerla, Lee & Chiang).

Mesh-based baseline with the architectural traits the paper leans on:

* the source periodically floods a **JOIN-QUERY** over the whole network
  (every node rebroadcasts once), refreshing reverse paths;
* receivers answer each query with a **JOIN-REPLY** that walks hop-by-hop
  back toward the source, setting the **forwarding-group** flag (with
  soft-state timeout) on every node of the path;
* data is rebroadcast by every forwarding-group node — the redundant
  mesh paths that give ODMRP the best PDR under mobility (Figure 14) and
  the worst control/energy overhead (Figures 13 and 16), behaving
  "similar to flooding" as group size grows.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.protocols.base import MulticastAgent
from repro.sim.timers import PeriodicTimer
from repro.util.ids import NodeId

JOIN_QUERY_HEADER_BYTES = 24
JOIN_REPLY_BYTES = 20


#: seconds between the source's JOIN-QUERY floods (the original paper's
#: 3 s refresh)
QUERY_INTERVAL = 3.0
#: forwarding-group soft-state lifetime, in query intervals
FG_TIMEOUT_FACTOR = 3.0
FG_TIMEOUT = FG_TIMEOUT_FACTOR * QUERY_INTERVAL
#: uniform jitter on the query clock
JITTER = 0.4
#: In real ODMRP the periodic JOIN-QUERY is *piggybacked on a data
#: packet* and flooded by every node in the network: that network-wide
#: data-sized flood, repeated every refresh interval, is where ODMRP's
#: control overhead comes from (and why Figure 13 shows it highest and
#: "similar to flooding" as membership grows).  This is the data payload
#: each query carries.
PIGGYBACK_BYTES = 512
QUERY_BYTES = JOIN_QUERY_HEADER_BYTES + PIGGYBACK_BYTES


class OdmrpAgent(MulticastAgent):
    """One ODMRP node."""

    def __init__(self, node: Node) -> None:
        super().__init__(node)
        self.upstream: Optional[NodeId] = None  # prev hop toward the source
        self.fg_until = -1.0  # forwarding-group membership expiry
        self._query_seq = 0
        self._timer: Optional[PeriodicTimer] = None
        self.control_frames = {"join_query": 0, "join_reply": 0}

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.is_source:
            rng = self.network.streams.derive("odmrp", self.node.id)
            self._timer = PeriodicTimer(
                self.sim,
                QUERY_INTERVAL,
                self._flood_query,
                jitter=JITTER,
                rng=rng,
                start_offset=float(rng.uniform(0.0, 0.3)),
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def on_node_death(self) -> None:
        self.stop()

    @property
    def in_forwarding_group(self) -> bool:
        return self.is_source or self.sim.now <= self.fg_until

    # ------------------------------------------------------------------
    def _flood_query(self) -> None:
        self.control_frames["join_query"] += 1
        self.send_control(
            PacketKind.JOIN_QUERY,
            QUERY_BYTES,
            {"source": self.node.id},
            seq=self._query_seq,
        )
        self._query_seq += 1

    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> bool:
        kind = packet.kind
        if kind is PacketKind.JOIN_QUERY:
            return self._on_query(packet)
        if kind is PacketKind.JOIN_REPLY:
            return self._on_reply(packet)
        if kind is PacketKind.DATA:
            return self._on_data(packet)
        return False

    def _on_query(self, packet: Packet) -> bool:
        if self.dups.seen_before(packet.flow_key):
            return False
        self.upstream = packet.src
        if self.is_member and not self.is_source:
            # Answer immediately: JOIN-REPLY toward the source.
            self.control_frames["join_reply"] += 1
            self.send_control(
                PacketKind.JOIN_REPLY,
                JOIN_REPLY_BYTES,
                {"next": packet.src, "source": packet.origin},
                seq=packet.seq,
                origin=self.node.id,
            )
        # Continue the network-wide flood.
        self.node.send(packet.relay(self.node.id), self.max_range)
        return True

    def _on_reply(self, packet: Packet) -> bool:
        if packet.payload.get("next") != self.node.id:
            return False  # someone else's hop: overheard
        if self.is_source:
            return True  # reply reached the source; mesh branch complete
        # Join the forwarding group and propagate upstream.
        self.fg_until = self.sim.now + FG_TIMEOUT
        if self.upstream is not None:
            self.control_frames["join_reply"] += 1
            self.send_control(
                PacketKind.JOIN_REPLY,
                JOIN_REPLY_BYTES,
                {"next": self.upstream, "source": packet.payload.get("source")},
                seq=packet.seq,
                origin=packet.origin,
            )
        return True

    def _on_data(self, packet: Packet) -> bool:
        if self.dups.seen_before(packet.flow_key):
            return False
        useful = False
        if self.is_member:
            self.deliver_locally(packet)
            useful = True
        if self.in_forwarding_group:
            self.node.send(packet.relay(self.node.id), self.max_range)
            useful = True
        return useful

    def _send_fresh_data(self, packet: Packet) -> None:
        self.node.send(packet, self.max_range)
