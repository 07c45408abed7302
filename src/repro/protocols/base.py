"""Common machinery for multicast protocol agents."""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.net.node import Node, ProtocolAgent
from repro.net.packet import Packet, PacketKind
from repro.util.ids import NodeId


class DuplicateCache:
    """Bounded LRU set of end-to-end frame identities for dedup."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._seen: "OrderedDict[Tuple, None]" = OrderedDict()

    def seen_before(self, key: Tuple) -> bool:
        """Record ``key``; return True if it was already present."""
        if key in self._seen:
            self._seen.move_to_end(key)
            return True
        self._seen[key] = None
        if len(self._seen) > self.capacity:
            self._seen.popitem(last=False)
        return False

    def __contains__(self, key: Tuple) -> bool:
        return key in self._seen

    def __len__(self) -> int:
        return len(self._seen)


class MulticastAgent(ProtocolAgent):
    """Base class for the protocol agents (one per name in ``PROTOCOL_NAMES``).

    Adds: group roles, the duplicate cache, data origination
    plumbing (the CBR source calls :meth:`originate_data`), and delivery
    accounting through the network's metrics hub.
    """

    #: default application payload size (512-byte CBR packets at 64 kbps
    #: gives the paper's source rate)
    DATA_SIZE = 512

    def __init__(self, node: Node, group_id: int = 0) -> None:
        super().__init__(node)
        #: which multicast session this agent serves, and that session's
        #: live record in the network's membership table
        self.group_id = int(group_id)
        self.group = node.network.groups[self.group_id]
        #: the source of a session never changes
        self.is_source = node.id == self.group.source
        self.dups = DuplicateCache()
        self._data_seq = 0

    # ------------------------------------------------------------------
    @property
    def is_member(self) -> bool:
        return self.is_source or self.node.id in self.group.receivers

    @property
    def hub(self):
        """The metrics hub installed by the runner (or None)."""
        return getattr(self.network, "hub", None)

    @property
    def max_range(self) -> float:
        return self.network.radio.max_range

    # ------------------------------------------------------------------
    def originate_data(self, size_bytes: Optional[int] = None) -> Packet:
        """Create and inject a new multicast data packet (source only)."""
        if not self.is_source:
            raise RuntimeError("only the source originates data")
        packet = Packet(
            kind=PacketKind.DATA,
            src=self.node.id,
            origin=self.node.id,
            seq=self._data_seq,
            size_bytes=size_bytes or self.DATA_SIZE,
            created_at=self.sim.now,
            group=self.group_id,
        )
        self._data_seq += 1
        if self.hub is not None:
            self.hub.on_data_originated(packet)
        self.dups.seen_before(packet.flow_key)  # never re-forward own data
        self._send_fresh_data(packet)
        return packet

    def _send_fresh_data(self, packet: Packet) -> None:
        """Protocol-specific first transmission of a new data packet."""
        raise NotImplementedError

    def deliver_locally(self, packet: Packet) -> None:
        """Record a successful delivery to this (member) node."""
        if self.hub is not None:
            self.hub.on_data_delivered(self.node.id, packet, self.sim.now)

    # ------------------------------------------------------------------
    def send_control(
        self,
        kind: PacketKind,
        size_bytes: int,
        payload: dict,
        seq: int,
        origin: Optional[NodeId] = None,
        tx_range: Optional[float] = None,
    ) -> Packet:
        """Broadcast a control frame through the MAC."""
        packet = Packet(
            kind=kind,
            src=self.node.id,
            origin=self.node.id if origin is None else origin,
            seq=seq,
            size_bytes=size_bytes,
            payload=payload,
            created_at=self.sim.now,
            group=self.group_id,
        )
        self.node.send(packet, tx_range if tx_range is not None else self.max_range)
        return packet
