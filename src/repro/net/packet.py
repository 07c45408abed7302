"""Packet model.

Packets are broadcast frames: they carry the transmitting node, an origin
(the multicast source for data), a sequence number, a size in bytes (which
determines airtime and energy), and a free-form payload dict used by the
protocol agents.  ``PacketKind`` covers every frame type used by the six
protocols under study.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.util.ids import NodeId


class PacketKind(enum.Enum):
    """Frame types across all implemented protocols."""

    DATA = "data"  # multicast payload
    BEACON = "beacon"  # SS-SPST family periodic state broadcast
    RREQ = "rreq"  # MAODV route request (flooded)
    RREP = "rrep"  # MAODV route reply (unicast back)
    MACT = "mact"  # MAODV multicast activation
    GROUP_HELLO = "group_hello"  # MAODV group-leader hello
    JOIN_QUERY = "join_query"  # ODMRP source flood
    JOIN_REPLY = "join_reply"  # ODMRP receiver -> source path reply
    FLOOD = "flood"  # plain flooding reference protocol


CONTROL_KINDS = frozenset(k for k in PacketKind if k is not PacketKind.DATA)

#: int code of each kind in ``Packet.flow_key``: an int hashes in C, a
#: ``PacketKind`` member through ``Enum.__hash__`` on every dict probe
KIND_CODES = {kind: code for code, kind in enumerate(PacketKind)}

_uid_counter = itertools.count()


def _next_uid() -> int:
    return next(_uid_counter)


@dataclass
class Packet:
    """One broadcast frame.

    Attributes
    ----------
    kind:
        Frame type.
    src:
        Transmitting node for this hop (re-set on each relay).
    origin:
        End-to-end originator (multicast source for DATA).
    seq:
        Originator-scoped sequence number (identifies the end-to-end packet
        across relays; relays keep ``(origin, seq)`` while ``uid`` changes).
    size_bytes:
        Frame size on air; drives airtime and energy.
    payload:
        Protocol-defined headers (beacon state, RREQ ids, ...).
    created_at:
        End-to-end creation time (preserved across relays for delay).
    group:
        Multicast session id (0 = the historical single group).  Frames
        from different groups share the medium and collide like any
        others; the tag only scopes *interpretation* — agents of group g
        ignore frames tagged for other groups.
    uid:
        Unique per-frame id (fresh for every transmission).
    traffic_class:
        Energy-ledger class, ``"data"`` or ``"control"`` (derived).
    flow_key:
        End-to-end identity ``(origin, seq, kind code, group)``, stable
        across relays; the kind enters as its int code in
        :data:`KIND_CODES` (derived).
    """

    kind: PacketKind
    src: NodeId
    origin: NodeId
    seq: int
    size_bytes: int
    payload: Dict[str, Any] = field(default_factory=dict)
    created_at: float = 0.0
    group: int = 0
    uid: int = field(default_factory=_next_uid)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("packets must have positive size")
        # Derived once per packet: a packet's fields are never reassigned.
        self.traffic_class = "data" if self.kind is PacketKind.DATA else "control"
        self.flow_key = (self.origin, self.seq, KIND_CODES[self.kind], self.group)

    @property
    def bits(self) -> int:
        """Frame size in bits."""
        return self.size_bytes * 8

    @property
    def is_control(self) -> bool:
        """True for every frame type except DATA."""
        return self.kind is not PacketKind.DATA

    def relay(self, new_src: NodeId, extra_payload: Optional[Dict[str, Any]] = None) -> "Packet":
        """Clone this packet for retransmission by ``new_src``.

        End-to-end identity (origin, seq, created_at) is preserved; the
        frame gets a fresh ``uid`` and optionally updated headers.
        """
        payload = dict(self.payload)
        if extra_payload:
            payload.update(extra_payload)
        return Packet(
            kind=self.kind,
            src=new_src,
            origin=self.origin,
            seq=self.seq,
            size_bytes=self.size_bytes,
            payload=payload,
            created_at=self.created_at,
            group=self.group,
        )
