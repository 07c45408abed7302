"""MAODV: Multicast operation of AODV (Royer & Perkins, MobiCom'99).

Simplified-from-spec implementation preserving the architectural traits
the paper's comparison rests on:

* **on-demand tree construction** — members join by flooding a RREQ;
  on-tree nodes answer with a unicast RREP along the reverse path; the
  requester activates the branch with MACT (so control traffic is
  generated "only when there is a need for multicasting", which is why
  MAODV shows the least control overhead in Figure 13);
* **group-leader hellos** — the source acts as group leader and
  periodically floods a GROUP-HELLO that refreshes tree soft state and
  seeds reverse paths;
* **shared tree forwarding** — data is rebroadcast once by every tree
  node, at full power (no power control), arriving from any tree neighbor;
* **soft state + re-join** — a tree node that misses hellos/data for the
  timeout drops off the tree; members re-join via RREQ with backoff.

Simplifications vs. the RFC draft (listed under "Substitutions for ns-2"
in ``docs/deviations.md``):
sequence numbers are reduced to hello generation counts, there is no
group-leader election (the source is the leader for the session lifetime,
true in the paper's single-source scenarios), and tree pruning of
departed members is by timeout rather than explicit MACT-prune.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.protocols.base import MulticastAgent
from repro.sim.timers import PeriodicTimer
from repro.util.ids import NodeId

RREQ_BYTES = 24
RREP_BYTES = 20
MACT_BYTES = 16
HELLO_BYTES = 20

#: seconds between the group leader's GROUP-HELLO floods
HELLO_INTERVAL = 5.0
#: seconds a tree node keeps tree state without a hello or data refresh
TREE_TIMEOUT = 12.0
#: seconds between a member's checks whether it must re-join
RREQ_RETRY_INTERVAL = 3.0
#: uniform jitter on the hello and re-join clocks
JITTER = 0.5


class MaodvAgent(MulticastAgent):
    """One MAODV node."""

    def __init__(self, node: Node) -> None:
        super().__init__(node)
        self.on_tree = self.is_source
        self.tree_refresh_t = 0.0
        self.upstream: Optional[NodeId] = None  # prev hop toward the leader
        self.reverse_path: Dict[NodeId, NodeId] = {}  # requester -> prev hop
        self.downstream: Dict[NodeId, float] = {}  # child -> branch expiry
        self.hello_gen_seen = -1
        self._hello_seq = 0
        self._rreq_seq = 0
        self._timers = []
        self._member_timer = None  # rejoin clock (members only)
        self.control_frames = {"rreq": 0, "rrep": 0, "mact": 0, "hello": 0}

    # ------------------------------------------------------------------
    def start(self) -> None:
        rng = self.network.streams.derive("maodv", self.node.id)
        if self.is_source:
            self._timers.append(
                PeriodicTimer(
                    self.sim,
                    HELLO_INTERVAL,
                    self._flood_hello,
                    jitter=JITTER,
                    rng=rng,
                    start_offset=float(rng.uniform(0.0, 0.5)),
                )
            )
        elif self.is_member:
            self._start_member_timer()

    def _start_member_timer(self) -> None:
        rng = self.network.streams.derive("maodv", self.node.id)
        self._member_timer = PeriodicTimer(
            self.sim,
            RREQ_RETRY_INTERVAL,
            self._maybe_rejoin,
            jitter=JITTER,
            rng=rng,
            start_offset=float(rng.uniform(0.0, 1.0)),
        )

    def on_membership_change(self) -> None:
        """MAODV latches membership into its rejoin clock at start; group
        churn (the ``rotating`` membership model) starts/stops it.  A
        leaver keeps any forwarding state until ``tree_timeout`` expires
        — the protocol's own soft-state pruning — it just stops asking to
        rejoin."""
        if self.is_source:
            return
        if self.is_member and self._member_timer is None:
            self._start_member_timer()
        elif not self.is_member and self._member_timer is not None:
            self._member_timer.stop()
            self._member_timer = None

    def stop(self) -> None:
        for t in self._timers:
            t.stop()
        if self._member_timer is not None:
            self._member_timer.stop()
            self._member_timer = None

    def on_node_death(self) -> None:
        self.stop()

    # ------------------------------------------------------------------
    @property
    def tree_fresh(self) -> bool:
        if self.is_source:
            return True
        return self.on_tree and (
            self.sim.now - self.tree_refresh_t <= TREE_TIMEOUT
        )

    def _flood_hello(self) -> None:
        self.control_frames["hello"] += 1
        self.send_control(
            PacketKind.GROUP_HELLO,
            HELLO_BYTES,
            {"gen": self._hello_seq},
            seq=self._hello_seq,
        )
        self._hello_seq += 1

    @property
    def has_fresh_downstream(self) -> bool:
        now = self.sim.now
        return any(expiry > now for expiry in self.downstream.values())

    def _maybe_rejoin(self) -> None:
        if self.tree_fresh:
            # Branch maintenance: a member periodically refreshes its
            # branch with a MACT toward its upstream tree neighbor.
            if self.upstream is not None:
                self.control_frames["mact"] += 1
                self.send_control(
                    PacketKind.MACT,
                    MACT_BYTES,
                    {"next": self.upstream, "requester": self.node.id},
                    seq=self._rreq_seq,
                )
                self._rreq_seq += 1
            return
        self.on_tree = False
        self.downstream.clear()
        self.control_frames["rreq"] += 1
        self.send_control(
            PacketKind.RREQ,
            RREQ_BYTES,
            {"requester": self.node.id},
            seq=self._rreq_seq,
        )
        self._rreq_seq += 1

    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> bool:
        kind = packet.kind
        if kind is PacketKind.GROUP_HELLO:
            return self._on_hello(packet)
        if kind is PacketKind.RREQ:
            return self._on_rreq(packet)
        if kind is PacketKind.RREP:
            return self._on_rrep(packet)
        if kind is PacketKind.MACT:
            return self._on_mact(packet)
        if kind is PacketKind.DATA:
            return self._on_data(packet)
        return False

    # -- control ---------------------------------------------------------
    def _on_hello(self, packet: Packet) -> bool:
        if self.dups.seen_before(packet.flow_key):
            return False
        self.upstream = packet.src
        if self.on_tree:
            self.tree_refresh_t = self.sim.now
        # Propagate the flood.
        self.node.send(packet.relay(self.node.id), self.max_range)
        return True

    def _on_rreq(self, packet: Packet) -> bool:
        if self.dups.seen_before(packet.flow_key):
            return False
        requester = packet.payload["requester"]
        self.reverse_path[requester] = packet.src
        if self.tree_fresh and requester != self.node.id:
            # Answer from the tree: unicast RREP back toward the requester.
            self.control_frames["rrep"] += 1
            self.send_control(
                PacketKind.RREP,
                RREP_BYTES,
                {"requester": requester, "next": packet.src, "replier": self.node.id},
                seq=packet.seq,
                origin=packet.origin,
            )
            return True
        self.node.send(packet.relay(self.node.id), self.max_range)
        return True

    def _on_rrep(self, packet: Packet) -> bool:
        if packet.payload.get("next") != self.node.id:
            return False  # unicast hop for someone else: overheard
        requester = packet.payload["requester"]
        if requester == self.node.id:
            # Our join answered: activate the branch.
            self.on_tree = True
            self.tree_refresh_t = self.sim.now
            self.upstream = packet.src
            self.control_frames["mact"] += 1
            self.send_control(
                PacketKind.MACT,
                MACT_BYTES,
                {"next": packet.src, "requester": requester},
                seq=packet.seq,
                origin=packet.origin,
            )
            return True
        prev = self.reverse_path.get(requester)
        if prev is None:
            return False
        # Forward the unicast RREP one hop down the reverse path; this node
        # becomes a pending branch router.
        self.send_control(
            PacketKind.RREP,
            RREP_BYTES,
            {**packet.payload, "next": prev},
            seq=packet.seq,
            origin=packet.origin,
        )
        return True

    def _on_mact(self, packet: Packet) -> bool:
        if packet.payload.get("next") != self.node.id:
            return False
        # Branch activation/refresh: the sender becomes (stays) our
        # downstream child; we become a tree router and pass the MACT
        # upstream so the *whole* branch is refreshed up to the source
        # (stopping early would let ancestor branch state expire).
        self.downstream[packet.src] = self.sim.now + TREE_TIMEOUT
        self.on_tree = True
        self.tree_refresh_t = self.sim.now
        if not self.is_source and self.upstream is not None:
            self.send_control(
                PacketKind.MACT,
                MACT_BYTES,
                {**packet.payload, "next": self.upstream},
                seq=packet.seq,
                origin=packet.origin,
            )
        return True

    # -- data --------------------------------------------------------------
    def _on_data(self, packet: Packet) -> bool:
        if not self.tree_fresh:
            return False
        # Tree semantics: data is accepted only over tree links (from our
        # upstream or one of our downstream children) — a broken branch
        # really loses packets until it is repaired via RREQ.
        now = self.sim.now
        from_tree_neighbor = packet.src == self.upstream or (
            self.downstream.get(packet.src, 0.0) > now
        )
        if not from_tree_neighbor and not self.is_source:
            return False
        if self.dups.seen_before(packet.flow_key):
            return False
        self.tree_refresh_t = self.sim.now
        useful = False
        if self.is_member:
            self.deliver_locally(packet)
            useful = True
        # Tree forwarding: only routers with live downstream branches
        # rebroadcast (leaf members consume silently).
        if self.has_fresh_downstream:
            self.node.send(packet.relay(self.node.id), self.max_range)
            useful = True
        return useful

    def _send_fresh_data(self, packet: Packet) -> None:
        self.node.send(packet, self.max_range)
