"""Nodes and the Network container.

A :class:`Network` owns the simulator, mobility model, radio model, medium
and all :class:`Node` objects; it is the single place positions are sampled
(cached per timestamp, vectorized) and holds the membership table, one
:class:`MulticastGroup` record per declared group.  A :class:`Node` is dumb
plumbing: energy ledger, battery, MAC, and a pluggable
:class:`ProtocolAgent` that implements actual behaviour.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.energy.battery import Battery
from repro.energy.ledger import EnergyLedger
from repro.energy.radio import RadioModel
from repro.groups.models import GroupSpec
from repro.mobility.base import MobilityModel
from repro.net.mac import CsmaMac, MacConfig
from repro.net.medium import WirelessMedium
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.util.ids import NodeId
from repro.util.rng import RngStreams


class ProtocolAgent(abc.ABC):
    """Protocol behaviour attached to a node.

    Concrete agents live in :mod:`repro.protocols`.  The contract:

    * :meth:`start` is called once at simulation start;
    * :meth:`handle_packet` is called for every successfully received frame
      and must return True if the frame was *useful* to this node, False if
      it was discarded (drives discard-energy accounting);
    * :meth:`stop` is called at teardown (cancel timers).
    """

    def __init__(self, node: "Node") -> None:
        self.node = node

    @property
    def network(self) -> "Network":
        return self.node.network

    @property
    def sim(self) -> Simulator:
        return self.node.network.sim

    @abc.abstractmethod
    def start(self) -> None: ...

    @abc.abstractmethod
    def handle_packet(self, packet: Packet) -> bool: ...

    def stop(self) -> None:  # pragma: no cover - default no-op
        pass

    def agent_for(self, gid: int) -> "ProtocolAgent":
        """The agent serving multicast group ``gid`` on this node: the
        agent itself, unless it bundles one agent per group."""
        return self

    def on_node_death(self) -> None:  # pragma: no cover - default no-op
        """Called if the node's battery depletes."""

    def on_membership_change(self) -> None:
        """Called when this node joins or leaves the multicast group
        mid-run (the ``rotating`` membership model).

        The default is a no-op: agents that read ``self.is_member`` live
        (SS-SPST flag derivation, ODMRP replies, flooding delivery) adapt
        automatically.  Agents that latch membership into timers at
        :meth:`start` (MAODV's rejoin clock) override this to
        start/stop that machinery.
        """


class MulticastGroup:
    """One multicast group's live membership: a fixed source and the
    receiver set (source excluded) that mid-run churn edits in place."""

    __slots__ = ("gid", "source", "receivers")

    def __init__(self, gid: int, source: NodeId, receivers: Iterable[NodeId]) -> None:
        self.gid = gid
        self.source = source
        self.receivers: Set[NodeId] = set(receivers)

    def has_member(self, v: NodeId) -> bool:
        """Whether ``v`` is the source or a receiver."""
        return v == self.source or v in self.receivers


class Node:
    """One mobile host: identity, energy state, MAC, protocol agent."""

    def __init__(
        self,
        network: "Network",
        node_id: NodeId,
        mac_rng: np.random.Generator,
    ) -> None:
        self.network = network
        self.id = node_id
        self.ledger = EnergyLedger()
        # infinite, as in the paper; lifetime runs set a capacity per node
        self.battery = Battery(on_depleted=self._die)
        self.mac = CsmaMac(network, node_id, network.mac_config, mac_rng)
        self.agent: Optional[ProtocolAgent] = None
        self.alive = True
        self.died_at: Optional[float] = None  # when the battery ran out
        self.tx_busy_until = 0.0

    # ------------------------------------------------------------------
    @property
    def position(self) -> np.ndarray:
        """Current position (sampled through the network cache)."""
        return self.network.positions()[self.id]

    def send(self, packet: Packet, tx_range: float) -> None:
        """Hand a frame to the MAC for (jittered, carrier-sensed) broadcast."""
        if self.alive:
            self.mac.send(packet, tx_range)

    # ------------------------------------------------------------------
    # Energy plumbing (called by the medium)
    # ------------------------------------------------------------------
    def charge_tx(self, joules: float, packet: Packet) -> None:
        self.ledger.charge("tx", packet.traffic_class, joules)
        self.battery.draw(joules)

    def deliver(self, packet: Packet, rx_joules: float) -> None:
        """Deliver a clean frame to the agent; refile energy if discarded."""
        agent = self.agent
        if agent is None or not agent.handle_packet(packet):
            self.ledger.reclassify_rx_as_discard(packet.traffic_class, rx_joules)

    # ------------------------------------------------------------------
    def _die(self) -> None:
        if self.alive:
            self.alive = False
            self.died_at = self.network.sim.now
            if self.agent is not None:
                self.agent.on_node_death()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Node({self.id})"


class Network:
    """The complete simulated network.

    Multicast membership lives in :attr:`groups`, one
    :class:`MulticastGroup` per declared group (group 0 included), read
    through :meth:`is_group_member`/:meth:`is_group_source` and edited
    mid-run only by :meth:`update_membership`.

    Parameters
    ----------
    sim:
        The discrete-event kernel.
    mobility:
        Position process for all nodes.
    radio:
        Energy/range model shared by all nodes.
    streams:
        Root RNG streams (MAC jitter and loss draw from substreams).
    mac_config:
        MAC tuning (jitter, backoff).
    bitrate_bps / loss_prob:
        Channel parameters forwarded to :class:`WirelessMedium`.
    """

    def __init__(
        self,
        sim: Simulator,
        mobility: MobilityModel,
        radio: RadioModel,
        streams: RngStreams,
        mac_config: Optional[MacConfig] = None,
        bitrate_bps: float = 2_000_000.0,
        loss_prob: float = 0.0,
        capture_threshold: float = 10.0,
    ) -> None:
        self.sim = sim
        self.mobility = mobility
        self.radio = radio
        self.streams = streams
        self.mac_config = mac_config or MacConfig()
        self.medium = WirelessMedium(
            self,
            bitrate_bps=bitrate_bps,
            loss_prob=loss_prob,
            rng=streams.get("medium.loss") if loss_prob > 0 else None,
            capture_threshold=capture_threshold,
        )
        self.nodes: List[Node] = [
            Node(self, i, mac_rng=streams.derive("mac", i))
            for i in range(mobility.n)
        ]
        self._pos_cache_t = -1.0
        self._pos_cache: Optional[np.ndarray] = None
        # the membership table: one record per declared group, gid order
        self.groups: List[MulticastGroup] = []

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.nodes)

    def positions(self) -> np.ndarray:
        """All node positions at the current instant (cached per timestamp)."""
        now = self.sim.now
        if self._pos_cache is None or self._pos_cache_t != now:
            self._pos_cache = self.mobility.positions(now).copy()
            self._pos_cache_t = now
        return self._pos_cache

    # ------------------------------------------------------------------
    def set_groups(self, groups: Sequence[GroupSpec]) -> None:
        """Declare k >= 1 concurrent multicast groups, group 0 first.

        Each spec becomes one :class:`MulticastGroup` record of the
        membership table; declare the groups before attaching agents,
        which bind their group's record.
        """
        groups = list(groups)
        if not groups or groups[0].gid != 0:
            raise ValueError("set_groups needs group 0 first")
        self.groups = [MulticastGroup(g.gid, g.source, g.receivers) for g in groups]

    def group_source_of(self, gid: int) -> NodeId:
        """The source node of group ``gid`` (the source never changes)."""
        return self.groups[gid].source

    def group_receivers_of(self, gid: int) -> frozenset:
        """Receiver set of group ``gid`` (source excluded), as of now."""
        return frozenset(self.groups[gid].receivers)

    def is_group_member(self, gid: int, v: NodeId) -> bool:
        """Membership (source or receiver) of node ``v`` in group ``gid``."""
        return self.groups[gid].has_member(v)

    def is_group_source(self, gid: int, v: NodeId) -> bool:
        """Whether node ``v`` sources group ``gid``."""
        return v == self.groups[gid].source

    def update_membership(
        self, joins: Sequence[NodeId] = (), leaves: Sequence[NodeId] = ()
    ) -> None:
        """Apply mid-run churn to group 0 (the ``rotating`` membership
        model).

        The source can never leave (the session is rooted there); changed
        nodes get their agent's :meth:`ProtocolAgent.on_membership_change`
        hook so membership-latched timers can react.
        """
        group = self.groups[0]
        changed = []
        for v in leaves:
            if v == group.source:
                raise ValueError("the multicast source cannot leave the group")
            if v in group.receivers:
                group.receivers.remove(v)
                changed.append(v)
        for v in joins:
            if not group.has_member(v):
                group.receivers.add(v)
                changed.append(v)
        for v in changed:
            agent = self.nodes[v].agent
            if agent is not None:
                agent.on_membership_change()

    # ------------------------------------------------------------------
    def attach_agents(self, factory) -> None:
        """Create an agent per node via ``factory(node) -> ProtocolAgent``."""
        for node in self.nodes:
            node.agent = factory(node)

    def start(self) -> None:
        """Start every agent."""
        for node in self.nodes:
            if node.agent is not None:
                node.agent.start()

    def stop(self) -> None:
        """Stop every agent (cancel timers)."""
        for node in self.nodes:
            if node.agent is not None:
                node.agent.stop()

    def total_energy(self) -> float:
        """Network-wide joules across every node and bucket."""
        return sum(nd.ledger.total for nd in self.nodes)
