"""The shared wireless broadcast medium.

Semantics (section 3 of the paper): "When a node transmits (broadcasts) a
message, the nodes in its coverage area can (almost) simultaneously hear the
message."  A transmission is parameterized by its power-controlled range
``tx_range``; the sender is charged transmit energy for that range and every
alive node within it is charged reception energy.  Whether the reception
ends up *useful* or *discard* is decided by the receiving agent (see
:meth:`repro.net.node.Node.deliver`).

Collision model: a reception is corrupted if any other reception (or the
node's own transmission — half duplex) overlaps it in time.  Corrupted
frames still cost full reception energy (the radio listened) and are filed
as discard energy.  An optional i.i.d. loss probability models residual
channel error beyond collisions.

Each frame costs the event kernel one completion event at the end of its
airtime, however many nodes hear it.  There is no per-receiver object:
:meth:`WirelessMedium.broadcast` keeps a frame's receivers (in
receiver-index order), their received powers and their corrupted flags as
three plain lists on its :class:`Transmission`, and ``_complete_frame``
completes them in that order.  That is the order one event per receiver
would fire in (contiguous insertion numbers at one timestamp), so the
event order and every output are unchanged.  The kernel's
``events_executed`` still counts one event per reception.

Overlaps are found without per-node reception lists.  Each node has a
"receiving until" horizon, the latest end of a frame it was listed to
hear; only a receiver whose horizon is still ahead of ``now`` is checked,
against the in-flight frames in broadcast order.  Random loss is drawn
after the receiver set is known: one ``rng.random(k)`` call over the
frame's k receivers that are still clean, in receiver order — the same
stream as one draw per clean receiver inside the loop.

Completing a frame files each reception once: ``_complete_frame`` adds
the reception energy straight into the receiver's
:attr:`EnergyLedger.balances` (a corrupted copy re-filed as discard at
once), draws the battery only when it is finite, and hands a clean copy
to :meth:`~repro.net.node.Node.deliver`, which re-files a discarded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

import numpy as np

from repro.energy.ledger import EnergyLedger
from repro.net.packet import Packet
from repro.util.ids import NodeId

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Network

_INF = float("inf")


@dataclass
class Transmission:
    """An in-flight frame on the air.

    ``receivers`` lists the nodes that hear the frame, in receiver-index
    order; ``powers[i]`` and ``corrupted[i]`` are receiver ``i``'s relative
    received power and whether its copy is lost (collision, half duplex
    or random loss).  Later overlapping frames may still set
    ``corrupted[i]`` before the frame completes.
    """

    sender: NodeId
    sender_pos: np.ndarray
    tx_range: float
    t_start: float
    t_end: float
    packet: Packet
    receivers: List[NodeId] = field(default_factory=list)
    powers: List[float] = field(default_factory=list)
    corrupted: List[bool] = field(default_factory=list)


class MediumStats:
    """Medium-level counters (used by tests and the overhead metrics).

    ``frames_sent`` counts frames put on the air; the other four count
    *receptions*, one per live receiver of a frame:
    ``receptions_total == frames_delivered + frames_collided``.
    ``frames_collided`` is every reception lost to collision, half duplex,
    random loss or the receiver's battery running out on it;
    ``frames_lost_random`` is the random-loss part of it.
    """

    __slots__ = (
        "frames_sent",
        "frames_delivered",
        "frames_collided",
        "frames_lost_random",
        "receptions_total",
    )

    def __init__(self) -> None:
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_collided = 0
        self.frames_lost_random = 0
        self.receptions_total = 0


class WirelessMedium:
    """Shared broadcast channel with collisions and carrier sense.

    Parameters
    ----------
    network:
        Owning :class:`~repro.net.node.Network` (positions, nodes, radio).
    bitrate_bps:
        Channel bitrate; 2 Mb/s matches the 802.11 basic rate ns-2 used.
    loss_prob:
        Per-(frame, receiver) i.i.d. loss probability beyond collisions.
    rng:
        Generator for random loss.
    capture_threshold:
        Power-capture ratio (ns-2's ``CPThresh``, default 10): when two
        frames overlap at a receiver, the stronger survives if it exceeds
        the weaker by this factor.  With power control this matters a lot:
        a parent transmitting to a nearby child usually dominates a distant
        interferer, which is how ns-2 kept dense multicast trees deliverable.
    """

    def __init__(
        self,
        network: "Network",
        bitrate_bps: float = 2_000_000.0,
        loss_prob: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        capture_threshold: float = 10.0,
    ) -> None:
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if not 0.0 <= loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")
        if loss_prob > 0 and rng is None:
            raise ValueError("loss_prob requires an rng")
        if capture_threshold < 1.0:
            raise ValueError("capture_threshold must be >= 1")
        self.network = network
        self.bitrate_bps = float(bitrate_bps)
        self.loss_prob = float(loss_prob)
        self.rng = rng
        self.capture_threshold = float(capture_threshold)
        self.stats = MediumStats()
        self._active: List[Transmission] = []
        # per node: the latest end of a frame it was listed to hear; only
        # a node whose horizon is still ahead can have overlapping frames
        self._rx_until: List[float] = [0.0] * network.mobility.n

    # ------------------------------------------------------------------
    def airtime(self, packet: Packet) -> float:
        """Seconds the frame occupies the channel."""
        return packet.bits / self.bitrate_bps

    def _prune(self, now: float) -> None:
        if self._active:
            self._active = [tx for tx in self._active if tx.t_end > now]

    # ------------------------------------------------------------------
    def carrier_busy(self, node: NodeId) -> bool:
        """Carrier sense: can ``node`` hear any ongoing transmission?"""
        now = self.network.sim.now
        self._prune(now)
        if not self._active:
            return False
        pos = self.network.positions()[node]
        for tx in self._active:
            if tx.sender == node:
                return True
            d = float(np.hypot(pos[0] - tx.sender_pos[0], pos[1] - tx.sender_pos[1]))
            if d <= tx.tx_range:
                return True
        return False

    # ------------------------------------------------------------------
    def broadcast(self, sender: NodeId, packet: Packet, tx_range: float) -> Transmission:
        """Put a frame on the air with power reaching ``tx_range``.

        Charges the sender, computes the receiver set from current
        positions, applies the collision/loss model, and schedules one
        completion event for the whole frame at the end of its airtime
        (none when no live node is in range).
        """
        net = self.network
        sim = net.sim
        now = sim.now
        radio = net.radio
        if tx_range <= 0:
            raise ValueError("tx_range must be positive")
        tx_range = min(tx_range, radio.max_range)

        nodes = net.nodes
        sender_node = nodes[sender]
        if not sender_node.alive:
            raise RuntimeError(f"dead node {sender} cannot transmit")

        # The cached array is not mutated within an instant; only the
        # sender position outlives it (carrier sense reads it later).
        positions = net.positions()
        duration = self.airtime(packet)
        tx = Transmission(
            sender=sender,
            sender_pos=positions[sender].copy(),
            tx_range=float(tx_range),
            t_start=now,
            t_end=now + duration,
            packet=packet,
        )
        self._prune(now)
        self._active.append(tx)
        self.stats.frames_sent += 1
        hub = getattr(net, "hub", None)
        if hub is not None:
            hub.on_frame_sent(packet)

        # Sender pays for the power-controlled transmission.
        sender_node.charge_tx(radio.tx_energy(packet.bits, tx_range), packet)

        # Receiver set: alive nodes strictly within tx range (not sender).
        deltas = positions - tx.sender_pos
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        in_range = np.nonzero((dists <= tx_range) & (dists > 0.0))[0]

        t_end = tx.t_end
        rx_until = self._rx_until
        cp = self.capture_threshold
        overlapping: Optional[List[Transmission]] = None
        receivers = tx.receivers
        powers = tx.powers
        corrupted = tx.corrupted
        for rid, d in zip(in_range.tolist(), dists[in_range].tolist()):
            node = nodes[rid]
            if not node.alive:
                continue
            # Relative received power: transmit power scales with the
            # power-controlled range^alpha, path loss with distance^alpha.
            power = (tx_range / (d if d > 1.0 else 1.0)) ** 2
            # Half duplex: receiver currently transmitting -> corrupted.
            bad = node.tx_busy_until > now
            if rx_until[rid] > now:
                # Collisions with the frames this node already hears,
                # subject to power capture (ns-2 CPThresh semantics).
                if overlapping is None:
                    overlapping = [o for o in self._active if o is not tx]
                for other in overlapping:
                    others = other.receivers
                    if rid not in others:
                        continue
                    i = others.index(rid)
                    other_power = other.powers[i]
                    if power >= other_power * cp:
                        other.corrupted[i] = True  # we capture the receiver
                    elif other_power >= power * cp:
                        bad = True  # the ongoing frame dominates
                    else:
                        other.corrupted[i] = True
                        bad = True
                if t_end > rx_until[rid]:
                    rx_until[rid] = t_end
            else:
                rx_until[rid] = t_end
            receivers.append(rid)
            powers.append(power)
            corrupted.append(bad)
        if receivers:
            loss_prob = self.loss_prob
            if loss_prob > 0.0:
                # Residual random loss: one draw per receiver still clean,
                # in receiver order.
                clean = [i for i, bad in enumerate(corrupted) if not bad]
                if clean:
                    draws = self.rng.random(len(clean)).tolist()
                    for i, u in zip(clean, draws):
                        if u < loss_prob:
                            corrupted[i] = True
                            self.stats.frames_lost_random += 1
            sim.schedule_at(t_end, self._complete_frame, tx)

        sender_node.tx_busy_until = max(sender_node.tx_busy_until, tx.t_end)
        return tx

    # ------------------------------------------------------------------
    def _complete_frame(self, tx: Transmission) -> None:
        """End of airtime: complete every reception of one frame, in order.

        Charges, reclassifications and deliveries go node by node in
        receiver order, so every float sum and every event a handler
        schedules come out as with one event per receiver.  The kernel
        counted this callback once; the other receptions are credited to
        ``events_executed`` here.

        Each reception is filed straight into the receiver's ledger with
        the float operations of :meth:`EnergyLedger.charge` followed by
        :meth:`EnergyLedger.reclassify_rx_as_discard`, in that order
        (``rx += j``; for a corrupted copy then ``rx -= j`` and
        ``discard += j``).  A battery is drawn only while it is finite:
        drawing from an infinite one leaves its state as it was.  A clean
        reception whose charge empties the battery is filed as a discard
        and counted with the lost receptions: the node died with it and
        delivers nothing.
        """
        net = self.network
        receivers = tx.receivers
        net.sim.events_executed += len(receivers) - 1
        nodes = net.nodes
        packet = tx.packet
        # The radio listened for the full frame either way.
        joules = net.radio.rx_energy(packet.bits)
        key_rx, key_dis = EnergyLedger.rx_buckets(packet.traffic_class)
        received = collided = 0
        for rid, bad in zip(receivers, tx.corrupted):
            node = nodes[rid]
            if not node.alive:
                continue
            received += 1
            balances = node.ledger.balances
            balances[key_rx] += joules
            if bad:
                collided += 1
                balances[key_rx] -= joules
                balances[key_dis] += joules
            battery = node.battery
            if battery.remaining_j != _INF:
                battery.draw(joules)
                if not bad and not node.alive:
                    # The charge emptied the battery: the dead radio
                    # hands nothing up, and the energy was wasted.
                    bad = True
                    collided += 1
                    balances[key_rx] -= joules
                    balances[key_dis] += joules
            if not bad:
                node.deliver(packet, joules)
        stats = self.stats
        stats.receptions_total += received
        stats.frames_collided += collided
        stats.frames_delivered += received - collided
