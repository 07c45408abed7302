"""Tests for the network substrate: packets, medium, MAC, nodes, tables."""

import numpy as np
import pytest

from repro.energy import FirstOrderRadioModel
from repro.energy.battery import Battery
from repro.groups.models import GroupSpec
from repro.mobility import StaticPlacement
from repro.protocols.registry import PROTOCOL_NAMES
from repro.net import (
    CsmaMac,
    MacConfig,
    Network,
    NeighborTable,
    Packet,
    PacketKind,
    ProtocolAgent,
    Transmission,
    WirelessMedium,
)
from repro.sim import Simulator
from repro.util.geometry import Arena
from repro.util.rng import RngStreams


class RecordingAgent(ProtocolAgent):
    """Test agent that records receptions; usefulness is configurable."""

    def __init__(self, node, useful=True):
        super().__init__(node)
        self.useful = useful
        self.received = []

    def start(self):
        pass

    def handle_packet(self, packet):
        self.received.append((self.sim.now, packet))
        return self.useful


def make_network(positions, loss_prob=0.0, mac=None, radio=None):
    sim = Simulator()
    arena = Arena(1000.0, 1000.0)
    mobility = StaticPlacement(len(positions), arena, positions=np.array(positions, dtype=float))
    net = Network(
        sim,
        mobility,
        radio or FirstOrderRadioModel(),
        RngStreams(7),
        mac_config=mac or MacConfig(jitter_max=0.0),
        loss_prob=loss_prob,
    )
    net.attach_agents(lambda node: RecordingAgent(node))
    return sim, net


def data_packet(src, seq=0, size=512):
    return Packet(PacketKind.DATA, src=src, origin=src, seq=seq, size_bytes=size)


class TestPacket:
    def test_bits(self):
        assert data_packet(0, size=512).bits == 4096

    def test_traffic_class(self):
        assert data_packet(0).traffic_class == "data"
        beacon = Packet(PacketKind.BEACON, 0, 0, 0, 32)
        assert beacon.traffic_class == "control"
        assert beacon.is_control

    def test_relay_preserves_identity(self):
        p = data_packet(3, seq=9)
        p2 = p.relay(new_src=5)
        assert p2.src == 5
        assert p2.origin == 3 and p2.seq == 9
        assert p2.flow_key == p.flow_key
        assert p2.uid != p.uid

    def test_relay_payload_update(self):
        p = Packet(PacketKind.BEACON, 0, 0, 0, 32, payload={"a": 1})
        p2 = p.relay(1, extra_payload={"b": 2})
        assert p2.payload == {"a": 1, "b": 2}
        assert p.payload == {"a": 1}  # original untouched

    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            Packet(PacketKind.DATA, 0, 0, 0, 0)


class TestMediumDelivery:
    def test_in_range_nodes_receive(self):
        # 0 at origin; 1 at 100 m (in range); 2 at 400 m (out of range).
        sim, net = make_network([[0, 0], [100, 0], [400, 0]])
        net.medium.broadcast(0, data_packet(0), tx_range=150.0)
        sim.run()
        assert len(net.nodes[1].agent.received) == 1
        assert len(net.nodes[2].agent.received) == 0

    def test_power_control_limits_receivers(self):
        sim, net = make_network([[0, 0], [100, 0], [200, 0]])
        net.medium.broadcast(0, data_packet(0), tx_range=120.0)
        sim.run()
        assert len(net.nodes[1].agent.received) == 1
        assert len(net.nodes[2].agent.received) == 0  # in max range but not tx power

    def test_delivery_after_airtime(self):
        sim, net = make_network([[0, 0], [100, 0]])
        pkt = data_packet(0, size=512)  # 4096 bits / 2 Mbps = 2.048 ms
        net.medium.broadcast(0, pkt, tx_range=150.0)
        sim.run()
        t, _ = net.nodes[1].agent.received[0]
        assert t == pytest.approx(4096 / 2_000_000.0)

    def test_sender_does_not_receive_own_frame(self):
        sim, net = make_network([[0, 0], [100, 0]])
        net.medium.broadcast(0, data_packet(0), tx_range=150.0)
        sim.run()
        assert len(net.nodes[0].agent.received) == 0

    def test_dead_node_cannot_transmit(self):
        sim, net = make_network([[0, 0], [100, 0]])
        net.nodes[0].alive = False
        with pytest.raises(RuntimeError):
            net.medium.broadcast(0, data_packet(0), tx_range=150.0)


class TestMediumEnergy:
    def test_sender_charged_for_tx_range(self):
        sim, net = make_network([[0, 0], [100, 0]])
        radio = net.radio
        pkt = data_packet(0)
        net.medium.broadcast(0, pkt, tx_range=130.0)
        sim.run()
        assert net.nodes[0].ledger.snapshot().tx_data == pytest.approx(
            radio.tx_energy(pkt.bits, 130.0)
        )

    def test_receiver_charged_rx(self):
        sim, net = make_network([[0, 0], [100, 0]])
        pkt = data_packet(0)
        net.medium.broadcast(0, pkt, tx_range=150.0)
        sim.run()
        assert net.nodes[1].ledger.snapshot().rx_data == pytest.approx(
            net.radio.rx_energy(pkt.bits)
        )

    def test_useless_reception_becomes_discard(self):
        sim, net = make_network([[0, 0], [100, 0]])
        net.nodes[1].agent.useful = False  # overhearing node
        pkt = data_packet(0)
        net.medium.broadcast(0, pkt, tx_range=150.0)
        sim.run()
        snap = net.nodes[1].ledger.snapshot()
        assert snap.rx_data == 0.0
        assert snap.discard_data == pytest.approx(net.radio.rx_energy(pkt.bits))

    def test_overhearing_charges_all_in_range(self):
        """The paper's core premise: every node in the coverage area pays
        reception energy whether or not the packet was meant for it."""
        sim, net = make_network([[0, 0], [50, 0], [100, 0], [150, 0]])
        net.medium.broadcast(0, data_packet(0), tx_range=160.0)
        sim.run()
        for nid in (1, 2, 3):
            assert net.nodes[nid].ledger.total > 0.0


class TestMediumCollisions:
    def test_overlapping_frames_collide(self):
        # 0 and 2 both in range of 1; simultaneous transmissions collide at 1.
        sim, net = make_network([[0, 0], [100, 0], [200, 0]])
        net.medium.broadcast(0, data_packet(0), tx_range=150.0)
        net.medium.broadcast(2, data_packet(2), tx_range=150.0)
        sim.run()
        assert len(net.nodes[1].agent.received) == 0
        assert net.medium.stats.frames_collided >= 2
        # Collided receptions still cost energy, filed as discard.
        assert net.nodes[1].ledger.snapshot().discard_data > 0.0

    def test_non_overlapping_frames_deliver(self):
        sim, net = make_network([[0, 0], [100, 0], [200, 0]])
        net.medium.broadcast(0, data_packet(0, seq=0), tx_range=150.0)
        # Second frame well after the first ends.
        sim.schedule(0.01, lambda: net.medium.broadcast(2, data_packet(2, seq=1), tx_range=150.0))
        sim.run()
        assert len(net.nodes[1].agent.received) == 2

    def test_half_duplex(self):
        # 1 transmits; a frame arriving at 1 during its own tx is lost.
        sim, net = make_network([[0, 0], [100, 0]])
        net.medium.broadcast(1, data_packet(1), tx_range=150.0)
        net.medium.broadcast(0, data_packet(0), tx_range=150.0)
        sim.run()
        assert len(net.nodes[1].agent.received) == 0

    def test_hidden_terminal(self):
        """0 and 3 cannot hear each other but both reach 1 -> collision."""
        sim, net = make_network([[0, 0], [150, 0], [300, 0], [300, 1]])
        net.medium.broadcast(0, data_packet(0), tx_range=200.0)
        net.medium.broadcast(3, data_packet(3), tx_range=200.0)
        sim.run()
        # Node 1 is in range of 0 only at 150m? 0->1 = 150, 3->1 = ~150.0;
        # both reach it, so it collides.
        assert len(net.nodes[1].agent.received) == 0


class TestMediumCapture:
    """Power capture (ns-2 CPThresh): receiver 0 hears a near sender 1 at
    20 m and a far sender 2 at 190 m (too far apart to hear each other);
    at range 200 the powers are
    (200/20)^2 = 100 and (200/190)^2 ~ 1.1, a ratio far above 10."""

    POSITIONS = [[200, 0], [220, 0], [10, 0]]

    def test_near_frame_survives_far_interferer(self):
        sim, net = make_network(self.POSITIONS)
        net.medium.broadcast(1, data_packet(1), tx_range=200.0)
        net.medium.broadcast(2, data_packet(2), tx_range=200.0)
        sim.run()
        assert [p.origin for _, p in net.nodes[0].agent.received] == [1]
        assert net.medium.stats.frames_collided == 1

    def test_strong_late_frame_corrupts_the_earlier_one(self):
        sim, net = make_network(self.POSITIONS)
        net.medium.broadcast(2, data_packet(2), tx_range=200.0)
        net.medium.broadcast(1, data_packet(1), tx_range=200.0)
        sim.run()
        assert [p.origin for _, p in net.nodes[0].agent.received] == [1]
        assert net.medium.stats.frames_collided == 1

    def test_comparable_powers_corrupt_both(self):
        sim, net = make_network([[200, 0], [300, 0], [80, 0]])
        net.medium.broadcast(1, data_packet(1), tx_range=200.0)
        net.medium.broadcast(2, data_packet(2), tx_range=200.0)
        sim.run()
        assert net.nodes[0].agent.received == []
        assert net.medium.stats.frames_collided == 2


class TestMediumFrameCompletion:
    """One kernel event completes all receptions of a frame, in
    receiver order, exactly as one event per receiver would."""

    def test_handler_event_fires_after_whole_frame(self):
        sim, net = make_network([[0, 0], [50, 0], [100, 0], [150, 0]])
        seen_at_zero_delay = []

        def received_by():
            return [v for v in (1, 2, 3) if net.nodes[v].agent.received]

        first = net.nodes[1].agent
        handle = first.handle_packet

        def handle_and_schedule(packet):
            sim.schedule(0.0, lambda: seen_at_zero_delay.append(received_by()))
            return handle(packet)

        first.handle_packet = handle_and_schedule
        net.medium.broadcast(0, data_packet(0), tx_range=200.0)
        sim.run()
        assert seen_at_zero_delay == [[1, 2, 3]]

    def test_events_executed_counts_one_per_reception(self):
        sim, net = make_network([[0, 0], [50, 0], [100, 0], [150, 0], [900, 0]])
        net.medium.broadcast(0, data_packet(0), tx_range=200.0)
        assert sim.pending == 1  # one completion event for three receivers
        sim.run(until=1.0)
        assert sim.pending == 0  # that one kernel callback credited three
        assert sim.events_executed == 3
        assert net.medium.stats.receptions_total == 3

    def test_receiver_dead_at_completion_is_skipped_but_counted(self):
        sim, net = make_network([[0, 0], [50, 0], [100, 0]])
        net.medium.broadcast(0, data_packet(0), tx_range=200.0)
        net.nodes[1].alive = False
        sim.run()
        assert sim.events_executed == 2
        assert net.medium.stats.receptions_total == 1
        assert net.nodes[1].ledger.total == 0.0
        assert len(net.nodes[2].agent.received) == 1

    def test_frame_without_live_receiver_schedules_nothing(self):
        sim, net = make_network([[0, 0], [100, 0], [900, 0]])
        net.nodes[1].alive = False
        net.medium.broadcast(0, data_packet(0), tx_range=150.0)
        assert sim.pending == 0
        sim.run(until=1.0)
        assert sim.events_executed == 0
        assert net.medium.stats.frames_sent == 1
        assert net.medium.stats.receptions_total == 0

    def test_battery_depleted_by_batched_rx_charge(self):
        sim, net = make_network([[0, 0], [50, 0], [100, 0]])
        pkt = data_packet(0)
        rx_j = net.radio.rx_energy(pkt.bits)
        dying = net.nodes[1]
        deaths = []
        dying.agent.on_node_death = lambda: deaths.append(sim.now)
        dying.battery = Battery(rx_j / 2, on_depleted=dying._die)
        net.medium.broadcast(0, pkt, tx_range=200.0)
        sim.run()
        # Charged in full and dies on that charge; the dead radio hands
        # nothing up, so the energy is filed as discard and the reception
        # counts as lost.
        assert deaths == [pytest.approx(net.medium.airtime(pkt))]
        assert not dying.alive
        assert dying.ledger.snapshot().rx_data == 0.0
        assert dying.ledger.snapshot().discard_data == rx_j
        assert dying.agent.received == []
        assert len(net.nodes[2].agent.received) == 1
        assert net.medium.stats.frames_collided == 1
        # A dead node hears nothing further.
        net.medium.broadcast(0, data_packet(0, seq=1), tx_range=200.0)
        sim.run()
        assert dying.agent.received == []
        assert len(net.nodes[2].agent.received) == 2
        stats = net.medium.stats
        assert stats.receptions_total == 3
        assert stats.receptions_total == stats.frames_delivered + stats.frames_collided


class TestMediumLoss:
    def test_random_loss_applied(self):
        sim, net = make_network([[0, 0], [100, 0]], loss_prob=0.5)
        for i in range(200):
            sim.schedule(i * 0.01, lambda i=i: net.medium.broadcast(0, data_packet(0, seq=i), tx_range=150.0))
        sim.run()
        received = len(net.nodes[1].agent.received)
        assert 40 < received < 160  # ~100 expected

    def test_loss_prob_validation(self):
        with pytest.raises(ValueError):
            make_network([[0, 0]], loss_prob=1.5)


class _Rec:
    __slots__ = ("tx", "receiver", "power", "corrupted")

    def __init__(self, tx, receiver, power, corrupted):
        self.tx, self.receiver = tx, receiver
        self.power, self.corrupted = power, corrupted


class ReferenceMedium(WirelessMedium):
    """Oracle: the medium as one object per receiver, kept in per-node
    lists of ongoing receptions, with one loss draw per clean receiver
    inside the receiver loop.  ``seen`` counts the cases a scenario hit."""

    def __init__(self, net):
        super().__init__(net, loss_prob=net.medium.loss_prob, rng=net.medium.rng)
        self.ongoing = {}
        self.seen = {
            "overlap>=3": 0, "half_duplex": 0, "dead_at_end": 0, "died_on_rx": 0,
        }

    def broadcast(self, sender, packet, tx_range):
        net, now = self.network, self.network.sim.now
        tx_range = min(tx_range, net.radio.max_range)
        positions, duration = net.positions(), self.airtime(packet)
        tx = Transmission(sender, positions[sender].copy(), float(tx_range),
                          now, now + duration, packet)
        self._prune(now)
        self._active.append(tx)
        self.stats.frames_sent += 1
        net.nodes[sender].charge_tx(net.radio.tx_energy(packet.bits, tx_range), packet)
        dists = np.hypot(*(positions - tx.sender_pos).T)
        batch = []
        for rid in np.nonzero((dists <= tx_range) & (dists > 0.0))[0].tolist():
            node = net.nodes[rid]
            if not node.alive:
                continue
            power = (tx_range / max(float(dists[rid]), 1.0)) ** 2
            corrupted = node.tx_busy_until > now
            self.seen["half_duplex"] += corrupted
            live = [o for o in self.ongoing.setdefault(rid, []) if o.tx.t_end > now]
            self.seen["overlap>=3"] += len(live) >= 2
            for other in live:
                if power >= other.power * self.capture_threshold:
                    other.corrupted = True
                elif other.power >= power * self.capture_threshold:
                    corrupted = True
                else:
                    other.corrupted = corrupted = True
            if not corrupted and self.loss_prob > 0.0:
                if self.rng.random() < self.loss_prob:
                    corrupted = True
                    self.stats.frames_lost_random += 1
            batch.append(_Rec(tx, rid, power, corrupted))
            self.ongoing[rid].append(batch[-1])
        if batch:
            net.sim.schedule(duration, self._complete_frame, batch)
        net.nodes[sender].tx_busy_until = max(net.nodes[sender].tx_busy_until, tx.t_end)
        return tx

    def _complete_frame(self, batch):
        net, packet = self.network, batch[0].tx.packet
        net.sim.events_executed += len(batch) - 1
        joules = net.radio.rx_energy(packet.bits)
        for rec in batch:
            self.ongoing[rec.receiver].remove(rec)
            node = net.nodes[rec.receiver]
            if not node.alive:
                self.seen["dead_at_end"] += 1
                continue
            self.stats.receptions_total += 1
            node.ledger.charge("rx", packet.traffic_class, joules)
            node.battery.draw(joules)
            # a reception that empties the battery dies with the node
            died = not node.alive
            self.seen["died_on_rx"] += died and not rec.corrupted
            if rec.corrupted or died:
                self.stats.frames_collided += 1
                node.ledger.reclassify_rx_as_discard(packet.traffic_class, joules)
            else:
                self.stats.frames_delivered += 1
                node.deliver(packet, joules)


def _run_medium_scenario(seed, loss_prob, reference):
    """Bursts of overlapping frames on a dense 10-node field, with nodes
    killed mid-run and small batteries that run out inside frames."""
    rng = np.random.default_rng(seed)
    sim, net = make_network(rng.uniform(0, 300, size=(10, 2)).tolist(), loss_prob=loss_prob)
    if reference:
        net.medium = ReferenceMedium(net)
    for node in net.nodes:
        node.agent.useful = node.id % 3 != 0  # some clean frames are discards
    rx_j = net.radio.rx_energy(512 * 8)
    for v in rng.choice(10, size=3, replace=False).tolist():
        node = net.nodes[v]
        node.battery = Battery(float(rng.uniform(3, 12)) * rx_j, on_depleted=node._die)

    def send(v, seq, size, tx_range):
        if net.nodes[v].alive:
            net.medium.broadcast(v, data_packet(v, seq=seq, size=size), tx_range)

    def kill(v):
        net.nodes[v].alive = False

    seq = 0
    for t0 in np.sort(rng.uniform(0.0, 0.2, size=25)).tolist():
        for dt in np.sort(rng.uniform(0.0, 0.0015, size=int(rng.integers(2, 6)))).tolist():
            sim.schedule_at(t0 + dt, send, int(rng.integers(10)), seq,
                            int(rng.choice([64, 256, 512, 1024])),
                            float(rng.uniform(40.0, 300.0)))
            seq += 1
    for v in rng.choice(10, size=2, replace=False).tolist():
        sim.schedule_at(float(rng.uniform(0.0, 0.2)), kill, v)
    # Batteries of a few receptions, so some clean reception empties one.
    for v in rng.choice(10, size=3, replace=False).tolist():
        node = net.nodes[v]
        if node.battery.remaining_j == float("inf"):
            node.battery = Battery(float(rng.uniform(0.5, 3)) * rx_j, on_depleted=node._die)
    sim.run()
    outcome = {
        "received": [[(t, p.origin, p.seq) for t, p in nd.agent.received] for nd in net.nodes],
        "ledgers": [nd.ledger.snapshot() for nd in net.nodes],
        "batteries": [nd.battery.remaining_j for nd in net.nodes],
        "alive": [nd.alive for nd in net.nodes],
        "stats": {k: getattr(net.medium.stats, k) for k in type(net.medium.stats).__slots__},
        "events": sim.events_executed,
        "rng": None if net.medium.rng is None else net.medium.rng.bit_generator.state,
    }
    return outcome, getattr(net.medium, "seen", None)


class TestMediumMatchesReferenceModel:
    """Per-frame receiver lists, the overlap horizon and the batched loss
    draws give exactly the per-receiver outcomes, stats, ledger buckets
    and RNG state of the per-receiver reference loop."""

    @pytest.mark.parametrize("loss_prob", [0.0, 0.25])
    @pytest.mark.parametrize("seed", range(6))
    def test_same_outcomes(self, seed, loss_prob):
        expected, seen = _run_medium_scenario(seed, loss_prob, reference=True)
        actual, _ = _run_medium_scenario(seed, loss_prob, reference=False)
        assert actual == expected
        # the scenario reached capture chains and half-duplex losses
        assert seen["overlap>=3"] > 0 and seen["half_duplex"] > 0
        assert expected["stats"]["frames_collided"] > 0
        assert expected["stats"]["frames_lost_random"] > 0 or loss_prob == 0.0

    def test_scenarios_reach_dead_receivers(self):
        seen = [_run_medium_scenario(s, 0.25, reference=True)[1] for s in range(6)]
        assert sum(s["dead_at_end"] for s in seen) > 0
        assert sum(s["died_on_rx"] for s in seen) > 0


class TestMediumCounterInvariants:
    """``frames_collided`` counts receptions, not frames: every reception
    of a live receiver is either delivered or lost (collision, half
    duplex or random loss), and random losses are a subset of the
    losses."""

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_receptions_split_into_delivered_and_lost(self, protocol, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.backends import backend_by_name
        from repro.experiments.config import ScenarioConfig

        built = []
        build = runner.build_network

        def keep_network(config):
            sim, network = build(config)
            built.append(network)
            return sim, network

        monkeypatch.setattr(runner, "build_network", keep_network)
        cfg = ScenarioConfig.quick(
            protocol=protocol, sim_time=14.0, n_nodes=30, group_size=8, seed=5
        )
        result = backend_by_name("des").run(cfg)
        (network,) = built
        stats = network.medium.stats
        assert stats.receptions_total == stats.frames_delivered + stats.frames_collided
        assert 0 < stats.frames_lost_random <= stats.frames_collided
        assert result.frames_collided == stats.frames_collided
        assert stats.receptions_total > stats.frames_sent


class TestCarrierSense:
    def test_busy_during_transmission(self):
        sim, net = make_network([[0, 0], [100, 0]])
        net.medium.broadcast(0, data_packet(0), tx_range=150.0)
        assert net.medium.carrier_busy(1)  # hears the ongoing frame
        assert net.medium.carrier_busy(0)  # own transmission
        sim.run()
        assert not net.medium.carrier_busy(1)

    def test_mac_defers_until_idle(self):
        sim, net = make_network([[0, 0], [100, 0], [200, 0]], mac=MacConfig(jitter_max=0.0, backoff_max=0.005))
        # Node 0 seizes the channel directly; node 1's MAC must defer.
        net.medium.broadcast(0, data_packet(0, seq=0), tx_range=150.0)
        net.nodes[1].send(data_packet(1, seq=1), tx_range=150.0)
        sim.run()
        # Node 2 hears node 1's (deferred) frame cleanly.
        got = [p.origin for _, p in net.nodes[2].agent.received]
        assert got == [1]

    def test_mac_drops_after_max_attempts(self):
        sim, net = make_network(
            [[0, 0], [100, 0]],
            mac=MacConfig(jitter_max=0.0, backoff_max=0.0001, max_attempts=2),
        )
        # Saturate the channel from node 0 with back-to-back frames.
        def flood(k=0):
            if k < 200:
                net.medium.broadcast(0, data_packet(0, seq=k), tx_range=150.0)
                sim.schedule(0.0005, flood, k + 1)

        flood()
        net.nodes[1].send(data_packet(1, seq=999), tx_range=150.0)
        sim.run()
        assert net.nodes[1].mac.frames_dropped == 1


class TestNeighborTable:
    def test_update_and_get(self):
        table = NeighborTable(timeout=5.0)
        table.update(3, now=1.0, position=np.array([1.0, 2.0]), state={"cost": 7})
        info = table.get(3)
        assert info is not None
        assert info.state["cost"] == 7
        assert 3 in table

    def test_expiry(self):
        table = NeighborTable(timeout=5.0)
        table.update(1, now=0.0)
        table.update(2, now=4.0)
        dead = table.expire(now=6.0)
        assert dead == [1]
        assert 1 not in table and 2 in table

    def test_refresh_prevents_expiry(self):
        table = NeighborTable(timeout=5.0)
        table.update(1, now=0.0)
        table.update(1, now=4.0)
        assert table.expire(now=6.0) == []

    def test_forget(self):
        table = NeighborTable(timeout=5.0)
        table.update(1, now=0.0)
        table.forget(1)
        assert len(table) == 0

    def test_distance_from(self):
        table = NeighborTable(timeout=5.0)
        table.update(1, now=0.0, position=np.array([3.0, 4.0]))
        assert table.get(1).distance_from(np.zeros(2)) == pytest.approx(5.0)

    def test_distance_requires_position(self):
        table = NeighborTable(timeout=5.0)
        table.update(1, now=0.0)
        with pytest.raises(ValueError):
            table.get(1).distance_from(np.zeros(2))

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            NeighborTable(timeout=0.0)


class TestNetwork:
    def test_group_declaration(self):
        sim, net = make_network([[0, 0], [100, 0], [200, 0]])
        net.set_groups([GroupSpec(0, 0, (2,))])
        assert net.group_source_of(0) == 0
        assert [v for v in range(net.n) if net.is_group_member(0, v)] == [0, 2]
        assert net.group_receivers_of(0) == {2}

    def test_total_energy_sums_nodes(self):
        sim, net = make_network([[0, 0], [100, 0]])
        net.medium.broadcast(0, data_packet(0), tx_range=150.0)
        sim.run()
        assert net.total_energy() == pytest.approx(
            net.nodes[0].ledger.total + net.nodes[1].ledger.total
        )

    def test_position_cache_consistency(self):
        sim, net = make_network([[0, 0], [100, 0]])
        p1 = net.positions()
        p2 = net.positions()
        assert p1 is p2  # same timestamp -> cached array
