"""Central metrics collection for DES runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.groups.metrics import jain_index
from repro.net.packet import Packet, PacketKind
from repro.util.ids import NodeId
from repro.util.units import joules_to_mj


@dataclass
class RunSummary:
    """Final quantities of one simulation run (paper's reporting units)."""

    pdr: float
    energy_per_packet_mj: float
    avg_delay_ms: float
    control_overhead: float  # control bytes tx / data bytes delivered
    unavailability: float
    data_originated: int
    data_delivered: int
    total_energy_j: float
    control_bytes_tx: int
    data_bytes_tx: int
    duplicates_suppressed: int

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)


class MetricsHub:
    """Accumulates events during a run; computes a :class:`RunSummary`.

    Takes each group's receiver count once (``{0: n}`` for one group).
    Wire-up: the experiment runner installs the hub on the network
    (``network.hub``); the medium reports every frame put on the air, and
    protocol agents report originations and deliveries.
    """

    def __init__(
        self, receiver_counts: Dict[int, int], availability_window: float = 2.0
    ) -> None:
        if any(count < 0 for count in receiver_counts.values()):
            raise ValueError("receiver counts must be non-negative")
        # per-group receivers at t = 0: the expected-delivery denominators
        self._group_receiver_counts = dict(receiver_counts)
        self.availability_window = availability_window
        self.data_originated = 0
        self.control_bytes_tx = 0
        self.data_bytes_tx = 0
        self.duplicates_suppressed = 0
        # Delivery identity and recency are group-scoped: the same node
        # receiving the same (origin, seq) through two sessions is two
        # distinct deliveries.  Single-group runs only ever use group 0,
        # so every aggregate below reduces to the historical quantity.
        self._deliveries: Dict[Tuple[int, NodeId, int, int], float] = {}
        self._delays: list = []
        self._last_delivery_at: Dict[Tuple[int, NodeId], float] = {}
        self._probes = 0
        self._probe_misses = 0
        self._originated_by_group: Dict[int, int] = {}
        self._delivered_by_group: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Event sinks
    # ------------------------------------------------------------------
    def on_frame_sent(self, packet: Packet) -> None:
        """Called by the medium for every transmitted frame."""
        if packet.kind is PacketKind.DATA:
            self.data_bytes_tx += packet.size_bytes
        else:
            self.control_bytes_tx += packet.size_bytes

    def on_data_originated(self, packet: Packet) -> None:
        """Called by the source agent when a new data packet enters."""
        self.data_originated += 1
        g = packet.group
        self._originated_by_group[g] = self._originated_by_group.get(g, 0) + 1

    def on_data_delivered(self, receiver: NodeId, packet: Packet, now: float) -> bool:
        """Called by a member agent on accepting a data packet.

        Returns True for a first delivery, False for a duplicate (which is
        counted but not re-credited).
        """
        key = (packet.group, receiver, packet.origin, packet.seq)
        if key in self._deliveries:
            self.duplicates_suppressed += 1
            return False
        self._deliveries[key] = now
        self._delays.append(now - packet.created_at)
        self._last_delivery_at[(packet.group, receiver)] = now
        g = packet.group
        self._delivered_by_group[g] = self._delivered_by_group.get(g, 0) + 1
        return True

    def probe_availability(self, receivers, now: float, group: int = 0) -> None:
        """Periodic service probe: a receiver is 'covered' if it saw a
        delivery for ``group`` within the availability window."""
        for r in receivers:
            self._probes += 1
            last = self._last_delivery_at.get((group, r))
            if last is None or now - last > self.availability_window:
                self._probe_misses += 1

    # ------------------------------------------------------------------
    @property
    def data_delivered(self) -> int:
        return len(self._deliveries)

    def _expected_deliveries(self) -> int:
        """Sum over groups of originations times that group's audience."""
        return sum(
            count * self._group_receiver_counts[g]
            for g, count in self._originated_by_group.items()
        )

    def group_pdrs(self) -> Dict[int, float]:
        """Per-group packet delivery ratio (0.0 when nothing was sent)."""
        out: Dict[int, float] = {}
        for g, count in sorted(self._group_receiver_counts.items()):
            expected = self._originated_by_group.get(g, 0) * count
            delivered = self._delivered_by_group.get(g, 0)
            out[g] = delivered / expected if expected else 0.0
        return out

    def fairness_jain(self) -> float:
        """Jain index over per-group PDRs (1.0 for a single group)."""
        return jain_index(self.group_pdrs().values())

    def group_pdr_min(self) -> float:
        """The worst-served group's PDR."""
        pdrs = self.group_pdrs()
        return min(pdrs.values()) if pdrs else 0.0

    def summary(self, total_energy_j: float) -> RunSummary:
        """Finalize, given the network-wide energy total."""
        expected = self._expected_deliveries()
        delivered = self.data_delivered
        pdr = delivered / expected if expected else 0.0
        epp = joules_to_mj(total_energy_j) / delivered if delivered else float("inf")
        delay_ms = (sum(self._delays) / len(self._delays)) * 1e3 if self._delays else float("inf")
        overhead = (
            self.control_bytes_tx / self._delivered_bytes()
            if self._delivered_bytes()
            else float("inf")
        )
        unavailability = self._probe_misses / self._probes if self._probes else 0.0
        return RunSummary(
            pdr=pdr,
            energy_per_packet_mj=epp,
            avg_delay_ms=delay_ms,
            control_overhead=overhead,
            unavailability=unavailability,
            data_originated=self.data_originated,
            data_delivered=delivered,
            total_energy_j=total_energy_j,
            control_bytes_tx=self.control_bytes_tx,
            data_bytes_tx=self.data_bytes_tx,
            duplicates_suppressed=self.duplicates_suppressed,
        )

    def _delivered_bytes(self) -> float:
        # Deliveries share the CBR packet size; recover it from origination
        # accounting (bytes per data frame are uniform in our scenarios).
        if not self._deliveries:
            return 0.0
        return float(len(self._deliveries)) * self._packet_size_hint

    _packet_size_hint: int = 512

    def set_packet_size_hint(self, size_bytes: int) -> None:
        """Nominal data packet size used to convert delivered packets to
        bytes for the control-overhead ratio (Figure 13)."""
        if size_bytes <= 0:
            raise ValueError("size must be positive")
        self._packet_size_hint = size_bytes
