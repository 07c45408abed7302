"""Constant-bit-rate multicast source.

The paper's workload: "one node [is] the source of the multicast session
sending CBR data packets at the rate of 64 Kbps" (section 6).  With the
default 512-byte payload that is 15.625 packets/s; both rate and size are
configurable so the benches can run scaled-down workloads.
"""

from __future__ import annotations

from typing import Optional

from repro.net.node import Network
from repro.sim.timers import PeriodicTimer
from repro.util.units import bytes_to_bits, kbps_to_bps


class CbrSource:
    """Drives the source node's agent with periodic data packets."""

    def __init__(
        self,
        network: Network,
        rate_kbps: float = 64.0,
        packet_bytes: int = 512,
        start_time: float = 0.0,
    ) -> None:
        if rate_kbps <= 0 or packet_bytes <= 0:
            raise ValueError("rate and packet size must be positive")
        self.network = network
        self.packet_bytes = int(packet_bytes)
        self.interval = bytes_to_bits(packet_bytes) / kbps_to_bps(rate_kbps)
        self.start_time = float(start_time)
        self.packets_sent = 0
        self._timer: Optional[PeriodicTimer] = None

    def start(self) -> None:
        """Begin generating packets at ``start_time``."""
        self._timer = PeriodicTimer(
            self.network.sim,
            self.interval,
            self._emit,
            start_offset=self.start_time,
        )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def _emit(self) -> None:
        source = self.network.nodes[self.network.source]
        if not source.alive or source.agent is None:
            return
        source.agent.originate_data(self.packet_bytes)
        self.packets_sent += 1
