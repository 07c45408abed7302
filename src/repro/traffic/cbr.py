"""Constant-bit-rate multicast source.

The paper's workload: "one node [is] the source of the multicast session
sending CBR data packets at the rate of 64 Kbps" (section 6).  With the
default 512-byte payload that is 15.625 packets/s; both rate and size are
configurable so the benches can run scaled-down workloads.

A network with k > 1 groups gets one CBR clock per group, all at the
configured rate, each driving its own group's source.  Group starts are
staggered deterministically across one packet interval
(``start_time + gid * interval / k``) so k sessions do not slam the
medium in phase: the offered load is identical, only the phases differ,
and no RNG is consumed.
"""

from __future__ import annotations

from typing import List

from repro.net.node import Network
from repro.sim.timers import PeriodicTimer
from repro.util.units import bytes_to_bits, kbps_to_bps


class CbrSource:
    """Drives each group's source agent with periodic data packets."""

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
        self.packets_sent = 0  # over all groups
        self._timers: List[PeriodicTimer] = []

    def start(self) -> None:
        """Begin every group's flow; group 0's first packet goes at
        ``start_time``."""
        k = len(self.network.groups)
        for group in self.network.groups:
            self._timers.append(
                PeriodicTimer(
                    self.network.sim,
                    self.interval,
                    lambda gid=group.gid: self._emit(gid),
                    start_offset=self.start_time + group.gid * self.interval / k,
                )
            )

    def stop(self) -> None:
        for timer in self._timers:
            timer.stop()

    def _emit(self, gid: int) -> None:
        source = self.network.nodes[self.network.group_source_of(gid)]
        if not source.alive or source.agent is None:
            return
        source.agent.agent_for(gid).originate_data(self.packet_bytes)
        self.packets_sent += 1
