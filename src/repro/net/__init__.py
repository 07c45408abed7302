"""Wireless network substrate: packets, medium, MAC, nodes.

This replaces the ns-2 PHY/MAC/agent plumbing the paper's evaluation ran
on.  The model (see "Substitutions for ns-2" in ``docs/deviations.md``):

* **Broadcast medium with power control** — a transmission at range ``r``
  reaches every alive node within ``r`` of the sender (wireless multicast
  advantage); the sender pays energy for range ``r``; *every* node in range
  pays reception energy whether or not the packet was meant for it
  (overhearing -> discard energy).
* **Collisions** — receptions overlapping in time at a receiver corrupt
  each other unless one captures the receiver (power capture);
  half-duplex nodes cannot receive while transmitting.
* **CSMA MAC** — senders defer while they can hear an ongoing transmission
  and retry after a random backoff, with a transmit jitter that
  de-synchronizes flooding storms.
* **Optional uniform packet loss** models residual channel error.

Exports resolve on first use (:func:`repro.lazy_exports`): importing
the package loads none of its submodules; reading a name loads the
one module that defines it.
"""

from repro import lazy_exports

_LAZY_EXPORTS = {
    "Packet": "packet",
    "PacketKind": "packet",
    "CONTROL_KINDS": "packet",
    "WirelessMedium": "medium",
    "Transmission": "medium",
    "CsmaMac": "mac",
    "MacConfig": "mac",
    "Node": "node",
    "Network": "node",
    "ProtocolAgent": "node",
    "NeighborTable": "neighbors",
    "NeighborInfo": "neighbors",
}

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = list(_LAZY_EXPORTS)
