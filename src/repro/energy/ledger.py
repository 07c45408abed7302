"""Per-node energy accounting.

Every joule spent in the simulation flows through an :class:`EnergyLedger`:

* ``tx``       — energy spent transmitting,
* ``rx``       — energy spent receiving packets the node actually used,
* ``discard``  — energy spent receiving packets the node threw away
  (the paper's *discard energy*, section 3),

each split into ``data`` and ``control`` traffic classes.  The evaluation's
"energy consumed per packet delivered" metric is total network energy (all
six buckets) divided by delivered data packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

_DIRECTIONS = ("tx", "rx", "discard")
_CLASSES = ("data", "control")
#: traffic class -> its ``(rx, discard)`` bucket keys
_RX_BUCKETS = {c: (f"rx_{c}", f"discard_{c}") for c in _CLASSES}


@dataclass
class EnergyBreakdown:
    """Immutable snapshot of one node's energy usage in joules."""

    tx_data: float = 0.0
    tx_control: float = 0.0
    rx_data: float = 0.0
    rx_control: float = 0.0
    discard_data: float = 0.0
    discard_control: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.tx_data
            + self.tx_control
            + self.rx_data
            + self.rx_control
            + self.discard_data
            + self.discard_control
        )

    @property
    def total_discard(self) -> float:
        return self.discard_data + self.discard_control

    @property
    def total_control(self) -> float:
        return self.tx_control + self.rx_control + self.discard_control


class EnergyLedger:
    """Mutable accumulator of energy usage for one node.

    ``balances`` maps each bucket key (``"rx_data"``, ...) to its joules.
    The medium's per-frame reception loop adds to it directly, with the
    float operations of :meth:`charge` followed, for a corrupted copy, by
    :meth:`reclassify_rx_as_discard`.
    """

    __slots__ = ("balances",)

    def __init__(self) -> None:
        self.balances: Dict[str, float] = {
            f"{d}_{c}": 0.0 for d in _DIRECTIONS for c in _CLASSES
        }

    def charge(self, direction: str, traffic_class: str, joules: float) -> None:
        """Record ``joules`` of usage.

        ``direction`` is one of ``tx|rx|discard``; ``traffic_class`` is
        ``data|control``.
        """
        if joules < 0:
            raise ValueError("cannot charge negative energy")
        key = f"{direction}_{traffic_class}"
        if key not in self.balances:
            raise ValueError(f"unknown energy bucket {key!r}")
        self.balances[key] += joules

    @staticmethod
    def rx_buckets(traffic_class: str) -> Tuple[str, str]:
        """The ``(rx, discard)`` bucket keys of ``traffic_class``.

        Raises ``charge``'s unknown-bucket error for an unknown class, so
        a caller that files many receptions of one frame checks its keys
        once.
        """
        buckets = _RX_BUCKETS.get(traffic_class)
        if buckets is None:
            key = f"rx_{traffic_class}"
            raise ValueError(f"unknown energy bucket {key!r}")
        return buckets

    def reclassify_rx_as_discard(self, traffic_class: str, joules: float) -> None:
        """Move energy from the rx bucket to the discard bucket.

        The medium charges reception optimistically; when the protocol agent
        decides the packet is useless (overheard / duplicate), the charge is
        re-filed as discard energy.
        """
        self._refile(self.rx_buckets(traffic_class), joules)

    def _refile(self, buckets: Tuple[str, str], joules: float) -> None:
        j = self.balances
        key_rx, key_dis = buckets
        if joules < 0 or j[key_rx] - joules < -1e-12:
            raise ValueError("reclassify amount exceeds rx balance")
        j[key_rx] -= joules
        j[key_dis] += joules

    def snapshot(self) -> EnergyBreakdown:
        """Return an immutable copy of the current balances."""
        return EnergyBreakdown(**self.balances)

    @property
    def total(self) -> float:
        """Total joules across all buckets."""
        return sum(self.balances.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"EnergyLedger(total={self.total:.6e} J)"
