"""First-order radio energy model with power control.

Transmitting ``b`` bits to range ``d`` costs::

    E_tx(b, d) = (e_elec + eps_amp * max(d, d_floor) ** alpha) * b      [J]

and receiving ``b`` bits costs::

    E_rx(b) = e_rx * b                                                  [J]

matching the paper's assumptions: transmission energy grows super-linearly
with distance (so multi-hop relaying can beat one long hop — the effect
SS-SPST-E exploits), and reception energy is constant per bit regardless of
the transmitter's power ("We also assume that the reception energy is
constant for all the nodes", section 3).

Default constants are the widely used first-order values (Heinzelman et
al.): ``e_elec = e_rx = 50 nJ/bit``, ``eps_amp = 100 pJ/bit/m^2``,
``alpha = 2``.  The paper does not publish its ns-2 constants; only
*relative* energies matter for its conclusions (see "Substitutions for
ns-2" in ``docs/deviations.md``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass


class RadioModel(abc.ABC):
    """Interface for radio energy/range computations."""

    max_range: float

    @abc.abstractmethod
    def tx_energy(self, bits: float, distance: float) -> float:
        """Energy (J) to transmit ``bits`` with power reaching ``distance``."""

    @abc.abstractmethod
    def rx_energy(self, bits: float) -> float:
        """Energy (J) to receive ``bits``."""

    @abc.abstractmethod
    def tx_cost_per_bit(self, distance: float) -> float:
        """Per-bit transmit energy (J/bit) at range ``distance``."""

    def in_range(self, distance: float) -> bool:
        """Whether a receiver at ``distance`` is reachable at maximum power."""
        return 0.0 < distance <= self.max_range


@dataclass(frozen=True)
class FirstOrderRadioModel(RadioModel):
    """The first-order (Heinzelman) radio model with hard maximum range.

    Parameters
    ----------
    e_elec:
        Electronics energy per bit for the transmit chain, J/bit.
    e_rx:
        Reception energy per bit, J/bit (constant, per the paper).
    eps_amp:
        Amplifier energy per bit per m^alpha, J/bit/m^alpha.
    alpha:
        Path-loss exponent (2 free space, 4 two-ray ground).
    max_range:
        Maximum transmission range at full power, metres.  The paper's
        750 m arena with 50 nodes is connected w.h.p. at the ns-2 default
        250 m, which we adopt.
    d_floor:
        Minimum effective distance for power control (transmitters cannot
        reduce power indefinitely).
    """

    e_elec: float = 50e-9
    e_rx: float = 50e-9
    eps_amp: float = 100e-12
    alpha: float = 2.0
    max_range: float = 250.0
    d_floor: float = 10.0

    def __post_init__(self) -> None:
        if min(self.e_elec, self.e_rx, self.eps_amp) < 0:
            raise ValueError("energy constants must be non-negative")
        if self.alpha < 1.0:
            raise ValueError("path-loss exponent must be >= 1")
        if self.max_range <= 0 or self.d_floor < 0:
            raise ValueError("ranges must be positive")
        if self.d_floor > self.max_range:
            raise ValueError("d_floor cannot exceed max_range")

    # ------------------------------------------------------------------
    def tx_cost_per_bit(self, distance: float) -> float:
        if distance < 0:
            raise ValueError("distance must be non-negative")
        d = max(distance, self.d_floor)
        return self.e_elec + self.eps_amp * d**self.alpha

    def tx_energy(self, bits: float, distance: float) -> float:
        if bits < 0:
            raise ValueError("bits must be non-negative")
        return self.tx_cost_per_bit(distance) * bits

    def rx_energy(self, bits: float) -> float:
        if bits < 0:
            raise ValueError("bits must be non-negative")
        return self.e_rx * bits

    # ------------------------------------------------------------------
    def relay_beats_direct(self, d_direct: float, d_hop1: float, d_hop2: float) -> bool:
        """True when relaying over two hops is cheaper than one direct hop.

        Per-bit comparison ignoring the relay's reception cost; used by
        documentation examples and tests of the super-linearity property.
        """
        return self.tx_cost_per_bit(d_hop1) + self.tx_cost_per_bit(
            d_hop2
        ) < self.tx_cost_per_bit(d_direct)
