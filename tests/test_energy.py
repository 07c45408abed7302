"""Tests for the radio model, ledger and battery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import Battery, EnergyLedger, FirstOrderRadioModel


class TestFirstOrderRadioModel:
    def test_tx_monotone_in_distance(self, radio):
        distances = np.linspace(radio.d_floor, radio.max_range, 50)
        costs = [radio.tx_cost_per_bit(d) for d in distances]
        assert all(a <= b for a, b in zip(costs, costs[1:]))

    def test_tx_scales_linearly_in_bits(self, radio):
        assert radio.tx_energy(2000, 100.0) == pytest.approx(
            2 * radio.tx_energy(1000, 100.0)
        )

    def test_rx_constant_per_bit(self, radio):
        """Paper section 3: reception energy is constant for all nodes."""
        assert radio.rx_energy(100) == pytest.approx(100 * radio.e_rx)

    def test_power_floor(self, radio):
        """Below d_floor, transmitters cannot reduce power further."""
        assert radio.tx_cost_per_bit(0.0) == radio.tx_cost_per_bit(radio.d_floor)
        assert radio.tx_cost_per_bit(1.0) == radio.tx_cost_per_bit(radio.d_floor)

    def test_superlinearity_enables_relaying(self, radio):
        """Two 100 m hops must beat one 200 m hop (the effect SS-SPST-E
        exploits: 'transmitting a packet in a single hop might consume more
        energy than relaying it along a tandem of nodes')."""
        assert radio.relay_beats_direct(200.0, 100.0, 100.0)

    def test_short_relay_does_not_beat_direct(self, radio):
        # At small distances e_elec dominates and relaying is wasteful.
        assert not radio.relay_beats_direct(20.0, 10.0, 10.0)

    def test_in_range(self, radio):
        assert radio.in_range(radio.max_range)
        assert not radio.in_range(radio.max_range + 1)
        assert not radio.in_range(0.0)

    def test_negative_inputs_rejected(self, radio):
        with pytest.raises(ValueError):
            radio.tx_energy(-1, 10)
        with pytest.raises(ValueError):
            radio.tx_cost_per_bit(-5)
        with pytest.raises(ValueError):
            radio.rx_energy(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FirstOrderRadioModel(e_elec=-1.0)
        with pytest.raises(ValueError):
            FirstOrderRadioModel(alpha=0.5)
        with pytest.raises(ValueError):
            FirstOrderRadioModel(max_range=-1.0)
        with pytest.raises(ValueError):
            FirstOrderRadioModel(d_floor=300.0, max_range=250.0)

    @settings(max_examples=50, deadline=None)
    @given(
        d1=st.floats(10.0, 250.0),
        d2=st.floats(10.0, 250.0),
        bits=st.floats(1.0, 1e6),
    )
    def test_property_monotonicity(self, d1, d2, bits):
        radio = FirstOrderRadioModel()
        lo, hi = min(d1, d2), max(d1, d2)
        assert radio.tx_energy(bits, lo) <= radio.tx_energy(bits, hi) + 1e-18


class TestEnergyLedger:
    def test_charges_accumulate(self):
        ledger = EnergyLedger()
        ledger.charge("tx", "data", 1.0)
        ledger.charge("tx", "data", 2.0)
        ledger.charge("rx", "control", 0.5)
        snap = ledger.snapshot()
        assert snap.tx_data == 3.0
        assert snap.rx_control == 0.5
        assert ledger.total == 3.5

    def test_reclassify_rx_as_discard(self):
        ledger = EnergyLedger()
        ledger.charge("rx", "data", 2.0)
        ledger.reclassify_rx_as_discard("data", 2.0)
        snap = ledger.snapshot()
        assert snap.rx_data == 0.0
        assert snap.discard_data == 2.0
        assert ledger.total == 2.0  # total unchanged by reclassification

    def test_reclassify_overdraft_rejected(self):
        ledger = EnergyLedger()
        ledger.charge("rx", "data", 1.0)
        with pytest.raises(ValueError):
            ledger.reclassify_rx_as_discard("data", 2.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger().charge("tx", "data", -0.1)

    def test_unknown_bucket_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger().charge("sideways", "data", 1.0)

    def test_reclassify_unknown_class_raises_charges_error(self):
        ledger = EnergyLedger()
        with pytest.raises(ValueError) as charged:
            ledger.charge("rx", "video", 1.0)
        with pytest.raises(ValueError) as refiled:
            ledger.reclassify_rx_as_discard("video", 1.0)
        assert str(refiled.value) == str(charged.value)
        assert str(refiled.value) == "unknown energy bucket 'rx_video'"
        with pytest.raises(ValueError, match="unknown energy bucket 'rx_video'"):
            EnergyLedger.rx_buckets("video")

    def test_snapshot_totals(self):
        ledger = EnergyLedger()
        ledger.charge("tx", "control", 1.0)
        ledger.charge("discard", "data", 2.0)
        ledger.charge("discard", "control", 3.0)
        snap = ledger.snapshot()
        assert snap.total == 6.0
        assert snap.total_discard == 5.0
        assert snap.total_control == 4.0


class TestBattery:
    def test_infinite_by_default(self):
        b = Battery()
        assert b.draw(1e12)
        assert not b.depleted
        assert b.fraction_remaining == 1.0

    def test_depletion_fires_callback_once(self):
        fired = []
        b = Battery(10.0, on_depleted=lambda: fired.append(1))
        assert b.draw(6.0)
        assert not b.draw(6.0)
        assert b.depleted
        assert not b.draw(1.0)  # stays dead
        assert fired == [1]

    def test_fraction_remaining(self):
        b = Battery(10.0)
        b.draw(2.5)
        assert b.fraction_remaining == pytest.approx(0.75)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Battery(0.0)

    def test_negative_draw_rejected(self):
        with pytest.raises(ValueError):
            Battery(1.0).draw(-0.5)
