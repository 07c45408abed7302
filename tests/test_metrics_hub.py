"""Tests for the metrics hub and run summaries."""

import pytest

from repro.metrics.hub import MetricsHub
from repro.net.packet import Packet, PacketKind


def data(seq, created=0.0, size=512):
    return Packet(PacketKind.DATA, 0, 0, seq, size, created_at=created)


def beacon(seq, size=40):
    return Packet(PacketKind.BEACON, 0, 0, seq, size)


class TestCounting:
    def test_pdr_full_delivery(self):
        hub = MetricsHub({0: 2})
        for i in range(5):
            p = data(i)
            hub.on_data_originated(p)
            hub.on_data_delivered(1, p, now=0.01)
            hub.on_data_delivered(2, p, now=0.02)
        s = hub.summary(total_energy_j=0.1)
        assert s.pdr == 1.0
        assert s.data_delivered == 10

    def test_pdr_partial(self):
        hub = MetricsHub({0: 2})
        for i in range(4):
            p = data(i)
            hub.on_data_originated(p)
            if i % 2 == 0:
                hub.on_data_delivered(1, p, now=0.01)
        s = hub.summary(0.0)
        assert s.pdr == pytest.approx(2 / 8)

    def test_duplicates_not_double_counted(self):
        hub = MetricsHub({0: 1})
        p = data(0)
        hub.on_data_originated(p)
        assert hub.on_data_delivered(1, p, now=0.5) is True
        assert hub.on_data_delivered(1, p, now=0.6) is False
        s = hub.summary(0.0)
        assert s.data_delivered == 1
        assert s.duplicates_suppressed == 1

    def test_energy_per_packet_mj(self):
        hub = MetricsHub({0: 1})
        p = data(0)
        hub.on_data_originated(p)
        hub.on_data_delivered(1, p, now=0.1)
        s = hub.summary(total_energy_j=0.004)
        assert s.energy_per_packet_mj == pytest.approx(4.0)

    def test_energy_infinite_when_nothing_delivered(self):
        hub = MetricsHub({0: 1})
        hub.on_data_originated(data(0))
        s = hub.summary(1.0)
        assert s.energy_per_packet_mj == float("inf")

    def test_delay_ms(self):
        hub = MetricsHub({0: 1})
        p = data(0, created=1.0)
        hub.on_data_originated(p)
        hub.on_data_delivered(1, p, now=1.025)
        s = hub.summary(0.0)
        assert s.avg_delay_ms == pytest.approx(25.0)

    def test_control_overhead(self):
        hub = MetricsHub({0: 1})
        hub.set_packet_size_hint(512)
        hub.on_frame_sent(beacon(0, size=100))
        hub.on_frame_sent(beacon(1, size=100))
        p = data(0)
        hub.on_frame_sent(p)
        hub.on_data_originated(p)
        hub.on_data_delivered(1, p, now=0.1)
        s = hub.summary(0.0)
        assert s.control_bytes_tx == 200
        assert s.control_overhead == pytest.approx(200 / 512)

    def test_frame_classification(self):
        hub = MetricsHub({0: 1})
        hub.on_frame_sent(data(0))
        hub.on_frame_sent(beacon(0, size=64))
        assert hub.data_bytes_tx == 512
        assert hub.control_bytes_tx == 64


class TestAvailability:
    def test_unavailability_without_deliveries(self):
        hub = MetricsHub({0: 2}, availability_window=1.0)
        for t in range(5):
            hub.probe_availability([1, 2], now=float(t))
        s = hub.summary(0.0)
        assert s.unavailability == 1.0

    def test_unavailability_with_recent_delivery(self):
        hub = MetricsHub({0: 1}, availability_window=1.0)
        p = data(0)
        hub.on_data_originated(p)
        hub.on_data_delivered(1, p, now=0.0)
        hub.probe_availability([1], now=0.5)  # covered
        hub.probe_availability([1], now=5.0)  # stale
        s = hub.summary(0.0)
        assert s.unavailability == pytest.approx(0.5)

    def test_no_probes_means_zero(self):
        hub = MetricsHub({0: 1})
        assert hub.summary(0.0).unavailability == 0.0


class TestValidation:
    def test_negative_receivers_rejected(self):
        with pytest.raises(ValueError):
            MetricsHub({0: -1})

    def test_bad_packet_hint_rejected(self):
        with pytest.raises(ValueError):
            MetricsHub({0: 1}).set_packet_size_hint(0)

    def test_summary_as_dict(self):
        hub = MetricsHub({0: 1})
        d = hub.summary(0.0).as_dict()
        assert "pdr" in d and "energy_per_packet_mj" in d
