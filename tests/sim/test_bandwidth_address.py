"""Shared channels."""

import pytest

from repro.errors import ConfigError
from repro.sim.bandwidth import SharedChannel


class TestSharedChannel:
    def test_uncontended_transfer(self):
        channel = SharedChannel("test", 2.0)  # 2 B/ns
        done = channel.request(1000, now_ns=0.0)
        assert done == pytest.approx(500.0)

    def test_fifo_contention_serializes(self):
        channel = SharedChannel("test", 1.0)
        first = channel.request(100, now_ns=0.0)
        second = channel.request(100, now_ns=0.0)
        assert first == pytest.approx(100.0)
        assert second == pytest.approx(200.0)

    def test_idle_gap_not_charged(self):
        channel = SharedChannel("test", 1.0)
        channel.request(100, now_ns=0.0)
        done = channel.request(100, now_ns=1000.0)
        assert done == pytest.approx(1100.0)

    def test_queueing_delay(self):
        channel = SharedChannel("test", 1.0)
        channel.request(500, now_ns=0.0)
        assert channel.queueing_delay(100.0) == pytest.approx(400.0)
        assert channel.queueing_delay(600.0) == 0.0

    def test_accounting(self):
        channel = SharedChannel("test", 2.0)
        channel.request(100, 0.0)
        channel.request(300, 0.0)
        assert channel.bytes_transferred == 400
        assert channel.busy_time_ns == pytest.approx(200.0)

    def test_utilization(self):
        channel = SharedChannel("test", 1.0)
        channel.request(500, 0.0)
        assert channel.utilization(1000.0) == pytest.approx(0.5)
        assert channel.utilization(0.0) == 0.0

    def test_utilization_capped_at_one(self):
        channel = SharedChannel("test", 1.0)
        channel.request(5000, 0.0)
        assert channel.utilization(1000.0) == 1.0

    def test_reset(self):
        channel = SharedChannel("test", 1.0)
        channel.request(100, 0.0)
        channel.reset()
        assert channel.bytes_transferred == 0
        assert channel.request(10, 0.0) == pytest.approx(10.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            SharedChannel("bad", 0.0)

