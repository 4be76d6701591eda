"""Unit-convention helpers."""

import pytest

from repro import units


class TestSizes:
    def test_kib(self):
        assert units.kib(4) == 4096

    def test_mib(self):
        assert units.mib(1) == 1024 ** 2

    def test_gib(self):
        assert units.gib(2) == 2 * 1024 ** 3

    def test_fractional_gib(self):
        assert units.gib(0.5) == 512 * 1024 ** 2

    def test_page_and_line_constants(self):
        assert units.PAGE_SIZE == 4096
        assert units.CACHE_LINE == 64


class TestTime:
    def test_us(self):
        assert units.us(2.5) == 2500.0

    def test_ms(self):
        assert units.ms(1) == 1_000_000.0

    def test_seconds(self):
        assert units.seconds(0.001) == units.ms(1)


class TestBandwidthConvention:
    def test_one_gbps_is_one_byte_per_ns(self):
        assert units.GBPS == 1.0

    def test_transfer_time_identity(self):
        # 1 GiB at 1 GB/s should take ~1.07 s.
        t = units.transfer_time_ns(units.gib(1), 1.0 * units.GBPS)
        assert t == pytest.approx(1.074e9, rel=0.01)

    def test_transfer_time_scales_inversely(self):
        slow = units.transfer_time_ns(4096, 1.0)
        fast = units.transfer_time_ns(4096, 4.0)
        assert slow == pytest.approx(4 * fast)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            units.transfer_time_ns(100, 0.0)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            units.transfer_time_ns(100, -1.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            units.transfer_time_ns(-1, 1.0)

    def test_zero_size_is_instant(self):
        assert units.transfer_time_ns(0, 5.0) == 0.0


class TestFormatting:
    def test_fmt_ns_ns(self):
        assert units.fmt_ns(85.0) == "85 ns"

    def test_fmt_ns_us(self):
        assert units.fmt_ns(2500.0) == "2.50 us"

    def test_fmt_ns_ms(self):
        assert units.fmt_ns(3.2e6) == "3.20 ms"

    def test_fmt_ns_s(self):
        assert units.fmt_ns(1.5e9) == "1.500 s"
