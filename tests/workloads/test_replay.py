"""Trace persistence and profiling."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workloads import AccessBlock, YCSBConfig, scan_blocks, ycsb_blocks
from repro.workloads.replay import load_trace, profile_trace, save_trace

from tests.oracle.traces import Access, blocks_to_accesses, from_accesses
from tests.oracle.traces import ycsb_trace


def expand(blocks):
    return list(blocks_to_accesses(blocks))


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        original = list(ycsb_blocks(YCSBConfig(
            mix="A", num_pages=100, num_ops=500, seed=1), block_ops=64))
        path = tmp_path / "trace.npz"
        written = save_trace(path, original)
        assert written == sum(len(block) for block in original)
        loaded = list(load_trace(path))
        assert all(type(block) is AccessBlock for block in loaded)
        assert expand(loaded) == expand(original)

    def test_scan_flags_preserved(self, tmp_path):
        original = list(scan_blocks(0, 20, repeats=1))
        path = tmp_path / "scan.npz"
        save_trace(path, original)
        loaded = expand(load_trace(path))
        assert all(a.is_scan for a in loaded)
        assert all(a.nbytes == 4096 for a in loaded)

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            save_trace(tmp_path / "empty.npz", [])

    def test_file_is_compact(self, tmp_path):
        trace = list(ycsb_blocks(YCSBConfig(
            mix="C", num_pages=1_000, num_ops=10_000, seed=2)))
        path = tmp_path / "big.npz"
        save_trace(path, trace)
        # Well under 10 bytes/access once compressed.
        assert path.stat().st_size < 10 * sum(len(b) for b in trace)

    def test_container_format(self, tmp_path):
        # One array per column, the stored dtypes fixed: files written
        # before traces were blocks load unchanged.
        path = tmp_path / "fmt.npz"
        save_trace(path, [from_accesses([Access(3, write=True),
                                         Access(9, nbytes=4096)])])
        with np.load(path) as data:
            assert {name: data[name].dtype.str for name in data.files} == {
                "page_id": "<i8", "write": "|b1", "is_scan": "|b1",
                "nbytes": "<i4", "think_ns": "<f8"}
        assert [b.page_id.tolist() for b in load_trace(path)] == [[3, 9]]


class TestProfiling:
    def test_basic_counts(self):
        trace = [from_accesses([
            Access(page_id=0), Access(page_id=0, write=True),
            Access(page_id=1, is_scan=True, nbytes=4096)])]
        profile = profile_trace(trace)
        assert profile.accesses == 3
        assert profile.footprint_pages == 2
        assert profile.read_ratio == pytest.approx(2 / 3)
        assert profile.scan_share == pytest.approx(1 / 3)
        assert profile.bytes_touched == 64 + 64 + 4096

    def test_matches_a_per_access_count(self):
        # The columnar profile against the count it replaced, one
        # frozen scalar record at a time.
        config = YCSBConfig(mix="E", num_pages=2_000, num_ops=3_000,
                            seed=6)
        counts, reads, scans, nbytes, n = {}, 0, 0, 0, 0
        for access in ycsb_trace(config):
            n += 1
            counts[access.page_id] = counts.get(access.page_id, 0) + 1
            reads += not access.write
            scans += access.is_scan
            nbytes += access.nbytes
        heat = sorted(counts.values(), reverse=True)
        profile = profile_trace(ycsb_blocks(config))
        assert (profile.accesses, profile.footprint_pages,
                profile.read_ratio, profile.scan_share,
                profile.bytes_touched, profile.hot_1pct_share,
                profile.hot_10pct_share) == (
            n, len(heat), reads / n, scans / n, nbytes,
            sum(heat[:max(1, int(len(heat) * 0.01))]) / n,
            sum(heat[:max(1, int(len(heat) * 0.10))]) / n)

    def test_zipf_trace_is_tierable(self):
        trace = ycsb_blocks(YCSBConfig(
            mix="C", num_pages=10_000, num_ops=20_000, theta=0.99,
            seed=3))
        profile = profile_trace(trace)
        assert profile.hot_10pct_share > 0.5
        assert profile.tierable

    def test_uniform_trace_is_not_tierable(self):
        trace = ycsb_blocks(YCSBConfig(
            mix="C", num_pages=10_000, num_ops=20_000, theta=0.0,
            seed=3))
        profile = profile_trace(trace)
        assert not profile.tierable

    def test_hot_shares_monotone(self):
        trace = ycsb_blocks(YCSBConfig(
            mix="B", num_pages=5_000, num_ops=10_000, seed=4))
        profile = profile_trace(trace)
        assert profile.hot_1pct_share <= profile.hot_10pct_share <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            profile_trace([])
