"""Trace equivalence suite: block emitters vs the frozen scalar
generators.

The columnar pipeline's contract is that every block-emitting
generator produces the **elementwise-identical** access sequence to
the historical one-record-per-access generator it replaced, frozen in
``tests.oracle.traces`` — same RNG draws, same op expansion, same
values in every field. These tests gate that contract (and the
reference's lossless adapters) directly, independent of the engine.
"""

import numpy as np
import pytest

from repro.workloads.cloudmix import generate_population
from repro.workloads.scans import mixed_htap_blocks, scan_blocks
from repro.workloads.tpcc import TPCCLite
from repro.workloads.traces import AccessBlock
from repro.workloads.ycsb import YCSBConfig, ycsb_blocks

from tests.oracle.traces import (
    Access,
    accesses_to_blocks,
    blocks_to_accesses,
    cloud_trace,
    flat_trace,
    from_accesses,
    mixed_htap_trace,
    scan_trace,
    ycsb_trace,
)


def expand(blocks):
    return list(blocks_to_accesses(blocks))


class TestYCSBEquivalence:
    @pytest.mark.parametrize("mix", sorted("ABCDEF"))
    def test_all_mixes_elementwise_identical(self, mix):
        config = YCSBConfig(mix=mix, num_pages=400, num_ops=2500,
                            seed=13)
        assert expand(ycsb_blocks(config)) == list(ycsb_trace(config))

    def test_odd_block_size_chunk_boundaries(self):
        config = YCSBConfig(mix="E", num_pages=300, num_ops=1200,
                            seed=3)
        scalar = list(ycsb_trace(config))
        for block_ops in (1, 7, 257, 100_000):
            assert expand(ycsb_blocks(config, block_ops=block_ops)) \
                == scalar

    def test_insert_cursor_growth_matches(self):
        # Mix D is insert-heavy enough to advance the tail cursor;
        # the vectorised cumulative-sum cursor must match the scalar
        # one draw for draw.
        config = YCSBConfig(mix="D", num_pages=64, num_ops=4000,
                            records_per_page=2, seed=21)
        scalar = list(ycsb_trace(config))
        assert expand(ycsb_blocks(config)) == scalar
        assert max(a.page_id for a in scalar) > 64  # cursor moved

    def test_zero_ops(self):
        config = YCSBConfig(mix="A", num_pages=16, num_ops=0)
        assert expand(ycsb_blocks(config)) == list(ycsb_trace(config))


class TestScanEquivalence:
    def test_scan_blocks_identical(self):
        scalar = list(scan_trace(5, 1000, repeats=3, write=True,
                                 think_ns=7.5))
        assert expand(scan_blocks(5, 1000, repeats=3, write=True,
                                  think_ns=7.5, block_ops=333)) == scalar

    def test_scan_blocks_validate(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            list(scan_blocks(0, 0))

    def test_htap_interleave_identical(self):
        params = dict(oltp_pages=300, olap_pages=700, oltp_ops=2000,
                      olap_repeats=2, oltp_per_olap=4, seed=5)
        scalar = list(mixed_htap_trace(**params))
        assert expand(mixed_htap_blocks(**params)) == scalar

    def test_htap_per_op_alternation_identical(self):
        # oltp_per_olap=1 is the engine coalescer's worst case; the
        # block interleave must still reproduce it exactly.
        params = dict(oltp_pages=200, olap_pages=400, oltp_ops=1500,
                      olap_repeats=2, oltp_per_olap=1, seed=23)
        scalar = list(mixed_htap_trace(**params))
        assert expand(mixed_htap_blocks(**params, block_ops=128)) \
            == scalar


class TestTPCCEquivalence:
    def test_flat_trace_blocks_identical(self):
        scalar = list(flat_trace(TPCCLite(num_warehouses=2, seed=3), 150))
        blocks = TPCCLite(num_warehouses=2, seed=3) \
            .flat_trace_blocks(150, block_ops=128)
        assert expand(blocks) == scalar


class TestCloudmixEquivalence:
    def test_trace_blocks_identical(self):
        for workload in generate_population(count=8, num_ops=600,
                                            seed=7):
            assert expand(workload.trace_blocks(block_ops=77)) \
                == list(cloud_trace(workload))


class TestAdapters:
    def test_round_trip_lossless(self):
        scalar = list(ycsb_trace(YCSBConfig(
            mix="F", num_pages=100, num_ops=500, seed=2)))
        packed = list(accesses_to_blocks(iter(scalar), block_ops=19))
        assert all(type(b) is AccessBlock for b in packed)
        assert expand(packed) == scalar

    def test_accesses_to_blocks_passes_blocks_through(self):
        block = from_accesses([Access(1), Access(2)])
        mixed = [Access(0), block, Access(3)]
        out = list(accesses_to_blocks(mixed, block_ops=100))
        assert out[1] is block
        assert [a.page_id for a in expand(out)] == [0, 1, 2, 3]

    def test_from_accesses_dtypes(self):
        block = from_accesses(
            [Access(7, write=True, is_scan=True, nbytes=4096,
                    think_ns=1.5)])
        assert block.page_id.dtype == np.int64
        assert block.write.dtype == np.bool_
        assert block.think_ns.dtype == np.float64
        assert len(block) == 1


class TestSegmentBounds:
    def test_empty_and_single(self):
        assert from_accesses([]).segment_bounds() == [0]
        assert from_accesses([Access(1)]).segment_bounds() \
            == [0, 1]

    def test_shape_changes_cut_runs(self):
        block = from_accesses([
            Access(0, think_ns=5.0),
            Access(1, think_ns=5.0),
            Access(2, write=True, think_ns=5.0),   # write flips
            Access(3, write=True, think_ns=5.0),
            Access(4, write=True, think_ns=2.0),   # think flips
            Access(5, is_scan=True, nbytes=4096, think_ns=2.0),
        ])
        assert block.segment_bounds() == [0, 2, 4, 5, 6]

    def test_uniform_block_is_one_run(self):
        block = next(iter(scan_blocks(0, 512, block_ops=512)))
        assert block.segment_bounds() == [0, 512]
