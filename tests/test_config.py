"""Calibration presets: the numbers the paper quotes must hold."""

import pytest

from repro import config
from repro.errors import ConfigError


class TestLatencyAnchors:
    def test_cxl_load_is_1_35x_numa(self):
        # Intel MICRO'23 (paper ref [52]): CXL load ~= +35% vs NUMA.
        ratio = config.CXL_DRAM_LOAD_NS / config.REMOTE_NUMA_LOAD_NS
        assert ratio == pytest.approx(1.35)

    def test_local_below_numa_below_cxl(self):
        assert (config.LOCAL_DRAM_LOAD_NS
                < config.REMOTE_NUMA_LOAD_NS
                < config.CXL_DRAM_LOAD_NS)

    def test_cxl_in_pond_envelope_with_switch(self):
        # Pond (paper ref [31]): pool access in the 200-400 ns range.
        switched = config.CXL_DRAM_LOAD_NS + config.CXL_SWITCH_LATENCY_NS
        assert 200.0 <= switched <= 400.0

    def test_rdma_floor_is_microseconds(self):
        assert config.RDMA_BASE_LATENCY_NS >= 1_000.0


class TestEfficiencies:
    def test_intel_bandwidth_efficiencies(self):
        # Paper Sec 2.4: 70% NUMA vs 46% CXL load efficiency.
        assert config.NUMA_LOAD_EFFICIENCY == pytest.approx(0.70)
        assert config.CXL_LOAD_EFFICIENCY == pytest.approx(0.46)

    def test_expander_effective_bandwidth_near_meta(self):
        # Meta TPP (paper ref [34]): ~64 GB/s from one expander.
        spec = config.cxl_expander_ddr5()
        assert 55.0 <= spec.effective_load_bandwidth <= 75.0

    def test_nic_wastes_over_20_percent_of_pcie(self):
        # Paper Sec 2.5 / ref [37].
        nic = config.rdma_nic_400g()
        assert nic.protocol_efficiency < 0.80
        assert nic.effective_bandwidth == pytest.approx(50.0, rel=0.01)

    def test_cxl_port_uses_full_slot(self):
        port = config.cxl_port()
        assert port.protocol_efficiency == 1.0


class TestPCIe:
    def test_gen7_x16_is_242_gbps(self):
        # Paper Sec 6: PCIe Gen7 x16 = 242 GB/s.
        bw = config.pcie_bandwidth(config.PCIeGeneration.GEN7, 16)
        assert bw == pytest.approx(242.0, rel=0.01)

    def test_gen5_x16_is_63_gbps(self):
        bw = config.pcie_bandwidth(config.PCIeGeneration.GEN5, 16)
        assert bw == pytest.approx(63.0, rel=0.01)

    def test_each_generation_doubles(self):
        gens = list(config.PCIeGeneration)
        for a, b in zip(gens, gens[1:]):
            ratio = (config.PCIE_LANE_BANDWIDTH[b]
                     / config.PCIE_LANE_BANDWIDTH[a])
            assert 1.8 <= ratio <= 2.2

    def test_invalid_lane_count(self):
        with pytest.raises(ConfigError):
            config.pcie_bandwidth(config.PCIeGeneration.GEN5, 3)


class TestSpecValidation:
    def test_memory_spec_rejects_zero_capacity(self):
        with pytest.raises(ConfigError):
            config.MemorySpec(
                name="bad", kind=config.MemoryKind.LOCAL_DRAM,
                capacity_bytes=0, load_latency_ns=80,
                store_latency_ns=80, peak_bandwidth=1.0,
            )

    def test_memory_spec_rejects_bad_efficiency(self):
        with pytest.raises(ConfigError):
            config.MemorySpec(
                name="bad", kind=config.MemoryKind.LOCAL_DRAM,
                capacity_bytes=1024, load_latency_ns=80,
                store_latency_ns=80, peak_bandwidth=1.0,
                load_efficiency=1.5,
            )

    def test_link_spec_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            config.LinkSpec(name="bad", latency_ns=-1.0, raw_bandwidth=1.0)

    def test_with_capacity_copies(self):
        spec = config.local_ddr5()
        bigger = spec.with_capacity(spec.capacity_bytes * 2)
        assert bigger.capacity_bytes == 2 * spec.capacity_bytes
        assert bigger.load_latency_ns == spec.load_latency_ns


class TestPresetShapes:
    def test_hbm_expander_has_more_bandwidth_than_ddr(self):
        hbm = config.cxl_expander_hbm()
        ddr = config.cxl_expander_ddr5()
        assert hbm.peak_bandwidth > ddr.peak_bandwidth

    def test_recycled_ddr4_is_slower_but_bigger(self):
        ddr4 = config.cxl_expander_ddr4_recycled()
        ddr5 = config.cxl_expander_ddr5()
        assert ddr4.load_latency_ns > ddr5.load_latency_ns
        assert ddr4.capacity_bytes > ddr5.capacity_bytes

    def test_nvm_stores_slower_than_loads(self):
        nvm = config.cxl_expander_nvm()
        assert nvm.store_latency_ns > nvm.load_latency_ns

    def test_storage_hierarchy_ordering(self):
        nvme, hdd = config.nvme_ssd(), config.hdd()
        assert nvme.read_latency_ns < hdd.read_latency_ns
        assert nvme.read_bandwidth > hdd.read_bandwidth
