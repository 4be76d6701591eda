"""Integration tests: every headline claim of the paper, end to end.

Each test exercises the full stack (workload -> engine -> simulator)
and asserts the *shape* the paper reports — who wins, by roughly what
factor, where the crossovers fall.
"""

import pytest

from repro import config
from repro.core import (
    DbCostPolicy,
    ElasticCluster,
    OSPagingPolicy,
    ScaleOutConfig,
    ScaleOutEngine,
    ScaleUpEngine,
    SharedEngineConfig,
    SharedRackEngine,
    StaticPolicy,
)
from repro.core.ndp import NDPController
from repro.sim.interconnect import AccessPath, Link
from repro.sim.memory import MemoryDevice
from repro.sim.rdma import RDMAFabric
from repro.units import GIB
from repro.workloads import YCSBConfig, mixed_htap_blocks, ycsb_blocks
from repro.workloads.tpcc import TPCCLite


class TestSec24Characterization:
    """Latency and bandwidth anchors measured through the stack."""

    def test_cxl_tier_access_latency_ratio(self):
        engine = ScaleUpEngine.build(dram_pages=4, cxl_pages=4,
                                     with_storage=False)
        t_dram = engine.pool.access(0)
        engine.pool.access(1)
        engine.pool.migrate(1, 1)
        t_cxl = engine.pool.access(1)
        assert 2.0 < t_cxl / t_dram < 3.0  # 189/80 = 2.36

    def test_bandwidth_efficiency_gap(self):
        dram = MemoryDevice(config.local_ddr5())
        cxl = MemoryDevice(config.cxl_expander_ddr5())
        numa = MemoryDevice(config.remote_numa_ddr5())
        assert numa.spec.load_efficiency == pytest.approx(0.70)
        assert cxl.spec.load_efficiency == pytest.approx(0.46)
        assert dram.spec.effective_load_bandwidth > \
            cxl.spec.effective_load_bandwidth


class TestSec25CXLvsRDMA:
    def test_latency_advantage_at_least_2_5x(self):
        fabric = RDMAFabric()
        fabric.add_host("a")
        fabric.add_host("b")
        rdma = fabric.one_sided_read_time("a", "b", 64)
        path = AccessPath(
            device=MemoryDevice(config.cxl_expander_ddr5()),
            links=(Link(config.cxl_port()),
                   Link(config.cxl_switch_hop())),
        )
        cxl = path.read_time(64)
        assert rdma / cxl >= 2.5


class TestSec31MemoryExpansion:
    def test_db_tiering_beats_os_paging_beats_ssd(self):
        """Fig 2(a) economics: for a working set larger than DRAM,
        CXL tiering (either policy) beats paging to SSD, and DB
        placement beats OS placement."""
        warm = YCSBConfig(mix="C", num_pages=4_000, num_ops=15_000,
                          theta=0.99, think_ns=0, seed=10)
        cfg = YCSBConfig(mix="B", num_pages=4_000, num_ops=30_000,
                         theta=0.99, think_ns=0, seed=11)
        dram_pages = 800

        ssd_only = ScaleUpEngine.build(dram_pages=dram_pages)
        ssd_only.warm_with(ycsb_blocks(warm))
        r_ssd = ssd_only.run(ycsb_blocks(cfg))

        os_tier = ScaleUpEngine.build(
            dram_pages=dram_pages, cxl_pages=4_000,
            placement=OSPagingPolicy(), with_storage=False,
        )
        os_tier.warm_with(ycsb_blocks(warm))
        r_os = os_tier.run(ycsb_blocks(cfg))

        db_tier = ScaleUpEngine.build(
            dram_pages=dram_pages, cxl_pages=4_000,
            placement=DbCostPolicy(), with_storage=False,
        )
        db_tier.warm_with(ycsb_blocks(warm))
        r_db = db_tier.run(ycsb_blocks(cfg))

        assert r_ssd.total_ns > 2 * r_os.total_ns
        # The engine-side policy keeps more of the hot set in DRAM.
        assert r_db.tier_hit_rates[0] >= r_os.tier_hit_rates[0]
        assert r_db.total_ns <= 1.1 * r_os.total_ns

    def test_htap_isolation_protects_oltp(self):
        """Static OLTP-local/OLAP-CXL placement keeps OLTP hit rates
        when an analytical scan floods the pool."""
        oltp_pages = 1_000

        def run(placement):
            engine = ScaleUpEngine.build(
                dram_pages=1_200, cxl_pages=8_000,
                placement=placement, with_storage=False,
            )
            trace = mixed_htap_blocks(
                oltp_pages=oltp_pages, olap_pages=6_000,
                oltp_ops=20_000, olap_repeats=1, seed=5,
            )
            engine.run(trace)
            # Where do the OLTP pages live at the end?
            in_dram = sum(
                1 for p in engine.pool.resident_in(0) if p < oltp_pages
            )
            return in_dram

        isolated = run(StaticPolicy(
            lambda p: 0 if p < oltp_pages else 1))
        lru_like = run(OSPagingPolicy(check_interval=10**9))
        assert isolated > lru_like


class TestSec32PoolingElasticity:
    def test_warm_spawn_and_cheap_migration(self):
        cluster = ElasticCluster(dataset_pages=300)
        cold, _ = cluster.spawn_engine("a", local_pages=64,
                                       slice_pages=512)
        cfg = YCSBConfig(mix="C", num_pages=300, num_ops=3_000,
                         think_ns=0, seed=2)
        r_cold = cold.run(ycsb_blocks(cfg))
        slice_ = cluster.detach_engine(cold)
        warm, spawn_ns = cluster.spawn_engine("b", local_pages=64,
                                              warm_from=slice_)
        r_warm = warm.run(ycsb_blocks(cfg))
        assert r_cold.total_ns > 3 * r_warm.total_ns
        assert spawn_ns < 1e6  # spawn in well under a millisecond
        assert (cluster.migration_time_ns(8 * GIB, pooled=False)
                > 100 * cluster.migration_time_ns(8 * GIB, pooled=True))


class TestSec33RackScaleSharing:
    def test_crossover_in_distributed_fraction(self):
        """Scale-out wins fully-partitionable loads; scale-up wins as
        cross-partition transactions appear."""
        ratios = {}
        for remote in (0.0, 0.3):
            txns = list(TPCCLite(num_warehouses=16,
                                 remote_probability=remote,
                                 seed=3).transactions(1_500))
            up = SharedRackEngine(
                SharedEngineConfig(num_hosts=4)).run(txns)
            out = ScaleOutEngine(
                ScaleOutConfig(num_nodes=4)).run(txns)
            ratios[remote] = up.throughput_tps / out.throughput_tps
        assert ratios[0.0] < 1.0
        assert ratios[0.3] > 1.0

    def test_coherence_traffic_btree_vs_hash_counter(self):
        """Sec 3.3's coherency-traffic question: a contended shared
        counter ping-pongs; a partitioned structure does not."""
        from repro.sim.coherence import CoherenceDirectory
        shared = CoherenceDirectory()
        agents = [shared.register_agent() for _ in range(4)]
        for i in range(200):
            shared.write(agents[i % 4], 0)  # one hot line
        partitioned = CoherenceDirectory()
        agents2 = [partitioned.register_agent() for _ in range(4)]
        for i in range(200):
            partitioned.write(agents2[i % 4], i % 4)  # per-agent lines
        assert shared.stats.invalidations_sent > \
            10 * max(1, partitioned.stats.invalidations_sent)


class TestSec4NearDataProcessing:
    def test_offload_selectivity_sweep_shape(self):
        device = MemoryDevice(config.cxl_expander_ddr5())
        path = AccessPath(device=device, links=(Link(config.cxl_port()),))
        controller = NDPController(path)
        speedups = []
        for selectivity in (0.001, 0.01, 0.1, 0.5, 1.0):
            host = controller.host_filter_time(50_000, selectivity)
            ndp = controller.offload_filter_time(50_000, selectivity)
            speedups.append(host.time_ns / ndp.time_ns)
        # Monotone non-increasing in selectivity; wins at the low end.
        assert speedups[0] > 1.2
        assert all(a >= b - 1e-9 for a, b in zip(speedups, speedups[1:]))


class TestSec26FaultTolerance:
    def test_ras_and_component_count_advantages(self):
        from repro.sim.events import Simulator
        from repro.sim.ras import (
            CXL_POOL_PATH,
            REMOTE_SERVER_PATH,
            FailureInjector,
            RASMonitor,
            TimeoutMonitor,
            path_failure_probability,
        )
        sim = Simulator()
        injector = FailureInjector(sim)
        ras, timeout = RASMonitor(), TimeoutMonitor()
        injector.attach(ras)
        injector.attach(timeout)
        device = MemoryDevice(config.cxl_expander_ddr5())
        injector.fail_at(device, 5e6)
        sim.run()
        assert (timeout.records[0].detection_delay_ns
                / ras.records[0].detection_delay_ns) > 1_000
        assert (path_failure_probability(REMOTE_SERVER_PATH)
                > path_failure_probability(CXL_POOL_PATH))
