"""Workload generators: traces, Zipf, YCSB, scans, cloudmix."""

import pytest

from repro.errors import ConfigError
from repro.workloads.cloudmix import (
    BOUNDEDNESS_CLASSES,
    class_counts,
    generate_population,
)
from repro.workloads.scans import mixed_htap_trace, scan_trace
from repro.workloads.traces import Access, interleave, take
from repro.workloads.ycsb import (
    YCSBConfig,
    working_set_pages,
    ycsb_trace,
)
from repro.workloads.zipf import ZipfGenerator


class TestAccess:
    def test_defaults(self):
        access = Access(page_id=5)
        assert not access.write
        assert not access.is_scan
        assert access.nbytes == 64
        assert access.think_ns == 0.0

    def test_frozen(self):
        access = Access(page_id=5)
        with pytest.raises(AttributeError):
            access.page_id = 6


class TestInterleave:
    def test_round_robin(self):
        a = [Access(page_id=i) for i in (1, 2)]
        b = [Access(page_id=i) for i in (10, 20)]
        merged = [x.page_id for x in interleave(a, b)]
        assert merged == [1, 10, 2, 20]

    def test_weights(self):
        a = [Access(page_id=i) for i in range(4)]
        b = [Access(page_id=i + 100) for i in range(2)]
        merged = [x.page_id for x in interleave(a, b, weights=[2, 1])]
        assert merged[:3] == [0, 1, 100]

    def test_uneven_lengths_drain(self):
        a = [Access(page_id=1)]
        b = [Access(page_id=i + 10) for i in range(5)]
        merged = list(interleave(a, b))
        assert len(merged) == 6

    def test_weight_arity_checked(self):
        with pytest.raises(ValueError):
            list(interleave([], [], weights=[1]))

    def test_take(self):
        trace = (Access(page_id=i) for i in range(100))
        assert len(list(take(trace, 7))) == 7
        assert len(list(take([Access(page_id=1)], 5))) == 1


class TestZipf:
    def test_ranks_in_range(self):
        zipf = ZipfGenerator(100, theta=0.99)
        samples = zipf.sample(1_000)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_skew_concentrates_mass(self):
        zipf = ZipfGenerator(10_000, theta=0.99)
        # The classic YCSB shape: top 10% of items draw most traffic.
        assert zipf.hot_set_mass(0.1) > 0.6

    def test_theta_zero_is_uniform(self):
        zipf = ZipfGenerator(1_000, theta=0.0)
        assert zipf.hot_set_mass(0.1) == pytest.approx(0.1, abs=0.01)

    def test_probability_sums_to_one(self):
        zipf = ZipfGenerator(50, theta=0.9)
        total = sum(zipf.probability_of_rank(r) for r in range(50))
        assert total == pytest.approx(1.0)

    def test_rank_zero_most_likely(self):
        zipf = ZipfGenerator(100, theta=0.99)
        assert (zipf.probability_of_rank(0)
                > zipf.probability_of_rank(50))

    def test_scramble_spreads_hot_keys(self):
        plain = ZipfGenerator(1_000, theta=0.99, seed=1)
        scrambled = ZipfGenerator(1_000, theta=0.99, scramble=True, seed=1)
        assert plain.sample(100).tolist() != scrambled.sample(100).tolist()

    def test_deterministic(self):
        z1 = ZipfGenerator(100, seed=5)
        z2 = ZipfGenerator(100, seed=5)
        assert z1.sample(50).tolist() == z2.sample(50).tolist()

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            ZipfGenerator(0)
        with pytest.raises(ConfigError):
            ZipfGenerator(10, theta=-1.0)
        with pytest.raises(ConfigError):
            ZipfGenerator(10).sample(-1)


class TestYCSB:
    def test_mix_c_is_read_only(self):
        cfg = YCSBConfig(mix="C", num_pages=100, num_ops=500)
        assert not any(a.write for a in ycsb_trace(cfg))

    def test_mix_a_is_half_updates(self):
        cfg = YCSBConfig(mix="A", num_pages=100, num_ops=4_000, seed=2)
        writes = sum(1 for a in ycsb_trace(cfg) if a.write)
        assert 0.4 < writes / 4_000 < 0.6

    def test_mix_e_emits_scans(self):
        cfg = YCSBConfig(mix="E", num_pages=100, num_ops=200)
        accesses = list(ycsb_trace(cfg))
        assert any(a.is_scan for a in accesses)
        assert len(accesses) > 200  # scans expand into page runs

    def test_mix_f_rmw_pairs(self):
        cfg = YCSBConfig(mix="F", num_pages=100, num_ops=1_000, seed=3)
        accesses = list(ycsb_trace(cfg))
        reads = sum(1 for a in accesses if not a.write)
        writes = sum(1 for a in accesses if a.write)
        assert writes > 0
        assert reads >= writes

    def test_inserts_extend_key_space(self):
        cfg = YCSBConfig(mix="D", num_pages=100, num_ops=2_000, seed=4)
        max_page = max(a.page_id for a in ycsb_trace(cfg))
        assert max_page >= 100

    def test_unknown_mix_rejected(self):
        with pytest.raises(ConfigError):
            YCSBConfig(mix="Z")

    def test_working_set_much_smaller_than_population(self):
        cfg = YCSBConfig(num_pages=100_000, theta=0.99)
        ws = working_set_pages(cfg, mass=0.9)
        assert ws < 50_000

    def test_deterministic(self):
        cfg = YCSBConfig(mix="A", num_pages=50, num_ops=100, seed=9)
        t1 = [(a.page_id, a.write) for a in ycsb_trace(cfg)]
        t2 = [(a.page_id, a.write) for a in ycsb_trace(cfg)]
        assert t1 == t2


class TestScans:
    def test_scan_covers_range(self):
        accesses = list(scan_trace(first_page=10, num_pages=5, repeats=2))
        assert len(accesses) == 10
        assert {a.page_id for a in accesses} == set(range(10, 15))
        assert all(a.is_scan for a in accesses)
        assert all(a.nbytes == 4096 for a in accesses)

    def test_invalid_scan(self):
        with pytest.raises(ConfigError):
            list(scan_trace(0, 0))

    def test_htap_mixes_point_and_scan(self):
        trace = list(mixed_htap_trace(
            oltp_pages=50, olap_pages=100, oltp_ops=200, olap_repeats=1,
        ))
        scans = [a for a in trace if a.is_scan]
        points = [a for a in trace if not a.is_scan]
        assert scans and points
        assert all(a.page_id >= 50 for a in scans)
        assert all(a.page_id < 50 or a.write is not None for a in points)


class TestCloudMix:
    def test_population_size(self):
        population = generate_population(count=158)
        assert len(population) == 158

    def test_class_shares_roughly_pond(self):
        population = generate_population(count=158)
        compute = sum(1 for w in population if w.klass == "compute_bound")
        mostly = sum(1 for w in population if w.klass == "mostly_compute")
        assert compute == pytest.approx(0.26 * 158, abs=2)
        assert mostly == pytest.approx(0.17 * 158, abs=2)

    def test_memory_share_drives_think_time(self):
        population = generate_population(count=20)
        bound = [w for w in population if w.klass == "memory_bound"]
        compute = [w for w in population if w.klass == "compute_bound"]
        if bound and compute:
            assert min(c.think_ns for c in compute) > \
                max(b.think_ns for b in bound)

    def test_traces_respect_working_set(self):
        workload = generate_population(count=5)[0]
        pages = {a.page_id for a in workload.trace()}
        assert max(pages) < workload.working_set_pages

    def test_deterministic(self):
        p1 = generate_population(count=10, seed=3)
        p2 = generate_population(count=10, seed=3)
        assert [w.memory_share for w in p1] == [w.memory_share for w in p2]

    def test_invalid_count(self):
        with pytest.raises(ConfigError):
            generate_population(count=0)

    def test_class_counts_sum_exactly_for_all_small_counts(self):
        for count in range(1, 401):
            counts = class_counts(count)
            assert sum(counts) == count
            assert all(c >= 0 for c in counts)
            assert len(counts) == len(BOUNDEDNESS_CLASSES)

    def test_class_counts_largest_remainder_at_158(self):
        # floors [41, 26, 63, 26] leave two seats; the two largest
        # fractional remainders (.86 for both 0.17 classes) absorb them.
        assert class_counts(158) == [41, 27, 63, 27]

    def test_class_counts_track_shares(self):
        counts = class_counts(10_000)
        shares = [s for _n, s, _lo, _hi in BOUNDEDNESS_CLASSES]
        for got, share in zip(counts, shares):
            assert abs(got - share * 10_000) < 1.0

    def test_invalid_num_ops(self):
        with pytest.raises(ConfigError):
            generate_population(count=5, num_ops=0)
