"""The YCSB op plan as array draws, against the per-op loop it replaced.

``reference_plan`` is the historic ``_op_plan`` verbatim: one
``random.Random`` draw and one ``bisect`` per op, the insert growth
draw taken right after each insert choice. ``reference_columns`` is the
historic scalar emitter over that plan and a plainly searched Zipf
draw. The array code must reproduce both element for element.
"""

import random
import sys
from bisect import bisect
from itertools import accumulate

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.units import CACHE_LINE
from repro.workloads.traces import BLOCK_OPS
from repro.workloads.ycsb import (
    _OP_CODES,
    YCSB_MIXES,
    YCSBConfig,
    _op_plan,
    ycsb_blocks,
    ycsb_trace,
)
from repro.workloads.zipf import ZipfGenerator

COLUMNS = ("page_id", "write", "is_scan", "nbytes", "think_ns")


def reference_plan(config):
    mix = YCSB_MIXES[config.mix]
    op_names = list(mix)
    cum_weights = list(accumulate(mix.values()))
    total = cum_weights[-1] + 0.0
    hi = len(op_names) - 1
    rng = random.Random(config.seed ^ 0x9e3779b9)
    draw = rng.random
    grow = 1.0 / config.records_per_page
    ops: list[str] = []
    append = ops.append
    advances: list[bool] = []
    for _ in range(config.num_ops):
        op = op_names[bisect(cum_weights, draw() * total, 0, hi)]
        append(op)
        if op == "insert":
            advances.append(draw() < grow)
    return ops, advances


def reference_columns(config):
    """Five column lists of the scalar emitter over the reference plan."""
    zipf = ZipfGenerator(config.num_pages, theta=config.theta,
                         scramble=True, seed=config.seed)
    page_ids = zipf._permutation[np.searchsorted(
        zipf._cdf, zipf._rng.random(config.num_ops), side="left")]
    ops, advances = reference_plan(config)
    think = config.think_ns
    rows = []
    cursor = config.num_pages
    inserts_seen = 0
    for op, page_id in zip(ops, page_ids.tolist()):
        if op == "read":
            rows.append((page_id, False, False, CACHE_LINE, think))
        elif op == "update":
            rows.append((page_id, True, False, CACHE_LINE, think))
        elif op == "rmw":
            rows.append((page_id, False, False, CACHE_LINE, think))
            rows.append((page_id, True, False, CACHE_LINE, 0.0))
        elif op == "insert":
            rows.append((cursor, True, False, CACHE_LINE, think))
            cursor += advances[inserts_seen]
            inserts_seen += 1
        else:
            assert op == "scan"
            for offset in range(config.scan_length_pages):
                rows.append((page_id + offset, False, True, 4096,
                             think / 4))
    return [list(column) for column in zip(*rows)] or [[]] * 5


def block_columns(blocks):
    blocks = list(blocks)
    return [[value for block in blocks
             for value in getattr(block, name).tolist()]
            for name in COLUMNS]


@pytest.mark.parametrize("num_ops", [0, 1, 4095, 4097])
@pytest.mark.parametrize("records_per_page", [1, 4, 16])
@pytest.mark.parametrize("seed", [0, 7, 21, 2**40 + 3])
@pytest.mark.parametrize("mix", sorted(YCSB_MIXES))
def test_plan_and_blocks_match_the_per_op_loop(mix, seed,
                                               records_per_page, num_ops):
    config = YCSBConfig(mix=mix, num_pages=97, num_ops=num_ops, seed=seed,
                        records_per_page=records_per_page,
                        scan_length_pages=3, think_ns=12.5)
    names, grows = reference_plan(config)
    codes, advances = _op_plan(config)
    assert codes.dtype == np.int8 and advances.dtype == np.bool_
    assert codes.tolist() == [_OP_CODES[name] for name in names]
    assert advances.tolist() == grows
    if records_per_page == 1:
        assert all(grows)
    expected = reference_columns(config)
    for block_ops in (BLOCK_OPS, 333):
        blocks = list(ycsb_blocks(config, block_ops=block_ops))
        assert all(0 < len(block) <= block_ops for block in blocks)
        assert block_columns(blocks) == expected


def test_mix_d_head_is_pinned():
    """Literal values from the per-op loop at the commit that replaced
    it: the growth draw interleaved after each insert choice (ops 144
    and 145 are back-to-back inserts) cannot drift unnoticed."""
    config = YCSBConfig(mix="D", num_pages=64, num_ops=400,
                        records_per_page=2, seed=21)
    codes, advances = _op_plan(config)
    inserts = np.flatnonzero(codes == _OP_CODES["insert"])
    assert inserts[:16].tolist() == [
        5, 29, 48, 127, 130, 144, 145, 156, 158, 163, 176, 207, 226, 253,
        259, 266]
    assert advances[:16].tolist() == [
        False, True, True, False, True, False, True, False, False, False,
        False, True, False, True, True, True]
    head = [
        34, 22, 10, 36, 63, 64, 16, 20, 62, 34, 16, 38, 52, 51, 16, 16,
        16, 52, 49, 42, 18, 16, 16, 52, 26, 24, 22, 63, 16, 64, 63, 21,
        43, 19, 16, 29, 16, 16, 6, 52, 55, 41, 20, 38, 37, 39, 16, 45]
    assert block_columns(ycsb_blocks(config))[0][:48] == head
    assert [a.page_id for a in ycsb_trace(config)][:48] == head


@pytest.mark.parametrize("mix", ["B", "D"])
def test_generation_makes_no_call_per_op(mix):
    """Four blocks' worth of ops cost a fixed number of interpreter-level
    calls plus a few dozen per chunk (the loop made ~4 per op: 68 k)."""
    config = YCSBConfig(mix=mix, num_pages=3000, num_ops=4 * BLOCK_OPS,
                        seed=5)
    list(ycsb_blocks(YCSBConfig(mix=mix, num_pages=8, num_ops=8)))  # imports
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        blocks = list(ycsb_blocks(config))
    finally:
        sys.setprofile(previous)
    assert sum(len(block) for block in blocks) == config.num_ops
    assert calls <= 1_500


class TestInputEdges:
    @pytest.mark.parametrize("field, value", [
        ("num_pages", 0), ("num_pages", 2.5), ("num_ops", -1),
        ("num_ops", 10.5), ("records_per_page", 0),
        ("records_per_page", -4), ("records_per_page", 1.5),
        ("scan_length_pages", -1), ("scan_length_pages", 2.0),
        ("think_ns", -1.0), ("think_ns", float("nan")),
    ])
    def test_config_refuses(self, field, value):
        with pytest.raises(ConfigError, match=field):
            YCSBConfig(**{field: value})

    def test_scan_mix_needs_a_scan_length(self):
        with pytest.raises(ConfigError, match="scan_length_pages"):
            YCSBConfig(mix="E", scan_length_pages=0)
        assert YCSBConfig(mix="B", scan_length_pages=0).scan_length_pages == 0

    def test_zero_ops_and_numpy_integers_stay_legal(self):
        config = YCSBConfig(num_pages=np.int64(8), num_ops=0)
        assert list(ycsb_blocks(config)) == []
        assert list(ycsb_trace(config)) == []

    @pytest.mark.parametrize("block_ops", [0, -3, 2.5])
    def test_block_ops_refused(self, block_ops):
        config = YCSBConfig(num_pages=8, num_ops=4)
        with pytest.raises(ConfigError, match="block_ops"):
            list(ycsb_blocks(config, block_ops=block_ops))
