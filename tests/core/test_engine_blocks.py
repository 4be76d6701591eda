"""Engine-level bit-identity for block-delivered traces.

``ScaleUpEngine.run`` promises that a workload simulates the
*identical* physics however its accesses are chunked into
``AccessBlock``s — same clock, same demand latency, same tier
statistics, down to the last float ulp — on the engine and on its
frozen reference twin (``tests.oracle.reference``), and that the block
emitters simulate what the frozen scalar generators
(``tests.oracle.traces``) describe. Anything but a block is refused.
"""

import pytest

from repro.core.engine import ScaleUpEngine
from repro.errors import ConfigError
from repro.workloads.scans import mixed_htap_blocks
from repro.workloads.traces import BLOCK_OPS, AccessBlock
from repro.workloads.ycsb import YCSBConfig, ycsb_blocks

from tests.core.digests import digest_report
from tests.core.test_access_batch import _pool_state
from tests.oracle.reference import reference
from tests.oracle.traces import (Access, accesses_to_blocks, from_accesses,
                                 mixed_htap_trace, ycsb_trace)

HTAP = dict(oltp_pages=200, olap_pages=500, oltp_ops=1500,
            olap_repeats=2, oltp_per_olap=1, seed=11)
YCSB = YCSBConfig(mix="A", num_pages=600, num_ops=3000, seed=9)


def fingerprint(trace, fast):
    """Run *trace* on a fresh engine; digest every simulated quantity.

    Uses the digest ``test_pinned_digests.py`` pins, so the identity
    asserted here is the same ulp-exact contract.
    """
    engine = ScaleUpEngine.build(dram_pages=256, cxl_pages=900,
                                 name="blocks-test")
    if not fast:
        reference(engine)
    report = engine.run(trace)
    return digest_report(engine, report)


@pytest.mark.parametrize("fast", [False, True], ids=["compat", "fast"])
class TestBlockDeliveryIdentity:
    def test_htap_blocks_match_scalar(self, fast):
        scalar = fingerprint(accesses_to_blocks(mixed_htap_trace(**HTAP)),
                             fast)
        blocks = fingerprint(mixed_htap_blocks(**HTAP), fast)
        assert blocks == scalar

    def test_ycsb_blocks_match_scalar(self, fast):
        scalar = fingerprint(accesses_to_blocks(ycsb_trace(YCSB)), fast)
        blocks = fingerprint(ycsb_blocks(YCSB), fast)
        assert blocks == scalar

    def test_mixed_delivery_matches(self, fast):
        # Block sizes that change mid-stream (one large block, odd
        # 337-access chunks, the remainder whole) charge alike.
        scalar = list(ycsb_trace(YCSB))
        mixed = [from_accesses(scalar[:500]),
                 *accesses_to_blocks(iter(scalar[500:2500]),
                                     block_ops=337),
                 from_accesses(scalar[2500:])]
        assert fingerprint(mixed, fast) \
            == fingerprint([from_accesses(scalar)], fast)

    def test_tiny_blocks_match(self, fast):
        # block_ops=1 exercises the one-access-per-block edge.
        scalar = list(mixed_htap_trace(**HTAP))
        tiny = list(accesses_to_blocks(iter(scalar), block_ops=1))
        assert fingerprint(tiny, fast) \
            == fingerprint(accesses_to_blocks(scalar), fast)


def test_lanes_agree_on_blocks():
    blocks = list(mixed_htap_blocks(**HTAP))
    assert fingerprint(blocks, True) == fingerprint(blocks, False)


#: Longer than one packed block, with a think time that is not a whole
#: number of ns (the think accumulator's ladder path, not its sum).
LONG = YCSBConfig(mix="A", num_pages=600, num_ops=BLOCK_OPS + 900,
                  seed=4, think_ns=12.7)


def _delivered(form, scalar):
    if form == "scalar-generator":     # packed lazily, BLOCK_OPS a block
        return accesses_to_blocks(access for access in scalar)
    if form == "blocks":
        return accesses_to_blocks(iter(scalar), block_ops=1000)
    return [from_accesses(scalar[:700]),
            *accesses_to_blocks(iter(scalar[700:2900]), block_ops=97),
            from_accesses([]), from_accesses(scalar[2900:])]


@pytest.mark.parametrize("entry", ["run", "sessions"])
@pytest.mark.parametrize("form", ["scalar-generator", "blocks", "mixed"])
def test_every_delivery_takes_the_one_engine_loop(form, entry):
    """The frozen scalar generator's accesses as a lazily packed
    generator, as 1,000-access blocks, or as blocks of mixed sizes
    (with an empty block), through ``engine.run`` or ``run_sessions``
    at N = 1: the report, the pool and the op metric equal the
    reference twin's replay of the scalar records."""
    scalar = list(ycsb_trace(LONG))
    assert len(scalar) > BLOCK_OPS

    def build(fast):
        engine = ScaleUpEngine.build(dram_pages=64, cxl_pages=200,
                                     name="delivery-test")
        return engine if fast else reference(engine)

    ref_engine, engine = build(False), build(True)
    ref = ref_engine.run(iter(scalar))
    if entry == "run":
        got = engine.run(_delivered(form, scalar))
    else:
        got = engine.run_sessions(
            [_delivered(form, scalar)]).session("s00")
    for name in ("total_ns", "demand_ns", "think_ns", "ops", "misses",
                 "migrations"):
        assert repr(getattr(got, name)) == repr(getattr(ref, name)), name
    assert ref.misses > 0 and ref.migrations > 0
    assert engine.ctx.metrics.get("engine.ops") == len(scalar) \
        == ref_engine.ctx.metrics.get("engine.ops")
    assert _pool_state(engine.pool) == _pool_state(ref_engine.pool)


#: Columns of lengths (3, 1, 3, 3, 3): ``segment_bounds`` would
#: broadcast the short one.
SHORT_WRITE = ([1, 2, 3], [False], [False] * 3, [64] * 3, [0.0] * 3)


@pytest.mark.parametrize("entry", ["run", "sessions"])
@pytest.mark.parametrize("item", ["short-column", "2d-columns", "scalar"])
def test_refused_items_charge_nothing(item, entry):
    """Malformed columns are refused by ``from_columns``, a scalar
    record by the engine, each with one ``ConfigError`` and before the
    pool's clock or stats move."""
    engine = ScaleUpEngine.build(dram_pages=8, cxl_pages=32,
                                 name="refusal-test")
    engine.run(list(ycsb_blocks(YCSBConfig(mix="A", num_pages=40,
                                           num_ops=200, seed=3))))
    before = _pool_state(engine.pool)

    def trace():
        if item == "short-column":
            return [AccessBlock.from_columns(*SHORT_WRITE)]
        if item == "2d-columns":
            return [AccessBlock.from_columns(
                *([[1, 2, 3]] for _ in range(5)))]
        return [Access(page_id=1)]

    with pytest.raises(ConfigError, match="from_columns"):
        if entry == "run":
            engine.run(trace())
        else:
            engine.run_sessions([trace()])
    assert _pool_state(engine.pool) == before
