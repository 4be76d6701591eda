"""Engine-level bit-identity for block-delivered traces.

``ScaleUpEngine.run`` promises that delivering a workload as
``AccessBlock`` chunks simulates the *identical* physics as the
scalar ``Access`` stream — same clock, same demand latency, same
tier statistics, down to the last float ulp — on the engine and on
its frozen reference twin (``tests.oracle.reference``).
"""

import pytest

from repro.core.engine import ScaleUpEngine
from repro.workloads.scans import mixed_htap_blocks, mixed_htap_trace
from repro.workloads.traces import (BLOCK_OPS, AccessBlock,
                                    accesses_to_blocks)
from repro.workloads.ycsb import YCSBConfig, ycsb_blocks, ycsb_trace

from tests.core.digests import digest_report
from tests.core.test_access_batch import _pool_state
from tests.oracle.reference import reference

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
        scalar = fingerprint(mixed_htap_trace(**HTAP), fast)
        blocks = fingerprint(mixed_htap_blocks(**HTAP), fast)
        assert blocks == scalar

    def test_ycsb_blocks_match_scalar(self, fast):
        scalar = fingerprint(ycsb_trace(YCSB), fast)
        blocks = fingerprint(ycsb_blocks(YCSB), fast)
        assert blocks == scalar

    def test_mixed_delivery_matches(self, fast):
        # A trace that switches between scalar and block items
        # mid-stream must flush the packer's pending scalars in order.
        scalar = list(ycsb_trace(YCSB))
        mixed = (scalar[:500]
                 + list(accesses_to_blocks(iter(scalar[500:2500]),
                                           block_ops=337))
                 + scalar[2500:])
        assert fingerprint(mixed, fast) == fingerprint(scalar, fast)

    def test_tiny_blocks_match(self, fast):
        # block_ops=1 exercises the one-access-per-block edge.
        scalar = list(mixed_htap_trace(**HTAP))
        tiny = list(accesses_to_blocks(iter(scalar), block_ops=1))
        assert fingerprint(tiny, fast) == fingerprint(scalar, fast)


def test_lanes_agree_on_blocks():
    blocks = list(mixed_htap_blocks(**HTAP))
    assert fingerprint(blocks, True) == fingerprint(blocks, False)


#: Longer than one packed block, with a think time that is not a whole
#: number of ns (the think accumulator's ladder path, not its sum).
LONG = YCSBConfig(mix="A", num_pages=600, num_ops=BLOCK_OPS + 900,
                  seed=4, think_ns=12.7)


def _delivered(form, scalar):
    if form == "scalar-generator":     # crosses the packer's flush
        return (access for access in scalar)
    if form == "blocks":
        return accesses_to_blocks(iter(scalar), block_ops=1000)
    return [AccessBlock.from_accesses(scalar[:700]), *scalar[700:2900],
            AccessBlock.from_accesses([]),
            AccessBlock.from_accesses(scalar[2900:])]


@pytest.mark.parametrize("entry", ["run", "sessions"])
@pytest.mark.parametrize("form", ["scalar-generator", "blocks", "mixed"])
def test_every_delivery_takes_the_one_engine_loop(form, entry):
    """Scalars, blocks or a mix (with an empty block), through
    ``engine.run`` or ``run_sessions`` at N = 1: the report, the pool
    and the op metric equal the reference twin's replay."""
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
