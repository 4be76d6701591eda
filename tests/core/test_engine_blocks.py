"""Engine-level bit-identity for block-delivered traces.

``ScaleUpEngine.run`` promises that a workload simulates the
*identical* physics however its accesses are chunked into
``AccessBlock``s — same clock, same demand latency, same tier
statistics, down to the last float ulp — on the engine and on its
frozen reference twin (``tests.oracle.reference``), and that the block
emitters simulate what the frozen scalar generators
(``tests.oracle.traces``) describe. Anything but a block is refused.
"""

import numpy as np
import pytest

from repro.core.engine import RUN_OPS, ScaleUpEngine
from repro.core.sessions import ClientSession
from repro.errors import BufferPoolError, ConfigError
from repro.workloads.scans import mixed_htap_blocks, scan_blocks
from repro.workloads.traces import (BLOCK_OPS, AccessBlock, interleave,
                                    require_block)
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


@pytest.mark.parametrize("entry", ["run", "sessions"])
def test_a_bare_block_is_refused_naming_the_list(entry):
    """A trace is an iterable of blocks: one block, unwrapped, used to
    fail with a bare ``'AccessBlock' object is not iterable``."""
    engine = ScaleUpEngine.build(dram_pages=8, cxl_pages=32,
                                 name="refusal-test")
    block = next(iter(ycsb_blocks(YCSBConfig(mix="A", num_pages=40,
                                             num_ops=200, seed=3))))
    before = _pool_state(engine.pool)
    with pytest.raises(ConfigError, match=r"wrap it in a list: \[block\]"):
        if entry == "run":
            engine.run(block)
        else:
            engine.run_sessions([ClientSession("a", block)])
    assert _pool_state(engine.pool) == before


# -- runs of blocks -------------------------------------------------------------

def _whole():
    """~44 k accesses as one block: YCSB-A point traffic (12.7 ns think)
    beside scans (50 ns), so a run holds two think values, several
    shapes, writes, misses and rebalances."""
    ycsb = ycsb_blocks(YCSBConfig(mix="A", num_pages=900, num_ops=33_000,
                                  seed=12, think_ns=12.7))
    scans = scan_blocks(900, 1_100, repeats=10)
    return AccessBlock.concat(list(interleave(ycsb, scans, weights=[3, 1])))


def _cut(whole, rows):
    n = len(whole)
    return [whole.slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def _engine():
    return ScaleUpEngine.build(dram_pages=256, cxl_pages=900,
                               name="runs-test")


def _spied(engine):
    """*engine* with its pool's ``access_block`` recording each call's
    block."""
    calls = []
    charge = engine.pool.access_block

    def spy(block, accum=0.0):
        calls.append(block)
        return charge(block, accum)

    engine.pool.access_block = spy
    return calls


def _per_block(blocks):
    """The pool after a per-block ``access_block`` loop, the delivery
    runs replace; and the error the loop stopped on, if any."""
    engine = _engine()
    for block in blocks:
        try:
            engine.pool.access_block(require_block(block))
        except (BufferPoolError, ConfigError) as exc:
            return engine.pool, f"{type(exc).__name__}: {exc}"
    return engine.pool, None


def test_runs_are_invisible():
    """Cut into 1-, 7-, 4,095-, 4,096- or 40,000-row blocks, the trace
    charges byte-identically — report and pool — and each run the pool
    is handed joins whole blocks up to ``RUN_OPS`` rows; a longer
    block goes alone, unsplit."""
    whole = _whole()
    assert len(whole) > 40_000
    digests, states = set(), []
    for rows in (1, 7, 4_095, 4_096, 40_000):
        engine = _engine()
        calls = _spied(engine)
        report = engine.run(_cut(whole, rows))
        digests.add(digest_report(engine, report))
        states.append(_pool_state(engine.pool))
        per_run = rows if rows > RUN_OPS else RUN_OPS // rows * rows
        assert [len(b) for b in calls[:-1]] == [per_run] * (len(calls) - 1)
        assert sum(len(b) for b in calls) == len(whole) == report.ops
    assert len(digests) == 1
    pool, error = _per_block(_cut(whole, BLOCK_OPS))
    assert error is None and report.misses > 0 and report.migrations > 0
    assert all(state == _pool_state(pool) for state in states)


def _bad_item(kind, block):
    """A block (or a non-block) ``engine.run`` must refuse."""
    if kind == "not-a-block":
        return (1, 2, 3)
    think = block.think_ns.copy()
    think[3] = -1.0 if kind == "negative-think" else float("nan")
    if kind == "ragged":
        return AccessBlock(block.page_id, block.write[:-1], block.is_scan,
                           block.nbytes, block.think_ns)
    return AccessBlock(block.page_id, block.write, block.is_scan,
                       block.nbytes, think)


@pytest.mark.parametrize("kind", ["negative-think", "nan-think", "ragged",
                                  "not-a-block"])
def test_a_refused_block_raises_with_every_earlier_block_charged(kind):
    """A refused item mid-trace raises what the per-block loop raises,
    and the pool equals that loop's stopped there: the run before it
    was charged first."""
    blocks = _cut(_whole().slice(0, 12_000), 1_000)
    trace = [*blocks[:7], _bad_item(kind, blocks[7]), *blocks[7:]]
    engine = _engine()
    with pytest.raises((BufferPoolError, ConfigError)) as caught:
        engine.run(trace)
    pool, error = _per_block(trace)
    assert f"{caught.type.__name__}: {caught.value}" == error
    assert _pool_state(engine.pool) == _pool_state(pool)
    assert engine.pool.stats.accesses == 7_000


def test_a_float_size_block_is_not_joined():
    """Blocks join only with blocks of the same column dtypes: a float
    ``nbytes`` block between int ones is charged alone (the window
    declines it) and the charge is unchanged."""
    blocks = _cut(_whole().slice(0, 9_000), 3_000)
    middle = blocks[1]
    blocks[1] = AccessBlock(middle.page_id, middle.write, middle.is_scan,
                            middle.nbytes.astype(np.float64),
                            middle.think_ns)
    engine = _engine()
    calls = _spied(engine)
    engine.run(blocks)
    assert [(len(b), b.nbytes.dtype.kind) for b in calls] \
        == [(3_000, "i"), (3_000, "f"), (3_000, "i")]
    assert engine.pool.lane.declines["nbytes"] == 1
    pool, _ = _per_block(blocks)
    assert _pool_state(engine.pool) == _pool_state(pool)
