"""Coverage for the trace combinators in ``workloads.traces``.

Interleave weights, uneven exhaustion and metrics counting over block
traces, held elementwise to the frozen scalar interleave
(``tests.oracle.traces``); and the one check every combinator makes: a
trace holds ``AccessBlock`` chunks only.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sim.context import SimContext
from repro.workloads.scans import scan_blocks
from repro.workloads.traces import (
    AccessBlock,
    instrumented,
    interleave,
)

from tests.oracle.traces import (
    Access,
    accesses_to_blocks,
    blocks_to_accesses,
)
from tests.oracle.traces import interleave as scalar_interleave


def pages(trace):
    return [a.page_id for a in blocks_to_accesses(trace)]


def blockify(accesses, block_ops=3):
    return list(accesses_to_blocks(iter(accesses), block_ops=block_ops))


def ids(*page_ids):
    return [Access(page_id=i) for i in page_ids]


class TestInterleave:
    def test_weights_shape_ratio(self):
        a = blockify(ids(*range(6)))
        b = blockify(ids(100, 101, 102))
        merged = pages(interleave(a, b, weights=[2, 1]))
        assert merged == [0, 1, 100, 2, 3, 101, 4, 5, 102]

    def test_uneven_exhaustion_drains_survivors(self):
        # Trace a dies mid-round; b must keep its weight-2 cadence
        # alone until drained.
        a = blockify(ids(0, 1, 2))
        b = blockify(ids(*range(10, 18)))
        merged = pages(interleave(a, b, weights=[2, 2]))
        assert merged == [0, 1, 10, 11, 2, 12, 13, 14, 15, 16, 17]

    def test_block_interleave_matches_scalar(self):
        a = [Access(page_id=i, think_ns=1.0) for i in range(11)]
        b = [Access(page_id=i + 50, write=True) for i in range(4)]
        c = [Access(page_id=i + 90, is_scan=True, nbytes=4096)
             for i in range(7)]
        scalar = list(scalar_interleave(a, b, c, weights=[3, 1, 2]))
        blocks = interleave(blockify(a), blockify(b, 2), blockify(c, 5),
                            weights=[3, 1, 2])
        assert list(blocks_to_accesses(blocks)) == scalar

    def test_mixed_scalar_and_block_inputs(self):
        # A scalar record in a trace is refused, naming the one way to
        # hand-build a block.
        mixed = blockify(ids(0, 1)) + ids(2)
        with pytest.raises(ConfigError, match="AccessBlock.from_columns"):
            list(interleave(mixed, blockify(ids(10, 11, 12, 13))))

    def test_empty_trace_participates_harmlessly(self):
        b = blockify(ids(0, 1, 2))
        assert pages(interleave([], b)) == [0, 1, 2]
        assert pages(interleave(b, [])) == [0, 1, 2]

    def test_weight_arity_checked(self):
        with pytest.raises(ValueError):
            list(interleave([], [], weights=[1]))

    @pytest.mark.parametrize("weights", [[1, 0], [1, -2], [1, 1.0],
                                         [True, 1], [1, None]])
    def test_weights_must_be_integers_of_at_least_one(self, weights):
        # Refused at the call, before a trace is pulled: a zero or
        # negative weight used to spin forever.
        with pytest.raises(ConfigError, match="interleave weight"):
            interleave(scan_blocks(0, 10), scan_blocks(100, 10),
                       weights=weights)


class TestInstrumented:
    def _trace(self, n, block_ops):
        return blockify([
            Access(page_id=i, write=(i % 2 == 0),
                   is_scan=(i % 4 == 0), nbytes=10)
            for i in range(n)
        ], block_ops)

    def _counts(self, ctx, name):
        metrics = ctx.metrics
        return {
            key: metrics.get(f"workload.{name}.{key}")
            for key in ("accesses", "writes", "scans", "bytes")
        }

    def test_exact_batch_multiple_flushes_everything(self):
        # 8 ops in two full blocks of 4: each block's counts land,
        # none twice.
        ctx = SimContext()
        consumed = list(instrumented(self._trace(8, 4), ctx, name="t"))
        assert sum(len(block) for block in consumed) == 8
        assert self._counts(ctx, "t") == {
            "accesses": 8, "writes": 4, "scans": 2, "bytes": 80}

    def test_remainder_flush(self):
        ctx = SimContext()
        list(instrumented(self._trace(10, 4), ctx, name="t"))
        assert self._counts(ctx, "t") == {
            "accesses": 10, "writes": 5, "scans": 3, "bytes": 100}

    def test_empty_trace_counts_nothing(self):
        ctx = SimContext()
        assert list(instrumented([], ctx, name="t")) == []
        assert self._counts(ctx, "t")["accesses"] == 0

    def test_blocks_pass_through_and_count(self):
        ctx = SimContext()
        trace = self._trace(10, 4)
        out = list(instrumented(trace, ctx, name="t"))
        assert all(a is b for a, b in zip(out, trace))
        assert [type(item) for item in out] == [AccessBlock] * 3
        assert self._counts(ctx, "t") == {
            "accesses": 10, "writes": 5, "scans": 3, "bytes": 100}

    def test_mixed_stream_counts_once_each(self):
        # Blocks of uneven sizes, an empty one among them: every
        # access counted once. A scalar record is refused.
        ctx = SimContext()
        trace = self._trace(6, 2)
        stream = trace[:1] + [trace[1].slice(0, 0)] + trace[1:]
        out = list(instrumented(stream, ctx, name="t"))
        assert pages(out) == [0, 1, 2, 3, 4, 5]
        assert self._counts(ctx, "t")["accesses"] == 6
        with pytest.raises(ConfigError, match="AccessBlock.from_columns"):
            list(instrumented(ids(0), ctx, name="t"))


class TestFromColumns:
    def test_normalises_dtypes(self):
        block = AccessBlock.from_columns([1, 2], [0, 1], [1, 0],
                                         [64, 4096], [0, 2])
        assert [c.dtype for c in (block.page_id, block.write,
                                  block.is_scan, block.nbytes,
                                  block.think_ns)] \
            == [np.int64, np.bool_, np.bool_, np.int64, np.float64]

    @pytest.mark.parametrize("columns", [
        ([1, 2, 3], [False], [False] * 3, [64] * 3, [0.0] * 3),
        ([1, 2, 3], [False] * 3, [False] * 3, [64] * 2, [0.0] * 3),
        ([[1, 2, 3]], [[False] * 3], [[False] * 3], [[64] * 3],
         [[0.0] * 3]),
        (np.zeros((3, 1)), [False] * 3, [False] * 3, [64] * 3,
         [0.0] * 3),
    ], ids=["short-write", "short-nbytes", "all-2d", "one-2d"])
    def test_refuses_malformed_columns(self, columns):
        with pytest.raises(ConfigError, match="1-D columns of one length"):
            AccessBlock.from_columns(*columns)
