"""The route ``measure_buckets`` takes through the pool.

Its 36 engines are cold and each serves one 2,000-op block, so what a
miss costs the block lane is what the serving kernel costs. The guard
is on counts, not time: a cold block resolves in a handful of array
windows, and (nearly) nothing drops to the scalar ``access`` path.
"""

from collections import Counter

from repro.core.buffer import TieredBufferPool
from repro.metrics.registry import MetricsRegistry
from repro.serving.executor import ServingConfig, bucket_grid, measure_buckets
from repro.sim.context import set_ambient


def test_cold_representative_blocks_stay_in_the_block_lane(monkeypatch):
    scalar_calls: Counter = Counter()
    access = TieredBufferPool.access

    def counted(pool, *args, **kwargs):
        scalar_calls[id(pool)] += 1
        return access(pool, *args, **kwargs)

    monkeypatch.setattr(TieredBufferPool, "access", counted)
    # Engines built without a context adopt the ambient registry, so
    # every pool's lane counters land in one snapshot.
    registry = MetricsRegistry()
    previous = set_ambient(metrics=registry)
    try:
        kernels = measure_buckets(ServingConfig(rep_ops=2000))
    finally:
        set_ambient(*previous)
    lanes = {key: value for key, value in registry.flat_snapshot().items()
             if key.startswith("pool.lane")}
    windows = [v for k, v in lanes.items() if k.endswith("exact_windows")]
    served = [v for k, v in lanes.items()
              if k.endswith("exact_window_accesses")]
    installs = [v for k, v in lanes.items() if k.endswith("fill_installs")]
    engines = 3 * len(bucket_grid())
    assert len(kernels) * 3 == len(windows) == engines
    assert all(1 <= w <= 6 for w in windows)
    assert max(scalar_calls.values(), default=0) <= 3
    assert sum(served) + sum(scalar_calls.values()) == engines * 2000
    assert all(installs)
