"""The paper's primary contribution: a CXL-aware scale-up database engine.

* :mod:`repro.core.buffer` — the tiered buffer pool (Sec 3.1);
* :mod:`repro.core.placement` — data-placement policies (OS paging vs
  DB cost-based vs static HTAP pinning);
* :mod:`repro.core.elastic` — memory pooling, warm spawn, migration
  (Sec 3.2);
* :mod:`repro.core.shared` — the rack-scale shared-memory engine
  (Sec 3.3) and :mod:`repro.core.scaleout` — its scale-out baseline;
* :mod:`repro.core.ndp` — near-data processing and active memory
  regions (Sec 4);
* :mod:`repro.core.hetero` — composable heterogeneous racks (Sec 5).
"""

from .._lazy import attach

#: Public name -> the submodule that defines it, imported on first use.
_SOURCES = {
    "Autoscaler": "autoscale",
    "QueryJob": "autoscale",
    "TieredBTree": "btree",
    "BufferPoolStats": "buffer",
    "Tier": "buffer",
    "TieredBufferPool": "buffer",
    "ElasticCluster": "elastic",
    "StrandingModel": "elastic",
    "EngineReport": "engine",
    "ScaleUpEngine": "engine",
    "FailoverOrchestrator": "failover",
    "Frame": "frame",
    "ComposableRack": "hetero",
    "FixedServerRack": "hetero",
    "OperatorTask": "hetero",
    "LockMode": "locks",
    "LockTable": "locks",
    "Morsel": "morsel",
    "RackScheduler": "morsel",
    "ActiveMemoryRegion": "ndp",
    "NDPController": "ndp",
    "NDPOperatorLibrary": "ndp",
    "DbCostPolicy": "placement",
    "OSPagingPolicy": "placement",
    "PlacementPolicy": "placement",
    "StaticPolicy": "placement",
    "ClockPolicy": "replacement",
    "LRUKPolicy": "replacement",
    "LRUPolicy": "replacement",
    "TwoQPolicy": "replacement",
    "make_policy": "replacement",
    "ScaleOutConfig": "scaleout",
    "ScaleOutEngine": "scaleout",
    "ClientSession": "sessions",
    "ConcurrentEngine": "sessions",
    "FairnessPolicy": "sessions",
    "FifoPolicy": "sessions",
    "RoundRobinPolicy": "sessions",
    "SessionReport": "sessions",
    "SessionRunReport": "sessions",
    "WeightedPolicy": "sessions",
    "SharedEngineConfig": "shared",
    "SharedRackEngine": "shared",
    "ExactTracker": "temperature",
    "SampledTracker": "temperature",
    "CXLSharedOracle": "timestamps",
    "LocalAtomicOracle": "timestamps",
    "RPCOracle": "timestamps",
    "OLTPReport": "txn",
    "TwoPhaseLockingExecutor": "txn",
    "WriteAheadLog": "wal",
}

__getattr__, __dir__, __all__ = attach(__name__, _SOURCES)
