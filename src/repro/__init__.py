"""cxlmem: CXL rack-scale memory simulation and a tiered scale-up
database engine.

A reproduction of Lerner & Alonso, *CXL and the Return of Scale-Up
Database Engines* (PVLDB 17(10), 2024). The package layers:

* :mod:`repro.sim` — the hardware substrate (memory devices, CXL
  fabric, coherence, NUMA, RDMA baseline, failures);
* :mod:`repro.storage` — pages, block devices, page files;
* :mod:`repro.core` — the CXL-tiered buffer pool, placement policies,
  pooling/elasticity, rack-scale shared engine vs scale-out baseline,
  near-data processing, heterogeneous composition;
* :mod:`repro.query` — a mini relational engine (scans, joins, sorts,
  TPC-H-shaped queries);
* :mod:`repro.workloads` — YCSB, TPC-C-lite, scans, Zipf, and the
  Pond-style cloud-workload population;
* :mod:`repro.metrics` — streaming stats and report tables.

Quickstart::

    from repro.core import ScaleUpEngine, DbCostPolicy
    from repro.workloads import ycsb_blocks, YCSBConfig

    engine = ScaleUpEngine.build(dram_pages=2_000, cxl_pages=20_000,
                                 placement=DbCostPolicy())
    report = engine.run(ycsb_blocks(YCSBConfig(mix="B")))
    print(report)
"""

from ._lazy import attach

#: Public name -> the submodule that defines it, imported on first use
#: (``import repro`` alone loads none of the engine).
_SOURCES = {
    "ScaleUpEngine": "core",
    "__version__": "version",
    "config": "config",
    "errors": "errors",
    "units": "units",
}

__getattr__, __dir__, __all__ = attach(__name__, _SOURCES)
