"""Workload generators.

Synthetic substitutes for the traces the paper's sources used:
Zipfian OLTP key traffic (:mod:`repro.workloads.ycsb`,
:mod:`repro.workloads.tpcc`), analytical scans
(:mod:`repro.workloads.scans`), and the Pond-style population of 158
cloud workloads (:mod:`repro.workloads.cloudmix`).
"""

from .._lazy import attach

#: Public name -> the submodule that defines it, imported on first use.
_SOURCES = {
    "CloudWorkload": "cloudmix",
    "generate_population": "cloudmix",
    "mixed_htap_blocks": "scans",
    "scan_blocks": "scans",
    "AccessBlock": "traces",
    "BLOCK_OPS": "traces",
    "ShapeSegments": "traces",
    "instrumented": "traces",
    "interleave": "traces",
    "YCSBConfig": "ycsb",
    "YCSB_MIXES": "ycsb",
    "ycsb_blocks": "ycsb",
    "ZipfGenerator": "zipf",
}

__getattr__, __dir__, __all__ = attach(__name__, _SOURCES)
