"""A miniature relational query layer over the tiered buffer pool.

Enough machinery to reproduce the paper's analytical claims: scans,
filters, projections, aggregation, partitioned hash join, external
sort / sort-merge join, a small cost-based planner (the hash-vs-sort
choice), and TPC-H-shaped queries for experiment E3.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it, imported on first use.
_SOURCES = {
    "ColumnScan": "columnar",
    "ColumnTable": "columnar",
    "HashJoin": "hashjoin",
    "Filter": "operators",
    "HashAggregate": "operators",
    "Project": "operators",
    "TableScan": "operators",
    "JoinPlanner": "planner",
    "Column": "schema",
    "Schema": "schema",
    "ExternalSort": "sort",
    "SortMergeJoin": "sort",
    "Table": "table",
    "TopK": "topk",
}

__getattr__, __dir__, __all__ = attach(__name__, _SOURCES)
