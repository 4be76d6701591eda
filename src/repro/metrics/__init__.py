"""Measurement utilities: streaming statistics, histograms, reports.

The hierarchical :class:`MetricsRegistry` is the accounting half of
the :class:`repro.sim.context.SimContext` instrumentation spine;
:class:`CounterRegistry` is its legacy flat facade.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it, imported on first use.
_SOURCES = {
    "CounterRegistry": "counters",
    "MetricsRegistry": "registry",
    "ScopedMetrics": "registry",
    "SnapshotProvider": "registry",
    "flatten": "registry",
    "nest": "registry",
    "Table": "report",
    "fmt_ratio": "report",
    "latency_breakdown": "report",
    "metrics_table": "report",
    "Histogram": "stats",
    "StreamingStats": "stats",
    "percentile": "stats",
}

__getattr__, __dir__, __all__ = attach(__name__, _SOURCES)
