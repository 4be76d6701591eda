"""Measurement utilities: streaming statistics and histograms.

The hierarchical :class:`MetricsRegistry` is the accounting half of
the :class:`repro.sim.context.SimContext` instrumentation spine.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it, imported on first use.
_SOURCES = {
    "MetricsRegistry": "registry",
    "ScopedMetrics": "registry",
    "SnapshotProvider": "registry",
    "flatten": "registry",
    "nest": "registry",
    "Histogram": "stats",
    "StreamingStats": "stats",
    "percentile": "stats",
}

__getattr__, __dir__, __all__ = attach(__name__, _SOURCES)
