"""Million-tenant serving subsystem (Sec 2.5, Pond at production scale).

The paper grounds CXL pooling economics in the *distribution* of
slowdowns across a large tenant population. This package scales the
158-workload ``cloudmix`` population to 10^5–10^6 tenants in a single
sweep cell:

* :class:`TenantTable` — columnar structure-of-arrays population; a
  million tenants never become a million ``CloudWorkload`` objects.
* :mod:`.churn` — deterministic Poisson arrivals and lifetimes played
  in virtual time against pooled CXL capacity.
* :class:`MergeableHistogram` — exact integer-count histograms whose
  merges are order-invariant, making sharded percentile CDFs
  byte-identical across shard counts and worker fan-out.
* :mod:`.executor` — the sharded streaming executor that folds
  per-tenant slowdowns into those histograms without materialising
  per-tenant results.
"""

from .churn import ChurnConfig, ChurnReport, ChurnSimulator, assign_churn
from .histogram import MergeableHistogram, slowdown_histogram
from .executor import BucketKernel, ServingConfig, ServingReport, run_serving
from .tenants import TenantTable

__all__ = [
    "BucketKernel",
    "ChurnConfig",
    "ChurnReport",
    "ChurnSimulator",
    "MergeableHistogram",
    "ServingConfig",
    "ServingReport",
    "TenantTable",
    "assign_churn",
    "run_serving",
    "slowdown_histogram",
]
