"""Gated memory-scaling smoke test for the serving subsystem.

The ISSUE acceptance bar is a 10^6-tenant sweep cell in under 1 GiB of
peak RSS. Running that in the test suite would be slow, so this test
measures peak RSS of a full pondscale cell (generation, churn in
virtual time, sharded streaming fold) in fresh subprocesses at
three sub-scales, fits rss = slope * tenants + intercept, and asserts
the linear extrapolation to 10^6 tenants stays under the bar. The fit
is honest because every per-tenant structure in the subsystem is a
flat numpy column (73 bytes/tenant), so memory really is affine in the
population size.

Gated behind ``REPRO_SCALE_SMOKE=1`` (CI sets it; local `make test`
skips) because the largest subprocess simulates 10^5 churning tenants.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_SMOKE") != "1",
    reason="set REPRO_SCALE_SMOKE=1 to run the serving scale smoke",
)

GIB = 1 << 30
SCALES = (20_000, 50_000, 100_000)

# One full serving cell, then peak RSS in KiB on stdout. ru_maxrss is
# KiB on Linux; macOS reports bytes and is normalised below.
_CELL_SCRIPT = """
import resource
import sys

from repro.core.autoscale import ExpanderScaler
from repro.core.elastic import PagePool
from repro.serving import (
    ChurnConfig,
    ChurnSimulator,
    ServingConfig,
    TenantTable,
    assign_churn,
    run_serving,
)

n = int(sys.argv[1])
table = TenantTable.generate(n, seed=11)
assign_churn(table, ChurnConfig(
    arrival_rate_per_s=2_000.0, mean_lifetime_s=0.5, seed=12))
scaler = ExpanderScaler(pages_per_expander=4_194_304, max_expanders=4)
pool = PagePool(scaler.capacity_pages)
churn = ChurnSimulator(table, pool, scaler=scaler).run()
assert churn.admitted + churn.rejected == n
report = run_serving(table, ServingConfig(rep_ops=300))
assert report.tenants == n
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform == "darwin":
    rss //= 1024
print(rss)
"""


def _peak_rss_kib(tenants: int) -> int:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _CELL_SCRIPT, str(tenants)],
        capture_output=True, text=True, env=env, check=True,
    )
    return int(out.stdout.strip())


def test_million_tenant_cell_extrapolates_under_1_gib():
    points = [(n, _peak_rss_kib(n)) for n in SCALES]
    tenants = np.array([n for n, _ in points], dtype=np.float64)
    rss_bytes = np.array([kib * 1024.0 for _, kib in points])
    slope, intercept = np.polyfit(tenants, rss_bytes, 1)
    projected = slope * 1_000_000 + intercept
    detail = (
        f"measured {[(n, f'{kib / 1024:.0f} MiB') for n, kib in points]},"
        f" slope {slope:.1f} B/tenant,"
        f" projected 10^6-tenant RSS {projected / GIB:.3f} GiB"
    )
    # The columnar subsystem spends ~73 B/tenant on the table plus
    # bounded churn/histogram state; anywhere near object-per-tenant
    # (~kB/tenant) blows the bar.
    assert projected < 1 * GIB, detail
    assert slope < 500, detail  # bytes per tenant, fit sanity
