PYTHON ?= python
export PYTHONPATH := src

.PHONY: verify test lint bench sweep ledger-smoke route-check structure-check trace-demo clean

# The tier-1 gate: what CI runs and what every change must keep green.
verify: test lint structure-check

test:
	$(PYTHON) -m pytest -x -q

lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# The gated scenario sweeps (mirrors the CI sweep job): E1/E2/E4/E7
# plus the A7 interference grid and the A8 Pond-at-scale serving grid
# fan out across workers, results land in results/sweeps/, and each
# sweep's baseline shape invariants must hold.
sweep:
	$(PYTHON) -m repro sweep specs/e1_paths.json specs/e2_tiering.json \
		specs/e4_transfer_ladder.json specs/e7_distribution.json \
		specs/a7_interference.json specs/a8_pondscale.json \
		--jobs 4 --gate

# The benchmark (ledger/) at 1/20 size — one traced rep per workload,
# every digest and validity check — plus the ledger's own tests. The
# exact route metrics of the run stay behind in ledger-smoke.json (CI
# uploads it per commit).
ledger-smoke:
	python3 ledger/run.py --smoke --out ledger-smoke.json \
		&& $(PYTHON) -m pytest ledger/tests -q

# Reads the route counts `make ledger-smoke` left behind: every pool
# workload must reach the pool through its array kernels — no call to
# `access_batch`, which is the scalar loop the array entry points fall
# back on — and none may resolve more than 5 % of its accesses through
# scalar `access`. A count of 0 is absent from the file.
define ROUTE_CHECK
import json, sys
runs = json.load(open("ledger-smoke.json"))["workloads"]
def value(workload, metric):
    return runs[workload]["per_layer"].get(metric, {}).get("value", 0)
bad = []
for name in ("scan_warm", "oltp_point", "fault_storm", "sessions_mixed",
             "serving_pond"):
    calls = value(name, "core.buffer.access_batch.calls")
    if calls != 0:
        bad.append("%s: core.buffer.access_batch.calls = %s, want 0"
                   % (name, calls))
for name in runs:
    share = value(name, "core.buffer.scalar_fallback_share")
    if share > 0.05:
        bad.append("%s: core.buffer.scalar_fallback_share = %s > 0.05"
                   % (name, share))
print("route-check:", "; ".join(bad) if bad else "ok")
sys.exit(1 if bad else 0)
endef
export ROUTE_CHECK

route-check:
	@python3 -c "$$ROUTE_CHECK"

# One residency table, nothing beside it: the names of the deleted
# Frame-object layer and its reconciliation may not come back anywhere
# under src/, and the pool builds a Frame view in frame_of() only. The
# rebalance reads one residency snapshot: the per-tier re-gathers it
# replaced may not come back, and placement.py reads pins off the pins
# column, never through a frame view. Churn is one merge loop and the
# timed lock table two per-key expiry columns: the churn event
# callbacks, the hold records and the prune pass may not come back
# either. The pool has one bulk miss body, the block window: the
# deleted miss-run lane, its run-length floor and the generic victim
# batch it needed may not come back under src/. Addition chains are
# left folds (np.add.accumulate): the binade-reasoning cycle ladder
# (chain_repeat, chain_repeat_arr, its _cycle_profile and _chain_scalar)
# and chain_values' TWO52 stretch bound may not come back under src/
# either. The pool has one lane: the lane switch and the frozen
# reference access it chose (fast_lane, set_fast_lane, _access_compat),
# the per-call *_uncached path timings, tiers without a timing table
# (tierless, tableless, _path_timing), the escalation switch
# (escalate=) and access_batch's per-page CPU charge (post_ns) may not
# come back under src/; the reference lives in tests/oracle/. The
# session scheduler has one lane, too: every quantum is one
# access_quantum call, so the escalation lane (run_probe,
# quantum_lane_ready, _run_bulk, _charge_bulk, _HORIZON_SLACK,
# _BULK_MAX_OPS), the cursor methods only it and the per-run fallback
# read (peek_run, remaining_in_segment, next_run) and the hookless
# pool's decline (no_headroom) may not come back under src/. One
# benchmark, too: the retired wall-clock microbenchmark
# harness (its package and its name) may not come back under src/,
# tests/, the Makefile or .github/ — ledger/ is the one performance
# instrument. networkx is a test-only package: the rack router is a
# heap-based Dijkstra in sim/topology.py, so nothing under src/ may
# import networkx and pyproject.toml's runtime dependencies may not
# name it.
# The line counts of the pool,
# placement, tracker and chain files are printed for the CI log.
define STRUCTURE_CHECK
import pathlib, re, sys
gone = re.compile(r"_frames\b|_pend_acc|_pend_ts|_dirty_mirror"
                  r"|sync_frame_stats|sync_frames|resident_ids_in"
                  r"|slow_residents|_TimedHold|def prune\b"
                  r"|def (_arrive|_release|_admit|_drain_queue"
                  r"|_consult_scaler)\b"
                  r"|_fault_span|_FAULT_MIN|_victim_batch_generic"
                  r"|chain_repeat|_cycle_profile|_chain_scalar|TWO52"
                  r"|fast_lane|_access_compat|_uncached|tierless"
                  r"|tableless|_path_timing|escalate=|post_ns"
                  r"|run_probe|quantum_lane_ready|_run_bulk|_charge_bulk"
                  r"|_HORIZON_SLACK|_BULK_MAX_OPS|peek_run"
                  r"|remaining_in_segment|def next_run\b|no_headroom")
bad = []
for path in sorted(pathlib.Path("src").rglob("*.py")):
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if gone.search(line):
            bad.append("%s:%d: %s" % (path, number, line.strip()))
if pathlib.Path("src/repro/perf").exists():
    bad.append("src/repro/perf/ exists")
# (Spelled in two halves so this line does not match itself.)
retired = "perf" "bench"
paths = [pathlib.Path("Makefile")]
for root in ("src", "tests", ".github"):
    paths += [p for p in pathlib.Path(root).rglob("*")
              if p.is_file() and "__pycache__" not in p.parts]
for path in sorted(paths):
    text = path.read_text(errors="replace")
    for number, line in enumerate(text.splitlines(), 1):
        if retired in line:
            bad.append("%s:%d: %s" % (path, number, line.strip()))
test_only = re.compile(r"^\s*(from|import)\s+networkx\b"
                       r"|import_module\(\s*[\"']networkx")
for path in sorted(pathlib.Path("src").rglob("*.py")):
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if test_only.search(line):
            bad.append("%s:%d: %s" % (path, number, line.strip()))
runtime = re.search(r"^dependencies\s*=\s*\[(.*?)\]",
                    pathlib.Path("pyproject.toml").read_text(), re.M | re.S)
if runtime is None or "networkx" in runtime.group(1):
    bad.append("pyproject.toml: networkx in the runtime dependencies")
pool = pathlib.Path("src/repro/core/buffer.py").read_text()
for method in re.split(r"^    def ", pool, flags=re.M)[1:]:
    name = method.split("(", 1)[0]
    if "Frame(" in method and name != "frame_of":
        bad.append("buffer.py: %s() constructs a Frame" % name)
placement = pathlib.Path("src/repro/core/placement.py")
for number, line in enumerate(placement.read_text().splitlines(), 1):
    if "frame_of(" in line:
        bad.append("%s:%d: %s" % (placement, number, line.strip()))
print("structure-check:", "\n  ".join(bad) if bad else "ok")
sys.exit(1 if bad else 0)
endef
export STRUCTURE_CHECK

structure-check:
	@python3 -c "$$STRUCTURE_CHECK"
	@wc -l src/repro/core/buffer.py src/repro/core/frame.py \
		src/repro/core/placement.py src/repro/core/temperature.py \
		src/repro/sim/ladder.py

trace-demo:
	$(PYTHON) examples/quickstart.py --trace-out quickstart.trace.json

clean:
	rm -rf .pytest_cache .ruff_cache quickstart.trace.json ledger-smoke.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
