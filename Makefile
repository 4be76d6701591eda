PYTHON ?= python
export PYTHONPATH := src

.PHONY: verify test lint sweep ledger-smoke route-check structure-check census trace-demo clean

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

# Every experiment (mirrors the CI sweep job): each spec under specs/
# fans its cells out across workers, serves unchanged cells from the
# committed results/store/, writes results/sweeps/<spec>.json, and must
# hold its baseline's shape invariants.
sweep:
	$(PYTHON) -m repro sweep specs/*.json --jobs 4 --gate

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
# name it. One trace currency: workloads emit AccessBlocks only, so the
# scalar Access record, the scalar generator twins (ycsb_trace,
# scan_trace, mixed_htap_trace, flat_trace), the scalar interleave,
# the timestamp merge and the scalar/block adapters (from_accesses,
# blocks_to_accesses, accesses_to_blocks, whole_trace_block, the
# sessions' _WHOLE_TRACE packing) may not come back under src/; the
# frozen scalar generators live in tests/oracle/traces.py. Pages are
# ids until someone reads one: the pool builds a Page in _anonymous
# only, and the page file in allocate_page and _lookup only, so no
# preload, fill or fault path builds one eagerly. A run is a one-shape
# block: the block window has one entry (only access_block calls
# _block_exact) and only preload calls access_run. A session quantum
# is sized to its traffic: one all-hit check into the per-access hit
# kernel, every other quantum the scalar loop, so the per-segment
# headroom-window lane (_run_span), the hit kernel's folded-column
# threshold (_LADDER_MIN) and the closed-form repeat_add ladder
# (_repeat_add_pos, _repeat_add_mixed, _classify, _SCALAR_N, TWO53)
# may not come back under src/, and buffer.py calls no reserve_run(.
# A quantum pays per segment: buffer.py defines one hit kernel
# (_quantum_hits is its only def _quantum_), reserves the wait queues
# inline there (occupy_run( only in _contend, the scalar lane's), and
# its settle reads the timestamp column without np.fromiter.
# TPC-C transactions are columns: tpcc.py builds a
# RecordOp only in the ops view, the 2PL executor and both OLTP engines
# (txn.py, scaleout.py, shared.py) never read .ops, and the executor's
# per-record lock-key function (lock_key) may not come back to txn.py.
# OS paging at column speed: the sampler draws its stream in bulk, so
# temperature.py makes no scalar .random() draw, and the pool has one
# bulk eviction body: only the block window (_block_exact) and the
# column migration commit (_migrate_columns) call _evict_apply.
# A pool keeps the heat its placement reads: DbCostPolicy.attach
# installs its tracker as the pool's, so neither the engine (engine.py)
# nor the pool (buffer.py) constructs a tracker.
# What no experiment reached is gone (`make census` keeps it so): the
# six deleted module files may not come back under src/, nor may their
# names, the NDP offload chooser, the B+tree range scan, the unused
# presets or HostSpec appear in any src/ line.
# One way to run an experiment: a spec under specs/ through `repro
# sweep`. The retired script directory, its pytest file pattern in
# pyproject.toml and the runner that loaded it (its finder, loader,
# environment variable and flag) may not come back.
# The line counts of the pool, placement, tracker, chain and page files,
# and of the four TPC-C files, are printed for the CI log.
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
                  r"|remaining_in_segment|def next_run\b|no_headroom"
                  r"|class Access\b|ycsb_trace|scan_trace|mixed_htap_trace"
                  r"|def flat_trace\b|_interleave_scalar|from_accesses"
                  r"|blocks_to_accesses|accesses_to_blocks"
                  r"|whole_trace_block|merge_timed|_WHOLE_TRACE"
                  r"|_run_span|_LADDER_MIN|_repeat_add_pos"
                  r"|_repeat_add_mixed|_classify|_SCALAR_N|TWO53")
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
for path, builders in (("src/repro/core/buffer.py", ("_anonymous",)),
                       ("src/repro/storage/file.py",
                        ("allocate_page", "_lookup"))):
    text = pathlib.Path(path).read_text()
    for method in re.split(r"^    def ", text, flags=re.M)[1:]:
        name = method.split("(", 1)[0]
        if "Page(" in method and name not in builders:
            bad.append("%s: %s() constructs a Page" % (path, name))
for method in re.split(r"^    def ", pool, flags=re.M)[1:]:
    name, body = method.split("(", 1)[0], method.split("\n", 1)[1]
    for call, callers in (("_block_exact(", ("access_block",)),
                          ("access_run(", ("preload",)),
                          ("_evict_apply(", ("_block_exact",
                                             "_migrate_columns"))):
        if call in body and name not in callers:
            bad.append("buffer.py: %s() calls %s)" % (name, call))
for number, line in enumerate(pool.splitlines(), 1):
    if "reserve_run(" in line:
        bad.append("src/repro/core/buffer.py:%d: %s" % (number, line.strip()))
kernels = re.findall(r"def (_quantum_\w*)", pool)
if kernels != ["_quantum_hits"]:
    bad.append("buffer.py: hit kernels %s, want _quantum_hits only"
               % kernels)
for method in re.split(r"^    def ", pool, flags=re.M)[1:]:
    name = method.split("(", 1)[0]
    if "occupy_run(" in method and name != "_contend":
        bad.append("buffer.py: %s() calls occupy_run(" % name)
    if name == "_drain_lazy" and "np.fromiter" in method:
        bad.append("buffer.py: _drain_lazy() calls np.fromiter")
temperature = pathlib.Path("src/repro/core/temperature.py")
for number, line in enumerate(temperature.read_text().splitlines(), 1):
    if ".random()" in line:
        bad.append("%s:%d: %s" % (temperature, number, line.strip()))
for name in ("engine", "buffer"):
    path = pathlib.Path("src/repro/core/%s.py" % name)
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if re.search(r"Tracker\(", line):
            bad.append("%s:%d: %s" % (path, number, line.strip()))
placement = pathlib.Path("src/repro/core/placement.py")
for number, line in enumerate(placement.read_text().splitlines(), 1):
    if "frame_of(" in line:
        bad.append("%s:%d: %s" % (placement, number, line.strip()))
tpcc = pathlib.Path("src/repro/workloads/tpcc.py").read_text()
for chunk in re.split(r"^(?:class |def |    def )", tpcc, flags=re.M):
    name = re.match(r"\w*", chunk).group() or "the module head"
    if "RecordOp(" in chunk and name != "ops":
        bad.append("tpcc.py: %s builds a RecordOp" % name)
for name in ("txn", "scaleout", "shared"):
    path = pathlib.Path("src/repro/core/%s.py" % name)
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if re.search(r"\.ops\b", line) or \
                (name == "txn" and "lock_key" in line):
            bad.append("%s:%d: %s" % (path, number, line.strip()))
for name in ("core/locks.py", "sim/address.py", "sim/interleave.py",
             "workloads/replay.py", "query/indexjoin.py",
             "metrics/counters.py"):
    if pathlib.Path("src/repro", name).exists():
        bad.append("src/repro/%s exists" % name)
unreached = re.compile(r"\b(LockTable|AddressSpace|InterleaveSet"
                       r"|IndexNestedLoopJoin|CounterRegistry|save_trace"
                       r"|load_trace|profile_trace|TraceProfile"
                       r"|choose_scan_site|OffloadChoice|range_scan"
                       r"|sata_ssd|ethernet_tcp_25g|HostSpec)\b")
for path in sorted(pathlib.Path("src").rglob("*.py")):
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if unreached.search(line):
            bad.append("%s:%d: %s" % (path, number, line.strip()))
# (Spelled in pieces so the Makefile does not match itself.)
scripts = "bench" "marks"
if pathlib.Path(scripts).exists():
    bad.append(scripts + "/ exists")
if re.search("bench" r"_\*\.py", pathlib.Path("pyproject.toml").read_text()):
    bad.append("pyproject.toml: the retired script pattern is a test file"
               " pattern")
runner = re.compile("find_" "benchmarks_dir|load_" "experiment"
                    "|REPRO_" "BENCH_DIR|bench" "-dir")
for root in ("src", "tools"):
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if runner.search(line):
                bad.append("%s:%d: %s" % (path, number, line.strip()))
print("structure-check:", "\n  ".join(bad) if bad else "ok")
sys.exit(1 if bad else 0)
endef
export STRUCTURE_CHECK

structure-check:
	@python3 -c "$$STRUCTURE_CHECK"
	@wc -l src/repro/core/buffer.py src/repro/core/frame.py \
		src/repro/core/placement.py src/repro/core/temperature.py \
		src/repro/sim/ladder.py src/repro/storage/file.py
	@wc -l src/repro/workloads/tpcc.py src/repro/core/txn.py \
		src/repro/core/scaleout.py src/repro/core/shared.py

# The reach census: every cell of every spec under specs/, the five pool
# ledger workloads at 1/20 size and the examples run in one process
# under one profile hook. It fails when a src/repro/ module
# outside its exemptions has no function that ran, and lists every
# function that never ran (~40 s).
census:
	$(PYTHON) tools/reach_census.py

trace-demo:
	$(PYTHON) examples/quickstart.py --trace-out quickstart.trace.json

clean:
	rm -rf .pytest_cache .ruff_cache quickstart.trace.json ledger-smoke.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
