"""The rack-scale shared-memory engine (Sec 3.3, Fig 2c).

Every compute host in the rack maps the same GFAM (Global
Fabric-Attached Memory) regions: one shared buffer of data pages, one
shared lock table, one shared log. Threads on any host run any
transaction — there are no "remote" partitions, no RPC, no 2PC.
Coordination happens through coherent loads/stores on the fabric:

* a lock acquire/release is a CAS on a lock word in GFAM;
* a data access is a coherent load/store, served from the host's
  cache when the line is resident (cxl.cache) or from GFAM otherwise;
* commit is a log record appended to GFAM.

Coherence has a cost the paper insists we account (Sec 3.3's research
question on *coherency traffic*): writes to shared lines invalidate
other hosts' cached copies, which the engine models with a per-write
invalidation probability derived from sharing, charged at fabric
latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError, require_count, require_nonnegative
from ..sim.topology import RackTopology
from ..workloads.tpcc import Transaction
from .txn import OLTPReport, TwoPhaseLockingExecutor


@dataclass(frozen=True)
class SharedEngineConfig:
    """Parameters of the rack-scale engine."""

    num_hosts: int = 4
    threads_per_host: int = 8
    llc_hit_ns: float = 20.0
    cache_hit_rate: float = 0.70      # coherent local caching of hot lines
    invalidation_rate: float = 0.30   # P(a write invalidates a remote copy)
    log_batch: int = 8                # group commit factor on the GFAM log

    def __post_init__(self) -> None:
        for name in ("num_hosts", "threads_per_host", "log_batch"):
            require_count(name, getattr(self, name), 1)
        require_nonnegative("llc_hit_ns", self.llc_hit_ns)
        for name in ("cache_hit_rate", "invalidation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0,1]")


class SharedRackEngine:
    """A scale-up OLTP engine over rack-wide shared CXL memory."""

    def __init__(self, cfg: SharedEngineConfig | None = None,
                 rack: RackTopology | None = None) -> None:
        self.cfg = cfg or SharedEngineConfig()
        self.rack = rack or RackTopology.disaggregated(
            num_hosts=self.cfg.num_hosts
        )
        host = self.rack.hosts[0]
        gfam = self.rack.pools[0]
        path = self.rack.path(host.name, gfam.name)
        #: One coherent fabric load (line granularity).
        self.fabric_read_ns = path.read_latency_ns()
        self.fabric_write_ns = path.write_latency_ns()
        self.executor = TwoPhaseLockingExecutor(
            cost_model=self._txn_cost,
            threads=self.cfg.num_hosts * self.cfg.threads_per_host,
            name=f"shared-rack-{self.cfg.num_hosts}h",
        )
        self.fabric_bytes = 0

    # -- cost model --------------------------------------------------------

    def lock_acquire_ns(self) -> float:
        """One lock acquire: a CAS, i.e. one read-for-ownership round
        on the fabric (the invalidation of other copies rides along)."""
        return self.fabric_read_ns

    def lock_release_ns(self) -> float:
        """Release: a store to a line the host already owns in M state
        — local; the next acquirer pays the fabric fetch instead."""
        return self.cfg.llc_hit_ns

    def data_read_ns(self) -> float:
        """Expected record read cost with coherent local caching
        (cxl.cache keeps hot lines resident)."""
        cfg = self.cfg
        return (cfg.cache_hit_rate * cfg.llc_hit_ns
                + (1.0 - cfg.cache_hit_rate) * self.fabric_read_ns)

    def data_write_ns(self) -> float:
        """Record write: RFO fetch plus the local store. With
        probability ``invalidation_rate`` the line was cached remotely,
        stretching the RFO by an invalidation round."""
        rfo = self.fabric_read_ns * (1.0 + 0.5 * self.cfg.invalidation_rate)
        return rfo + self.cfg.llc_hit_ns

    def commit_ns(self, txn: Transaction) -> float:
        """Group-committed log append plus lock releases."""
        log = self.fabric_write_ns / self.cfg.log_batch
        releases = len(txn.writes) * self.lock_release_ns()
        return log + releases

    def _txn_cost(self, txn: Transaction) -> tuple[float, int]:
        # Per-record costs are configuration constants; one pass over
        # the write column keeps the additions' order to the last bit.
        acquire = self.lock_acquire_ns()
        write_cost = self.data_write_ns()
        read_cost = self.data_read_ns()
        cost = 0.0
        for write in txn.writes:
            cost += acquire
            cost += write_cost if write else read_cost
        writes = txn.writes.count(True)
        self.fabric_bytes += 64 * writes + int(
            64 * (1.0 - self.cfg.cache_hit_rate)) * (len(txn.writes) - writes)
        cost += self.commit_ns(txn)
        # Every host reaches all data coherently: nothing is remote.
        return cost, 0

    # -- execution -----------------------------------------------------------

    def run(self, transactions: list[Transaction]) -> OLTPReport:
        """Execute a batch of transactions; returns the report."""
        return self.executor.execute(transactions)

    def measure_lock_table_coherence(
        self, transactions: list[Transaction],
        table_lines: int = 1 << 16,
        assign_by_warehouse: bool = False,
    ):
        """Drive the shared lock table through a MESI directory and
        return the measured coherence statistics.

        Answers Sec 3.3's question for the data structure the engine
        actually shares: each lock acquire is a CAS (a directory
        write) on the lock word's cache line, issued by the host the
        transaction runs on. ``assign_by_warehouse`` routes
        transactions to hosts by home warehouse (affinity scheduling),
        which keeps hot lock lines in one host's cache and should
        collapse the invalidation traffic — a placement insight the
        measurement makes visible.
        """
        import zlib

        from ..sim.coherence import CoherenceDirectory

        directory = CoherenceDirectory()
        agents = [directory.register_agent()
                  for _ in range(self.cfg.num_hosts)]
        for index, txn in enumerate(transactions):
            if assign_by_warehouse:
                host = txn.home_warehouse % self.cfg.num_hosts
            else:
                host = index % self.cfg.num_hosts
            agent = agents[host]
            for record in zip(txn.tables, txn.warehouses, txn.keys):
                # crc32, not hash(): str hashing is salted per
                # process and would make runs irreproducible.
                key = "%s:%s:%s" % record
                line = zlib.crc32(key.encode()) % table_lines
                directory.write(agent, line)  # the CAS
        directory.check_invariants()
        return directory.stats

    def __repr__(self) -> str:
        return (
            f"SharedRackEngine(hosts={self.cfg.num_hosts},"
            f" fabric_read={self.fabric_read_ns:.0f}ns)"
        )
