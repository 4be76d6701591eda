"""The scale-out baseline: sharding, RDMA, and two-phase commit.

The distributed architecture the paper says CXL makes unnecessary
(Sec 3.3): data hash-partitioned across nodes by warehouse, local
execution at DRAM speed, but any transaction touching another node's
partition pays RDMA round trips per remote operation and a full 2PC
(prepare + commit rounds, with log forces) across all participants.

This engine is intentionally a *good* baseline — local operations are
cheaper than the shared-memory engine's fabric accesses — so the
experiments expose the genuine crossover: scale-out wins when nothing
is distributed, and degrades as the distributed fraction grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import require_count, require_nonnegative
from ..sim.rdma import RDMAFabric
from ..units import us
from ..workloads.tpcc import Transaction
from .txn import OLTPReport, TwoPhaseLockingExecutor


@dataclass(frozen=True)
class ScaleOutConfig:
    """Parameters of the sharded engine."""

    num_nodes: int = 4
    threads_per_node: int = 8
    local_read_ns: float = 80.0     # record in local DRAM
    local_write_ns: float = 90.0
    local_lock_ns: float = 160.0    # CAS in local DRAM
    log_force_ns: float = us(5.0)   # NVMe group-commit share
    log_batch: int = 8
    rpc_payload_bytes: int = 128

    def __post_init__(self) -> None:
        for name in ("num_nodes", "threads_per_node", "log_batch"):
            require_count(name, getattr(self, name), 1)
        for name in ("local_read_ns", "local_write_ns", "local_lock_ns",
                     "log_force_ns", "rpc_payload_bytes"):
            require_nonnegative(name, getattr(self, name))


class ScaleOutEngine:
    """A sharded OLTP engine over an RDMA fabric with 2PC."""

    def __init__(self, cfg: ScaleOutConfig | None = None,
                 fabric: RDMAFabric | None = None) -> None:
        self.cfg = cfg or ScaleOutConfig()
        self.fabric = fabric or RDMAFabric()
        for node in range(self.cfg.num_nodes):
            self.fabric.add_host(self._node_name(node))
        self.executor = TwoPhaseLockingExecutor(
            cost_model=self._txn_cost,
            threads=self.cfg.num_nodes * self.cfg.threads_per_node,
            name=f"scale-out-{self.cfg.num_nodes}n",
        )
        # RPC time per (src, dst) node pair: static per pair, so only
        # the fabric's counter bumps are replayed on a hit.
        self._rpc: dict[tuple[int, int], float] = {}

    @staticmethod
    def _node_name(node: int) -> str:
        return f"node{node}"

    # -- partitioning ---------------------------------------------------------

    def participants(self, txn: Transaction) -> set[int]:
        """Nodes a transaction touches (including its home node).
        Shared tables (warehouse == -1) are replicated and read
        locally."""
        nodes = self.cfg.num_nodes
        return {txn.home_warehouse % nodes} | {
            warehouse % nodes for warehouse in set(txn.warehouses)
            if warehouse >= 0}

    # -- cost model --------------------------------------------------------------

    def _rpc_ns(self, src: int, dst: int) -> float:
        rpc = self._rpc.get((src, dst))
        payload = self.cfg.rpc_payload_bytes
        if rpc is None:
            rpc = self._rpc[src, dst] = self.fabric.rpc_time(
                self._node_name(src), self._node_name(dst), payload, payload)
        else:  # what rpc_time counts: one write out, one read back
            stats = self.fabric.stats
            stats.reads, stats.writes = stats.reads + 1, stats.writes + 1
            stats.bytes += payload + payload
        return rpc

    def _txn_cost(self, txn: Transaction) -> tuple[float, int]:
        # One pass over the columns, one addition per record in record
        # order: reported times are unchanged to the last bit.
        cfg = self.cfg
        nodes = cfg.num_nodes
        home = txn.home_warehouse % nodes
        local_read = cfg.local_lock_ns + cfg.local_read_ns
        local_write = cfg.local_lock_ns + cfg.local_write_ns
        cost = 0.0
        remote_ops = 0
        remotes: set[int] = set()
        for warehouse, write in zip(txn.warehouses, txn.writes):
            local = local_write if write else local_read
            if warehouse < 0 or (node := warehouse % nodes) == home:
                cost += local
            else:
                # Ship the operation: one RPC covers lock + data.
                cost += self._rpc_ns(home, node) + local
                remote_ops += 1
                remotes.add(node)
        if remotes:
            # 2PC: prepare round + commit round to every remote
            # participant, plus a log force at each participant.
            cost += 2 * max(self._rpc_ns(home, node) for node in remotes)
            cost += (len(remotes) + 1) * cfg.log_force_ns
            remote_ops += 2 * len(remotes)
        else:
            cost += cfg.log_force_ns / cfg.log_batch
        return cost, remote_ops

    # -- execution -------------------------------------------------------------------

    def run(self, transactions: list[Transaction]) -> OLTPReport:
        """Execute a batch of transactions; returns the report."""
        return self.executor.execute(transactions)

    def __repr__(self) -> str:
        return f"ScaleOutEngine(nodes={self.cfg.num_nodes})"
