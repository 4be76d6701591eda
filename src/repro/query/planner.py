"""A small cost-based planner for the join choice the paper raises.

**Hash vs sort** for a join, given input cardinalities and the
location of work memory (Sec 3.3: "accepted wisdom regarding when to
use each one may change" at rack scale). E7's crossover table is this
planner's choice at each size.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import QueryError, require_count
from ..sim.interconnect import AccessPath
from .hashjoin import HashJoin
from .operators import Operator
from .sort import SortMergeJoin


@dataclass(frozen=True)
class JoinChoice:
    """The planner's decision and its cost estimates."""

    algorithm: str            # 'hash' or 'sort-merge'
    hash_cost_ns: float
    sort_cost_ns: float

    @property
    def advantage(self) -> float:
        """Cost ratio of the rejected plan over the chosen one."""
        best = min(self.hash_cost_ns, self.sort_cost_ns)
        worst = max(self.hash_cost_ns, self.sort_cost_ns)
        if best <= 0:
            return 1.0
        return worst / best


class JoinPlanner:
    """Chooses join algorithms from cost estimates."""

    def __init__(self, work_path: AccessPath | None = None,
                 work_mem_rows: int = 1_000_000) -> None:
        self.work_path = work_path
        self.work_mem_rows = work_mem_rows

    def choose_join(self, left: Operator, right: Operator,
                    left_key: str, right_key: str,
                    left_rows: int, right_rows: int
                    ) -> tuple[Operator, JoinChoice]:
        """Return (operator, decision) for the cheaper join algorithm.
        A cardinality that is not an integer >= 0 is a QueryError."""
        require_count("left_rows", left_rows, 0, QueryError)
        require_count("right_rows", right_rows, 0, QueryError)
        hash_join = HashJoin(left, right, left_key, right_key,
                             work_path=self.work_path,
                             work_mem_rows=self.work_mem_rows)
        sort_join = SortMergeJoin(left, right, left_key, right_key,
                                  work_path=self.work_path,
                                  work_mem_rows=self.work_mem_rows)
        hash_cost = hash_join.estimated_cost_ns(left_rows, right_rows)
        sort_cost = sort_join.estimated_cost_ns(left_rows, right_rows)
        choice = JoinChoice(
            algorithm="hash" if hash_cost <= sort_cost else "sort-merge",
            hash_cost_ns=hash_cost,
            sort_cost_ns=sort_cost,
        )
        op = hash_join if choice.algorithm == "hash" else sort_join
        return op, choice

