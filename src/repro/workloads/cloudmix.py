"""A Pond-style population of cloud workloads (paper ref [31]).

Microsoft's Pond study ran 158 production workloads under CXL-like
memory latency and reported the *distribution* of slowdowns: ~26% of
workloads saw <1% penalty and another ~17% saw <5%. What differentiates
workloads is how memory-bound they are — the fraction of execution
time spent waiting on memory.

:func:`generate_population` synthesizes 158 workloads whose
memory-boundedness spans the same classes; experiment E3 then *runs*
each one against an all-DRAM and an all-CXL buffer pool and measures
the actual slowdown CDF on our engine.

The population is generated *columnar first*: :func:`population_columns`
draws every tenant attribute as numpy columns from a single
CPython-faithful uniform stream (:mod:`.mtrand`), and
:func:`generate_population` merely materialises one ``CloudWorkload``
per row. ``repro.serving.TenantTable`` wraps the same columns without
materialising objects at all, so a million-tenant table and the
158-object population are elementwise-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..config import LOCAL_DRAM_LOAD_NS
from ..errors import ConfigError
from ..units import CACHE_LINE
from .mtrand import PyRandomStream, py_random_sample
from .traces import BLOCK_OPS, AccessBlock
from .zipf import ZipfGenerator

#: Memory-boundedness classes: (population share, m_low, m_high) where
#: m is the fraction of DRAM-run time spent in memory accesses.
BOUNDEDNESS_CLASSES = [
    ("compute_bound", 0.26, 0.000, 0.007),
    ("mostly_compute", 0.17, 0.008, 0.035),
    ("balanced", 0.40, 0.040, 0.250),
    ("memory_bound", 0.17, 0.250, 0.700),
]

#: Working-set and skew menus every tenant draws from.
WORKING_SET_CHOICES = (2_000, 5_000, 10_000)
THETA_CHOICES = (0.0, 0.5, 0.9, 0.99)


@dataclass(frozen=True)
class CloudWorkload:
    """One synthetic cloud workload."""

    name: str
    klass: str
    memory_share: float      # target fraction of runtime in memory
    working_set_pages: int
    theta: float
    read_ratio: float
    num_ops: int
    think_ns: float          # CPU time attributed to each access
    seed: int

    def trace_blocks(self, block_ops: int = BLOCK_OPS
                     ) -> Iterator[AccessBlock]:
        """The workload's access trace: Zipf-drawn pages, each a write
        with probability ``1 - read_ratio``."""
        zipf = ZipfGenerator(self.working_set_pages, theta=self.theta,
                             seed=self.seed)
        pages = zipf.sample(self.num_ops)
        # One bulk draw of the random.Random(seed ^ 0xC10D) uniform
        # stream: one write coin flip per op.
        writes = (py_random_sample(self.seed ^ 0xC10D, self.num_ops)
                  >= self.read_ratio)
        for start in range(0, self.num_ops, block_ops):
            stop = min(start + block_ops, self.num_ops)
            n = stop - start
            yield AccessBlock(
                page_id=pages[start:stop],
                write=writes[start:stop],
                is_scan=np.zeros(n, np.bool_),
                nbytes=np.full(n, CACHE_LINE, np.int64),
                think_ns=np.full(n, self.think_ns, np.float64),
            )


def _think_time_for(memory_share: float,
                    hit_latency_ns: float = LOCAL_DRAM_LOAD_NS) -> float:
    """CPU think time per access that yields the target memory share
    when every access hits DRAM."""
    if memory_share <= 0:
        return hit_latency_ns * 10_000.0
    return hit_latency_ns * (1.0 - memory_share) / memory_share


def class_counts(count: int) -> list[int]:
    """Deterministic per-class tenant counts summing to *count*.

    A single largest-remainder pass: every class gets the floor of its
    exact share, then the classes with the largest fractional
    remainders (ties broken by class order) absorb the leftover seats.
    """
    if count <= 0:
        raise ConfigError("population count must be positive")
    shares = [share for _n, share, _lo, _hi in BOUNDEDNESS_CLASSES]
    if abs(sum(shares) - 1.0) > 1e-9:
        raise ConfigError("class shares must sum to 1")
    exact = [share * count for share in shares]
    counts = [int(e) for e in exact]
    leftover = count - sum(counts)
    by_remainder = sorted(range(len(shares)),
                          key=lambda i: (-(exact[i] - counts[i]), i))
    for i in by_remainder[:leftover]:
        counts[i] += 1
    return counts


def population_columns(count: int = 158, num_ops: int = 2_000,
                       seed: int = 7) -> dict[str, np.ndarray]:
    """The Pond population as parallel numpy columns.

    All randomness comes from one CPython-faithful uniform stream
    (:class:`.mtrand.PyRandomStream`), drawn column-major: one bulk
    draw per attribute across the whole population. Tenant *i* of a
    1e6-row table therefore has exactly the attributes tenant *i* of a
    1e6-object :func:`generate_population` would have.

    Columns: ``klass`` (int8 index into :data:`BOUNDEDNESS_CLASSES`),
    ``memory_share``, ``working_set_pages``, ``theta``, ``read_ratio``,
    ``num_ops``, ``think_ns``, ``seed``.
    """
    if num_ops <= 0:
        raise ConfigError("num_ops must be positive")
    counts = class_counts(count)
    klass = np.repeat(np.arange(len(counts), dtype=np.int8),
                      np.asarray(counts, dtype=np.int64))

    stream = PyRandomStream(seed)
    u_share = stream.sample(count)
    u_ws = stream.sample(count)
    u_theta = stream.sample(count)
    u_rr = stream.sample(count)

    lo = np.array([lo for _n, _s, lo, _hi in BOUNDEDNESS_CLASSES])
    hi = np.array([hi for _n, _s, _lo, hi in BOUNDEDNESS_CLASSES])
    memory_share = lo[klass] + (hi[klass] - lo[klass]) * u_share

    working_set = np.array(WORKING_SET_CHOICES, dtype=np.int64)[
        (u_ws * len(WORKING_SET_CHOICES)).astype(np.int64)]
    theta = np.array(THETA_CHOICES, dtype=np.float64)[
        (u_theta * len(THETA_CHOICES)).astype(np.int64)]
    read_ratio = 0.5 + 0.5 * u_rr

    think_ns = np.full(count, LOCAL_DRAM_LOAD_NS * 10_000.0)
    np.divide(LOCAL_DRAM_LOAD_NS * (1.0 - memory_share), memory_share,
              out=think_ns, where=memory_share > 0)

    return {
        "klass": klass,
        "memory_share": memory_share,
        "working_set_pages": working_set,
        "theta": theta,
        "read_ratio": read_ratio,
        "num_ops": np.full(count, num_ops, dtype=np.int64),
        "think_ns": think_ns,
        "seed": _seed_base(seed, count) + np.arange(count, dtype=np.int64),
    }


def _seed_base(seed: int, count: int) -> int:
    """Tenant *i*'s seed is this plus *i*: ``seed * 1_000``, folded
    into ``[0, 2**63 - count)`` when the *count* seeds from there would
    not all fit an int64 (a 63-bit ``derive_seed`` output would not)."""
    base = int(seed) * 1_000
    if -2**63 <= base <= 2**63 - count:
        return base
    return base % (2**63 - count)


def generate_population(count: int = 158, num_ops: int = 2_000,
                        seed: int = 7) -> list[CloudWorkload]:
    """The synthetic 158-workload population of experiment E3.

    One ``CloudWorkload`` per row of :func:`population_columns` — the
    object-per-tenant view of the same columnar draws.
    """
    cols = population_columns(count, num_ops=num_ops, seed=seed)
    names = [name for name, _s, _lo, _hi in BOUNDEDNESS_CLASSES]
    return [
        CloudWorkload(
            name=f"wl-{index:03d}",
            klass=names[k],
            memory_share=m,
            working_set_pages=ws,
            theta=t,
            read_ratio=rr,
            num_ops=n,
            think_ns=think,
            seed=s,
        )
        for index, (k, m, ws, t, rr, n, think, s) in enumerate(zip(
            cols["klass"].tolist(),
            cols["memory_share"].tolist(),
            cols["working_set_pages"].tolist(),
            cols["theta"].tolist(),
            cols["read_ratio"].tolist(),
            cols["num_ops"].tolist(),
            cols["think_ns"].tolist(),
            cols["seed"].tolist(),
        ))
    ]
