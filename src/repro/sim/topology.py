"""Rack-level topology: hosts, CXL switches, pooled memory devices.

This is the substrate for the three architectures of Fig 2:

* (a) local expansion — an expander connected directly to a host port;
* (b) memory pooling — expanders behind a CXL switch, carved into
  slices that several hosts map simultaneously;
* (c) full-rack disaggregation — cascaded switches and GFAM devices
  shared by every host, making "the rack a single shared-memory
  machine" (Sec 3.3).

The topology is a graph whose edges carry :class:`~repro.sim.interconnect.Link`
objects; access paths are shortest latency paths (:func:`shortest_path`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable

from .. import config
from ..errors import TopologyError
from .interconnect import AccessPath, Link
from .memory import MemoryDevice


def shortest_path(adj: dict[str, dict[str, Link]], source: str, target: str,
                  weight: Callable[[Link], float]) -> list[str]:
    """Minimum-weight node path from ``source`` to ``target`` in ``adj``.

    A port of networkx's ``bidirectional_dijkstra`` (what
    ``shortest_path(G, s, t, weight=...)`` runs on an undirected graph)
    that keeps its tie-breaks: one push counter shared by both fringes,
    directions alternating forward-first, neighbours in insertion
    order. Weights are non-negative, so its negative-weight check never
    fires and is left out. Raises :class:`TopologyError` when either
    end is unknown or no route joins them.
    """
    for node in (source, target):
        if node not in adj:
            raise TopologyError(f"unknown component {node!r}")
    if source == target:
        return [source]
    dists: list[dict] = [{}, {}]              # settled distances
    seen: list[dict] = [{source: 0}, {target: 0}]
    preds: list[dict] = [{source: None}, {target: None}]
    fringe: list[list] = [[], []]
    push = itertools.count()
    heappush(fringe[0], (0, next(push), source))
    heappush(fringe[1], (0, next(push), target))
    best, meet, direction = None, None, 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        if v in dists[direction]:
            continue
        dists[direction][v] = dist
        if v in dists[1 - direction]:
            path, node = [], meet
            while node is not None:
                path.append(node)
                node = preds[0][node]
            path.reverse()
            node = preds[1][meet]
            while node is not None:
                path.append(node)
                node = preds[1][node]
            return path
        for w, link in adj[v].items():
            length = dist + weight(link)
            if w not in dists[direction] and (
                    w not in seen[direction] or length < seen[direction][w]):
                seen[direction][w] = length
                heappush(fringe[direction], (length, next(push), w))
                preds[direction][w] = v
                if w in seen[1 - direction]:
                    total = length + seen[1 - direction][w]
                    if best is None or best > total:
                        best, meet = total, w
    raise TopologyError(f"no route from {source!r} to {target!r}")


@dataclass
class Host:
    """A compute host with cores and local DRAM."""

    name: str
    cores: int
    dram: MemoryDevice

    def __repr__(self) -> str:
        return f"Host({self.name!r}, cores={self.cores})"


@dataclass
class CXLSwitch:
    """A CXL 2.0/3.x switch with a bounded port count."""

    name: str
    ports: int = 32
    used_ports: int = field(default=0, init=False)

    def claim_port(self) -> None:
        """Reserve one port; raises when the switch is full."""
        if self.used_ports >= self.ports:
            raise TopologyError(f"switch {self.name} has no free ports")
        self.used_ports += 1

    def __repr__(self) -> str:
        return f"CXLSwitch({self.name!r}, {self.used_ports}/{self.ports})"


@dataclass
class MemoryPoolDevice:
    """A large pooled expander (or GFAM device) living in the rack."""

    name: str
    memory: MemoryDevice
    gfam: bool = False  # True: Global Fabric-Attached Memory (CXL 3.x)

    def __repr__(self) -> str:
        flavor = "GFAM" if self.gfam else "pool"
        return f"MemoryPoolDevice({self.name!r}, {flavor})"


class RackTopology:
    """A rack of hosts, switches, and memory devices joined by links."""

    def __init__(self, name: str = "rack") -> None:
        self.name = name
        # name -> {neighbour: Link}; both dicts keep insertion order,
        # which is the router's tie-break.
        self._adj: dict[str, dict[str, Link]] = {}
        self._hosts: dict[str, Host] = {}
        self._switches: dict[str, CXLSwitch] = {}
        self._pools: dict[str, MemoryPoolDevice] = {}
        self._expanders: dict[str, MemoryDevice] = {}
        self._switch_hops: dict[str, Link] = {}
        self._counter = itertools.count()

    # -- construction ---------------------------------------------------------

    def add_host(self, name: str, cores: int = 32,
                 dram: MemoryDevice | None = None) -> Host:
        """Add a compute host (its DRAM is reachable with zero hops)."""
        self._check_fresh(name)
        if dram is None:
            dram = MemoryDevice(config.local_ddr5(), name=f"{name}-dram")
        host = Host(name=name, cores=cores, dram=dram)
        self._hosts[name] = host
        self._adj[name] = {}
        return host

    def add_switch(self, name: str, ports: int = 32) -> CXLSwitch:
        """Add a CXL switch."""
        self._check_fresh(name)
        switch = CXLSwitch(name=name, ports=ports)
        self._switches[name] = switch
        self._adj[name] = {}
        return switch

    def add_expander(self, name: str, device: MemoryDevice) -> MemoryDevice:
        """Add a plain (host-attachable) memory expander."""
        self._check_fresh(name)
        self._expanders[name] = device
        self._adj[name] = {}
        return device

    def add_pool(self, name: str, device: MemoryDevice,
                 gfam: bool = False) -> MemoryPoolDevice:
        """Add a pooled expander / GFAM device."""
        self._check_fresh(name)
        pool = MemoryPoolDevice(name=name, memory=device, gfam=gfam)
        self._pools[name] = pool
        self._adj[name] = {}
        return pool

    def add_gim_segment(self, host_name: str, size_bytes: int,
                        name: str | None = None) -> MemoryDevice:
        """Expose a slice of a host's own DRAM to the fabric.

        CXL 3.x *Global Integrated Memory* (GIM, Sec 3.3 ref [8]):
        instead of dedicated pool hardware, hosts contribute segments
        of their local DRAM to the rack-wide shared map. The segment
        appears as an addressable component connected to its owner
        (the owner reaches it at local speed; peers pay the fabric).
        """
        host = self.host(host_name)
        if size_bytes <= 0 or size_bytes > host.dram.capacity_bytes:
            raise TopologyError(
                f"GIM segment must fit {host_name}'s DRAM"
            )
        seg_name = name or f"{host_name}-gim"
        self._check_fresh(seg_name)
        spec = host.dram.spec.with_capacity(size_bytes)
        segment = MemoryDevice(spec, name=seg_name)
        self._expanders[seg_name] = segment
        self._adj[seg_name] = {}
        # Zero-latency edge to the owner: it IS the owner's DRAM.
        self.connect(host_name, seg_name, Link(config.LinkSpec(
            name=f"{seg_name}-local", latency_ns=0.0,
            raw_bandwidth=host.dram.spec.peak_bandwidth,
        )))
        return segment

    def connect(self, a: str, b: str,
                link: Link | None = None) -> Link:
        """Join two components with a link (default: a CXL Gen5 port)."""
        for endpoint in (a, b):
            if endpoint not in self._adj:
                raise TopologyError(f"unknown component {endpoint!r}")
            if endpoint in self._switches:
                self._switches[endpoint].claim_port()
        if link is None:
            link = Link(config.cxl_port(), name=f"link-{next(self._counter)}")
        # A re-connect replaces the link in place, keeping its position.
        self._adj[a][b] = self._adj[b][a] = link
        return link

    def _check_fresh(self, name: str) -> None:
        if name in self._adj:
            raise TopologyError(f"duplicate component name {name!r}")

    # -- lookup ----------------------------------------------------------------

    @property
    def hosts(self) -> list[Host]:
        """All hosts, in insertion order."""
        return list(self._hosts.values())

    @property
    def pools(self) -> list[MemoryPoolDevice]:
        """All pooled devices, in insertion order."""
        return list(self._pools.values())

    @property
    def switches(self) -> list[CXLSwitch]:
        """All switches, in insertion order."""
        return list(self._switches.values())

    def host(self, name: str) -> Host:
        """Look a host up by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise TopologyError(f"no host {name!r}") from None

    def device_of(self, name: str) -> MemoryDevice:
        """The memory device backing a named component."""
        if name in self._hosts:
            return self._hosts[name].dram
        if name in self._pools:
            return self._pools[name].memory
        if name in self._expanders:
            return self._expanders[name]
        raise TopologyError(f"component {name!r} has no memory device")

    # -- routing ---------------------------------------------------------------

    def path(self, host_name: str, target_name: str) -> AccessPath:
        """Access path from a host's cores to a component's memory.

        A host reaching its own DRAM takes zero hops; anything else
        follows the minimum-latency route through the link graph.
        """
        if host_name not in self._hosts:
            raise TopologyError(f"no host {host_name!r}")
        return self.peer_path(host_name, target_name)

    def _switch_hop(self, switch_name: str) -> Link:
        """The (cached) latency hop charged per traversal of a switch."""
        if switch_name not in self._switch_hops:
            self._switch_hops[switch_name] = Link(
                config.cxl_switch_hop(), name=f"{switch_name}-xbar"
            )
        return self._switch_hops[switch_name]

    def peer_path(self, source_name: str, target_name: str) -> AccessPath:
        """Component-to-component path, no host required in the loop.

        CXL 3.x allows peer-to-peer exchanges among devices (Sec 2.3)
        — e.g. an accelerator draining a pooled expander, or "a path
        between different server components" (Sec 2.5) — something
        RDMA cannot express. Edge links contribute bandwidth; each
        *switch traversal* adds its store-and-forward latency as an
        extra hop.
        """
        if source_name not in self._adj:
            raise TopologyError(f"unknown component {source_name!r}")
        device = self.device_of(target_name)
        if source_name == target_name:
            return AccessPath(device=device)
        node_path = self.route(source_name, target_name)
        links: list[Link] = []
        for u, v in zip(node_path, node_path[1:]):
            links.append(self._adj[u][v])
            if v in self._switches:
                links.append(self._switch_hop(v))
        return AccessPath(device=device, links=tuple(links))

    def route(self, source_name: str, target_name: str) -> list[str]:
        """Component names along the minimum-latency route, both ends
        included."""
        return shortest_path(self._adj, source_name, target_name,
                             self._edge_latency)

    def hop_count(self, host_name: str, target_name: str) -> int:
        """Number of links between a host and a component."""
        return self.path(host_name, target_name).hop_count

    @staticmethod
    def _edge_latency(link: Link) -> float:
        return link.latency_ns + 1e-6  # tiny bias keeps hop counts minimal

    # -- convenience builders -----------------------------------------------------

    @classmethod
    def local_expansion(cls, expander_spec=None) -> "RackTopology":
        """Fig 2(a): one host with a direct-attached expander."""
        rack = cls(name="local-expansion")
        rack.add_host("host0")
        spec = expander_spec or config.cxl_expander_ddr5()
        rack.add_expander("cxl0", MemoryDevice(spec))
        rack.connect("host0", "cxl0", Link(config.cxl_port()))
        return rack

    @classmethod
    def pooled(cls, num_hosts: int = 4, pool_capacity: int | None = None,
               switch_ports: int = 32) -> "RackTopology":
        """Fig 2(b): hosts sharing a pooled expander through one switch."""
        if num_hosts <= 0:
            raise TopologyError("need at least one host")
        rack = cls(name="far-memory-pooling")
        rack.add_switch("switch0", ports=switch_ports)
        spec = config.cxl_expander_ddr5(
            capacity_bytes=pool_capacity or config.cxl_expander_ddr5().capacity_bytes
        )
        rack.add_pool("pool0", MemoryDevice(spec))
        rack.connect("switch0", "pool0", Link(config.cxl_port()))
        for i in range(num_hosts):
            rack.add_host(f"host{i}")
            rack.connect(f"host{i}", "switch0", Link(config.cxl_port()))
        return rack

    @classmethod
    def multi_rack(cls, racks: int = 2, hosts_per_rack: int = 4,
                   inter_rack_latency_ns: float = 150.0
                   ) -> "RackTopology":
        """A small number of racks joined by CXL fabric links.

        Sec 3.3: "Figure 2(c) depicts this scenario within one rack,
        but we believe the same features could also support spanning
        a small number of racks." Each rack has a spine switch and a
        GFAM device; spines connect pairwise with longer optical links
        (e.g. PhotoWave-style, ref [45]). Cross-rack accesses pay the
        extra hop but stay far below RDMA latency.
        """
        if racks < 1:
            raise TopologyError("need at least one rack")
        topo = cls(name=f"{racks}-rack-fabric")
        gen16 = config.cxl_port(lanes=16)
        for r in range(racks):
            topo.add_switch(f"r{r}-spine")
            device = MemoryDevice(
                config.cxl_expander_ddr5(capacity_bytes=1024 * 1024 ** 3),
                name=f"r{r}-gfam",
            )
            topo.add_pool(f"r{r}-gfam", device, gfam=True)
            topo.connect(f"r{r}-gfam", f"r{r}-spine", Link(gen16))
            for h in range(hosts_per_rack):
                topo.add_host(f"r{r}-host{h}")
                topo.connect(f"r{r}-host{h}", f"r{r}-spine",
                             Link(gen16))
        for a in range(racks):
            for b in range(a + 1, racks):
                optical = config.LinkSpec(
                    name=f"optical-r{a}-r{b}",
                    latency_ns=inter_rack_latency_ns,
                    raw_bandwidth=gen16.raw_bandwidth,
                )
                topo.connect(f"r{a}-spine", f"r{b}-spine",
                             Link(optical))
        return topo

    @classmethod
    def disaggregated(cls, num_hosts: int = 8, num_pools: int = 2,
                      cascade: bool = True) -> "RackTopology":
        """Fig 2(c): full-rack disaggregation with cascaded switches and
        GFAM devices every host can map."""
        rack = cls(name="full-rack-disaggregation")
        rack.add_switch("leaf0")
        rack.add_switch("leaf1")
        gen16 = config.cxl_port(lanes=16)
        if cascade:
            rack.add_switch("spine0")
            rack.connect("leaf0", "spine0", Link(gen16))
            rack.connect("leaf1", "spine0", Link(gen16))
        else:
            rack.connect("leaf0", "leaf1", Link(gen16))
        for i in range(num_hosts):
            leaf = f"leaf{i % 2}"
            rack.add_host(f"host{i}")
            rack.connect(f"host{i}", leaf, Link(config.cxl_port()))
        attach = "spine0" if cascade else "leaf0"
        for j in range(num_pools):
            device = MemoryDevice(
                config.cxl_expander_ddr5(capacity_bytes=1024 * 1024 ** 3),
                name=f"gfam{j}",
            )
            rack.add_pool(f"gfam{j}", device, gfam=True)
            rack.connect(f"gfam{j}", attach, Link(config.cxl_port()))
        return rack
