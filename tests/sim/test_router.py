"""The rack router: pinned routes on the shipped rack shapes, and a
property against networkx's ``bidirectional_dijkstra``.

``shortest_path`` is a port of that function and keeps its tie-breaks
(one shared push counter, forward-first alternation, neighbours in
insertion order), so equal-latency routes resolve the same way and
every simulated digest stays as it was. networkx is a test-only
package: the property is skipped where it is not installed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.errors import TopologyError
from repro.sim.interconnect import Link
from repro.sim.memory import MemoryDevice
from repro.sim.topology import RackTopology, shortest_path

PORT = "cxl-gen5x16"


def _gim() -> RackTopology:
    rack = RackTopology.pooled(num_hosts=2)
    rack.add_gim_segment("host0", 8 * 1024 ** 3)
    rack.connect("host0-gim", "switch0")
    return rack


#: (shape, rack, source, target, route, link names of peer_path).
SHIPPED = [
    ("direct attach", RackTopology.local_expansion, "host0", "cxl0",
     ["host0", "cxl0"], [PORT]),
    ("one switch", lambda: RackTopology.pooled(num_hosts=4), "host0",
     "pool0", ["host0", "switch0", "pool0"],
     [PORT, "switch0-xbar", PORT]),
    ("cascaded switches", RackTopology.disaggregated, "host5", "gfam0",
     ["host5", "leaf1", "spine0", "gfam0"],
     [PORT, "leaf1-xbar", PORT, "spine0-xbar", PORT]),
    ("flat leaves", lambda: RackTopology.disaggregated(cascade=False),
     "host1", "gfam0", ["host1", "leaf1", "leaf0", "gfam0"],
     [PORT, "leaf1-xbar", PORT, "leaf0-xbar", PORT]),
    ("cross-rack", lambda: RackTopology.multi_rack(racks=3), "r0-host0",
     "r2-gfam", ["r0-host0", "r0-spine", "r2-spine", "r2-gfam"],
     [PORT, "r0-spine-xbar", "optical-r0-r2", "r2-spine-xbar", PORT]),
    ("GIM, peer", _gim, "host1", "host0-gim",
     ["host1", "switch0", "host0-gim"],
     [PORT, "switch0-xbar", "link-0"]),
    ("GIM, owner", _gim, "host0", "host0-gim", ["host0", "host0-gim"],
     ["host0-gim-local"]),
    ("pool to pool", RackTopology.disaggregated, "gfam0", "gfam1",
     ["gfam0", "spine0", "gfam1"], [PORT, "spine0-xbar", PORT]),
]


@pytest.mark.parametrize("shape, build, source, target, route, names",
                         SHIPPED, ids=[case[0] for case in SHIPPED])
def test_shipped_shape_routes(shape, build, source, target, route, names):
    rack = build()
    assert rack.route(source, target) == route
    assert [link.name for link in rack.peer_path(source, target).links] \
        == names


def test_reconnect_replaces_the_link_in_place():
    rack = RackTopology()
    for name in ("a", "b", "c"):
        rack.add_expander(name, MemoryDevice(config.cxl_expander_ddr5()))
    slow = config.LinkSpec(name="slow", latency_ns=50.0, raw_bandwidth=1.0)
    fast = config.LinkSpec(name="fast", latency_ns=5.0, raw_bandwidth=1.0)
    rack.connect("a", "c", Link(slow))
    rack.connect("a", "b", Link(fast))
    rack.connect("b", "c", Link(fast))
    assert rack.route("a", "c") == ["a", "b", "c"]
    rack.connect("a", "c", Link(fast))
    assert rack.route("a", "c") == ["a", "c"]
    assert [link.name for link in rack.peer_path("a", "c").links] == ["fast"]


def test_unknown_ends_and_islands_raise():
    adj = {"a": {}, "b": {}}
    with pytest.raises(TopologyError):
        shortest_path(adj, "a", "b", lambda link: 1.0)
    with pytest.raises(TopologyError):
        shortest_path(adj, "a", "ghost", lambda link: 1.0)
    assert shortest_path(adj, "a", "a", lambda link: 1.0) == ["a"]


# -- the property against networkx -------------------------------------------

#: Few distinct latencies, zero included, so equal-latency parallel
#: routes and zero-latency edges are common.
LATENCIES = [0.0, 10.0, 10.0, 10.0, 20.0]


@st.composite
def graphs(draw):
    """``(edges, n)``: edges in connect order. Nodes ``0..n-1`` are
    joined by a random spanning tree plus extra edges (a pair may come
    twice: a re-connect); nodes ``n..n+2`` form an island."""
    n = draw(st.integers(2, 8))
    latency = st.sampled_from(LATENCIES)
    edges = [(i, draw(st.integers(0, i - 1)), draw(latency))
             for i in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    extra = draw(st.lists(st.tuples(pair, latency), max_size=2 * n))
    edges += [(u, v, lat) for (u, v), lat in extra if u != v]
    u, v, _ = edges[draw(st.integers(0, len(edges) - 1))]
    edges.append((v, u, draw(latency)))
    edges += [(n, n + 1, 10.0), (n + 1, n + 2, 0.0)]
    return edges, n


def _build(edges, n):
    nx = pytest.importorskip("networkx")
    adj: dict = {str(i): {} for i in range(n + 3)}
    graph = nx.Graph()
    graph.add_nodes_from(adj)
    for k, (u, v, latency) in enumerate(edges):
        link = Link(config.LinkSpec(name=f"e{k}", latency_ns=latency,
                                    raw_bandwidth=1.0))
        adj[str(u)][str(v)] = adj[str(v)][str(u)] = link
        graph.add_edge(str(u), str(v), link=link)
    return nx, adj, graph


@settings(max_examples=300)
@given(graphs())
def test_router_matches_networkx_bidirectional_dijkstra(graph_case):
    edges, n = graph_case
    nx, adj, graph = _build(edges, n)
    weight = RackTopology._edge_latency
    for source in adj:
        for target in adj:
            try:
                _, want = nx.bidirectional_dijkstra(
                    graph, source, target,
                    weight=lambda u, v, d: weight(d["link"]))
            except nx.NetworkXNoPath:
                with pytest.raises(TopologyError):
                    shortest_path(adj, source, target, weight)
                continue
            assert shortest_path(adj, source, target, weight) == want, \
                (source, target)
