"""The all-pairs route walk behind every CDG analysis.

``witness_flows``, the certifier and the model checker's flow search all
start from the same src-major, dst-minor walk over every routed pair.
``nx.find_cycle`` and ``nx.simple_cycles`` depend on the order channels
and dependencies are inserted into the CDG, so these tests pin the exact
outputs (and the insertion order, via a digest) on the baseline system,
and check the shared link map and route table after a fault event.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.noc.config import NocConfig
from repro.noc.flit import Port
from repro.noc.network import Network
from repro.routing.cdg import (
    all_routes,
    build_system_cdg,
    healthy_links,
    route_channels,
)
from repro.schemes.composable import ComposableRoutingScheme
from repro.schemes.upp import UPPScheme
from repro.topology.chiplet import baseline_system
from repro.topology.faults import inject_faults
from repro.traffic.adversarial import witness_flows

BASELINE_WITNESS_FLOWS = [
    (24, 32), (16, 37), (32, 41), (32, 45), (40, 16), (26, 48), (16, 48),
    (16, 53), (48, 57), (48, 61), (56, 16), (48, 16), (32, 21), (16, 25),
    (16, 29),
]

UPP_FIRST_CYCLE = [
    ((4, Port.SOUTH), (0, Port.UP)),
    ((0, Port.UP), (17, Port.NORTH)),
    ((17, Port.NORTH), (21, Port.NORTH)),
    ((21, Port.NORTH), (25, Port.NORTH)),
    ((25, Port.NORTH), (29, Port.DOWN)),
    ((29, Port.DOWN), (4, Port.SOUTH)),
]


def _order_digest(graph: nx.DiGraph) -> str:
    """Digest of the node and edge insertion order of a CDG."""
    text = repr([(rid, port.name) for rid, port in graph.nodes]) + repr(
        [((a[0], a[1].name), (b[0], b[1].name)) for a, b in graph.edges]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_witness_flows_golden():
    net = Network(
        baseline_system(), NocConfig(vcs_per_vnet=1, seed=2022), UPPScheme()
    )
    assert witness_flows(net) == BASELINE_WITNESS_FLOWS


IMPORT_GUARD = """
import json, sys
import repro, repro.__main__, repro.service.app
loaded_at_startup = "networkx" in sys.modules
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.schemes.upp import UPPScheme
from repro.topology.chiplet import baseline_system
from repro.traffic.adversarial import witness_flows
net = Network(baseline_system(), NocConfig(vcs_per_vnet=1, seed=2022), UPPScheme())
print(json.dumps([loaded_at_startup, witness_flows(net)]))
"""


def test_startup_does_not_import_networkx():
    """The CLI and the service load networkx only when a routing
    analysis runs, and the lazily imported analysis still yields the
    pinned witness flows."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    loaded_at_startup, flows = json.loads(out)
    assert not loaded_at_startup
    assert [tuple(flow) for flow in flows] == BASELINE_WITNESS_FLOWS


@pytest.mark.parametrize(
    "scheme, n_nodes, n_edges, first_cycle, digest",
    [
        (UPPScheme, 272, 500, UPP_FIRST_CYCLE, "920676af35ae5293"),
        (ComposableRoutingScheme, 272, 484, None, "676de738513631ff"),
    ],
)
def test_system_cdg_golden(scheme, n_nodes, n_edges, first_cycle, digest):
    graph = build_system_cdg(Network(baseline_system(), NocConfig(), scheme()))
    assert graph.number_of_nodes() == n_nodes
    assert graph.number_of_edges() == n_edges
    if first_cycle is None:
        with pytest.raises(nx.NetworkXNoCycle):
            nx.find_cycle(graph)
    else:
        assert nx.find_cycle(graph) == first_cycle
    assert _order_digest(graph) == digest


@pytest.mark.parametrize("scheme", [UPPScheme, ComposableRoutingScheme])
def test_system_cdg_matches_per_hop_reference(scheme):
    """The CDG equals one built by adding every route's dependencies and
    channels hop by hop, down to node, successor and predecessor order."""
    net = Network(baseline_system(), NocConfig(), scheme())
    routes = all_routes(net, net.topo.chiplet_nodes)
    reference = nx.DiGraph()
    for channels in routes.values():
        for a, b in zip(channels, channels[1:]):
            reference.add_edge(a, b)
        for c in channels:
            reference.add_node(c)
    graph = build_system_cdg(net, routes=routes)
    assert list(graph.nodes) == list(reference.nodes)
    for channel in reference.nodes:
        assert list(graph.successors(channel)) == list(reference.successors(channel))
        assert list(graph.predecessors(channel)) == list(reference.predecessors(channel))


class TestFaultReplay:
    """After ``reconfigure_routing`` the shared route table and the CDG are
    rebuilt over the healthy links only."""

    @pytest.fixture(scope="class")
    def replayed(self):
        net = Network(baseline_system(), NocConfig(), UPPScheme())
        nodes = list(range(net.topo.n_routers))
        every_link = healthy_links(net.topo)
        before = all_routes(net, nodes)
        probe = baseline_system()
        inject_faults(probe, 2, random.Random(2022))
        net.reconfigure_routing(probe.faulty)
        return net, nodes, every_link, before

    @staticmethod
    def _faulty_channels(channels, every_link, topo):
        return [
            (rid, port) for rid, port in channels
            if (rid, every_link[(rid, port)][0]) in topo.faulty
        ]

    def test_fault_event_hits_routed_links(self, replayed):
        net, _nodes, every_link, before = replayed
        assert len(net.topo.faulty) == 4
        used = [c for chans in before.values() for c in chans]
        assert self._faulty_channels(used, every_link, net.topo)

    def test_healthy_links_exclude_faulty_pairs(self, replayed):
        net, _nodes, every_link, _before = replayed
        links = healthy_links(net.topo)
        assert len(links) == len(every_link) - len(net.topo.faulty)
        assert all((src, dst) not in net.topo.faulty
                   for (src, _), (dst, _) in links.items())

    def test_route_table_and_cdg_avoid_faulty_links(self, replayed):
        net, nodes, every_link, _before = replayed
        routes = all_routes(net, nodes)
        used = [c for chans in routes.values() for c in chans]
        assert not self._faulty_channels(used, every_link, net.topo)
        graph = build_system_cdg(net)
        assert not self._faulty_channels(graph.nodes, every_link, net.topo)
        assert list(graph.nodes) == list(build_system_cdg(net, routes=routes).nodes)

    def test_shared_link_map_matches_per_route_walk(self, replayed):
        net, nodes, _every_link, _before = replayed
        links = healthy_links(net.topo)
        for src in nodes:
            for dst in nodes:
                if src != dst:
                    assert route_channels(net, src, dst, links=links) == (
                        route_channels(net, src, dst)
                    )
