"""Adversarial deadlock-provoking workloads.

The integration-induced deadlocks of Figs. 1/3 need a precise coincidence:
every channel on a CDG cycle simultaneously held by a worm whose next
channel is also on the cycle.  Under benign synthetic traffic this is rare
(the paper's Fig. 12 sees zero upward packets on most benchmarks), so for
demonstrations and tests we synthesise the coincidence deliberately:

1. build the system CDG and find a dependency cycle;
2. for every edge of the cycle, find a witness (src, dst) flow whose route
   uses those two channels consecutively;
3. saturate all witness flows with back-to-back data packets on one VNet.

With 1 VC per VNet the witnesses wedge into the cycle within a few
thousand cycles, which :func:`repro.metrics.deadlock.deadlocked_packets`
then certifies as a true knot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.noc.ni import Endpoint
from repro.routing.cdg import all_routes, build_system_cdg
from repro.traffic.synthetic import DATA_VNET


def witness_flows(network, nodes: Optional[List[int]] = None) -> List[Tuple[int, int]]:
    """One (src, dst) flow per CDG-cycle edge, deduplicated.

    Raises ``ValueError`` when the network's routing has an acyclic CDG
    (composable routing) — no adversarial workload can deadlock it.
    """
    import networkx as nx

    if nodes is None:
        nodes = network.topo.chiplet_nodes
    routes = all_routes(network, nodes)
    graph = build_system_cdg(network, routes=routes)
    try:
        cycle = nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        raise ValueError("routing CDG is acyclic; no deadlock is constructible")
    wanted = {(u, v) for u, v in cycle}
    edge_witness: Dict[Tuple, Tuple[int, int]] = {}
    for flow, channels in routes.items():
        for edge in zip(channels, channels[1:]):
            if edge in wanted:
                edge_witness.setdefault(edge, flow)
        if len(edge_witness) == len(wanted):
            break
    # every CDG edge comes from a route in the table, so each has a witness
    return list(dict.fromkeys(edge_witness[(u, v)] for u, v in cycle))


class SaturatingEndpoint(Endpoint):
    """Sends back-to-back data packets along fixed flows from this node."""

    def __init__(self, dsts: Sequence[int], data_size: int, vnet: int = DATA_VNET):
        self.dsts = list(dsts)
        self.data_size = data_size
        self.vnet = vnet
        self.enabled = True
        self.generated = 0
        self._next = 0

    def step(self, cycle: int) -> None:
        """Keep every flow's injection queue as full as the NI allows."""
        if not self.enabled:
            return
        for _ in range(len(self.dsts)):
            dst = self.dsts[self._next]
            self._next = (self._next + 1) % len(self.dsts)
            if self.ni.send_message(dst, self.vnet, self.data_size, cycle) is None:
                return
            self.generated += 1


def install_adversarial_traffic(network, flows: Sequence[Tuple[int, int]]):
    """Attach saturating endpoints for the witness flows; every other node
    gets an ideal sink."""
    by_src: Dict[int, List[int]] = {}
    for src, dst in flows:
        by_src.setdefault(src, []).append(dst)
    endpoints = []
    for node, ni in network.nis.items():
        if node in by_src:
            endpoint = SaturatingEndpoint(by_src[node], network.cfg.data_packet_size)
        else:
            endpoint = Endpoint()
        ni.set_endpoint(endpoint)
        endpoints.append(endpoint)
    return endpoints
