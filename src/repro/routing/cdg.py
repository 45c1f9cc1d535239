"""Full-system channel-dependency-graph construction and analysis.

Used by the test suite to verify the paper's framing end to end:

* composable routing's restricted system CDG is **acyclic** (deadlock
  avoidance holds globally, not only per chiplet);
* the unrestricted Sec. V-D routing (used by UPP, remote control and the
  unprotected baseline) has a **cyclic** CDG, and every cycle crosses an
  upward vertical channel — the paper's key theorem that an
  integration-induced deadlock always involves an upward packet.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.noc.flit import Port, UPWARD_PORTS
from repro.topology.chiplet import SystemTopology


#: (router id, output port): one entry of a route's channel sequence.
Channel = Tuple[int, Port]
#: ``{(src, dst): channels}`` over many pairs, as built by :func:`all_routes`.
Routes = Dict[Tuple[int, int], List[Channel]]


def healthy_links(topo: SystemTopology) -> Dict[Channel, Tuple[int, Port]]:
    """(src, src_port) -> (dst, dst_port) over healthy links."""
    result = {}
    for spec in topo.links:
        if (spec.src, spec.dst) not in topo.faulty:
            result[(spec.src, spec.src_port)] = (spec.dst, spec.dst_port)
    return result


class RoutingLoopError(RuntimeError):
    """A route walk did not terminate: the routing function either loops
    (hop bound exceeded) or steers into a port with no healthy link.

    Carries the partial channel trace so a misconfigured routing function
    produces an actionable diagnostic instead of an infinite loop.
    """

    def __init__(self, src: int, dst: int, reason: str, channels):
        self.src = src
        self.dst = dst
        self.reason = reason
        self.channels = list(channels)
        tail = ", ".join(
            f"({rid}, {port.name})" for rid, port in self.channels[-8:]
        )
        if len(self.channels) > 8:
            tail = "..., " + tail
        super().__init__(
            f"route {src} -> {dst} {reason} after {len(self.channels)} "
            f"channel(s); trace tail: [{tail}]"
        )


def route_channels(
    network, src: int, dst: int, max_hops: Optional[int] = None, links: Optional[dict] = None
) -> List[Channel]:
    """The (router, out_port) channel sequence of the route src -> dst.

    ``max_hops`` bounds the walk (default ``4 * n_routers``, generous for
    any minimal or up*/down* route); a route exceeding it, or one steered
    into a port with no healthy outgoing link, raises
    :class:`RoutingLoopError` with the partial trace.  ``links`` is a
    precomputed :func:`healthy_links` map, for callers walking many routes.
    """
    topo = network.topo
    links = healthy_links(topo) if links is None else links
    if max_hops is None:
        max_hops = 4 * topo.n_routers
    channels = []
    rid, in_port = src, Port.LOCAL
    while rid != dst:
        router = network.routers[rid]
        out = network.routing(router, in_port, dst, src)
        if out == Port.LOCAL:
            break
        channels.append((rid, out))
        hop = links.get((rid, out))
        if hop is None:
            raise RoutingLoopError(
                src, dst,
                f"entered {out.name} at router {rid}, which has no healthy link",
                channels,
            )
        rid, in_port = hop
        if len(channels) > max_hops:
            raise RoutingLoopError(
                src, dst, f"exceeded the {max_hops}-hop bound (routing loop)",
                channels,
            )
    return channels


def all_routes(network, nodes: Sequence[int]) -> Routes:
    """``{(src, dst): channels}`` for every ordered pair of distinct
    ``nodes``, src-major and dst-minor, walked over one link map."""
    links = healthy_links(network.topo)
    return {
        (src, dst): route_channels(network, src, dst, links=links)
        for src in nodes
        for dst in nodes
        if src != dst
    }


def build_system_cdg(
    network, nodes: Optional[List[int]] = None, routes: Optional[Routes] = None
) -> nx.DiGraph:
    """CDG over every routed (src, dst) pair among ``nodes`` (default: all
    NIs, chiplet and interposer alike), or over a precomputed
    :func:`all_routes` table.  Channels and dependencies are inserted in
    route-table order, which fixes ``nx.find_cycle``/``simple_cycles``."""
    if routes is None:
        routes = all_routes(network, range(network.topo.n_routers) if nodes is None else nodes)
    # re-adding a channel or dependency keeps its first insertion position,
    # so adding each once, in order of first appearance, builds the same graph
    graph = nx.DiGraph()
    graph.add_nodes_from(dict.fromkeys(c for chans in routes.values() for c in chans))
    graph.add_edges_from(
        dict.fromkeys(dep for chans in routes.values() for dep in zip(chans, chans[1:]))
    )
    return graph


def is_deadlock_free(network, nodes: Optional[List[int]] = None) -> bool:
    """True iff the routed channel-dependency graph is acyclic."""
    return nx.is_directed_acyclic_graph(build_system_cdg(network, nodes))


def cycles_all_contain_upward_channel(network, max_cycles: int = 2000) -> bool:
    """Verify the paper's Sec. IV theorem on this network's CDG: every
    dependency cycle includes at least one upward vertical channel."""
    graph = build_system_cdg(network)
    topo = network.topo
    checked = 0
    for cycle in nx.simple_cycles(graph):
        checked += 1
        has_upward = any(
            port in UPWARD_PORTS and topo.is_interposer(rid) for rid, port in cycle
        )
        if not has_upward:
            return False
        if checked >= max_cycles:
            break
    return checked > 0
