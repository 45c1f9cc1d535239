"""Static deadlock-freedom certification of a configured system.

The paper's central theorem (Sec. IV) — every integration-induced
deadlock cycle crosses an upward vertical channel — is a property of the
*channel-dependency graph* of a concrete topology x routing x fault
configuration, so it can be proved (or refuted) before a single cycle is
simulated.  This module turns the test-only CDG machinery of
``repro.routing.cdg`` into a first-class certifier:

* **CDG analysis** — build the full-system CDG, run SCC/cycle detection,
  and classify the cyclic structure.  "Every cycle crosses an upward
  channel" is decided exactly and cheaply: delete the upward channels
  from the graph and check the residual graph is acyclic (a cycle avoiding
  every upward channel survives the deletion; conversely any surviving
  cycle avoids them all).  No cycle enumeration is needed for the proof —
  ``nx.simple_cycles`` is only used to extract a bounded set of witnesses
  for reporting.
* **Routing totality** — every src -> dst pair is walked through the
  actual routing function with a hop bound: the route must terminate at
  the destination, every hop must leave through a healthy link, the
  downstream input port must match the link's declared port (in-port
  consistency), and no (router, out_port) channel may repeat within one
  route (channel reuse is a livelock).
* **Scheme expectations** — each :class:`~repro.schemes.base.DeadlockScheme`
  declares its ``cdg_expectation``: composable routing promises an
  *acyclic* restricted CDG; the unrestricted Sec. V-D routing used by UPP,
  remote control and the unprotected baseline promises that any cycles are
  *upward-only* (the precondition of UPP's recovery theorem).
* **Re-certification** — :func:`recertify_after_faults` replays a fault
  event through ``Network.reconfigure_routing`` and certifies the rebuilt
  routing, so runtime reconfiguration carries the same static guarantee
  as the design-time configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.noc.flit import OPPOSITE, Port, UPWARD_PORTS
from repro.routing.cdg import Channel, Routes, build_system_cdg, healthy_links

if TYPE_CHECKING:
    import networkx as nx

#: scheme expectation values (see ``DeadlockScheme.cdg_expectation``).
EXPECT_ACYCLIC = "acyclic"
EXPECT_UPWARD_CYCLES = "upward_cycles"

#: certificate verdict strings.
VERDICT_ACYCLIC = "acyclic"
VERDICT_UPWARD_ONLY = "cyclic-upward-only"
VERDICT_NON_UPWARD = "cyclic-non-upward"
VERDICT_UNSOUND = "routing-unsound"


@dataclass
class RouteViolation:
    """One defect found while walking a route."""

    src: int
    dst: int
    kind: str  # "loop" | "dead-end" | "misroute" | "in-port" | "channel-reuse"
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.src} -> {self.dst}: {self.detail}"


@dataclass
class TotalityReport:
    """Outcome of the routing-function totality check."""

    routes_checked: int = 0
    max_route_hops: int = 0
    violations: List[RouteViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every checked route is terminating and consistent."""
        return not self.violations


@dataclass
class Certificate:
    """The static analysis result for one configured network."""

    scheme: str
    expectation: str
    n_routers: int
    n_faulty_links: int
    n_channels: int
    n_dependencies: int
    cyclic: bool
    #: strongly connected components with more than one channel (each is a
    #: knot of mutually dependent channels; 0 iff the CDG is acyclic).
    n_cyclic_sccs: int
    #: size of the largest cyclic SCC (how entangled the worst knot is).
    largest_scc: int
    #: the Sec. IV theorem on this configuration: True iff deleting the
    #: upward vertical channels makes the CDG acyclic (vacuous if acyclic).
    all_cycles_upward: bool
    #: a bounded sample of dependency cycles, for reporting only.
    witness_cycles: List[List[Channel]]
    #: a cycle avoiding every upward channel, when one exists (refutes the
    #: theorem / indicates a mis-restricted routing function).
    non_upward_witness: Optional[List[Channel]]
    totality: TotalityReport

    @property
    def verdict(self) -> str:
        """Classification string, independent of the scheme expectation."""
        if not self.totality.ok:
            return VERDICT_UNSOUND
        if not self.cyclic:
            return VERDICT_ACYCLIC
        return VERDICT_UPWARD_ONLY if self.all_cycles_upward else VERDICT_NON_UPWARD

    @property
    def ok(self) -> bool:
        """True when the analysis matches the scheme's declared expectation.

        ``acyclic`` schemes (composable routing) must produce an acyclic
        CDG; ``upward_cycles`` schemes accept an acyclic CDG too (a
        degenerate topology may simply have no cycles) but any cycle
        present must cross an upward channel — otherwise the scheme's
        deadlock-freedom argument does not apply to this configuration.
        """
        if not self.totality.ok:
            return False
        if self.expectation == EXPECT_ACYCLIC:
            return not self.cyclic
        return self.all_cycles_upward

    def summary(self) -> str:
        """One human-readable line."""
        return (
            f"{self.scheme}: {self.verdict} "
            f"({self.n_dependencies} deps over {self.n_channels} channels, "
            f"{self.n_cyclic_sccs} cyclic SCC(s), "
            f"{self.totality.routes_checked} routes walked"
            f"{'' if self.totality.ok else f', {len(self.totality.violations)} route defects'}"
            f") -> {'OK' if self.ok else 'FAIL'}"
        )

    def to_dict(self, max_violations: int = 20) -> dict:
        """JSON-able report entry (for ``repro check --json``)."""

        def chain(cycle):
            return [[rid, port.name] for rid, port in cycle]

        return {
            "scheme": self.scheme,
            "expectation": self.expectation,
            "verdict": self.verdict,
            "ok": self.ok,
            "n_routers": self.n_routers,
            "n_faulty_links": self.n_faulty_links,
            "n_channels": self.n_channels,
            "n_dependencies": self.n_dependencies,
            "cyclic": self.cyclic,
            "n_cyclic_sccs": self.n_cyclic_sccs,
            "largest_scc": self.largest_scc,
            "all_cycles_upward": self.all_cycles_upward,
            "witness_cycles": [chain(c) for c in self.witness_cycles],
            "non_upward_witness": (
                chain(self.non_upward_witness)
                if self.non_upward_witness is not None
                else None
            ),
            "totality": {
                "ok": self.totality.ok,
                "routes_checked": self.totality.routes_checked,
                "max_route_hops": self.totality.max_route_hops,
                "n_violations": len(self.totality.violations),
                "violations": [
                    str(v) for v in self.totality.violations[:max_violations]
                ],
            },
        }


# --------------------------------------------------------------------- #
# routing totality


def check_routing_totality(
    network, nodes: Optional[List[int]] = None, max_hops: Optional[int] = None,
    routes: Optional[Routes] = None,
) -> TotalityReport:
    """Walk every src -> dst route through the live routing function.

    Checks, per route: termination at the destination within ``max_hops``
    (default ``4 * n_routers``), every hop leaving through a healthy link,
    in-port consistency (the port a flit arrives on matches the link's
    declared destination port via :data:`~repro.noc.flit.OPPOSITE`), and
    no repeated (router, out_port) channel within the route.  ``routes``,
    when given, receives each sound route's channels (an
    :func:`~repro.routing.cdg.all_routes` table for the CDG).
    """
    topo = network.topo
    if nodes is None:
        nodes = list(range(topo.n_routers))
    if max_hops is None:
        max_hops = 4 * topo.n_routers
    links = healthy_links(topo)
    report = TotalityReport()
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            report.routes_checked += 1
            channels, violation = _walk_route(network, links, src, dst, max_hops)
            if violation is not None:
                report.violations.append(violation)
                continue
            report.max_route_hops = max(report.max_route_hops, len(channels))
            if routes is not None:
                routes[(src, dst)] = channels
    return report


def _walk_route(
    network, links, src: int, dst: int, max_hops: int
) -> Tuple[List[Channel], Optional[RouteViolation]]:
    rid, in_port = src, Port.LOCAL
    channels: List[Channel] = []
    while rid != dst:
        router = network.routers[rid]
        out = network.routing(router, in_port, dst, src)
        if out == Port.LOCAL:
            return channels, RouteViolation(
                src, dst, "misroute",
                f"routed to LOCAL at router {rid} before reaching {dst}",
            )
        channel = (rid, out)
        if channel in channels:
            return channels, RouteViolation(
                src, dst, "channel-reuse",
                f"channel ({rid}, {out.name}) used twice (livelock loop)",
            )
        channels.append(channel)
        hop = links.get(channel)
        if hop is None:
            return channels, RouteViolation(
                src, dst, "dead-end",
                f"router {rid} has no healthy link out of {out.name}",
            )
        next_rid, next_in = hop
        if next_in != OPPOSITE.get(out, next_in) and out not in (
            Port.UP, Port.UP2, Port.DOWN, Port.DOWN2
        ):
            return channels, RouteViolation(
                src, dst, "in-port",
                f"link {rid}:{out.name} delivers into {next_rid}:{next_in.name}, "
                f"expected {OPPOSITE[out].name}",
            )
        rid, in_port = next_rid, next_in
        if len(channels) > max_hops:
            return channels, RouteViolation(
                src, dst, "loop",
                f"exceeded the {max_hops}-hop bound without reaching {dst}",
            )
    return channels, None


# --------------------------------------------------------------------- #
# CDG classification


def _upward_channels(graph: nx.DiGraph, topo) -> List[Channel]:
    return [
        (rid, port)
        for rid, port in graph.nodes
        if port in UPWARD_PORTS and topo.is_interposer(rid)
    ]


def _witness_cycles(graph: nx.DiGraph, limit: int) -> List[List[Channel]]:
    import networkx as nx

    witnesses = []
    for cycle in nx.simple_cycles(graph):
        witnesses.append(list(cycle))
        if len(witnesses) >= limit:
            break
    return witnesses


def certify_network(network, max_witnesses: int = 5) -> Certificate:
    """Statically certify one live network's configuration.

    Builds the full-system CDG over every NI pair, analyses its cyclic
    structure, proves/refutes the upward-crossing property, walks every
    route for totality, and scores the result against the scheme's
    declared ``cdg_expectation``.
    """
    import networkx as nx

    topo = network.topo
    scheme = network.scheme
    expectation = getattr(scheme, "cdg_expectation", EXPECT_UPWARD_CYCLES)

    routes: Routes = {}
    totality = check_routing_totality(network, routes=routes)
    if totality.ok:
        graph = build_system_cdg(network, routes=routes)
    else:
        # the CDG walk would hit the same defects; build over the healthy
        # routes only so the report still carries structural information
        graph = nx.DiGraph()

    sccs = [c for c in nx.strongly_connected_components(graph) if len(c) > 1]
    cyclic = bool(sccs) or any(graph.has_edge(n, n) for n in graph.nodes)

    all_upward = True
    non_upward_witness = None
    if cyclic:
        residual = graph.copy()
        residual.remove_nodes_from(_upward_channels(graph, topo))
        if not nx.is_directed_acyclic_graph(residual):
            all_upward = False
            non_upward_witness = _witness_cycles(residual, 1)[0]

    witnesses = _witness_cycles(graph, max_witnesses) if cyclic else []

    return Certificate(
        scheme=scheme.name,
        expectation=expectation,
        n_routers=topo.n_routers,
        n_faulty_links=len(topo.faulty),
        n_channels=graph.number_of_nodes(),
        n_dependencies=graph.number_of_edges(),
        cyclic=cyclic,
        n_cyclic_sccs=len(sccs),
        largest_scc=max((len(c) for c in sccs), default=0),
        all_cycles_upward=all_upward,
        witness_cycles=witnesses,
        non_upward_witness=non_upward_witness,
        totality=totality,
    )


def certify(topo, cfg, scheme, max_witnesses: int = 5) -> Certificate:
    """Build a network for ``topo`` x ``cfg`` x ``scheme`` and certify it."""
    from repro.noc.network import Network

    return certify_network(Network(topo, cfg, scheme), max_witnesses=max_witnesses)


def recertify_after_faults(network, fault_pairs) -> Certificate:
    """Replay a fault event and certify the reconfigured routing.

    ``fault_pairs`` is an iterable of ``(src, dst)`` directed router pairs
    (list both directions for a fully failed link).  The network's routing
    is rebuilt via :meth:`~repro.noc.network.Network.reconfigure_routing`
    and the rebuilt configuration is certified from scratch.
    """
    network.reconfigure_routing(fault_pairs)
    return certify_network(network)
