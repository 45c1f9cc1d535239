"""Composable routing baseline (Yin et al., ISCA 2018) as modelled in the
UPP paper (Secs. III-B, VI).

From one chiplet's perspective, the rest of the system is abstracted into
a virtual external node reachable through the boundary routers.  A
design-time software algorithm places *unidirectional turn restrictions*
on the boundary routers (turns between the mesh directions and the
vertical DOWN port) until the chiplet's channel-dependency graph —
closed with conservative external ``down -> up`` edges — is acyclic.
Per-chiplet acyclicity under that closure implies global deadlock freedom
regardless of what the chiplet is integrated with (the scheme's
modularity claim); the repository's test suite re-verifies this on the
*full-system* CDG.

The performance artefacts the UPP paper criticises emerge naturally:

* restricted exit turns funnel many sources through few boundary routers
  (load imbalance, Fig. 2a);
* sources whose XY approach to the nearest boundary router is forbidden
  must use a farther one (non-minimal routes, higher latency).

The search itself is the "complex software algorithm" of Sec. III-C; its
cost is exposed via ``design_evaluations`` for the flexibility analysis.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.noc.flit import OPPOSITE, Port
from repro.routing.base import RestrictedTurnModel, XYTurnModel
from repro.routing.hierarchical import HierarchicalRouting
from repro.routing.table import TableRouting
from repro.routing.xy import XYLocalRouting
from repro.schemes.base import DeadlockScheme
from repro.topology.chiplet import SystemTopology

if TYPE_CHECKING:
    import networkx as nx

Restriction = Tuple[int, Port, Port]


class ChipletDesign:
    """The design-time product for one chiplet."""

    def __init__(
        self,
        restrictions: Set[Restriction],
        table: TableRouting,
        exit_sel: Dict[int, int],
        entry_sel: Dict[int, int],
    ):
        self.restrictions = restrictions
        self.table = table
        self.exit_sel = exit_sel
        self.entry_sel = entry_sel


def _legal_exit_cost(table: TableRouting, model, src: int, boundary: int) -> Optional[int]:
    """Hops from src to the DOWN port of ``boundary`` under restrictions,
    or None if the final turn into DOWN is forbidden / unreachable."""
    if src == boundary:
        return 0  # LOCAL -> DOWN is never restricted
    try:
        walk = table.walk(src, Port.LOCAL, boundary)
    except ValueError:
        return None
    last_rid, last_port = walk[-1]
    in_port_at_b = OPPOSITE[last_port]
    if not model.allowed(boundary, in_port_at_b, Port.DOWN):
        return None
    return len(walk)


def _legal_entry_cost(table: TableRouting, dst: int, boundary: int) -> Optional[int]:
    if dst == boundary:
        return 0
    return table.path_length(boundary, Port.DOWN, dst)


def _selections(
    table: TableRouting, model, members: List[int], boundaries: List[int]
) -> Tuple[Optional[Dict[int, int]], Optional[Dict[int, int]]]:
    exit_sel: Dict[int, int] = {}
    entry_sel: Dict[int, int] = {}
    for rid in members:
        exit_costs = [
            (cost, b)
            for b in boundaries
            if (cost := _legal_exit_cost(table, model, rid, b)) is not None
        ]
        if not exit_costs:
            return None, None
        exit_sel[rid] = min(exit_costs)[1]
        entry_costs = [
            (cost, b)
            for b in boundaries
            if (cost := _legal_entry_cost(table, rid, b)) is not None
        ]
        if not entry_costs:
            return None, None
        entry_sel[rid] = min(entry_costs)[1]
    return exit_sel, entry_sel


def _chiplet_cdg(
    table: TableRouting,
    members: List[int],
    boundaries: List[int],
    exit_sel: Dict[int, int],
    entry_sel: Dict[int, int],
) -> nx.DiGraph:
    """Channel-dependency graph of one chiplet, closed with conservative
    external down->up edges (the virtual-node abstraction)."""
    import networkx as nx

    graph = nx.DiGraph()
    for rid in members:
        # outbound route rid -> exit boundary -> DOWN
        b = exit_sel[rid]
        if rid != b:
            walk = table.walk(rid, Port.LOCAL, b)
            channels = [("ch", u, p) for u, p in walk]
            for a, c in zip(channels, channels[1:]):
                graph.add_edge(a, c)
            graph.add_edge(channels[-1], ("down", b))
        # inbound route entry boundary -> DOWN input -> rid
        b = entry_sel[rid]
        if rid != b:
            walk = table.walk(b, Port.DOWN, rid)
            channels = [("ch", u, p) for u, p in walk]
            graph.add_edge(("up", b), channels[0])
            for a, c in zip(channels, channels[1:]):
                graph.add_edge(a, c)
        # intra-chiplet routes: the glue that joins inbound chains to
        # outbound chains (a cycle needs no single packet spanning
        # up-to-down; consecutive overlapping worms suffice)
        for dst in members:
            if dst == rid:
                continue
            walk = table.walk(rid, Port.LOCAL, dst)
            channels = [("ch", u, p) for u, p in walk]
            for a, c in zip(channels, channels[1:]):
                graph.add_edge(a, c)
    for x in boundaries:
        for y in boundaries:
            graph.add_edge(("down", x), ("up", y))
    return graph


def _candidates_on_cycle(cycle) -> List[Restriction]:
    """Restrictable boundary turns among a CDG cycle's edges."""
    result: List[Restriction] = []
    for src, dst in cycle:
        if src[0] == "ch" and dst[0] == "down":
            _, u, port = src
            b = dst[1]
            result.append((b, OPPOSITE[port], Port.DOWN))
        elif src[0] == "up" and dst[0] == "ch":
            b = src[1]
            _, u, port = dst
            if u == b:
                result.append((b, Port.DOWN, port))
    return result


def design_chiplet(
    topo: SystemTopology, chiplet: int, max_iterations: int = 64
) -> Tuple[ChipletDesign, int]:
    """Run the design-time restriction search for one chiplet.

    Returns the design and the number of candidate evaluations performed
    (the algorithmic cost the paper calls impractical at runtime).
    """
    import networkx as nx

    members = topo.chiplet_routers(chiplet)
    boundaries = topo.boundary_routers(chiplet)
    restrictions: Set[Restriction] = set()
    evaluations = 0

    def instantiate(rset: Set[Restriction]):
        model = RestrictedTurnModel(XYTurnModel(), rset)
        table = TableRouting(topo, members, model)
        exit_sel, entry_sel = _selections(table, model, members, boundaries)
        return model, table, exit_sel, entry_sel

    for _ in range(max_iterations):
        model, table, exit_sel, entry_sel = instantiate(restrictions)
        evaluations += 1
        if exit_sel is None:
            raise RuntimeError("composable design lost connectivity")
        graph = _chiplet_cdg(table, members, boundaries, exit_sel, entry_sel)
        try:
            cycle = nx.find_cycle(graph)
        except nx.NetworkXNoCycle:
            return ChipletDesign(restrictions, table, exit_sel, entry_sel), evaluations
        placed = False
        for candidate in _candidates_on_cycle(cycle):
            if candidate in restrictions:
                continue
            trial = restrictions | {candidate}
            _, t_table, t_exit, t_entry = instantiate(trial)
            evaluations += 1
            if t_exit is None:
                continue  # would disconnect some router from the outside
            restrictions = trial
            placed = True
            break
        if not placed:
            raise RuntimeError(
                f"no feasible turn restriction breaks the cycle {cycle}"
            )
    raise RuntimeError("composable design did not converge")


class ComposableRoutingScheme(DeadlockScheme):
    """Deadlock avoidance via boundary-router turn restrictions."""

    name = "composable"
    #: the turn restrictions make the *full-system* CDG acyclic — the
    #: static certifier holds this scheme to that stronger promise.
    cdg_expectation = "acyclic"

    def __init__(self) -> None:
        self.designs: Dict[int, ChipletDesign] = {}
        self.design_evaluations = 0

    def build_routing(
        self, topo: SystemTopology, cfg, rng: random.Random
    ) -> HierarchicalRouting:
        if topo.faulty:
            raise ValueError(
                "composable routing cannot reconfigure on faulty topologies "
                "(its exponential design-time search is impractical at "
                "runtime, Sec. III-C)"
            )
        exit_binding: Dict[int, int] = {}
        entry_binding: Dict[int, int] = {}
        chiplet_tables: Dict[int, TableRouting] = {}
        self.design_evaluations = 0
        for chiplet in range(topo.n_chiplets):
            design, evaluations = design_chiplet(topo, chiplet)
            self.designs[chiplet] = design
            self.design_evaluations += evaluations
            exit_binding.update(design.exit_sel)
            entry_binding.update(design.entry_sel)
            chiplet_tables[chiplet] = design.table
        interposer = XYLocalRouting(topo)
        return HierarchicalRouting(
            topo, interposer, chiplet_tables, exit_binding, entry_binding
        )

    @property
    def total_restrictions(self) -> int:
        return sum(len(d.restrictions) for d in self.designs.values())

    def qualitative_profile(self) -> Dict[str, bool]:
        return {
            "topology_modularity": True,
            "vc_modularity": True,
            "flow_control_modularity": True,
            "full_path_diversity": False,
            "no_injection_control": True,
            "topology_independence": False,
            "deadlock_free": True,
        }

    def stats_snapshot(self) -> dict:
        return {
            "turn_restrictions": self.total_restrictions,
            "design_evaluations": self.design_evaluations,
        }
