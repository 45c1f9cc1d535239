"""Fault injection for the Fig. 11 irregular-topology experiments.

Faults are injected on same-layer mesh links (both directions of a link
pair fail together, as in ARIADNE-style fault models).  Vertical links are
kept healthy so every chiplet stays attached to the interposer; layer
connectivity is preserved by construction — candidate faults that would
disconnect a layer are rejected and redrawn.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Set, Tuple

from repro.topology.chiplet import SystemTopology

if TYPE_CHECKING:
    import networkx as nx


def _layer_graph(topo: SystemTopology, exclude: Set[Tuple[int, int]]) -> nx.Graph:
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(topo.n_routers))
    for low, high in topo.mesh_link_pairs():
        if (low, high) not in exclude:
            graph.add_edge(low, high)
    return graph


def _layers_connected(topo: SystemTopology, exclude: Set[Tuple[int, int]]) -> bool:
    import networkx as nx

    graph = _layer_graph(topo, exclude)
    groups = [topo.interposer_routers] + [
        topo.chiplet_routers(c) for c in range(topo.n_chiplets)
    ]
    for members in groups:
        sub = graph.subgraph(members)
        if not nx.is_connected(sub):
            return False
    return True


def inject_faults(
    topo: SystemTopology, n_faults: int, rng: random.Random
) -> SystemTopology:
    """Mark ``n_faults`` random mesh link pairs faulty, preserving the
    connectivity of every layer.  Mutates and returns ``topo``.

    Raises ``ValueError`` if no valid fault set of the requested size can
    be found after a bounded number of attempts.
    """
    candidates = topo.mesh_link_pairs()
    if n_faults > len(candidates):
        raise ValueError(f"cannot fail {n_faults} of {len(candidates)} links")
    for _attempt in range(200):
        chosen = set(rng.sample(candidates, n_faults))
        if _layers_connected(topo, chosen):
            for low, high in chosen:
                topo.faulty.add((low, high))
                topo.faulty.add((high, low))
            return topo
    raise ValueError(
        f"could not find a connectivity-preserving set of {n_faults} faults"
    )


def healthy_mesh_neighbors(topo: SystemTopology, rid: int):
    """Same-layer neighbours reachable over healthy links."""
    return topo.layer_neighbors(rid)
