"""The distance graph ``D`` — the first-level index (Definition 4.1).

Given a transit node set ``T``, the distance graph has node set ``T`` and
an edge ``(u, v)`` whenever some path from ``u`` to ``v`` in ``G`` avoids
all other transit nodes; its weight is ``d_hat(u, v, emptyset)``, the
shortest such transit-free distance.  A bounded Dijkstra run from each
transit node enumerates exactly those neighbours with exactly those
weights, so construction is one bounded run per transit node — the
``O((|V| + c_B) |T|)`` preprocessing of the paper's cost analysis.

By Lemma 1 the weighting scheme guarantees that shortest distances *on*
``D`` equal shortest distances on ``G`` between transit nodes, also under
failures once affected edge weights are lazily recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import PreprocessingError
from repro.graph.digraph import DiGraph
from repro.pathing.bounded import bounded_dijkstra
from repro.pathing.spt import ShortestPathTree


@dataclass
class DistanceGraph:
    """The first-level index: overlay graph over the transit node set.

    Attributes
    ----------
    graph:
        The overlay :class:`DiGraph` ``D`` with transit-free shortest
        distances as weights.
    transit:
        The transit node set ``T`` (== the node set of ``graph``).
    """

    graph: DiGraph
    transit: frozenset[int]

    @property
    def num_nodes(self) -> int:
        """``|T|`` — the "|C|" column of Tables 3 and 4."""
        return self.graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        """``|E_D|`` — the overlay edge count of Tables 3 and 4."""
        return self.graph.number_of_edges()

    def out_edges(self, node: int) -> dict[int, float]:
        """Out-edges of ``node`` on ``D`` as ``{head: weight}``."""
        return self.graph.successors(node)

    def __contains__(self, node: int) -> bool:
        return node in self.transit


def build_distance_graph(
    graph: DiGraph,
    transit: set[int] | frozenset[int],
) -> tuple[DistanceGraph, dict[int, ShortestPathTree]]:
    """Construct ``D`` and all bounded shortest path trees in one pass.

    For each transit node ``u``, in sorted order, one bounded Dijkstra
    run yields both the bounded shortest path tree ``G_u`` and the
    distance-graph out-edges of ``u`` (the transit nodes it settles as
    leaves, with their transit-free distances, in settle order).

    Returns
    -------
    (distance_graph, trees):
        The overlay and ``{u: G_u}`` for every transit node.

    Raises
    ------
    PreprocessingError
        If ``transit`` is empty or contains unknown nodes.
    """
    if not transit:
        raise PreprocessingError("transit node set must not be empty")
    for node in transit:
        if not graph.has_node(node):
            raise PreprocessingError(
                f"transit node {node!r} is not in the input graph"
            )
    transit_frozen = frozenset(transit)
    overlay = DiGraph()
    overlay.add_nodes(transit_frozen)
    trees: dict[int, ShortestPathTree] = {}
    for u in sorted(transit_frozen):
        result = bounded_dijkstra(graph, u, transit_frozen, direction="out")
        for v, distance in result.access.items():
            if v != u:
                overlay.add_edge(u, v, distance)
        trees[u] = result.to_tree()
    return DistanceGraph(graph=overlay, transit=transit_frozen), trees


def verify_distance_graph(
    graph: DiGraph,
    oracle_overlay: DistanceGraph,
) -> list[str]:
    """Cross-check an overlay against Definition 4.1; return violations.

    Checks, for every overlay edge ``(u, v)``, that the stored weight
    equals the shortest transit-free distance recomputed from scratch.
    Intended for tests; quadratic in ``|T|`` in the worst case.
    """
    problems: list[str] = []
    transit = oracle_overlay.transit
    for u in sorted(transit):
        fresh = bounded_dijkstra(graph, u, transit, direction="out")
        stored = oracle_overlay.out_edges(u)
        fresh_neighbors = {v: d for v, d in fresh.access.items() if v != u}
        if set(stored) != set(fresh_neighbors):
            problems.append(
                f"node {u}: overlay neighbours {sorted(stored)} != "
                f"recomputed {sorted(fresh_neighbors)}"
            )
            continue
        for v, weight in stored.items():
            if abs(weight - fresh_neighbors[v]) > 1e-9:
                problems.append(
                    f"edge ({u}, {v}): stored weight {weight} != "
                    f"recomputed {fresh_neighbors[v]}"
                )
    return problems
