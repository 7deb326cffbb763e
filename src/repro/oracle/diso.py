"""DISO — the DIStance graph-based Oracle (Section 4).

DISO adapts Transit Node Routing to the distance sensitivity problem:

* **Preprocessing** selects a transit node set (a ``2^tau``-path cover
  computed with ISC by default), builds the distance graph ``D`` with a
  bounded Dijkstra run per transit node, stores every bounded shortest
  path tree ``G_u``, and builds the inverted tree index over tree edges.
* **Querying** ``(s, t, F)``:

  1. look the failed edges up in the inverted tree index — the union of
     the hit tree roots is the *affected node* set ``A``;
  2. run the bounded Dijkstra's algorithm from ``s`` (forward) and ``t``
     (backward) on ``(V, E \\ F)``: this yields the access-node supersets
     ``A*_out(s)`` / ``A*_in(t)`` with exact access distances under
     ``F``, and — when the searches meet ``t`` directly — the
     locality-filter answer ``d_hat(s, t, F)``;
  3. run a Dijkstra-like search over ``D`` seeded with ``A*_out(s)``;
     when an affected node is popped its out-edge weights are *lazily
     recomputed* from its stored tree (DynDijkstra repair, no mutation);
     popping a node of ``A*_in(t)`` offers a candidate answer;
  4. return the minimum of the overlay answer and the direct answer.

Correctness is the paper's Theorem 1: if ``P(s, t, F)`` passes a transit
node the overlay search finds it (Lemma 2 via Lemma 1's weighting
guarantee); otherwise the direct bounded search from ``s`` finds it.

Because step 3 recomputes weights on the side and never writes them back
(Section 4.2), concurrent queries can share one index with no locking —
the "no stalling" property motivating the whole design.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

from repro.graph.digraph import DiGraph, Edge
from repro.cover.isc import isc_path_cover
from repro.oracle.base import (
    INFINITY,
    DistanceSensitivityOracle,
    QueryResult,
    QueryStats,
    normalize_failures,
)
from repro.overlay.bsp_tree import BoundedTreeStore
from repro.overlay.distance_graph import DistanceGraph, build_distance_graph
from repro.overlay.inverted_index import InvertedTreeIndex
from repro.pathing.bounded import bounded_dijkstra


class DISO(DistanceSensitivityOracle):
    """The paper's first distance sensitivity oracle.

    Parameters
    ----------
    graph:
        The input graph ``G`` (kept by reference; treat as immutable, or
        use :mod:`repro.oracle.maintenance` for updates).
    tau:
        ISC rounds; the transit set is a ``2^tau``-path cover.  Paper
        defaults: 8 for road networks, 4 for social networks.
    theta:
        Algorithm 1 sparsity threshold.  Paper defaults: 1 for road
        networks, 16 for social networks.
    transit:
        Explicit transit node set, overriding the ISC computation — used
        by the Table 4 experiments that plug in partition border sets,
        and by DISO-S / ADISO which reuse covers.
    """

    name = "DISO"
    exact = True

    def __init__(
        self,
        graph: DiGraph,
        tau: int = 4,
        theta: float = 1.0,
        transit: set[int] | frozenset[int] | None = None,
    ) -> None:
        super().__init__(graph)
        started = time.perf_counter()
        if transit is None:
            transit = self.select_transit(graph, tau=tau, theta=theta)
        self.distance_graph: DistanceGraph
        self.distance_graph, trees = build_distance_graph(graph, transit)
        self.transit: frozenset[int] = self.distance_graph.transit
        self.trees = BoundedTreeStore(trees, self.transit)
        self.inverted_index = InvertedTreeIndex.from_trees(trees)
        self.preprocess_seconds = time.perf_counter() - started

    @staticmethod
    def select_transit(
        graph: DiGraph, tau: int = 4, theta: float = 1.0
    ) -> set[int]:
        """The default transit node set: an ISC ``2^tau``-path cover."""
        return isc_path_cover(graph, tau=tau, theta=theta).cover

    # ------------------------------------------------------------------
    # Frozen query plane
    # ------------------------------------------------------------------
    def freeze(self):
        """Compile the finished index for flat-array query serving.

        Returns a :class:`repro.oracle.frozen.FrozenDISO` answering the
        same queries exactly from CSR-compiled structures with reusable
        search arenas — the representation to serve from once the graph
        stops changing.  Its overlay search is bidirectional, so on
        float weights its answers equal :class:`repro.oracle.diso_bi.
        DISOBidirectional`'s bitwise and may differ from this forward
        search's in the last bits.  The dict oracle remains usable (and is the one
        :mod:`repro.oracle.maintenance` can update; re-freeze after
        maintenance).

        A re-freeze is incremental (:class:`repro.oracle.frozen.
        FreezeMemo`): it snapshots the graph afresh (so a direct
        ``graph.set_weight`` is picked up too) and compiles only the
        trees replaced since the last freeze; an insert or delete that
        changes the graph's shape, or a new transit set, compiles
        everything.  Either way the result equals a full
        ``FrozenDISO(oracle)`` bitwise.  Between freezes the oracle
        keeps only compact state: the CSR arrays and the compiled
        trees' lanes, never the maps a query builds on the engine.
        The query views of the returned engine (adjacency rows,
        overlay-derived rows, inverted index) are built on its first
        query, so an engine that is only saved never builds them.
        """
        from repro.oracle.frozen import FreezeMemo

        memo = self.__dict__.get("_freeze_memo")
        if memo is None:
            memo = self._freeze_memo = FreezeMemo()
        return memo.freeze(self)

    # ------------------------------------------------------------------
    # Failure handling hooks (overridden by the DISO- ablation)
    # ------------------------------------------------------------------
    def _find_affected_nodes(
        self,
        failed: frozenset[Edge],
        stats: QueryStats,
    ) -> set[int]:
        """Affected transit nodes: trees containing a failed edge."""
        return self.inverted_index.affected_nodes(failed)

    def _recomputed_weights(
        self,
        node: int,
        failed: frozenset[Edge],
    ) -> dict[int, float]:
        """Fresh out-edge weights of an affected node under ``failed``."""
        return self.trees.recomputed_out_weights(self.graph, node, failed)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query_detailed(
        self,
        source: int,
        target: int,
        failed: set[Edge] | frozenset[Edge] | None = None,
    ) -> QueryResult:
        self._validate_endpoints(source, target)
        fail_set = normalize_failures(failed)
        stats = QueryStats()
        started = time.perf_counter()
        if source == target:
            stats.total_seconds = time.perf_counter() - started
            return QueryResult(distance=0.0, stats=stats)

        affected = self._find_affected_nodes(fail_set, stats)
        stats.affected_count = len(affected)

        access_start = time.perf_counter()
        forward = bounded_dijkstra(
            self.graph, source, self.transit, fail_set, "out"
        )
        backward = bounded_dijkstra(
            self.graph, target, self.transit, fail_set, "in"
        )
        stats.access_seconds = time.perf_counter() - access_start
        stats.graph_settled = forward.settled_count + backward.settled_count

        # Locality-filter answer: the forward bounded search reports
        # d_hat(s, t, F) whenever t lies in s's transit-free region.
        best = forward.dist.get(target, INFINITY)

        overlay_best = self._overlay_search(
            forward.access,
            backward.access,
            fail_set,
            affected,
            stats,
            best,
            target=target,
        )
        if overlay_best < best:
            best = overlay_best

        stats.total_seconds = time.perf_counter() - started
        return QueryResult(distance=best, stats=stats)

    def _overlay_search(
        self,
        seeds: dict[int, float],
        into_target: dict[int, float],
        failed: frozenset[Edge],
        affected: set[int],
        stats: QueryStats,
        upper_bound: float,
        target: int | None = None,
    ) -> float:
        """Dijkstra-like procedure on ``D`` (Section 4.1.3).

        ``target`` is unused here; subclasses with goal-directed
        searches (the hierarchy) take it for their heuristics.

        ``seeds`` are ``A*_out(s)`` access distances; ``into_target``
        maps ``A*_in(t)`` nodes to their distance to ``t``.  Returns
        ``d_D(s, t, F)``.  The search stops early once the minimum queue
        label cannot beat the best candidate (safe because the remaining
        leg ``d_hat(v, t, F)`` is non-negative).
        """
        best = upper_bound
        dist: dict[int, float] = {}
        heap: list[tuple[float, int]] = []
        for node, d in seeds.items():
            dist[node] = d
            heappush(heap, (d, node))
        settled: set[int] = set()
        overlay_edges = self.distance_graph.graph
        recompute_seconds = 0.0
        recomputed_nodes = 0

        while heap:
            d, node = heappop(heap)
            if node in settled:
                continue
            if d >= best:
                break
            settled.add(node)
            tail_distance = into_target.get(node)
            if tail_distance is not None:
                candidate = d + tail_distance
                if candidate < best:
                    best = candidate
            if node in affected:
                tick = time.perf_counter()
                out_weights = self._recomputed_weights(node, failed)
                recompute_seconds += time.perf_counter() - tick
                recomputed_nodes += 1
            else:
                out_weights = overlay_edges.successors(node)
            for head, weight in out_weights.items():
                if head in settled or head == node:
                    continue
                candidate = d + weight
                if candidate < dist.get(head, INFINITY):
                    dist[head] = candidate
                    heappush(heap, (candidate, head))
        stats.overlay_settled += len(settled)
        stats.recompute_seconds += recompute_seconds
        stats.recomputed_nodes += recomputed_nodes
        return best

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def index_entries(self) -> dict[str, int]:
        return {
            "distance_graph_nodes": self.distance_graph.num_nodes,
            "distance_graph_edges": self.distance_graph.num_edges,
            "tree_nodes": self.trees.total_nodes(),
            "inverted_index_entries": self.inverted_index.entry_count(),
        }
