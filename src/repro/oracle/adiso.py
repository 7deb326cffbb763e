"""ADISO — the A* search-based distance sensitivity oracle (Section 5).

ADISO keeps DISO's two-level index and adds a landmark table.  Its query
procedure is Algorithm 2, the *improved Dijkstra-like procedure*: a
merged best-first search over the distance graph ``D`` and the input
graph ``G`` simultaneously, ordered by the A* cost

    cost(v) = d_o(s, v, F) + h(v, t)

where ``h`` is the landmark lower bound (valid under failures because
deletions only lengthen paths, Section 5.2).

The crucial difference from DISO is the handling of *affected* transit
nodes: instead of repairing their bounded trees (which recomputes every
boundary distance, including directions the query will never take),
Algorithm 2 simply relaxes their out-edges in ``G`` and lets the A*
ordering steer the recomputation toward the target — the "improved lazy
recomputation" of Section 5.3.  Unaffected transit nodes relax their
precomputed ``D`` edges as usual.  No index entry is ever written, so
stall avoidance carries over.

Implementation notes
--------------------
* Two priority queues ``Q_D`` / ``Q_G`` are kept as in the pseudocode;
  lazy deletion with a shared cost map implements the decrease-key.
  Since ALT lower bounds are *consistent*, a single global settled set
  is safe (no reopening).
* Algorithm 2's line 11 guards the ``A*_in(t)`` candidate update with
  ``X1 = D``; a transit node can however also surface in ``Q_G`` (it is
  pushed there when reached from another transit node, lines 19-20), so
  this implementation applies the update on *either* queue's pop — a
  correctness-preserving strengthening documented in DESIGN.md.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

from repro.graph.digraph import DiGraph, Edge
from repro.landmarks.base import LandmarkTable
from repro.landmarks.selection import build_landmarks
from repro.oracle.base import (
    INFINITY,
    QueryResult,
    QueryStats,
    normalize_failures,
)
from repro.oracle.diso import DISO
from repro.pathing.bounded import bounded_dijkstra


class ADISO(DISO):
    """The paper's second oracle: DISO + landmark A* heuristics.

    Parameters
    ----------
    graph:
        The input graph ``G``.
    tau, theta, transit:
        Transit-set parameters, as in :class:`DISO`.  Paper defaults for
        ADISO: ``tau = 7`` for road networks, 3 for social networks.
    num_landmarks:
        ``N_L``; the paper settles on 10 for all datasets.
    alpha:
        SLS coverage slack (0.1 road / 0.25 social in the paper).
    landmarks:
        Explicit landmark node list overriding SLS selection; used by
        the Figure 5 experiments to plug in RAND / max-cover /
        best-cover selections.
    landmark_table:
        A prebuilt :class:`LandmarkTable` to share across oracles.
    seed:
        PRNG seed for SLS sampling.
    """

    name = "ADISO"
    exact = True

    def __init__(
        self,
        graph: DiGraph,
        tau: int = 4,
        theta: float = 1.0,
        transit: set[int] | frozenset[int] | None = None,
        num_landmarks: int = 10,
        alpha: float = 0.1,
        landmarks: list[int] | None = None,
        landmark_table: LandmarkTable | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(graph, tau=tau, theta=theta, transit=transit)
        started = time.perf_counter()
        if landmark_table is not None:
            self.landmarks = landmark_table
        else:
            if landmarks is None:
                landmarks = self.select_landmarks(
                    graph, num_landmarks, seed=seed, alpha=alpha
                )
            self.landmarks = LandmarkTable(graph, landmarks)
        self.preprocess_seconds += time.perf_counter() - started

    @staticmethod
    def select_landmarks(
        graph: DiGraph,
        num_landmarks: int = 10,
        seed: int = 0,
        alpha: float = 0.1,
        landmarks: list[int] | None = None,
    ) -> list[int]:
        """The default landmark node list: SLS selection."""
        return build_landmarks(
            graph, num_landmarks, seed=seed, alpha=alpha, landmarks=landmarks
        )

    # ------------------------------------------------------------------
    # Frozen query plane
    # ------------------------------------------------------------------
    def freeze(self):
        """Compile index + landmark table for flat-array query serving.

        Returns a :class:`repro.oracle.frozen.FrozenADISO` running
        Algorithm 2 on integers with reusable search arenas.
        """
        from repro.oracle.frozen import FrozenADISO

        return FrozenADISO(self)

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
        stats.graph_settled += (
            forward.settled_count + backward.settled_count
        )

        local = forward.dist.get(target, INFINITY)
        overlay = self._merged_search(
            forward.access,
            backward.access,
            fail_set,
            affected,
            target,
            stats,
            upper_bound=local,
        )
        best = min(local, overlay)
        stats.total_seconds = time.perf_counter() - started
        return QueryResult(distance=best, stats=stats)

    def _merged_search(
        self,
        seeds: dict[int, float],
        into_target: dict[int, float],
        failed: frozenset[Edge],
        affected: set[int],
        target: int,
        stats: QueryStats,
        upper_bound: float,
    ) -> float:
        """Algorithm 2: the improved Dijkstra-like procedure."""
        graph = self.graph
        overlay = self.distance_graph.graph
        transit = self.transit
        heuristic = self.landmarks.heuristic_to(target)

        d_o: dict[int, float] = {}
        cost: dict[int, float] = {}
        settled: set[int] = set()
        queue_d: list[tuple[float, int]] = []
        queue_g: list[tuple[float, int]] = []

        for node, d in seeds.items():
            d_o[node] = d
            c = d + heuristic(node)
            cost[node] = c
            heappush(queue_d, (c, node))

        def clean(heap: list[tuple[float, int]]) -> None:
            while heap:
                c, node = heap[0]
                if node in settled or c > cost.get(node, INFINITY) + 1e-12:
                    heappop(heap)
                else:
                    return

        best_known = upper_bound
        graph_settled = 0
        while True:
            clean(queue_d)
            clean(queue_g)
            top_d = queue_d[0][0] if queue_d else INFINITY
            top_g = queue_g[0][0] if queue_g else INFINITY
            if top_d == INFINITY and top_g == INFINITY:
                break
            current_best = min(best_known, d_o.get(target, INFINITY))
            if min(top_d, top_g) >= current_best:
                # Every remaining label's completion is at least its A*
                # cost, so nothing can improve the answer.
                break
            heap = queue_d if top_d <= top_g else queue_g
            _, node = heappop(heap)
            settled.add(node)
            if node == target:
                break
            node_dist = d_o[node]

            tail_distance = into_target.get(node)
            if tail_distance is not None:
                candidate = node_dist + tail_distance
                if candidate < d_o.get(target, INFINITY):
                    d_o[target] = candidate
                    cost[target] = candidate  # h(t, t) = 0
                    heappush(queue_d, (candidate, target))

            use_overlay = node in transit and node not in affected
            neighbors = (
                overlay.successors(node) if use_overlay
                else graph.successors(node)
            )
            if not use_overlay:
                graph_settled += 1
            node_in_transit = node in transit
            for head, weight in neighbors.items():
                if head in settled or head == node:
                    continue
                if not use_overlay and (node, head) in failed:
                    continue
                candidate = node_dist + weight
                if candidate < d_o.get(head, INFINITY):
                    d_o[head] = candidate
                    c = candidate + heuristic(head)
                    cost[head] = c
                    if not node_in_transit and head in transit:
                        heappush(queue_d, (c, head))
                    else:
                        heappush(queue_g, (c, head))
        stats.overlay_settled += len(settled)
        stats.graph_settled += graph_settled
        return d_o.get(target, INFINITY)

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def index_entries(self) -> dict[str, int]:
        entries = super().index_entries()
        entries["landmark_entries"] = self.landmarks.size_in_entries()
        return entries
