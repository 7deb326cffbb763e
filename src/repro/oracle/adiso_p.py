"""ADISO-P — ADISO with partial detouring (Section 6.1).

Partial detouring answers a query in two phases:

1. **Initial path.**  A modified ADISO run with an *empty* affected set
   computes an initial overlay path ``P_init`` from ``s`` to ``t``:
   endpoint access legs are computed on ``(V, E \\ F)`` (they must be
   correct), but the middle is routed over the precomputed distance
   graph ``D`` *and* a second, much smaller overlay ``H`` — a distance
   graph of ``D`` itself, built from a k'-path cover of ``D`` with
   ``theta = infinity``.  Edges of ``H`` act as long shortcuts; a node
   ``u`` present in ``H`` takes its shortcuts only while the remaining
   lower-bound distance ``h(u, t)`` exceeds its longest shortcut, which
   the paper proves costs no extra accuracy.

2. **Detours.**  ``P_init`` is decomposed into overlay hops (Fig. 3).
   ``H`` hops whose tail is affected (via the second inverted index:
   an ``H`` node is affected when any affected ``D`` node participates
   in its bounded tree *on D*) are expanded into their underlying ``D``
   edges.  Each ``D`` hop ``(x, y)`` with an affected tail is replaced
   by a freshly computed detour ``d(x, y, F)`` (landmark-guided A* on
   ``G``); unaffected hops keep their precomputed weights.

The result is approximate — detours are local repairs of a path that was
optimal only without failures — with the small average error the paper
reports (2.9%).  When some hop has no detour at all the query falls back
to a full exact ADISO query (the paper's remedy; "such a case does not
happen at all in the experiments").
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

from repro.graph.digraph import DiGraph, Edge
from repro.cover.isc import isc_path_cover
from repro.oracle.base import (
    INFINITY,
    QueryResult,
    QueryStats,
    normalize_failures,
)
from repro.oracle.adiso import ADISO
from repro.overlay.distance_graph import build_distance_graph
from repro.pathing.astar import astar_distance
from repro.pathing.bounded import bounded_dijkstra

_OverlayHop = tuple[int, int, str]  # (tail, head, layer) with layer in D/H


class ADISOPartial(ADISO):
    """ADISO with the partial detouring boosting technique.

    Parameters
    ----------
    graph:
        The input graph ``G``.
    tau, theta, transit, num_landmarks, alpha, landmarks, landmark_table,
    seed:
        As in :class:`ADISO`.
    tau_h:
        Rounds of the k'-path cover *of the distance graph* used to
        build the second overlay ``H``; the paper uses 4, always with
        ``theta = infinity`` ("for computing H, theta is set to infinity
        and tau is set to 4 for node reduction").
    exit_candidates:
        Extension knob (default 1 = the paper's behaviour): evaluate up
        to this many alternative initial routes — distinct exit access
        nodes ranked by failure-free value — and keep the cheapest
        detoured total.
    avoid_affected_bias:
        Extension knob (default 0 = the paper's behaviour, which picks
        the initial route ignoring failures entirely).  A positive bias
        multiplies, during initial-route selection only, the weight of
        every overlay edge whose tail is affected by ``(1 + bias)`` —
        steering the committed route away from failure-touched territory
        before detouring begins.  Selection-only: the returned distance
        still sums true weights and detours, so the answer stays an
        upper bound on the truth; only *which* route gets repaired
        changes.
    """

    name = "ADISO-P"
    exact = False

    def __init__(
        self,
        graph: DiGraph,
        tau: int = 4,
        theta: float = 1.0,
        transit: set[int] | frozenset[int] | None = None,
        num_landmarks: int = 10,
        alpha: float = 0.1,
        landmarks: list[int] | None = None,
        landmark_table=None,
        seed: int = 0,
        tau_h: int = 4,
        exit_candidates: int = 1,
        avoid_affected_bias: float = 0.0,
    ) -> None:
        super().__init__(
            graph,
            tau=tau,
            theta=theta,
            transit=transit,
            num_landmarks=num_landmarks,
            alpha=alpha,
            landmarks=landmarks,
            landmark_table=landmark_table,
            seed=seed,
        )
        started = time.perf_counter()
        self._build_h_overlay(tau_h)
        self.exit_candidates = max(1, exit_candidates)
        self.avoid_affected_bias = max(0.0, avoid_affected_bias)
        self.preprocess_seconds += time.perf_counter() - started

    def _build_h_overlay(self, tau_h: int) -> None:
        """Build the second overlay ``H`` over the finished ``D``.

        ``H`` is a distance graph *of the distance graph*, so it can
        only be built once every bounded tree of ``D`` is in place.
        """
        overlay = self.distance_graph.graph
        cover_h = isc_path_cover(overlay, tau=tau_h, theta=INFINITY)
        h_cover = cover_h.cover
        if not h_cover:
            # Degenerate overlay (e.g. edgeless): keep one node so the H
            # structures exist; shortcuts then simply never trigger.
            h_cover = {min(overlay.nodes())}
        self.h_overlay, self.h_trees = build_distance_graph(overlay, h_cover)
        # Second inverted index: D node -> H roots whose bounded tree on
        # D contains it ("If x is affected, then y is also affected").
        node_to_h: dict[int, set[int]] = {}
        for root, tree in self.h_trees.items():
            for node in tree.nodes():
                node_to_h.setdefault(node, set()).add(root)
        self._node_to_h_roots = node_to_h

    # ------------------------------------------------------------------
    # Frozen query plane
    # ------------------------------------------------------------------
    def freeze(self):
        """Compile to a :class:`FrozenADISO` serving *exact* answers.

        Partial detouring's approximation lives in the query algorithm
        (repairing a failure-free initial route), not in the index, so
        the frozen plane serves the exact Algorithm 2 from the same
        compiled index instead — answers match ``ADISO``, not the
        approximate ADISO-P path.  The second overlay ``H`` is not
        compiled.
        """
        return super().freeze()

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

        candidates = self._initial_overlay_paths(
            forward.access,
            backward.access,
            target,
            self.exit_candidates,
            affected,
        )
        if not candidates:
            # No overlay route at all; the direct answer is all there is.
            stats.total_seconds = time.perf_counter() - started
            return QueryResult(distance=local, stats=stats)

        best = local
        any_detoured = False
        for hops, entry, exit_node, _overlay_total in candidates:
            detoured = self._detoured_total(hops, affected, fail_set, stats)
            if detoured is None:
                continue
            any_detoured = True
            total = (
                forward.access[entry]
                + detoured
                + backward.access[exit_node]
            )
            if total < best:
                best = total
        if not any_detoured:
            # Every candidate had a hop with no detour: fall back to a
            # full exact query (the paper's remedy).
            fallback = super().query_detailed(source, target, fail_set)
            fallback.stats.used_fallback = True
            fallback.stats.total_seconds += time.perf_counter() - started
            return fallback
        stats.total_seconds = time.perf_counter() - started
        return QueryResult(distance=best, stats=stats)

    # ------------------------------------------------------------------
    # Phase 1: initial path over D + H shortcuts (failure-free middle)
    # ------------------------------------------------------------------
    def _initial_overlay_paths(
        self,
        seeds: dict[int, float],
        into_target: dict[int, float],
        target: int,
        max_candidates: int = 1,
        affected: set[int] | frozenset[int] = frozenset(),
    ) -> list[tuple[list[_OverlayHop], int, int, float]]:
        """A* over ``D`` with ``H`` shortcuts; returns candidate routes.

        Each candidate is ``(hops, entry_access_node, exit_access_node,
        failure-free value)``; the list is ordered by value (best first)
        and holds up to ``max_candidates`` distinct exit nodes.  Empty
        when no overlay route exists.
        """
        overlay = self.distance_graph.graph
        h_overlay = self.h_overlay.graph
        h_nodes = self.h_overlay.transit
        heuristic = self.landmarks.heuristic_to(target)

        bias = self.avoid_affected_bias
        affected_h: set[int] = set()
        if bias > 0.0 and affected:
            node_to_h = self._node_to_h_roots
            for lower in affected:
                roots = node_to_h.get(lower)
                if roots:
                    affected_h.update(roots)

        dist: dict[int, float] = {}
        parent: dict[int, tuple[int, str] | None] = {}
        heap: list[tuple[float, int]] = []
        for node, d in seeds.items():
            dist[node] = d
            parent[node] = None
            heappush(heap, (d + heuristic(node), node))
        settled: set[int] = set()
        best_value = INFINITY
        best_end: int | None = None

        while heap:
            cost, node = heappop(heap)
            if node in settled:
                continue
            if cost >= best_value:
                break
            settled.add(node)
            node_dist = dist[node]
            tail_distance = into_target.get(node)
            if tail_distance is not None:
                candidate = node_dist + tail_distance
                if candidate < best_value:
                    best_value = candidate
                    best_end = node

            # Shortcut rule: offer the H edges while the remaining
            # distance provably exceeds the longest shortcut out of this
            # node.  Deviation from the paper (documented in DESIGN.md):
            # the D edges stay available too — relaxing *only* shortcuts
            # can dead-end when the next access node is reachable solely
            # through non-H overlay nodes; the A* ordering still prefers
            # the long shortcuts, preserving the intended speed-up.
            relaxations: list[tuple[dict[int, float], str]] = []
            if node in h_nodes:
                h_out = h_overlay.successors(node)
                if h_out and heuristic(node) > max(h_out.values()):
                    relaxations.append((h_out, "H"))
            relaxations.append((overlay.successors(node), "D"))
            penalised = bias > 0.0 and (
                node in affected or (node in affected_h)
            )
            for neighbors, layer in relaxations:
                for head, weight in neighbors.items():
                    if head in settled or head == node:
                        continue
                    if penalised:
                        weight = weight * (1.0 + bias)
                    candidate = node_dist + weight
                    if candidate < dist.get(head, INFINITY):
                        dist[head] = candidate
                        parent[head] = (node, layer)
                        heappush(heap, (candidate + heuristic(head), head))

        if best_end is None:
            return []
        # Rank every labelled exit: each label's parent chain is a real
        # failure-free route of exactly that value (labels of unsettled
        # exits may exceed their optimum, which only demotes them).
        ranked = sorted(
            (
                (dist[node] + tail, node)
                for node, tail in into_target.items()
                if node in dist
            ),
        )[:max_candidates]
        candidates: list[tuple[list[_OverlayHop], int, int, float]] = []
        for value, end in ranked:
            hops: list[_OverlayHop] = []
            node = end
            while True:
                step = parent[node]
                if step is None:
                    break
                prev, layer = step
                hops.append((prev, node, layer))
                node = prev
            hops.reverse()
            candidates.append((hops, node, end, value))
        return candidates

    # ------------------------------------------------------------------
    # Phase 2: per-hop detouring
    # ------------------------------------------------------------------
    def _detoured_total(
        self,
        hops: list[_OverlayHop],
        affected: set[int],
        failed: frozenset[Edge],
        stats: QueryStats,
    ) -> float | None:
        """Sum hop costs, detouring affected hops; None when impossible."""
        affected_h: set[int] = set()
        if affected:
            node_to_h = self._node_to_h_roots
            for node in affected:
                roots = node_to_h.get(node)
                if roots:
                    affected_h.update(roots)

        overlay = self.distance_graph.graph

        # Expand H shortcuts whose tail is affected into their D edges,
        # then flag each segment whose tail is affected.
        segments: list[tuple[int, int, str, bool]] = []
        for tail, head, layer in hops:
            if layer == "H":
                if tail not in affected_h:
                    segments.append((tail, head, "H", False))
                    continue
                d_path = self.h_trees[tail].path_to(head)
                if d_path is None:
                    return None
                for x, y in d_path:
                    segments.append((x, y, "D", x in affected))
            else:
                segments.append((tail, head, "D", tail in affected))

        # Merge maximal runs of consecutive affected segments into one
        # partial detour each ("detours of certain edge-disjoint
        # sub-paths of P_init having failures", Section 6.1): a single
        # A* per run gives the detour the full sub-path's slack.
        total = 0.0
        fail_edges = set(failed)
        index = 0
        while index < len(segments):
            x, y, layer, hit = segments[index]
            if not hit:
                source_graph = (
                    self.h_overlay.graph if layer == "H" else overlay
                )
                total += source_graph.weight(x, y)
                index += 1
                continue
            run_start = x
            run_end = y
            index += 1
            while index < len(segments) and segments[index][3]:
                run_end = segments[index][1]
                index += 1
            tick = time.perf_counter()
            detour = astar_distance(
                self.graph,
                run_start,
                run_end,
                self.landmarks.heuristic_to(run_end),
                fail_edges,
            )
            stats.recompute_seconds += time.perf_counter() - tick
            stats.recomputed_nodes += 1
            if detour == INFINITY:
                return None
            total += detour
        return total

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def index_entries(self) -> dict[str, int]:
        entries = super().index_entries()
        entries["h_overlay_nodes"] = self.h_overlay.num_nodes
        entries["h_overlay_edges"] = self.h_overlay.num_edges
        entries["h_tree_nodes"] = sum(
            len(tree) for tree in self.h_trees.values()
        )
        return entries
