"""Batch queries against one shared failure state.

The paper's Examples 2-3 describe a *system-wide* failure state (roads
closed by accidents, links currently down) shared by every query, as
opposed to Example 1's per-user failure sets.  For that pattern the
per-query work can be partially hoisted:

* the affected-node set depends only on ``F`` — computed once;
* the lazily recomputed out-weights of each affected node depend only
  on ``F`` — computed at most once per affected node across the whole
  batch (a memo shared by all queries), instead of once per query that
  pops the node.

:class:`FailureStateView` packages a failure set over a DISO-family
oracle and answers any number of ``(s, t)`` queries against it.  It
never writes to the oracle's shared index (the memo is view-local), so
views for different failure states can coexist and run concurrently —
stall avoidance carries over.

:func:`query_many` is the general batched entry point for *per-query*
failure sets: on a frozen engine it calls the engine's own
``query_many``, which runs the scalar search per query and translates
each distinct failure set once, with bitwise-identical answers; on
every other oracle it is the scalar loop.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

from repro.graph.digraph import Edge
from repro.oracle.base import (
    INFINITY,
    QueryResult,
    QueryStats,
    normalize_failures,
)
from repro.oracle.diso import DISO
from repro.pathing.bounded import bounded_dijkstra
from repro.workload.queries import Query


def as_query_triple(query) -> tuple[int, int, frozenset | None]:
    """Normalize a :class:`Query` / ``(s, t, failed)`` triple."""
    if isinstance(query, Query):
        return (query.source, query.target, query.failed or None)
    source, target, failed = query
    return (source, target, failed or None)


def query_many(oracle, queries) -> list[float]:
    """Answer a batch of queries on ``oracle``; scalar-loop semantics.

    The batched fast path (the frozen engines' ``query_many``) is used
    when the oracle provides one; otherwise this is exactly the scalar
    loop.  Either way answers are bitwise identical to
    ``[oracle.query(s, t, F) for ...]`` and the first invalid query
    raises just as the loop would.
    """
    batched = getattr(oracle, "query_many", None)
    if callable(batched):
        return batched(queries)
    answers: list[float] = []
    for query in queries:
        source, target, failed = as_query_triple(query)
        answers.append(
            oracle.query(
                source, target, frozenset(failed) if failed else None
            )
        )
    return answers


class FailureStateView:
    """A reusable view of one failure set over a DISO-family oracle.

    Parameters
    ----------
    oracle:
        The underlying oracle (DISO or a subclass sharing its index
        layout).
    failed:
        The failure state shared by all queries through this view.

    Examples
    --------
    >>> from repro import DISO, road_network
    >>> g = road_network(8, 8, seed=1)
    >>> oracle = DISO(g, tau=2)
    >>> view = FailureStateView(oracle, failed={(0, 1)})
    >>> view.query(0, 63) >= oracle.query(0, 63)
    True
    """

    def __init__(
        self,
        oracle: DISO,
        failed: set[Edge] | frozenset[Edge] | None = None,
    ) -> None:
        self.oracle = oracle
        self.failed = normalize_failures(failed)
        stats = QueryStats()
        self.affected: frozenset[int] = frozenset(
            oracle._find_affected_nodes(self.failed, stats)
        )
        self._weight_memo: dict[int, dict[int, float]] = {}

    def _out_weights(self, node: int) -> dict[int, float]:
        """Overlay out-weights of ``node`` under this view's failures."""
        if node not in self.affected:
            return self.oracle.distance_graph.graph.successors(node)
        cached = self._weight_memo.get(node)
        if cached is None:
            cached = self.oracle._recomputed_weights(node, self.failed)
            self._weight_memo[node] = cached
        return cached

    def query(self, source: int, target: int) -> float:
        """Return ``d(source, target, F)`` for this view's ``F``."""
        return self.query_detailed(source, target).distance

    def query_detailed(self, source: int, target: int) -> QueryResult:
        """Answer with instrumentation, reusing the shared failure work."""
        oracle = self.oracle
        oracle._validate_endpoints(source, target)
        stats = QueryStats()
        stats.affected_count = len(self.affected)
        started = time.perf_counter()
        if source == target:
            stats.total_seconds = time.perf_counter() - started
            return QueryResult(distance=0.0, stats=stats)

        access_start = time.perf_counter()
        forward = bounded_dijkstra(
            oracle.graph, source, oracle.transit, self.failed, "out"
        )
        backward = bounded_dijkstra(
            oracle.graph, target, oracle.transit, self.failed, "in"
        )
        stats.access_seconds = time.perf_counter() - access_start
        stats.graph_settled = forward.settled_count + backward.settled_count

        best = forward.dist.get(target, INFINITY)
        best = self._overlay_search(
            forward.access, backward.access, stats, best
        )
        stats.total_seconds = time.perf_counter() - started
        return QueryResult(distance=best, stats=stats)

    def _overlay_search(
        self,
        seeds: dict[int, float],
        into_target: dict[int, float],
        stats: QueryStats,
        upper_bound: float,
    ) -> float:
        """DISO's overlay Dijkstra using the view's weight memo."""
        best = upper_bound
        dist: dict[int, float] = {}
        heap: list[tuple[float, int]] = []
        for node, d in seeds.items():
            dist[node] = d
            heappush(heap, (d, node))
        settled: set[int] = set()
        memo_before = len(self._weight_memo)
        recompute_start = time.perf_counter()

        while heap:
            d, node = heappop(heap)
            if node in settled:
                continue
            if d >= best:
                break
            settled.add(node)
            tail_distance = into_target.get(node)
            if tail_distance is not None and d + tail_distance < best:
                best = d + tail_distance
            for head, weight in self._out_weights(node).items():
                if head in settled or head == node:
                    continue
                candidate = d + weight
                if candidate < dist.get(head, INFINITY):
                    dist[head] = candidate
                    heappush(heap, (candidate, head))
        stats.overlay_settled += len(settled)
        stats.recomputed_nodes += len(self._weight_memo) - memo_before
        stats.recompute_seconds += time.perf_counter() - recompute_start
        return best

    def query_many(
        self,
        pairs: list[tuple[int, int]],
    ) -> list[float]:
        """Answer a batch of ``(source, target)`` pairs."""
        return [self.query(s, t) for s, t in pairs]

    @property
    def memoized_nodes(self) -> int:
        """Affected nodes whose weights have been recomputed so far."""
        return len(self._weight_memo)
