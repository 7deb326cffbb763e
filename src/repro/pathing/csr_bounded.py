"""Bounded Dijkstra compiled to the CSR snapshot (frozen query plane).

:func:`csr_bounded_dijkstra` mirrors :func:`repro.pathing.bounded
.bounded_dijkstra` semantics exactly — settled transit nodes other than
the source are not expanded, failed edges are skipped, access distances
are exact — but runs entirely on integers over a :class:`FrozenGraph`:

* nodes are dense indices, so per-node state lives in flat arrays;
* transit membership is one ``bytearray`` probe instead of a set lookup;
* failures are integer edge ids (one membership test per relaxation),
  translated once per query;
* the backward direction iterates the reverse-adjacency CSR, whose rows
  carry the *forward* edge ids, so the same failure set works unchanged;
* all O(n) scratch state comes from a generation-stamped
  :class:`SearchArena`, so repeated queries allocate only the heap.

This is the access-phase workhorse of the frozen DISO/ADISO engines
(:mod:`repro.oracle.frozen`).
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.graph.csr import INFINITY, FrozenGraph, SearchArena


class CSRBoundedResult:
    """Outcome of one CSR bounded Dijkstra run.

    Attributes
    ----------
    source:
        Dense index of the start node.
    direction:
        ``"out"`` or ``"in"``.
    access:
        ``{transit_dense_index: access_distance}`` — the access-node
        superset ``A*`` with exact distances under the failure set.
    settled_count:
        Number of settled nodes (the ``c_B`` cost proxy).
    arena / generation:
        The arena holding the search's distance labels and the stamp
        they are valid under.  :meth:`distance` reads them; the labels
        die the moment the arena starts another search.
    """

    __slots__ = ("source", "direction", "access", "settled_count",
                 "arena", "generation")

    def __init__(
        self,
        source: int,
        direction: str,
        access: dict[int, float],
        settled_count: int,
        arena: SearchArena,
        generation: int,
    ) -> None:
        self.source = source
        self.direction = direction
        self.access = access
        self.settled_count = settled_count
        self.arena = arena
        self.generation = generation

    def distance(self, index: int) -> float:
        """Labelled distance of dense ``index``, or ``inf`` if unreached.

        Matches ``BoundedSearchResult.dist.get(node, INFINITY)``: at
        termination every labelled node's distance is final.  Only valid
        until the arena begins its next search.
        """
        if self.arena.generation != self.generation:
            raise RuntimeError(
                "arena has been reused; bounded-search labels are stale"
            )
        if self.arena.seen[index] == self.generation:
            return self.arena.dist[index]
        return INFINITY


def csr_bounded_dijkstra(
    frozen: FrozenGraph,
    source: int,
    transit_flags: bytearray,
    failed_edge_ids: frozenset[int] | set[int] | None = None,
    direction: str = "out",
    arena: SearchArena | None = None,
) -> CSRBoundedResult:
    """Run the bounded Dijkstra's algorithm over a CSR snapshot.

    Parameters
    ----------
    frozen:
        The CSR snapshot of ``G``.
    source:
        *Dense index* of the start node (for ``direction="in"``, the
        destination whose in-access nodes are wanted).
    transit_flags:
        ``bytearray`` of length ``|V|`` with 1 at transit indices.
    failed_edge_ids:
        Failed edges as integer edge ids of ``frozen`` (always the
        forward orientation, also for ``direction="in"``).
    direction:
        ``"out"`` to search along out-edges, ``"in"`` along in-edges.
    arena:
        Scratch state sized ``|V|``; a private one is allocated when
        omitted.

    Raises
    ------
    ValueError
        If ``direction`` is invalid, ``source`` is out of range, or the
        arena size does not match the graph.
    """
    if direction not in ("out", "in"):
        raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
    n = len(frozen.node_ids)
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range for n={n}")
    if arena is None:
        arena = SearchArena(n)
    elif arena.size != n:
        raise ValueError(
            f"arena size {arena.size} does not match graph size {n}"
        )

    adjacency = (
        frozen._adjacency if direction == "out" else frozen._radjacency
    )
    check_failed = bool(failed_edge_ids)
    gen = arena.begin()
    dist = arena.dist
    seen = arena.seen
    push = heappush
    pop = heappop

    access: dict[int, float] = {}
    seen[source] = gen
    dist[source] = 0.0
    if transit_flags[source]:
        access[source] = 0.0

    settled_count = 0
    heap: list[tuple[float, int]] = [(0.0, source)]
    # Strict-improvement pushes make ``d > dist[node]`` a complete
    # staleness (and hence settlement) test — no ``done`` lane needed.
    while heap:
        d, node = pop(heap)
        if d > dist[node]:
            continue
        settled_count += 1
        if transit_flags[node] and node != source:
            access[node] = d
            # Do not traverse beyond transit nodes.
            continue
        for other, weight, pos in adjacency[node]:
            if check_failed and pos in failed_edge_ids:
                continue
            candidate = d + weight
            if seen[other] != gen:
                seen[other] = gen
                dist[other] = candidate
                push(heap, (candidate, other))
            elif candidate < dist[other]:
                dist[other] = candidate
                push(heap, (candidate, other))
    return CSRBoundedResult(
        source=source,
        direction=direction,
        access=access,
        settled_count=settled_count,
        arena=arena,
        generation=gen,
    )

