"""Compressed sparse row (CSR) graph snapshots.

:class:`DiGraph` optimises for mutation (dict-of-dict adjacency); query
serving wants the opposite trade-off: an immutable snapshot laid out in
flat arrays, with integer-indexed nodes, contiguous adjacency slices,
and O(1) edge-id lookup.  :class:`FrozenGraph` provides that snapshot,
plus a Dijkstra specialised to it (:func:`csr_dijkstra`) that the
Dijkstra baseline can run ~1.5-2x faster than the dict version on large
batches — the closest a pure-Python implementation gets to the paper's
C++ memory layout.

Failed edges are passed as *edge ids* (``frozen.edge_id(u, v)``), which
makes the per-relaxation failure check a membership test against a
small integer set.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush

from repro.exceptions import EdgeNotFoundError, NodeNotFoundError
from repro.graph.digraph import DiGraph

INFINITY = float("inf")

#: The :class:`FrozenGraph` slots built on first access.
_LAZY_VIEWS = frozenset({"_edge_index", "_adjacency", "_radjacency"})


class SearchArena:
    """Reusable, generation-stamped search state for one thread.

    Dijkstra-style searches need O(n) scratch state (distances, settled
    flags, parents).  Allocating it per query dominates small-query cost,
    and clearing it per query is just as bad.  The arena sidesteps both
    with the classic *generation stamp* trick: every array entry carries
    the generation that last wrote it, and :meth:`begin` invalidates the
    whole arena by incrementing a counter — O(1), no clearing.  An entry
    is live only while its stamp equals the current generation.

    One arena serves one thread; concurrent searches must use separate
    arenas (the frozen query engines keep one set per thread via
    ``threading.local``, preserving the paper's no-locking concurrency
    claim).

    Attributes
    ----------
    size:
        Number of addressable slots (``|V|`` of the search space).
    dist:
        Tentative distances; ``dist[i]`` is meaningful only when
        ``seen[i]`` equals the current generation.
    aux:
        A second float lane (A* costs); same validity rule as ``dist``.
    parent:
        Predecessor indices (``-1`` for roots); validity as ``dist``.
    seen:
        Generation stamp marking labelled slots.
    done:
        Generation stamp marking settled slots.
    """

    __slots__ = ("size", "dist", "aux", "parent", "seen", "done", "generation")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("arena size must be non-negative")
        self.size = size
        self.dist: list[float] = [INFINITY] * size
        self.aux: list[float] = [INFINITY] * size
        self.parent: list[int] = [-1] * size
        self.seen: list[int] = [0] * size
        self.done: list[int] = [0] * size
        self.generation = 0

    def begin(self) -> int:
        """Invalidate all state and return the fresh generation stamp."""
        self.generation += 1
        return self.generation

    def is_seen(self, index: int) -> bool:
        """Whether ``index`` was labelled in the current generation."""
        return self.seen[index] == self.generation

    def is_done(self, index: int) -> bool:
        """Whether ``index`` was settled in the current generation."""
        return self.done[index] == self.generation

    def distance(self, index: int) -> float:
        """Current-generation distance of ``index`` (``inf`` if unseen)."""
        if self.seen[index] == self.generation:
            return self.dist[index]
        return INFINITY

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={self.size}, "
            f"generation={self.generation})"
        )


class FrozenGraph:
    """An immutable CSR snapshot of a directed weighted graph.

    The flat arrays (``_offsets``, ``_heads``, ``_weights``) are the
    storage of record.  The Python views the search loops iterate
    (``_adjacency``, ``_radjacency``, ``_edge_index``) are derived from
    them on first access, so a snapshot that is only compiled and saved
    never pays for them.

    Attributes
    ----------
    node_ids:
        The original node labels, indexed by dense index.
    index_of:
        ``{original label -> dense index}``.
    """

    __slots__ = (
        "node_ids",
        "index_of",
        "_offsets",
        "_heads",
        "_weights",
        "_edge_index",
        "_adjacency",
        "_radjacency",
    )

    def __init__(
        self,
        node_ids: list[int],
        offsets: array,
        heads: array,
        weights: array,
    ) -> None:
        self.node_ids = node_ids
        self.index_of = {label: i for i, label in enumerate(node_ids)}
        self._offsets = offsets
        self._heads = heads
        self._weights = weights

    def __getattr__(self, name: str):
        # Only reached for an unset slot: build the lazy views once.
        if name in _LAZY_VIEWS:
            self._build_views()
            return object.__getattribute__(self, name)
        raise AttributeError(name)

    def _build_views(self) -> None:
        offsets = self._offsets
        heads = self._heads
        weights = self._weights
        edge_index: dict[tuple[int, int], int] = {}
        # Pre-sliced (head, weight, edge_id) tuples per node: CPython
        # iterates a materialised tuple list markedly faster than it
        # indexes into arrays, so the search loops run over these while
        # the flat arrays remain the storage of record.
        adjacency: list[tuple[tuple[int, float, int], ...]] = []
        # Reverse adjacency mirrors the forward layout: per head, the
        # (tail, weight, edge_id) triples of all in-edges.  Edge ids are
        # the *forward* positions, so failure sets translate once and
        # work in both directions (backward bounded searches check the
        # same integer ids).
        reverse_rows: list[list[tuple[int, float, int]]] = [
            [] for _ in self.node_ids
        ]
        for tail in range(len(self.node_ids)):
            row = []
            for pos in range(offsets[tail], offsets[tail + 1]):
                head = heads[pos]
                weight = weights[pos]
                edge_index[(tail, head)] = pos
                row.append((head, weight, pos))
                reverse_rows[head].append((tail, weight, pos))
            adjacency.append(tuple(row))
        self._edge_index = edge_index
        self._adjacency = adjacency
        self._radjacency = [tuple(row) for row in reverse_rows]

    def views_built(self) -> bool:
        """Whether the lazy adjacency views exist yet."""
        try:
            object.__getattribute__(self, "_adjacency")
        except AttributeError:
            return False
        return True

    def set_weights(self, changes: dict[int, float]) -> None:
        """Overwrite the weights of edges ``{edge_id: weight}`` in place.

        The weight lane becomes a private copy on the first call (a
        snapshot-loaded graph maps it read-only), and the adjacency rows
        of the changed edges are rebuilt if the views exist.  The shape
        (nodes, edges, edge ids) never changes.
        """
        if not changes:
            return
        weights = self._weights
        if not isinstance(weights, array):
            weights = self._weights = array("d", weights)
        for edge_id, weight in changes.items():
            weights[edge_id] = weight
        if not self.views_built():
            return
        ends = [self.endpoints(edge_id) for edge_id in changes]
        adjacency = self._adjacency
        radjacency = self._radjacency
        for tail in {tail for tail, _ in ends}:
            adjacency[tail] = tuple(
                (head, weights[pos], pos) for head, _, pos in adjacency[tail]
            )
        for head in {head for _, head in ends}:
            radjacency[head] = tuple(
                (tail, weights[pos], pos) for tail, _, pos in radjacency[head]
            )

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        """``(tail, head)`` dense indices of edge ``edge_id``."""
        return bisect_right(self._offsets, edge_id) - 1, self._heads[edge_id]

    def edge_position(self, tail: int, head: int) -> int:
        """Edge id of ``(tail, head)`` by dense index; ``-1`` if absent.

        Rows are sorted by head, so this bisects the tail's row instead
        of building the edge-index dict.
        """
        start, end = self._offsets[tail], self._offsets[tail + 1]
        pos = bisect_left(self._heads, head, start, end)
        if pos < end and self._heads[pos] == head:
            return pos
        return -1

    @classmethod
    def from_digraph(cls, graph: DiGraph) -> "FrozenGraph":
        """Snapshot ``graph`` into CSR form.

        Node labels are sorted for determinism; edges within a node are
        ordered by head label.
        """
        node_ids = sorted(graph.nodes())
        index_of = {label: i for i, label in enumerate(node_ids)}
        offsets = array("l", [0] * (len(node_ids) + 1))
        heads = array("l")
        weights = array("d")
        for i, label in enumerate(node_ids):
            successors = sorted(graph.successors(label).items())
            offsets[i + 1] = offsets[i] + len(successors)
            for head_label, weight in successors:
                heads.append(index_of[head_label])
                weights.append(weight)
        return cls(node_ids, offsets, heads, weights)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def number_of_nodes(self) -> int:
        """Return ``|V|``."""
        return len(self.node_ids)

    def number_of_edges(self) -> int:
        """Return ``|E|``."""
        return len(self._heads)

    def out_degree(self, label: int) -> int:
        """Out-degree of the node with original ``label``."""
        index = self._require(label)
        return self._offsets[index + 1] - self._offsets[index]

    def successors(self, label: int) -> list[tuple[int, float]]:
        """``[(head_label, weight), ...]`` of the node with ``label``."""
        index = self._require(label)
        return [
            (self.node_ids[self._heads[pos]], self._weights[pos])
            for pos in range(self._offsets[index], self._offsets[index + 1])
        ]

    def in_degree(self, label: int) -> int:
        """In-degree of the node with original ``label``."""
        return len(self._radjacency[self._require(label)])

    def predecessors(self, label: int) -> list[tuple[int, float]]:
        """``[(tail_label, weight), ...]`` of the node with ``label``."""
        index = self._require(label)
        return [
            (self.node_ids[tail], weight)
            for tail, weight, _ in self._radjacency[index]
        ]

    def to_digraph(self) -> DiGraph:
        """Reconstruct a mutable :class:`DiGraph` with original labels.

        The inverse of :meth:`from_digraph` up to ordering: node and
        edge sets, labels, and weights round-trip exactly.  Used where a
        ``DiGraph`` is the point: the CLI's ``serve-bench`` generates
        queries on one.  Frozen engines never build one.
        """
        graph = DiGraph()
        graph.add_nodes(self.node_ids)
        node_ids = self.node_ids
        for tail, row in enumerate(self._adjacency):
            tail_label = node_ids[tail]
            for head, weight, _ in row:
                graph.add_edge(tail_label, node_ids[head], weight)
        return graph

    def edge_id(self, tail_label: int, head_label: int) -> int:
        """Dense edge id of ``(tail, head)``; the failure-set currency.

        Raises
        ------
        EdgeNotFoundError
            If the edge does not exist.
        """
        tail = self._require(tail_label)
        head = self.index_of.get(head_label)
        if head is None:
            raise EdgeNotFoundError(tail_label, head_label)
        position = self._edge_index.get((tail, head))
        if position is None:
            raise EdgeNotFoundError(tail_label, head_label)
        return position

    def edge_ids(
        self, edges: set[tuple[int, int]] | frozenset[tuple[int, int]]
    ) -> frozenset[int]:
        """Translate an edge-label failure set to edge ids.

        Unknown edges are silently dropped, matching the oracles'
        treatment of failures naming non-existent edges.
        """
        ids: set[int] = set()
        for tail_label, head_label in edges:
            tail = self.index_of.get(tail_label)
            head = self.index_of.get(head_label)
            if tail is None or head is None:
                continue
            position = self._edge_index.get((tail, head))
            if position is not None:
                ids.add(position)
        return frozenset(ids)

    def _require(self, label: int) -> int:
        index = self.index_of.get(label)
        if index is None:
            raise NodeNotFoundError(label)
        return index


def csr_dijkstra(
    frozen: FrozenGraph,
    source_label: int,
    failed_edge_ids: frozenset[int] | None = None,
    target_label: int | None = None,
    arena: SearchArena | None = None,
) -> dict[int, float]:
    """Dijkstra over a CSR snapshot; distances keyed by original labels.

    The inner loop runs over flat arrays with local-variable aliases —
    the standard CPython micro-optimisation — and checks failures
    against an integer set.  Passing a :class:`SearchArena` (sized
    ``frozen.number_of_nodes()``) reuses its scratch arrays instead of
    allocating fresh O(n) state, which is what batch workloads want.

    Raises
    ------
    NodeNotFoundError
        If ``source_label`` (or ``target_label``) is not in the graph.
    ValueError
        If ``arena`` is sized for a different graph.
    """
    source = frozen._require(source_label)
    target = frozen._require(target_label) if target_label is not None else -1

    adjacency = frozen._adjacency
    n = len(frozen.node_ids)

    if arena is None:
        dist = _dense_dijkstra(adjacency, n, source, failed_edge_ids, target)
        node_ids = frozen.node_ids
        return {
            node_ids[i]: dist[i] for i in range(n) if dist[i] < INFINITY
        }

    check_failed = bool(failed_edge_ids)
    push = heappush
    pop = heappop
    heap: list[tuple[float, int]] = [(0.0, source)]
    if arena.size != n:
        raise ValueError(
            f"arena size {arena.size} does not match graph size {n}"
        )
    gen = arena.begin()
    dist = arena.dist
    seen = arena.seen
    done = arena.done
    touched = [source]
    seen[source] = gen
    dist[source] = 0.0
    while heap:
        d, node = pop(heap)
        if done[node] == gen:
            continue
        done[node] = gen
        if node == target:
            break
        for head, weight, pos in adjacency[node]:
            if done[head] == gen:
                continue
            if check_failed and pos in failed_edge_ids:
                continue
            candidate = d + weight
            if seen[head] != gen:
                seen[head] = gen
                dist[head] = candidate
                touched.append(head)
                push(heap, (candidate, head))
            elif candidate < dist[head]:
                dist[head] = candidate
                push(heap, (candidate, head))
    node_ids = frozen.node_ids
    return {node_ids[i]: dist[i] for i in touched}


def _dense_dijkstra(
    adjacency: list,
    n: int,
    source: int,
    failed_edge_ids: frozenset[int] | None,
    target: int,
) -> list[float]:
    """Dijkstra over pre-sliced adjacency rows; distances by dense index.

    Stops once ``target`` (a dense index, ``-1`` for none) is settled,
    leaving tentative labels on the nodes not yet settled.
    """
    check_failed = bool(failed_edge_ids)
    push = heappush
    pop = heappop
    heap: list[tuple[float, int]] = [(0.0, source)]
    dist = [INFINITY] * n
    dist[source] = 0.0
    settled = bytearray(n)
    while heap:
        d, node = pop(heap)
        if settled[node]:
            continue
        settled[node] = 1
        if node == target:
            break
        for head, weight, pos in adjacency[node]:
            if settled[head]:
                continue
            if check_failed and pos in failed_edge_ids:
                continue
            candidate = d + weight
            if candidate < dist[head]:
                dist[head] = candidate
                push(heap, (candidate, head))
    return dist


def csr_distances(
    frozen: FrozenGraph, source_label: int, reverse: bool = False
) -> list[float]:
    """All distances from ``source_label``, indexed by dense node index.

    ``inf`` marks unreachable nodes.  ``reverse=True`` searches the
    in-edges (``FrozenGraph._radjacency``) instead, so entry ``x`` is
    ``d(x, source)``.  The dense list is what callers laying distances
    out in flat arrays want; :func:`csr_dijkstra` runs the same search
    and keys the result by label.

    Raises
    ------
    NodeNotFoundError
        If ``source_label`` is not in the graph.
    """
    source = frozen._require(source_label)
    adjacency = frozen._radjacency if reverse else frozen._adjacency
    return _dense_dijkstra(adjacency, len(frozen.node_ids), source, None, -1)


def csr_distance(
    frozen: FrozenGraph,
    source_label: int,
    target_label: int,
    failed_edge_ids: frozenset[int] | None = None,
    arena: SearchArena | None = None,
) -> float:
    """Point-to-point distance over a CSR snapshot (``inf`` if cut off).

    With a :class:`SearchArena` the query allocates nothing but the
    heap, turning the per-query cost from O(n + search) into O(search).
    """
    source = frozen._require(source_label)
    target = frozen._require(target_label)
    adjacency = frozen._adjacency
    n = len(frozen.node_ids)
    check_failed = bool(failed_edge_ids)
    push = heappush
    pop = heappop
    heap: list[tuple[float, int]] = [(0.0, source)]

    if arena is None:
        dist = [INFINITY] * n
        dist[source] = 0.0
        settled = bytearray(n)
        while heap:
            d, node = pop(heap)
            if settled[node]:
                continue
            if node == target:
                return d
            settled[node] = 1
            for head, weight, pos in adjacency[node]:
                if settled[head]:
                    continue
                if check_failed and pos in failed_edge_ids:
                    continue
                candidate = d + weight
                if candidate < dist[head]:
                    dist[head] = candidate
                    push(heap, (candidate, head))
        return INFINITY

    if arena.size != n:
        raise ValueError(
            f"arena size {arena.size} does not match graph size {n}"
        )
    gen = arena.begin()
    dist = arena.dist
    seen = arena.seen
    done = arena.done
    seen[source] = gen
    dist[source] = 0.0
    while heap:
        d, node = pop(heap)
        if done[node] == gen:
            continue
        if node == target:
            return d
        done[node] = gen
        for head, weight, pos in adjacency[node]:
            if done[head] == gen:
                continue
            if check_failed and pos in failed_edge_ids:
                continue
            candidate = d + weight
            if seen[head] != gen:
                seen[head] = gen
                dist[head] = candidate
                push(heap, (candidate, head))
            elif candidate < dist[head]:
                dist[head] = candidate
                push(heap, (candidate, head))
    return INFINITY
