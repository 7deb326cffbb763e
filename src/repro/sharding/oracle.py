"""Stitched queries over a sharded index: the border overlay walk.

The exact decomposition (DESIGN.md §13): any ``s -> t`` path that
leaves ``shard(s)`` does so for the first time at a border node ``b1``
of ``shard(s)``, and enters ``shard(t)`` for the last time at a border
node ``b2`` of ``shard(t)``.  Between ``b1`` and ``b2`` the path is a
walk in the *border overlay graph* ``H``: its nodes are all border
nodes, its type-1 edges are the original cross-shard edges (both
endpoints are borders by definition), and its type-2 edges are the
within-shard border-to-border distances ``d_k(b, b')``.  So

``d(s, t, F) = min( d_local ,
min over b1 in B(shard(s)), b2 in B(shard(t)) of
d_{shard(s)}(s, b1, F_s)  +  d_H(b1, b2, F)  +  d_{shard(t)}(b2, t, F_t) )``

where ``d_local`` applies only when both endpoints share a shard
(shortest paths may still *escape* a shard and return — same-shard
queries therefore take the min of the local answer and the stitched
walk; the local answer alone is exact only when the shard has no
borders, i.e. no path can escape).

Failure handling: ``F`` is split by ownership.  Edges inside shard
``k`` form ``F_k`` and are forwarded to every leg computed on shard
``k``'s oracle; failed *cross* edges are dropped from the type-1 edges
of ``H``; and for every shard with ``F_k`` non-empty the precomputed
type-2 matrix is *repaired* by re-asking shard ``k``'s oracle under
``F_k`` — but only for the border pairs ``F_k`` can reach.  A failure
changes ``d_k(a, b)`` only if it lies on a shortest ``a -> b`` path,
so :meth:`ShardReach.affected_pairs` marks pair ``(a, b)`` iff some
failed edge ``(u, v, w)`` of shard ``k`` has

``d_k(a, u) + w + d_k(v, b) <= d_k(a, b) * (1 + AFFECTED_SLACK)``

over failure-free in-shard distances; every unmarked entry keeps the
failure-free matrix value.  At least one shortest path of an unmarked
pair avoids ``F_k``, so its distance is unchanged (on integer weights
the test is exact and the kept value bitwise-equal; on float weights
the kept value is within rounding of the re-asked one, far inside the
``AFFECTED_SLACK`` relative bound).  Over-marking only costs re-asks.
Failed pairs that are not edges of the graph are ignored, matching
the unsharded oracles.

:class:`BorderOverlay` holds the thin, oracle-free overlay state (the
part a serving dispatcher keeps in memory); :class:`ShardReach` holds
one shard's failure-free border distances for the affected-pair test
(the serving dispatcher builds it from the shard file's CSR sections
alone); :class:`ShardedOracle` adds the per-shard oracles for fully
in-process stitched queries.  The in-process oracle and the serving
plane repair through the same :meth:`ShardReach.affected_pairs`.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Callable, Iterable, Sequence

from repro.exceptions import QueryError
from repro.graph.csr import FrozenGraph, csr_distances
from repro.graph.digraph import Edge

INFINITY = float("inf")

#: Relative slack of the affected-pair test.  It covers float
#: reassociation: ``d(a, u) + w + d(v, b)`` sums one path's weights in
#: a different order than the search that produced ``d(a, b)``, which
#: moves the result by about (path edges) x 2**-53 relative — far
#: below this bound for any path shorter than ~10**6 edges.  On
#: integer weights every sum is exact and the test marks exactly the
#: pairs with a failed edge on some shortest path (plus pairs within
#: the slack, which costs a re-ask, never correctness).
AFFECTED_SLACK = 1e-9

#: ``adjacency(u)`` yields ``(v, weight)`` overlay edges out of ``u``.
AdjacencyFn = Callable[[int], Iterable[tuple[int, float]]]


def stitch_over_borders(
    sources: list[tuple[int, float]],
    targets: dict[int, float],
    adjacency: AdjacencyFn,
    upper_bound: float = INFINITY,
) -> float:
    """Multi-source Dijkstra over the border overlay graph.

    ``sources`` seeds each entry border with its ``d(s, b1)`` leg,
    ``targets`` maps each exit border to its ``d(b2, t)`` leg, and
    ``adjacency`` enumerates the overlay edges (type-1 cross edges plus
    type-2 within-shard border rows).  Returns the best completed
    ``source-leg + overlay-walk + target-leg`` total, never better than
    ``upper_bound`` (pass the local answer to prune the search).
    """
    best = upper_bound
    # With no reachable exit border, or no finite entry lead, no
    # stitched total can exist — skip the heap entirely rather than
    # seeding a walk that can only drain to ``upper_bound``.
    if not targets or not any(lead < INFINITY for _, lead in sources):
        return best
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    for border, lead in sources:
        if lead < INFINITY and lead < dist.get(border, INFINITY):
            dist[border] = lead
            heapq.heappush(heap, (lead, border))
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, INFINITY) or d >= best:
            continue
        tail = targets.get(u)
        if tail is not None and d + tail < best:
            best = d + tail
        for v, weight in adjacency(u):
            nd = d + weight
            if nd < dist.get(v, INFINITY):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return best


class BorderOverlay:
    """The oracle-free overlay: assignment, borders, matrices, cross edges.

    This is everything a query router needs that is *not* a per-shard
    index: it fits in a dispatcher process without loading any shard
    snapshot, and is what the sharded manifest serializes.
    """

    def __init__(
        self,
        assignment: dict[int, int],
        shard_borders: tuple[tuple[int, ...], ...],
        cross_edges: Iterable[tuple[int, int, float]],
        border_matrices: list[list[list[float]]],
    ) -> None:
        self.assignment = assignment
        self.parts = len(shard_borders)
        self.shard_borders = tuple(tuple(b) for b in shard_borders)
        self.border_matrices = border_matrices
        #: Per shard, ``border -> row index`` into its matrix.
        self.border_index: list[dict[int, int]] = [
            {border: i for i, border in enumerate(borders)}
            for borders in self.shard_borders
        ]
        #: Type-1 overlay edges: ``u -> ((v, w), ...)``, plus the edge
        #: key set for failure filtering.
        cross_adj: dict[int, list[tuple[int, float]]] = {}
        cross_keys: set[Edge] = set()
        for tail, head, weight in cross_edges:
            cross_adj.setdefault(tail, []).append((head, weight))
            cross_keys.add((tail, head))
        self.cross_adjacency = {
            u: tuple(edges) for u, edges in cross_adj.items()
        }
        self.cross_keys = frozenset(cross_keys)
        #: Type-2 overlay edges, failure-free: per shard, per border
        #: row index, ``((b', w), ...)`` with inf/self entries dropped.
        self.type2: list[list[tuple[tuple[int, float], ...]]] = [
            [
                tuple(
                    (self.shard_borders[shard][j], weight)
                    for j, weight in enumerate(row)
                    if j != i and weight < INFINITY
                )
                for i, row in enumerate(matrix)
            ]
            for shard, matrix in enumerate(border_matrices)
        ]

    # ------------------------------------------------------------------
    # Failure routing
    # ------------------------------------------------------------------
    def split_failures(
        self,
        failed: Iterable[Edge] | None,
        reach: Sequence["ShardReach"],
    ) -> tuple[dict[int, frozenset[Edge]], frozenset[Edge]]:
        """Split ``F`` into per-shard sets and the failed cross edges.

        An edge of shard ``k`` (looked up in ``reach[k]``) joins that
        shard's ``F_k``; an edge matching a known cross edge joins the
        cross set; anything else (unknown nodes, non-edges) is dropped —
        the unsharded oracles ignore unknown failures too, and a query
        failing only non-edges plans exactly like its failure-free twin.
        """
        per_shard: dict[int, set[Edge]] = {}
        cross: set[Edge] = set()
        if failed:
            for edge in failed:
                if not isinstance(edge, tuple) or len(edge) != 2:
                    raise QueryError(
                        f"failed edges must be (tail, head) tuples, "
                        f"got {edge!r}"
                    )
                tail, head = edge
                shard_t = self.assignment.get(tail)
                shard_h = self.assignment.get(head)
                if shard_t is None or shard_h is None:
                    continue
                if shard_t == shard_h:
                    if reach[shard_t].has_edge(edge):
                        per_shard.setdefault(shard_t, set()).add(edge)
                elif edge in self.cross_keys:
                    cross.add(edge)
        return (
            {k: frozenset(edges) for k, edges in per_shard.items()},
            frozenset(cross),
        )

    def shards_touched(self, per_shard: dict[int, frozenset[Edge]]) -> list[int]:
        """Shards whose type-2 rows need per-query repair (sorted)."""
        return sorted(
            shard for shard in per_shard if self.shard_borders[shard]
        )

    # ------------------------------------------------------------------
    # Overlay adjacency under a failure set
    # ------------------------------------------------------------------
    def adjacency(
        self,
        repaired: dict[int, list[list[float]]] | None = None,
        cross_failed: frozenset[Edge] | None = None,
    ) -> AdjacencyFn:
        """Overlay adjacency with repairs and cross failures applied.

        ``repaired`` maps a shard id to replacement matrix rows (same
        shape as its failure-free matrix) for shards whose ``F_k`` is
        non-empty; ``cross_failed`` removes type-1 edges.
        """
        if not repaired and not cross_failed:
            return self._adjacency_clean
        repaired = repaired or {}
        cross_failed = cross_failed or frozenset()

        def adjacency(u: int) -> Iterable[tuple[int, float]]:
            shard = self.assignment[u]
            rows = repaired.get(shard)
            if rows is None:
                yield from self.type2[shard][self.border_index[shard][u]]
            else:
                borders = self.shard_borders[shard]
                i = self.border_index[shard][u]
                for j, weight in enumerate(rows[i]):
                    if j != i and weight < INFINITY:
                        yield (borders[j], weight)
            for v, weight in self.cross_adjacency.get(u, ()):
                if (u, v) not in cross_failed:
                    yield (v, weight)

        return adjacency

    def _adjacency_clean(self, u: int) -> Iterable[tuple[int, float]]:
        shard = self.assignment[u]
        yield from self.type2[shard][self.border_index[shard][u]]
        yield from self.cross_adjacency.get(u, ())


class ShardReach:
    """One shard's failure-free distances from and to its borders.

    Built from the shard's CSR alone (no index): one forward and one
    backward Dijkstra per border gives ``d_k(b, x)`` and ``d_k(x, b)``
    for every node ``x`` of the shard.  That is all the affected-pair
    test needs (:meth:`affected_pairs`), plus the shard's edge set for
    dropping failed non-edges (:meth:`has_edge`).  Distances are kept
    node-major in flat ``array('d')`` lanes — ``|V_k| x |B_k|`` floats
    per direction — so one failed edge reads two contiguous slices.
    """

    __slots__ = (
        "num_borders",
        "_index_of",
        "_edge_index",
        "_weights",
        "_into",
        "_out_of",
        "_bound",
    )

    def __init__(self, frozen: FrozenGraph, borders: Sequence[int]) -> None:
        node_ids = frozen.node_ids
        index_of = frozen.index_of
        width = len(borders)
        self.num_borders = width
        # The CSR's own edge lookup: two plain dicts plus a copy of the
        # weights, so the reach outlives a snapshot mapping.
        self._index_of = index_of
        self._edge_index = frozen._edge_index
        self._weights = array("d", frozen._weights)
        lanes = []
        for reverse in (False, True):
            lane = array("d", [INFINITY]) * (len(node_ids) * width)
            for column, border in enumerate(borders):
                lane[column::width] = array(
                    "d", csr_distances(frozen, border, reverse=reverse)
                )
            lanes.append(lane)
        #: ``_into[x * width + i] = d_k(b_i, x)``;
        #: ``_out_of[x * width + j] = d_k(x, b_j)``.
        self._into, self._out_of = lanes
        scale = 1.0 + AFFECTED_SLACK
        self._bound = [
            [
                self._into[index_of[other] * width + i] * scale
                for other in borders
            ]
            for i in range(width)
        ]

    def _find(self, edge: Edge) -> tuple[int, int, float] | None:
        """``(tail index, head index, weight)`` of a shard edge, or
        ``None`` when ``edge`` is not one."""
        tail_label, head_label = edge
        tail = self._index_of.get(tail_label)
        head = self._index_of.get(head_label)
        if tail is None or head is None:
            return None
        position = self._edge_index.get((tail, head))
        if position is None:
            return None
        return tail, head, self._weights[position]

    def has_edge(self, edge: Edge) -> bool:
        """Whether ``(tail, head)`` is an edge of this shard."""
        return self._find(edge) is not None

    def affected_pairs(self, failed: Iterable[Edge]) -> list[tuple[int, int]]:
        """Border pairs ``(i, j)`` whose distance ``failed`` may change.

        Pair ``(b_i, b_j)``, ``i != j``, is marked iff some failed edge
        ``(u, v, w)`` of the shard satisfies ``d(b_i, u) + w + d(v, b_j)
        <= d(b_i, b_j) * (1 + AFFECTED_SLACK)``; failed pairs that are
        not edges of the shard mark nothing.  Unmarked pairs keep their
        failure-free distance under ``failed`` (module docstring).
        Returned row-major, the order repair legs are scanned in.
        """
        width = self.num_borders
        into = self._into
        out_of = self._out_of
        bound = self._bound
        hits: set[tuple[int, int]] = set()
        for edge in failed:
            found = self._find(edge)
            if found is None:
                continue
            tail, head, weight = found
            exits = [
                (j, rest)
                for j, rest in enumerate(
                    out_of[head * width : (head + 1) * width]
                )
                if rest < INFINITY
            ]
            if not exits:
                continue
            for i, lead in enumerate(into[tail * width : (tail + 1) * width]):
                if lead == INFINITY:
                    continue
                lead += weight
                limits = bound[i]
                for j, rest in exits:
                    if lead + rest <= limits[j] and i != j:
                        hits.add((i, j))
        return sorted(hits)


class ShardedOracle:
    """In-process stitched queries: overlay + every shard oracle loaded.

    Answers are exact and — on graphs whose edge weights make float
    addition exact (integer or dyadic weights) — bitwise-equal to the
    unsharded frozen oracle, which the sharded parity suite asserts.
    """

    name = "DISO-SHARD"

    def __init__(
        self,
        overlay: BorderOverlay,
        shard_oracles: list,
    ) -> None:
        if overlay.parts != len(shard_oracles):
            raise ValueError(
                f"overlay has {overlay.parts} shards but "
                f"{len(shard_oracles)} oracles were supplied"
            )
        self.overlay = overlay
        self.shard_oracles = shard_oracles
        self.reach = [
            ShardReach(oracle.frozen, borders)
            for oracle, borders in zip(shard_oracles, overlay.shard_borders)
        ]

    @classmethod
    def from_build(cls, build) -> "ShardedOracle":
        """Wrap a :class:`repro.sharding.build.ShardedBuild`."""
        overlay = BorderOverlay(
            build.plan.assignment,
            build.plan.shard_borders,
            build.plan.cross_edges,
            build.border_matrices,
        )
        return cls(overlay, build.shard_oracles)

    # ------------------------------------------------------------------
    # Query plane
    # ------------------------------------------------------------------
    def repair_rows(
        self, shard: int, failed: frozenset[Edge]
    ) -> list[list[float]]:
        """Shard ``shard``'s border matrix under ``F_k``.

        Only the pairs :meth:`ShardReach.affected_pairs` marks are
        re-asked of the shard oracle; every other entry is the
        failure-free matrix value.
        """
        borders = self.overlay.shard_borders[shard]
        oracle = self.shard_oracles[shard]
        rows = [list(row) for row in self.overlay.border_matrices[shard]]
        for i, j in self.reach[shard].affected_pairs(failed):
            rows[i][j] = oracle.query(borders[i], borders[j], failed)
        return rows

    def query(
        self,
        source: int,
        target: int,
        failed: Iterable[Edge] | None = None,
    ) -> float:
        """Return ``d(source, target, failed)`` via the stitched plan."""
        assignment = self.overlay.assignment
        if source not in assignment:
            raise QueryError(f"source node {source!r} is not in the graph")
        if target not in assignment:
            raise QueryError(f"target node {target!r} is not in the graph")
        shard_s = assignment[source]
        shard_t = assignment[target]
        per_shard, cross_failed = self.overlay.split_failures(
            failed, self.reach
        )
        f_s = per_shard.get(shard_s, frozenset())
        f_t = per_shard.get(shard_t, frozenset())

        local = INFINITY
        if shard_s == shard_t:
            local = self.shard_oracles[shard_s].query(source, target, f_s)
        borders_s = self.overlay.shard_borders[shard_s]
        borders_t = self.overlay.shard_borders[shard_t]
        if not borders_s or not borders_t:
            # No escape from the source shard (or no entry into the
            # target shard): the local answer is already exact.
            return local

        oracle_s = self.shard_oracles[shard_s]
        oracle_t = self.shard_oracles[shard_t]
        sources = [
            (border, oracle_s.query(source, border, f_s))
            for border in borders_s
        ]
        targets = {
            border: leg
            for border in borders_t
            if (leg := oracle_t.query(border, target, f_t)) < INFINITY
        }
        repaired = {
            shard: self.repair_rows(shard, per_shard[shard])
            for shard in self.overlay.shards_touched(per_shard)
        }
        adjacency = self.overlay.adjacency(repaired, cross_failed)
        return stitch_over_borders(
            sources, targets, adjacency, upper_bound=local
        )
