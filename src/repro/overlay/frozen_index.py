"""The frozen index — DISO's two-level index compiled to flat arrays.

After preprocessing finishes, the oracle index never changes again (the
paper's stall-avoidance design: queries only read).  That makes it a
perfect candidate for ahead-of-time compilation into the representation
query serving wants:

* **Dense transit ranks.**  Transit nodes get contiguous ranks
  ``0..|T|-1``; the overlay search runs over ranks so its arena is
  ``|T|``-sized, not ``|V|``-sized.
* **Distance graph as CSR.**  Per rank, a materialised tuple of
  ``(head_rank, head_index, weight)`` rows — one sequential scan per
  relaxation, no dict-of-dict hops.
* **Inverted tree index keyed by edge ids.**  ``{edge_id: (ranks...)}``
  — affected-set lookup is ``|F|`` dict probes on integers.
* **Bounded trees in preorder.**  Each stored tree is flattened into
  parallel arrays in *preorder*, with subtree sizes, so the DynDijkstra
  invalidation step ("the subtree below a failed tree edge") is a
  contiguous slice ``[pos, pos + size[pos])`` instead of a pointer
  chase.  ``{edge_id: child_position}`` finds failed tree edges in O(1).

:meth:`FrozenIndex.recomputed_out_weights` mirrors
:func:`repro.pathing.dynamic_spt.recompute_boundary_distances` exactly
(same seeding, same bounded expansion rule, same arithmetic), returning
the repaired distance-graph out-edge weights keyed by transit rank —
only for heads inside an invalidated subtree, since no other weight can
change.  Results are always restricted to the compiled overlay's
out-edges — a no-op for plain DISO (a transit leaf of ``G_u`` is by
definition an overlay neighbour of ``u``) and exactly DISO-S's
surviving-edge filter when the compiled overlay is the sparsified
``D-hat``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections.abc import Mapping
from heapq import heappop, heappush

from repro.graph.csr import INFINITY, FrozenGraph
from repro.overlay.distance_graph import DistanceGraph
from repro.pathing.spt import ShortestPathTree


def _rank_row(rows) -> tuple[tuple[int, float], ...]:
    # Rank rows are sorted by ascending weight so the overlay search
    # can stop scanning a row the moment one relaxation reaches the
    # incumbent bound (every later edge is at least as heavy).
    return tuple(
        sorted(
            ((head_rank, weight) for head_rank, _, weight in rows),
            key=lambda row: row[1],
        )
    )


def _node_row(rows) -> tuple[tuple[int, float], ...]:
    return tuple((head_index, weight) for _, head_index, weight in rows)


def _reverse_key(entry: tuple[int, float]) -> tuple[float, int]:
    # Reverse rows are ordered by (weight, tail rank): weight-sorted for
    # the backward search's early stop, and one canonical order for
    # ties, so a row patched in place equals a freshly built one.
    return (entry[1], entry[0])


class FrozenTree:
    """One bounded shortest path tree flattened to preorder lanes.

    The four lanes are flat typed sequences (``array`` after a compile,
    ``memoryview`` slices of the mapping after a snapshot load).  The
    two dicts the repair paths probe are derived from them by
    :meth:`build_maps`, which :meth:`FrozenIndex.build_views` calls
    before the first query.

    Attributes
    ----------
    root:
        Dense graph index of the tree's root (position 0).
    order:
        Dense graph index per preorder position.
    dist:
        Stored root distance per preorder position.
    size:
        Subtree size per preorder position; the subtree of the node at
        ``pos`` occupies positions ``[pos, pos + size[pos])``.
    edge_ids:
        Per preorder position, the input graph's dense edge id of the
        tree edge into that node (``-1`` at the root).
    edge_pos:
        ``{edge_id: child_position}`` for every tree edge (``None``
        until built).
    pos_of:
        ``{node_index: position}`` — the inverse of ``order`` (``None``
        until built).
    transit_pos / transit_ranks:
        Parallel tuples: the preorder positions of the tree's transit
        leaves (ascending) and their transit ranks (filled by
        :class:`FrozenIndex`, which knows the rank mapping; ``None``
        until then).  Sorted positions make "which overlay heads sit
        inside this invalidated subtree slice" a bisect instead of a
        full scan.
    """

    __slots__ = (
        "root", "order", "dist", "size", "edge_ids", "edge_pos", "pos_of",
        "transit_pos", "transit_ranks",
    )

    def __init__(self, order, dist, size, edge_ids) -> None:
        self.root = order[0]
        self.order = order
        self.dist = dist
        self.size = size
        self.edge_ids = edge_ids
        self.edge_pos: dict[int, int] | None = None
        self.pos_of: dict[int, int] | None = None
        self.transit_pos: tuple[int, ...] | None = None
        self.transit_ranks: tuple[int, ...] | None = None

    def build_maps(self) -> None:
        """Build ``edge_pos`` and ``pos_of`` from the lanes."""
        edge_ids = self.edge_ids
        self.edge_pos = {edge_ids[pos]: pos for pos in range(1, len(edge_ids))}
        self.pos_of = {node: pos for pos, node in enumerate(self.order)}

    def __len__(self) -> int:
        return len(self.order)

    def share(self) -> "FrozenTree":
        """A tree over the same lanes and binding, without the maps."""
        tree = FrozenTree(self.order, self.dist, self.size, self.edge_ids)
        tree.transit_pos = self.transit_pos
        tree.transit_ranks = self.transit_ranks
        return tree

    def bind(self, rank_of: list[int], transit_flags: bytearray) -> None:
        """Fill ``transit_pos``/``transit_ranks`` for a transit set."""
        root = self.root
        pairs = [
            (pos, rank_of[node_index])
            for pos, node_index in enumerate(self.order)
            if transit_flags[node_index] and node_index != root
        ]
        self.transit_pos = tuple(pos for pos, _ in pairs)
        self.transit_ranks = tuple(rank for _, rank in pairs)

    @classmethod
    def from_tree(
        cls, tree: ShortestPathTree, frozen: FrozenGraph
    ) -> "FrozenTree":
        """Flatten ``tree`` (children visited in sorted label order)."""
        index_of = frozen.index_of
        edge_position = frozen.edge_position
        order = array("q")
        dist = array("d")
        size = array("q")
        edge_ids = array("q")
        # Iterative preorder; a sentinel entry closes each subtree so
        # sizes can be filled on the way out.
        stack: list[tuple[int, int]] = [(tree.root, -1)]
        while stack:
            node, marker = stack.pop()
            if marker >= 0:
                size[marker] = len(order) - marker
                continue
            pos = len(order)
            node_index = index_of[node]
            order.append(node_index)
            dist.append(tree.dist[node])
            size.append(1)
            parent = tree.parent[node]
            if parent is None:
                edge_ids.append(-1)
            else:
                edge_id = edge_position(index_of[parent], node_index)
                if edge_id < 0:
                    raise KeyError((parent, node))
                edge_ids.append(edge_id)
            stack.append((node, pos))
            for child in sorted(tree.children(node), reverse=True):
                stack.append((child, -1))
        return cls(order, dist, size, edge_ids)


class FrozenIndex:
    """DISO's finished index compiled for integer-only query serving.

    ``transit_nodes``, ``overlay`` and ``trees`` are the compiled index;
    everything else is derived.  ``rank_of``/``transit_flags`` are built
    at construction; the overlay-derived rows, the inverted index and
    each tree's maps by :meth:`build_views`, which the frozen engines
    call before their first query (so a compile that is only saved
    never builds them).  Until then those attributes are ``None``.

    Attributes
    ----------
    frozen:
        The CSR snapshot of the input graph the index was built on.
    transit_nodes:
        Dense graph index per transit rank (sorted, deterministic).
    rank_of:
        Transit rank per dense graph index (-1 for non-transit nodes).
    transit_flags:
        ``bytearray(|V|)`` with 1 at transit indices — the bounded
        searches' stop test.
    overlay:
        Per rank, a tuple of ``(head_rank, head_index, weight)`` rows of
        the compiled distance graph.
    overlay_rank_rows / overlay_node_rows:
        The same rows pre-projected to ``(head_rank, weight)`` and
        ``(head_index, weight)`` pairs — the shapes the DISO overlay
        search and the ADISO merged search actually consume.
    overlay_min_weight:
        Per rank, the lightest stored out-edge weight (``inf`` for an
        empty row).  Because a repaired weight is a shortest path in a
        subgraph of the stored tree's graph, it can never undercut the
        stored weight — so this is a valid lower bound on *fresh* rows
        too, letting the overlay search skip whole repairs.
    overlay_head_ranks:
        Per rank, the frozenset of out-neighbour ranks (the surviving-
        edge filter for lazy recomputation).
    overlay_reverse_rows:
        Per head rank, a list of ``(tail_rank, weight)`` pairs of its
        overlay in-edges, ordered by ``(weight, tail_rank)`` — what the
        backward half of the overlay search scans.  Built from
        ``overlay`` with the other views, never stored in a snapshot.
    inverted:
        ``{edge_id: (affected_ranks...)}`` — the inverted tree index,
        ranks ascending.
    trees:
        :class:`FrozenTree` per rank.
    """

    __slots__ = (
        "frozen",
        "transit_nodes",
        "rank_of",
        "transit_flags",
        "overlay",
        "overlay_rank_rows",
        "overlay_node_rows",
        "overlay_min_weight",
        "overlay_head_ranks",
        "overlay_reverse_rows",
        "inverted",
        "trees",
    )

    def __init__(
        self,
        frozen: FrozenGraph,
        transit_nodes: list[int],
        overlay: list[tuple[tuple[int, int, float], ...]],
        trees: list[FrozenTree],
    ) -> None:
        self.frozen = frozen
        self.transit_nodes = transit_nodes
        n = frozen.number_of_nodes()
        rank_of = [-1] * n
        transit_flags = bytearray(n)
        for rank, node_index in enumerate(transit_nodes):
            rank_of[node_index] = rank
            transit_flags[node_index] = 1
        self.rank_of = rank_of
        self.transit_flags = transit_flags
        self.overlay = overlay
        self.trees = trees
        for tree in trees:
            # A tree reused from an earlier compile over the same
            # transit set is already bound.
            if tree.transit_pos is None:
                tree.bind(rank_of, transit_flags)
        self.overlay_rank_rows: list | None = None
        self.overlay_node_rows: list | None = None
        self.overlay_min_weight: list[float] | None = None
        self.overlay_head_ranks: list[frozenset[int]] | None = None
        self.overlay_reverse_rows: list[list[tuple[int, float]]] | None = None
        self.inverted: dict[int, tuple[int, ...]] | None = None

    def build_views(self) -> None:
        """Build every derived query view, once.

        That is the graph's adjacency views, the overlay-derived rows,
        each tree's maps and the inverted index.  Query paths call this
        before their first query; a serving worker calls it while it
        loads.  Later calls return at once.
        """
        if self.inverted is not None:
            return
        self.frozen._adjacency  # builds the graph's lazy views
        overlay = self.overlay
        self.overlay_rank_rows = [_rank_row(rows) for rows in overlay]
        self.overlay_node_rows = [_node_row(rows) for rows in overlay]
        self.overlay_min_weight = [
            rows[0][1] if rows else INFINITY
            for rows in self.overlay_rank_rows
        ]
        self.overlay_head_ranks = [
            frozenset(row[0] for row in rows) for rows in overlay
        ]
        reverse: list[list[tuple[int, float]]] = [[] for _ in overlay]
        for tail, rows in enumerate(overlay):
            for head_rank, _, weight in rows:
                reverse[head_rank].append((tail, weight))
        for row in reverse:
            row.sort(key=_reverse_key)
        self.overlay_reverse_rows = reverse
        members: dict[int, list[int]] = {}
        for rank, tree in enumerate(self.trees):
            if tree.edge_pos is None:
                tree.build_maps()
            for edge_id in tree.edge_pos:
                members.setdefault(edge_id, []).append(rank)
        # Set last: a non-None inverted index marks the views built.
        self.inverted = {
            edge_id: tuple(ranks) for edge_id, ranks in members.items()
        }

    @classmethod
    def compile(
        cls,
        frozen: FrozenGraph,
        distance_graph: DistanceGraph,
        trees: Mapping[int, ShortestPathTree],
        transit: frozenset[int] | set[int],
        reuse: Mapping[int, tuple[ShortestPathTree, FrozenTree]] | None = None,
    ) -> "FrozenIndex":
        """Compile a finished dict-based index into flat-array form.

        ``distance_graph`` may be the plain ``D`` or a sparsified
        ``D-hat``; ``trees`` are the stored bounded trees (always the
        unsparsified ones).

        ``reuse`` maps a root label to ``(tree, frozen_tree)`` from an
        earlier compile over the same CSR shape and transit set: when
        ``trees`` still holds that very ``tree`` object, the lanes of
        its ``frozen_tree`` are shared instead of flattened again.
        """
        index_of = frozen.index_of
        transit_nodes = sorted(index_of[label] for label in transit)
        rank_of = {
            node_index: rank for rank, node_index in enumerate(transit_nodes)
        }

        node_ids = frozen.node_ids
        successors = distance_graph.graph.successors
        overlay: list[tuple[tuple[int, int, float], ...]] = []
        for node_index in transit_nodes:
            rows = []
            for head_label, weight in sorted(
                successors(node_ids[node_index]).items()
            ):
                head_index = index_of[head_label]
                rows.append((rank_of[head_index], head_index, weight))
            overlay.append(tuple(rows))

        frozen_trees: list[FrozenTree] = []
        for node_index in transit_nodes:
            label = node_ids[node_index]
            tree = trees[label]
            kept = reuse.get(label) if reuse is not None else None
            if kept is not None and kept[0] is tree:
                frozen_trees.append(kept[1].share())
            else:
                frozen_trees.append(FrozenTree.from_tree(tree, frozen))

        return cls(
            frozen=frozen,
            transit_nodes=transit_nodes,
            overlay=overlay,
            trees=frozen_trees,
        )

    def replace_ranks(
        self,
        updates: Mapping[int, tuple[FrozenTree, tuple]],
    ) -> None:
        """Install ``{rank: (tree, overlay_row)}`` in place.

        The views are built first and kept in step; the inverted
        entries keep ascending rank order and the reverse rows their
        ``(weight, tail_rank)`` order, as a fresh build makes them.  Only
        the reverse rows of a replaced rank's old and new heads are
        touched.  The transit set is unchanged.
        """
        self.build_views()
        inverted = self.inverted
        rank_rows = self.overlay_rank_rows
        reverse = self.overlay_reverse_rows
        for rank in sorted(updates):
            tree, rows = updates[rank]
            tree.bind(self.rank_of, self.transit_flags)
            tree.build_maps()
            old_ids = self.trees[rank].edge_ids
            for pos in range(1, len(old_ids)):
                kept = tuple(r for r in inverted[old_ids[pos]] if r != rank)
                if kept:
                    inverted[old_ids[pos]] = kept
                else:
                    del inverted[old_ids[pos]]
            edge_ids = tree.edge_ids
            for pos in range(1, len(edge_ids)):
                ranks = list(inverted.get(edge_ids[pos], ()))
                insort(ranks, rank)
                inverted[edge_ids[pos]] = tuple(ranks)
            self.trees[rank] = tree
            for head_rank, _, weight in self.overlay[rank]:
                reverse[head_rank].remove((rank, weight))
            for head_rank, _, weight in rows:
                insort(reverse[head_rank], (rank, weight), key=_reverse_key)
            self.overlay[rank] = rows
            rank_rows[rank] = _rank_row(rows)
            self.overlay_node_rows[rank] = _node_row(rows)
            self.overlay_min_weight[rank] = (
                rank_rows[rank][0][1] if rows else INFINITY
            )
            self.overlay_head_ranks[rank] = frozenset(row[0] for row in rows)

    # ------------------------------------------------------------------
    # Query-time lookups
    # ------------------------------------------------------------------
    def num_transit(self) -> int:
        """``|T|`` — the overlay search space (arena size)."""
        return len(self.transit_nodes)

    def affected_ranks(
        self, failed_edge_ids: frozenset[int] | set[int]
    ) -> set[int]:
        """Transit ranks whose stored tree contains a failed edge."""
        affected: set[int] = set()
        inverted = self.inverted
        for edge_id in failed_edge_ids:
            ranks = inverted.get(edge_id)
            if ranks:
                affected.update(ranks)
        return affected

    def recomputed_out_weights(
        self,
        rank: int,
        failed_edge_ids: frozenset[int] | set[int],
        limit: float = INFINITY,
    ) -> dict[int, float] | None:
        """Repaired overlay out-edge weights of ``rank`` under failures.

        Returns ``{head_rank: d_hat(root, head, F)}`` for the overlay
        out-edges whose head sits inside an invalidated subtree — only
        those weights can differ from the stored row (``INFINITY`` marks
        a head the repair could not reach).  Heads absent from the dict
        keep their stored weight, which is simultaneously a valid lower
        bound on every returned value (a repair is a shortest path in a
        subgraph), so a weight-sorted scan of the stored row stays a
        correct traversal order with per-head patching.  Returns ``None``
        when no failed edge is a tree edge of this rank's tree.

        Mirrors the dict path's DynDijkstra repair: invalidate the
        subtrees below failed tree edges, seed the affected nodes from
        surviving entry edges, repair with a Dijkstra confined to the
        affected set, never expanding non-root transit nodes.

        ``limit`` lets the overlay search thread its incumbent bound
        into the repair: any label ``d >= limit`` is dropped.  This is
        answer-preserving — along a shortest path labels only grow
        (non-negative weights) and float addition is monotone, so every
        head whose fresh weight could still beat the incumbent keeps
        exactly the value an unbounded repair would compute; dropped
        heads read ``INFINITY``, which the caller would have discarded
        against the incumbent anyway.
        """
        tree = self.trees[rank]
        edge_pos = tree.edge_pos
        hits = [  # dsolint: disable=DSO101 -- consumed solely through sorted(hits) below
            edge_pos[edge_id]
            for edge_id in failed_edge_ids
            if edge_id in edge_pos
        ]
        if not hits:
            return None
        order = tree.order
        stored = tree.dist
        size = tree.size
        pos_of = tree.pos_of
        # Ancestors precede descendants in preorder and subtree slices
        # are nested-or-disjoint, so walking sorted hits with a running
        # end position yields the disjoint cover intervals; the affected
        # node set then comes from C-speed slice updates.
        affected_idx: set[int] = set()
        intervals: list[tuple[int, int]] = []
        last_end = -1
        for pos in sorted(hits):
            if pos < last_end:
                continue
            last_end = pos + size[pos]
            intervals.append((pos, last_end))
            affected_idx.update(order[pos:last_end])
        root = tree.root
        # Repair state is kept ONLY for affected nodes; unaffected tree
        # nodes answer from the stored preorder arrays, so the whole
        # repair is O(|affected subtree| + incident edges) rather than
        # O(|tree|) per settled affected rank.
        new_dist: dict[int, float] = {}

        frozen = self.frozen
        radjacency = frozen._radjacency
        adjacency = frozen._adjacency
        transit_flags = self.transit_flags
        heap: list[tuple[float, int]] = []
        # Seed: best surviving edge from an unaffected tree node into
        # each affected node.
        for node in affected_idx:
            best = INFINITY
            for pred, weight, edge_id in radjacency[node]:
                if pred in affected_idx:
                    continue
                if edge_id in failed_edge_ids:
                    continue
                pred_pos = pos_of.get(pred)
                if pred_pos is None:
                    continue
                if transit_flags[pred] and pred != root:
                    continue
                candidate = stored[pred_pos] + weight
                if candidate < best:
                    best = candidate
            if best < limit:
                heappush(heap, (best, node))
                new_dist[node] = best

        settled: set[int] = set()
        while heap:
            d, node = heappop(heap)
            if node in settled:
                continue
            if d > new_dist.get(node, INFINITY):
                continue
            settled.add(node)
            if transit_flags[node] and node != root:
                continue
            for head, weight, edge_id in adjacency[node]:
                if head not in affected_idx or head in settled:
                    continue
                if edge_id in failed_edge_ids:
                    continue
                candidate = d + weight
                if candidate >= limit:
                    continue
                if candidate < new_dist.get(head, INFINITY):
                    new_dist[head] = candidate
                    heappush(heap, (candidate, head))

        surviving = self.overlay_head_ranks[rank]
        tpos = tree.transit_pos
        tranks = tree.transit_ranks
        count = len(tpos)
        new_dist_get = new_dist.get
        changed: dict[int, float] = {}
        for start, end in intervals:
            i = bisect_left(tpos, start)
            while i < count and tpos[i] < end:
                head_rank = tranks[i]
                if head_rank in surviving:
                    changed[head_rank] = new_dist_get(order[tpos[i]], INFINITY)
                i += 1
        return changed

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def index_entries(self) -> dict[str, int]:
        """Entry counts of the compiled structures (Table 6 style)."""
        return {
            "distance_graph_nodes": len(self.transit_nodes),
            "distance_graph_edges": sum(len(rows) for rows in self.overlay),
            "tree_nodes": sum(len(tree) for tree in self.trees),
            # One inverted-index entry per tree edge.
            "inverted_index_entries": sum(
                len(tree) - 1 for tree in self.trees
            ),
        }
