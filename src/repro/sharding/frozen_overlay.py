"""The frozen stitch plane: CSR border overlay + batched stitch kernels.

The scalar stitcher answers every cross-shard query with a pure
Python multi-source Dijkstra (:func:`repro.sharding.oracle.
stitch_over_borders`) plus per-query repaired border rows.  This module
compiles the :class:`~repro.sharding.oracle.BorderOverlay` into NumPy
CSR lanes, so a dispatcher can stitch a whole batch per array
operation instead of per heap pop:

* :class:`FrozenOverlay` — the border overlay as one CSR adjacency over
  *dense border ids* (the remap table ``border_ids`` / ``border_shard``
  / ``border_local``).  Row ``u`` is the node's full-width type-2
  segment (its shard's border-matrix row, diagonal and ``inf`` entries
  included) followed by its type-1 cross edges.  Keeping the segments
  full-width makes failure repair a contiguous overwrite instead of a
  rebuild, and the extra entries are provably inert: a diagonal relaxes
  ``dist + 0.0 == dist`` (never an improvement) and an ``inf`` entry
  can never pass the ``candidate < best`` filter.
* :meth:`FrozenOverlay.stitch_batch` — a multi-source frontier kernel
  over a ``batch x num_borders`` key space (tiled CSR gathers, cumsum
  edge flattening, scatter-min with winner dedup, incumbent pruning
  lanes).  All queries in one call
  share a single *patch* — repaired type-2 blocks and failed cross
  edges — which is exactly how the sharded dispatcher groups them.
* :func:`compute_border_closure` — the failure-free all-pairs
  border-to-border distances over the overlay, precomputed at build
  time so an ``F = empty`` cross-shard query collapses to two leg
  lookups plus one matrix min (:meth:`FrozenOverlay.closure_answer`).
  This mirrors the transit-matrix precompute of the paper's TNR layer.

Bitwise parity with the scalar stitcher
---------------------------------------
The kernel's candidates are the same single float additions the scalar
stitcher performs — ``dist + weight`` per relaxation, ``dist + tail``
per arming, seeds taken verbatim — so both converge to the same labels
bitwise: a min over identical candidate floats does not depend on
relaxation order, and every candidate the kernel prunes (or the scalar
search skips) is ``>= best_final`` by the monotonicity of float
addition with non-negative weights.  The closure fast path is the one
deliberate re-association: it evaluates ``(lead + closure) + tail``
where the scalar walk evaluates ``((lead + w1) + w2 ...) + tail``.  On
graphs whose weights make float addition exact (integer, unit, or
dyadic weights — every graph the sharded parity suite runs, and the
same caveat DESIGN.md §13 already states for sharded-vs-unsharded
parity) the two associations are equal, which the parity tests assert
bitwise.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

import numpy as np

from repro.sharding.oracle import INFINITY, BorderOverlay


def compute_border_closure(overlay: BorderOverlay) -> list[list[float]]:
    """Failure-free all-pairs distances over the border overlay graph.

    Row ``i`` holds ``d_H(b_i, b_j)`` for the globally sorted border
    list (the dense id order of :class:`FrozenOverlay`), computed by
    one Dijkstra per border over the overlay's type-1 + type-2 edges —
    the same ``d + weight`` relaxations
    :func:`~repro.sharding.oracle.stitch_over_borders` performs, so the
    closure entries are bitwise the distances the scalar walk would
    accumulate from a zero seed.  Pure Python and deterministic (the
    overlay's adjacency order is fixed by the sorted plan); ``inf``
    marks unreachable pairs and the diagonal is ``0.0``.
    """
    borders = sorted(
        node for shard in overlay.shard_borders for node in shard
    )
    adjacency = overlay._adjacency_clean
    matrix: list[list[float]] = []
    for source in borders:
        dist: dict[int, float] = {source: 0.0}
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, INFINITY):
                continue
            for v, weight in adjacency(u):
                nd = d + weight
                if nd < dist.get(v, INFINITY):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        matrix.append([dist.get(other, INFINITY) for other in borders])
    return matrix


def compile_overlay_csr(overlay: BorderOverlay) -> dict[str, list]:
    """Compile one overlay to flat CSR lists (pure Python, no numpy).

    Deterministic: dense ids are the globally sorted border list, each
    row is the full-width type-2 segment in local-index order followed
    by the node's cross edges in the plan's sorted cross-edge order —
    equal overlays compile to equal lists and therefore equal manifest
    bytes.  Returned keys: ``border_ids``, ``border_shard``,
    ``border_local``, ``offsets``, ``heads``, ``weights``.
    """
    pairs = sorted(
        (node, shard)
        for shard, shard_borders in enumerate(overlay.shard_borders)
        for node in shard_borders
    )
    border_ids = [node for node, _ in pairs]
    border_shard = [shard for _, shard in pairs]
    border_local = [
        overlay.border_index[shard][node] for node, shard in pairs
    ]
    dense_of = {node: dense for dense, (node, _) in enumerate(pairs)}
    offsets = [0]
    heads: list[int] = []
    weights: list[float] = []
    for dense, (node, shard) in enumerate(pairs):
        local = border_local[dense]
        shard_borders = overlay.shard_borders[shard]
        matrix = overlay.border_matrices[shard]
        for j, other in enumerate(shard_borders):
            heads.append(dense_of[other])
            weights.append(matrix[local][j])
        for head, weight in overlay.cross_adjacency.get(node, ()):
            heads.append(dense_of[head])
            weights.append(weight)
        offsets.append(len(heads))
    return {
        "border_ids": border_ids,
        "border_shard": border_shard,
        "border_local": border_local,
        "offsets": offsets,
        "heads": heads,
        "weights": weights,
    }


class FrozenOverlay:
    """Flat-array (CSR) form of one border overlay, plus its closure.

    Built by :meth:`from_overlay` at save/load time or restored
    zero-copy from the ``frozen.*`` / ``closure.matrix`` sections of a
    ``DSOSHRD1`` manifest
    (:func:`repro.sharding.snapshot.load_frozen_overlay`).  All arrays
    are read-only views or private copies; one instance is safely
    shared by every batch a dispatcher stitches.
    """

    def __init__(
        self,
        border_ids,
        border_shard,
        border_local,
        offsets,
        heads,
        weights,
        closure=None,
    ) -> None:
        #: Dense border id -> node id (globally sorted border list).
        self.border_ids = np.asarray(border_ids, dtype=np.int64)
        #: Dense border id -> owning shard.
        self.border_shard = np.asarray(border_shard, dtype=np.int64)
        #: Dense border id -> row index into its shard's border matrix
        #: (the remap table between dense and per-shard local space).
        self.border_local = np.asarray(border_local, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.heads = np.asarray(heads, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.num_borders = int(self.border_ids.size)
        #: node id -> dense border id.
        self.dense_of = {
            int(node): dense for dense, node in enumerate(self.border_ids)
        }
        self.degrees = self.offsets[1:] - self.offsets[:-1]
        #: Per shard, the dense ids of its borders in local order — the
        #: inverse remap used to overwrite a shard's type-2 blocks.
        parts = int(self.border_shard.max()) + 1 if self.num_borders else 0
        self.shard_dense: list[np.ndarray] = []
        for shard in range(parts):
            dense = np.flatnonzero(self.border_shard == shard)
            # Local order equals dense order within one shard (both are
            # sorted by node id), asserted cheap here once.
            self.shard_dense.append(dense[np.argsort(self.border_local[dense])])
        #: ``(tail, head) -> flat position`` of each type-1 cross edge,
        #: for O(1) failure masking.
        self.cross_slot: dict[tuple[int, int], int] = {}
        #: Row-wise lower bound on the outgoing weight, diagonal slot
        #: excluded.  Failures only ever *grow* overlay weights (repairs
        #: remove edges; cross failures delete edges), so the
        #: failure-free minimum stays a valid pruning bound under every
        #: patch.
        self.min_weight = np.full(self.num_borders, INFINITY)
        for dense in range(self.num_borders):
            start = int(self.offsets[dense])
            stop = int(self.offsets[dense + 1])
            local = int(self.border_local[dense])
            row = self.weights[start:stop].copy()
            width = int(self.shard_dense[int(self.border_shard[dense])].size)
            if width:
                row[local] = INFINITY  # the diagonal is not an edge
            if row.size:
                self.min_weight[dense] = row.min()
            for position in range(start + width, stop):
                head_node = int(self.border_ids[self.heads[position]])
                tail_node = int(self.border_ids[dense])
                self.cross_slot[(tail_node, head_node)] = position
        #: The manifest reader backing zero-copy loads; ``None`` for
        #: overlays compiled in memory.  :meth:`close` releases it.
        self.reader = None
        self.closure = (
            None if closure is None else np.asarray(closure, dtype=np.float64)
        )
        if (
            self.closure is not None
            and self.closure.shape != (self.num_borders, self.num_borders)
        ):
            raise ValueError(
                f"closure shape {self.closure.shape} does not match "
                f"{self.num_borders} borders"
            )

    def close(self) -> None:
        """Release the backing manifest reader, if any."""
        if self.reader is not None:
            self.reader.close()
            self.reader = None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @classmethod
    def from_overlay(
        cls,
        overlay: BorderOverlay,
        closure: list[list[float]] | None = None,
        compute_closure: bool = False,
    ) -> "FrozenOverlay":
        """Compile a :class:`BorderOverlay` into flat CSR arrays.

        The dense-id layout is :func:`compile_overlay_csr`'s.
        ``closure`` attaches a precomputed border closure (row-major
        over dense ids); ``compute_closure=True`` computes one here
        instead.
        """
        csr = compile_overlay_csr(overlay)
        if closure is None and compute_closure:
            closure = compute_border_closure(overlay)
        return cls(
            csr["border_ids"], csr["border_shard"], csr["border_local"],
            csr["offsets"], csr["heads"], csr["weights"],
            closure=closure,
        )

    # ------------------------------------------------------------------
    # Failure patches
    # ------------------------------------------------------------------
    def patched_weights(
        self,
        repaired: dict[int, list[list[float]]] | None = None,
        cross_failed: Iterable[tuple[int, int]] | None = None,
    ):
        """The weight lane under one failure patch.

        ``repaired`` maps a shard id to replacement border-matrix rows
        (full width, diagonal included); ``cross_failed`` masks type-1
        edges to ``inf``.  With no patch the shared base lane is
        returned untouched — callers must not mutate it.
        """
        if not repaired and not cross_failed:
            return self.weights
        weights = self.weights.copy()
        for shard, rows in (repaired or {}).items():
            for local, dense in enumerate(self.shard_dense[shard]):
                start = int(self.offsets[dense])
                row = rows[local]
                weights[start : start + len(row)] = row
        for edge in cross_failed or ():
            slot = self.cross_slot.get(edge)
            if slot is not None:
                weights[slot] = INFINITY
        return weights

    # ------------------------------------------------------------------
    # Failure-free closure fast path
    # ------------------------------------------------------------------
    def closure_answer(
        self,
        sources: list[tuple[int, float]],
        targets: list[tuple[int, float]],
        upper_bound: float = INFINITY,
    ) -> float:
        """One failure-free stitched answer via the precomputed closure.

        ``min(upper, min_{i,j} (lead_i + closure[i, j]) + tail_j)`` —
        two leg lookups and a submatrix min instead of a Dijkstra.
        Requires a closure matrix (:attr:`closure` not ``None``).
        """
        lead_ids = [self.dense_of[b] for b, lead in sources if lead < INFINITY]
        leads = [lead for _, lead in sources if lead < INFINITY]
        tail_ids = [self.dense_of[b] for b, tail in targets if tail < INFINITY]
        tails = [tail for _, tail in targets if tail < INFINITY]
        if not lead_ids or not tail_ids:
            return upper_bound
        through = self.closure[np.ix_(lead_ids, tail_ids)]
        totals = np.asarray(leads, dtype=np.float64)[:, None] + through
        totals += np.asarray(tails, dtype=np.float64)[None, :]
        best = float(totals.min())
        return best if best < upper_bound else upper_bound

    # ------------------------------------------------------------------
    # The batched stitch kernel
    # ------------------------------------------------------------------
    def stitch_batch(
        self,
        queries: list[tuple[list[tuple[int, float]], list[tuple[int, float]], float]],
        repaired: dict[int, list[list[float]]] | None = None,
        cross_failed: Iterable[tuple[int, int]] | None = None,
    ):
        """Stitch every query of one patch group in a single sweep.

        ``queries`` holds ``(sources, targets, upper_bound)`` triples —
        the answered legs of queries sharing one failure patch (the
        sharded dispatcher groups them this way, so repairs are applied
        once per group, not once per query).  Returns a float64 array
        of stitched answers, bitwise-equal to running
        :func:`~repro.sharding.oracle.stitch_over_borders` per query
        over the same patched adjacency.
        """
        batch = len(queries)
        num_borders = self.num_borders
        answers = np.empty(batch, dtype=np.float64)
        for position, (_, _, upper) in enumerate(queries):
            answers[position] = upper
        if not batch or not num_borders:
            return answers
        weights = self.patched_weights(repaired, cross_failed)
        num_keys = batch * num_borders

        # ---- seed: leads into dist, tails into the tail lane --------
        dist = np.full(num_keys, INFINITY)
        tails = np.full(num_keys, INFINITY)
        seed_keys: list[int] = []
        seed_vals: list[float] = []
        for position, (sources, targets, _) in enumerate(queries):
            base = position * num_borders
            for border, lead in sources:
                if lead < INFINITY:
                    seed_keys.append(base + self.dense_of[border])
                    seed_vals.append(lead)
            for border, tail in targets:
                if tail < INFINITY:
                    tails[base + self.dense_of[border]] = tail
        if not seed_keys:
            return answers
        seed_key = np.array(seed_keys, dtype=np.intp)
        seed_dist = np.array(seed_vals, dtype=np.float64)
        dist[seed_key] = seed_dist
        best = answers  # incumbents update in place
        query_of = np.repeat(np.arange(batch, dtype=np.intp), num_borders)
        min_weight = np.tile(self.min_weight, batch)
        # Direct seed->tail candidates arm the incumbents immediately,
        # exactly as the scalar walk checks the tail at every pop.
        seed_query = seed_key // num_borders
        seed_candidates = seed_dist + tails[seed_key]
        improving = seed_candidates < best[seed_query]
        np.minimum.at(best, seed_query[improving], seed_candidates[improving])
        frontier = np.unique(seed_key)

        # ---- frontier sweeps ----------------------------------------
        offsets = self.offsets
        degrees = self.degrees
        heads = self.heads
        while frontier.size:
            frontier_dist = dist[frontier]
            frontier_query = query_of[frontier]
            frontier_best = best[frontier_query]
            keep = (frontier_dist + min_weight[frontier % num_borders]) \
                < frontier_best
            frontier = frontier[keep]
            if not frontier.size:
                break
            frontier_dist = frontier_dist[keep]
            frontier_query = frontier_query[keep]
            frontier_best = frontier_best[keep]
            # Expand: flatten every kept key's row into one edge list
            # (cumsum trick; rows live at the key's border, shared by
            # every query in the group).
            frontier_border = frontier % num_borders
            row_offset = offsets[frontier_border]
            row_degree = degrees[frontier_border]
            total_edges = int(row_degree.sum())
            if total_edges:
                cumulative = np.cumsum(row_degree)
                edge_position = np.arange(total_edges, dtype=np.intp)
                edge_position += np.repeat(
                    row_offset - cumulative + row_degree, row_degree
                )
                candidate = np.repeat(frontier_dist, row_degree)
                candidate += weights[edge_position]
                passing = candidate < np.repeat(frontier_best, row_degree)
                head_key = np.repeat(
                    frontier_query * num_borders, row_degree
                )[passing]
                head_key += heads[edge_position[passing]]
                candidate = candidate[passing]
                improved = candidate < dist[head_key]
                head_key = head_key[improved]
                candidate = candidate[improved]
            else:
                head_key = frontier[:0]
            # Scatter-min, winner dedup, tail arming.
            if head_key.size:
                np.minimum.at(dist, head_key, candidate)
                new_dist = dist[head_key]
                winners = candidate == new_dist
                updated = head_key[winners]
                new_dist = new_dist[winners]
                tail_dist = tails[updated]
                updated_query = query_of[updated]
                arming = (new_dist + tail_dist) < best[updated_query]
                if arming.any():
                    np.minimum.at(
                        best,
                        updated_query[arming],
                        new_dist[arming] + tail_dist[arming],
                    )
                live = updated[new_dist < best[updated_query]]
            else:
                live = frontier[:0]
            # Exact-tie winners can duplicate a key; unique() keeps the
            # next frontier canonical (and sorted, for locality).
            frontier = np.unique(live)
        return answers
