"""Vectorized batch kernel for the frozen DISO overlay search.

``BENCH_query_latency.json`` puts the frozen DISO query at hundreds of
microseconds, almost all of it Python interpreter cost: heap pushes,
tuple unpacking, and per-edge relaxation in
:meth:`repro.oracle.frozen.FrozenDISO._overlay_search`.  For a *batch*
of queries that cost can be paid once per array operation instead of
once per edge: this module evaluates the overlay phase of many queries
simultaneously as a Bellman-Ford-style frontier relaxation over a
``batch x num_transit`` key space, with NumPy doing every gather,
add, mask, and scatter-min.

Bitwise parity with the scalar path
-----------------------------------
The scalar overlay search is a Dijkstra with incumbent pruning; the
kernel is a frontier fixed-point over the *same* rows.  Both converge
to the same labels **bitwise** because every candidate distance is
produced by the same single float addition ``dist[tail] + weight`` of
the same operands — order of relaxation never changes the value of a
min over identical candidates, only how often it is recomputed.  Three
deliberate choices preserve that property (property-tested in
``tests/test_batch_query.py``; each was validated against the scalar
engine over thousands of road-network queries during development):

* **Base-zero repairs.**  The scalar path repairs an affected rank's
  row lazily with ``(base, limit)`` bounds from the search state.  The
  kernel also repairs lazily — an affected ``(query, rank)`` row is
  patched the first time the key survives pruning into the expansion
  frontier — but always with ``base=0`` and ``limit`` equal to the
  query's incumbent at repair time: below the limit the repaired
  weights are the exact (unclamped) values, so candidates are
  identical floats regardless of *when* the repair runs, and heads cut
  by the limit could never win a relaxation anyway (see
  :meth:`DisoBatchKernel._recomputed_weights` for the monotonicity
  argument).
* **Incumbent pruning stays.**  A frontier key is dropped when
  ``dist + min_row_weight >= best[query]`` — the same answer-preserving
  bound the scalar search uses before repairing.
* **No reassociation.**  The kernel never fuses path additions: each
  relaxation is one ``+``; sums are never reordered into different
  float associations (the reason the *ADISO* merged A* search is **not**
  served by this kernel — its float association order is query-state
  dependent, and measured divergence vs. the DISO answer is 1-2 ulp on
  a fifth of road-network queries, so ADISO batches take the scalar
  path; see ``oracle/batch.py``).

The kernel returns ``inf`` for a query whose best overlay answer is
unreachable; the caller (:meth:`FrozenDISO.query_many`) applies the
same DISO-S fallback the scalar path would.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush

import numpy as np

from repro.oracle.base import INFINITY

#: Sweep-pivot tuning: when the frontier exceeds ``PIVOT_MIN`` keys,
#: only the closest ``PIVOT_FRAC`` fraction (never fewer than
#: ``PIVOT_MIN``) is expanded and the rest deferred — a partition-based
#: approximation of Dijkstra ordering that keeps incumbent pruning
#: effective without per-key heap cost.  Values picked empirically on
#: the road2k workload (0.5/2048 beat 0.65-0.75 and 3072+ variants).
PIVOT_FRAC = 0.5
PIVOT_MIN = 2048

#: Queries per kernel invocation.  The sweep state is ``O(block *
#: num_transit)``; past ~300-400 road2k queries the working set leaves
#: cache and throughput regresses, so larger batches are processed in
#: blocks of this size by the caller.
DEFAULT_BLOCK = 384


class DisoBatchKernel:
    """Flat-array form of one frozen DISO index, shared by all batches.

    Built lazily (and kept) by :meth:`FrozenDISO.query_many`; holds
    only read-only views derived from the
    :class:`~repro.overlay.frozen_index.FrozenIndex`, so one kernel is
    safely shared across threads like the index itself.
    """

    def __init__(self, frozen, index) -> None:
        self.frozen = frozen
        self.index = index
        index.build_views()
        self.num_transit = index.num_transit()
        self._build_overlay()
        # Per-rank repair structures, built on first repair of a rank
        # (see _repair_rows).
        self._repair_rows_cache: dict[int, tuple[list, list]] = {}
        # Per-rank "does the subtree at preorder position p contain a
        # transit stop?" flags, for the O(1) no-op repair precheck.
        self._subtree_transit_cache: dict[int, list[bool]] = {}

    def _build_overlay(self) -> None:
        """The overlay arrays, from the index's current rank rows."""
        index = self.index
        # Global overlay CSR over rank space: row r's (head_rank,
        # weight) pairs, weight-sorted exactly as overlay_rank_rows.
        heads: list[int] = []
        weights: list[float] = []
        offsets = [0]
        head_position: list[dict[int, int]] = []
        for rows in index.overlay_rank_rows:
            positions = {}
            for position, (head, weight) in enumerate(rows):
                heads.append(head)
                weights.append(weight)
                positions[head] = position
            offsets.append(len(heads))
            head_position.append(positions)
        self.csr_heads = np.array(heads, dtype=np.int32)
        self.csr_weights = np.array(weights, dtype=np.float64)
        offsets64 = np.array(offsets, dtype=np.int64)
        self.csr_offsets = offsets64[:-1].astype(np.int32)
        self.csr_degrees = (offsets64[1:] - offsets64[:-1]).astype(np.int32)
        self.min_weight = np.array(index.overlay_min_weight, dtype=np.float64)
        self._head_position = head_position

    def refresh(self, ranks, edge_ids) -> None:
        """Follow an in-place patch of the index (see ``apply_delta``).

        ``ranks`` got new trees and overlay rows, ``edge_ids`` new
        weights.  The overlay arrays are rebuilt, and every cached
        structure that baked in old values is dropped: both caches of a
        changed rank, and the repair rows of every rank whose tree holds
        both endpoints of a changed edge — they hold ``stored[pred] +
        weight`` for it even when the tree itself did not change.
        """
        self._build_overlay()
        for rank in ranks:
            self._repair_rows_cache.pop(rank, None)
            self._subtree_transit_cache.pop(rank, None)
        if not edge_ids:
            return
        ends = [self.frozen.endpoints(edge_id) for edge_id in edge_ids]
        trees = self.index.trees
        for rank in list(self._repair_rows_cache):
            pos_of = trees[rank].pos_of
            if any(tail in pos_of and head in pos_of for tail, head in ends):
                del self._repair_rows_cache[rank]

    # ------------------------------------------------------------------
    # Position-space repair engine
    # ------------------------------------------------------------------
    def _repair_rows(self, rank: int) -> tuple[list, list]:
        """Static repair structures of ``rank``, in preorder space.

        ``FrozenIndex.recomputed_out_weights`` spends most of each
        repair re-testing conditions that do not depend on the failure
        set: whether a predecessor is a tree node at all, whether it is
        a non-root transit node, and what ``stored[pred] + weight``
        evaluates to.  This pays all of those once per rank:

        * ``in_candidates[pos]`` — for tree position ``pos``, the
          ``(value, pred_pos, edge_id)`` seed candidates from *tree*
          predecessors that pass the static filters, sorted by value
          (the precomputed ``value = stored[pred_pos] + weight`` is the
          same single float addition the dynamic path performs, so the
          first candidate surviving the failure checks is bitwise the
          same seed the full scan would take as its minimum);
        * ``out_edges[pos]`` — ``(weight, head_pos, edge_id)`` for the
          repair Dijkstra, empty for non-root transit positions (which
          the dynamic path refuses to expand).

        Built lazily per rank and cached: a workload only ever repairs
        the ranks its failures hit.
        """
        cached = self._repair_rows_cache.get(rank)
        if cached is not None:
            return cached
        index = self.index
        tree = index.trees[rank]
        order = tree.order
        pos_of = tree.pos_of
        stored = tree.dist
        root = tree.root
        flags = index.transit_flags
        frozen = self.frozen
        in_candidates: list[list[tuple[float, int, int]]] = []
        out_edges: list[list[tuple[float, int, int]]] = []
        for position, node in enumerate(order):
            candidates = []
            for pred, weight, edge_id in frozen._radjacency[node]:
                pred_pos = pos_of.get(pred)
                if pred_pos is None:
                    continue
                if flags[pred] and pred != root:
                    continue
                candidates.append(
                    (stored[pred_pos] + weight, pred_pos, edge_id)
                )
            candidates.sort()
            in_candidates.append(candidates)
            if flags[node] and node != root:
                out_edges.append([])
                continue
            expansion = []
            for head, weight, edge_id in frozen._adjacency[node]:
                head_pos = pos_of.get(head)
                if head_pos is None:
                    continue
                expansion.append((weight, head_pos, edge_id))
            out_edges.append(expansion)
        built = (in_candidates, out_edges)
        self._repair_rows_cache[rank] = built
        return built

    def _recomputed_weights(
        self,
        rank: int,
        failed_ids: frozenset[int],
        hits: list[int],
        limit: float,
    ) -> dict[int, float]:
        """Changed overlay head weights of ``rank`` under ``failed_ids``.

        Position-space mirror of
        :meth:`FrozenIndex.recomputed_out_weights` with ``base=0``:
        identical candidate floats (see :meth:`_repair_rows`),
        identical seeds, the same confined Dijkstra — only the static
        membership tests are precomputed.  Returns ``{head_rank:
        new_weight}`` with ``inf`` for heads the repair cannot reach.

        ``limit`` is the caller's incumbent ``best[query]`` at repair
        time: seeds and settlements at distance ``>= limit`` are cut,
        reporting those heads as ``inf``.  Answer-safe because repaired
        weights only ever *grow* past the stored ones and incumbents
        only shrink — a cut head's true weight ``w >= limit >=
        best_final`` means every overlay candidate through it
        (``frontier_dist + w >= w``) fails the sweep's
        ``candidate < best`` filter anyway, for the whole rest of the
        search.  Within the limit the repaired values are bitwise the
        ``limit=inf`` values.
        """
        index = self.index
        tree = index.trees[rank]
        size = tree.size
        in_candidates, out_edges = self._repair_rows(rank)
        intervals: list[tuple[int, int]] = []
        last_end = -1
        for pos in sorted(hits):
            if pos < last_end:
                continue
            last_end = pos + size[pos]
            intervals.append((pos, last_end))
        # Dense call-local scratch over tree positions: trees average a
        # few dozen nodes, so a flat list beats dict churn in the hot
        # relaxation loop while keeping the kernel free of shared
        # mutable state.
        new_dist = [INFINITY] * len(size)
        settled = bytearray(len(size))
        heap: list[tuple[float, int]] = []
        push = heappush
        single = len(intervals) == 1
        start0, end0 = intervals[0]
        # Seed every affected position from its cheapest surviving
        # tree predecessor outside the affected region.
        for begin, end in intervals:
            for position in range(begin, end):
                for value, pred_pos, edge_id in in_candidates[position]:
                    if value >= limit:
                        break  # candidates are value-sorted
                    if edge_id in failed_ids:
                        continue
                    if single:
                        if start0 <= pred_pos < end0:
                            continue
                    elif any(s <= pred_pos < e for s, e in intervals):
                        continue
                    new_dist[position] = value
                    push(heap, (value, position))
                    break
        # Repair Dijkstra confined to the affected positions.
        pop = heappop
        while heap:
            d, position = pop(heap)
            if d >= limit:
                break  # min-heap: everything left is >= limit too
            if settled[position]:
                continue
            if d > new_dist[position]:
                continue
            settled[position] = 1
            for weight, head_pos, edge_id in out_edges[position]:
                if settled[head_pos]:
                    continue
                if single:
                    if not start0 <= head_pos < end0:
                        continue
                elif not any(s <= head_pos < e for s, e in intervals):
                    continue
                if edge_id in failed_ids:
                    continue
                candidate = d + weight
                if candidate >= limit:
                    continue
                if candidate < new_dist[head_pos]:
                    new_dist[head_pos] = candidate
                    push(heap, (candidate, head_pos))
        # Collect the overlay heads inside the affected region.
        surviving = index.overlay_head_ranks[rank]
        transit_pos = tree.transit_pos
        transit_ranks = tree.transit_ranks
        count = len(transit_pos)
        changed: dict[int, float] = {}
        for begin, end in intervals:
            i = bisect_left(transit_pos, begin)
            while i < count and transit_pos[i] < end:
                head_rank = transit_ranks[i]
                if head_rank in surviving:
                    changed[head_rank] = new_dist[transit_pos[i]]
                i += 1
        return changed

    # ------------------------------------------------------------------
    # Row repair
    # ------------------------------------------------------------------
    def _subtree_transit(self, rank: int) -> list[bool]:
        """Per-position "subtree contains a transit stop" flags."""
        flags = self._subtree_transit_cache.get(rank)
        if flags is None:
            tree = self.index.trees[rank]
            transit_pos = tree.transit_pos
            size = tree.size
            count = len(transit_pos)
            flags = []
            for position in range(len(size)):
                where = bisect_left(transit_pos, position)
                flags.append(
                    where < count
                    and transit_pos[where] < position + size[position]
                )
            self._subtree_transit_cache[rank] = flags
        return flags

    def _patched_row(
        self, rank: int, failed_ids: frozenset[int], limit: float
    ) -> tuple[list[int], list[float]] | None:
        """The weight patch of ``rank``'s overlay row under ``failed_ids``.

        ``limit`` bounds the repair (see :meth:`_recomputed_weights`);
        pass ``inf`` for the untruncated row.

        Returns ``None`` when the failures leave the stored row exact
        (the common case); otherwise ``(positions, values)`` — the row
        positions whose weights the repair moved and their new values.
        A value of ``inf`` (head unreachable inside the tree region, or
        cut by ``limit``) is written as-is: its candidates fail the
        sweep's ``candidate < best`` filter, exactly as the scalar
        relaxation's skip-on-no-improvement drops them.
        """
        index = self.index
        tree = index.trees[rank]
        edge_pos_get = tree.edge_pos.get
        # A failure only moves overlay weights when some hit subtree
        # contains a transit stop (only transit positions feed overlay
        # heads); one flag probe per hit rules the no-op repairs out
        # before paying for the full recomputation.
        subtree_transit = self._subtree_transit(rank)
        hits: list[int] = []
        has_transit = False
        for edge_id in sorted(failed_ids):
            hit = edge_pos_get(edge_id)
            if hit is None:
                continue
            hits.append(hit)
            if subtree_transit[hit]:
                has_transit = True
        if not has_transit:
            return None
        changed = self._recomputed_weights(rank, failed_ids, hits, limit)
        if not changed:
            return None
        head_position = self._head_position[rank]
        return (
            [head_position[head] for head in changed],
            list(changed.values()),
        )

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def run(
        self,
        prepared: list[tuple[int, int, frozenset[int]]],
        forward_arena=None,
        backward_arena=None,
    ):
        """Best overlay-phase answers for ``prepared``, as a float64 array.

        ``prepared`` holds ``(source_index, target_index,
        failed_edge_ids)`` triples with distinct endpoints in dense
        index space.  Entries left at ``inf`` are unreachable through
        the overlay *and* the locality filter — the caller decides
        whether a DISO-S fallback applies.
        """
        from repro.pathing.csr_bounded import csr_access_batch

        batch = len(prepared)
        num_transit = self.num_transit
        num_keys = batch * num_transit
        index = self.index

        # ---- access phase + affected (query, rank) discovery --------
        inverted = index.inverted
        pending: dict[int, tuple[int, frozenset[int]]] = {}
        aux_capacity = 0
        degrees = self.csr_degrees
        for position, (_, _, failed_ids) in enumerate(prepared):
            if not failed_ids:
                continue
            base = position * num_transit
            seen_ranks: set[int] = set()
            for failed_id in failed_ids:
                for rank in inverted.get(failed_id, ()):
                    if rank not in seen_ranks:
                        seen_ranks.add(rank)
                        pending[base + rank] = (rank, failed_ids)
                        aux_capacity += int(degrees[rank])
        seeds, tails_flat, upper_list = csr_access_batch(
            self.frozen, prepared, index.transit_flags, index.rank_of,
            num_transit, forward_arena, backward_arena,
        )
        upper = np.array(upper_list, dtype=np.float64)

        # ---- lazy repairs: per-key CSR with an aux segment -----------
        # Every key (query * T + rank) starts by aliasing the global
        # row.  Affected keys are repaired *lazily*: when a key first
        # survives pruning into the expansion frontier, its patched row
        # is written into the preallocated aux segment and its offset /
        # degree scatter-overwritten.  Keys the search never reaches —
        # the majority on road workloads, exactly as in the scalar
        # engine — never pay for a repair.  A repaired row never grows
        # (patching only rewrites or drops heads), so the stored
        # degrees bound the aux capacity.
        entry_offsets = np.tile(self.csr_offsets, batch)
        entry_degrees = np.tile(self.csr_degrees, batch)
        base_size = len(self.csr_weights)
        heads = np.empty(base_size + aux_capacity, dtype=np.int32)
        weights = np.empty(base_size + aux_capacity, dtype=np.float64)
        heads[:base_size] = self.csr_heads
        weights[:base_size] = self.csr_weights
        cursor = base_size
        affected_mask = np.zeros(num_keys, dtype=bool)
        if pending:
            affected_mask[
                np.fromiter(pending, dtype=np.int64, count=len(pending))
            ] = True
            # dist[key] at the time of the key's last repair; a later
            # improvement below it re-opens the repair (see the repair
            # block) so the ``best - dist`` limit stays valid.
            repair_floor = np.full(num_keys, -INFINITY)

        # ---- seed --------------------------------------------------
        # Index arrays (frontier, head_key, updated) are kept at the
        # platform index dtype: fancy indexing with anything narrower
        # makes NumPy cast the whole index array on every gather and
        # scatter, which at ~40 sweeps per block adds up.
        query_of = np.repeat(np.arange(batch, dtype=np.intp), num_transit)
        min_weight = np.tile(self.min_weight, batch)
        seed_query = np.array(seeds[0], dtype=np.intp)
        seed_key = seed_query * num_transit + np.array(
            seeds[1], dtype=np.intp
        )
        seed_dist = np.array(seeds[2], dtype=np.float64)
        tails = np.full(num_keys, INFINITY)
        tails[np.array(tails_flat[0], dtype=np.int64)] = np.array(
            tails_flat[1], dtype=np.float64
        )
        dist = np.full(num_keys, INFINITY)
        dist[seed_key] = seed_dist
        best = upper.copy()
        # Direct seed->tail candidates arm the incumbent immediately,
        # exactly as the scalar search seeds its bound.
        seed_candidates = seed_dist + tails[seed_key]
        improving = seed_candidates < best[seed_query]
        np.minimum.at(
            best, seed_query[improving], seed_candidates[improving]
        )
        frontier = seed_key
        mark = np.zeros(num_keys, dtype=bool)

        # ---- frontier sweeps ----------------------------------------
        while frontier.size:
            frontier_dist = dist[frontier]
            frontier_query = query_of[frontier]
            frontier_best = best[frontier_query]
            keep = (
                frontier_dist + min_weight[frontier]
            ) < frontier_best
            frontier = frontier[keep]
            frontier_dist = frontier_dist[keep]
            frontier_query = frontier_query[keep]
            frontier_best = frontier_best[keep]
            if not frontier.size:
                break
            # Partition pivot: expand the nearest keys first so the
            # incumbents tighten before the far keys are considered.
            # The pivot value comes from a strided sample — it only
            # schedules work, so a few percent of quantile noise is
            # free speed (partitioning the full frontier costs more
            # than it saves).
            if frontier.size > PIVOT_MIN:
                stride = frontier.size // PIVOT_MIN + 1
                sample = frontier_dist[::stride]
                split = max(1, int(sample.size * PIVOT_FRAC))
                if split < sample.size:
                    pivot = np.partition(sample, split - 1)[split - 1]
                    selected = frontier_dist <= pivot
                    deferred = frontier[~selected]
                    frontier = frontier[selected]
                    frontier_dist = frontier_dist[selected]
                    frontier_query = frontier_query[selected]
                    frontier_best = frontier_best[selected]
                else:
                    deferred = frontier[:0]
            else:
                deferred = frontier[:0]
            # Repair every affected key about to expand for the first
            # time (repairs are search-state independent below their
            # limit, so the answer is the same as repairing upfront —
            # this just skips the keys the sweep never visits).  The
            # limit is the scalar engine's own ``best - dist`` bound: a
            # head cut by it satisfies ``dist + w >= best`` for the
            # current label, and if the label later *improves* the key
            # is re-flagged below and its row rewritten in place with
            # the wider limit before its next expansion.  The
            # few-ulps pad keeps a candidate that float rounding could
            # drag a hair under ``best`` from being cut — without it
            # bitwise parity with the scalar path would hinge on
            # rounding direction.
            if pending:
                todo = frontier[affected_mask[frontier]]
                if todo.size:
                    affected_mask[todo] = False
                    # Rank-sorted order keeps consecutive repairs on
                    # the same per-rank structures (cache locality).
                    todo = todo[np.argsort(todo % num_transit)]
                    todo_dist = dist[todo]
                    todo_best = best[todo // num_transit]
                    # np.spacing(inf) is nan — keep inf incumbents as
                    # an unbounded limit.
                    limits = np.where(
                        np.isfinite(todo_best),
                        todo_best - todo_dist + 4.0 * np.spacing(todo_best),
                        INFINITY,
                    )
                    base_heads = self.csr_heads
                    base_weights = self.csr_weights
                    base_offsets = self.csr_offsets
                    for key, key_dist, limit in zip(
                        todo.tolist(), todo_dist.tolist(), limits.tolist()
                    ):
                        rank, failed_ids = pending[key]
                        repair_floor[key] = key_dist
                        row = self._patched_row(rank, failed_ids, limit)
                        if row is None:
                            # Limit-independent no-op (no transit stop
                            # in any hit subtree, or no surviving
                            # heads) — never worth re-opening.
                            repair_floor[key] = -INFINITY
                            continue
                        positions, values = row
                        slot = entry_offsets[key]
                        if slot < base_size:  # first repair: claim aux
                            slot = cursor
                            cursor += int(degrees[rank])
                            entry_offsets[key] = slot
                        offset = base_offsets[rank]
                        degree = int(degrees[rank])
                        stop = offset + degree
                        heads[slot:slot + degree] = (
                            base_heads[offset:stop]
                        )
                        weights[slot:slot + degree] = (
                            base_weights[offset:stop]
                        )
                        for position, value in zip(positions, values):
                            weights[slot + position] = value
            # Expand: flatten every kept key's row into one edge list.
            row_offset = entry_offsets[frontier]
            row_degree = entry_degrees[frontier]
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
                    frontier_query * num_transit, row_degree
                )[passing]
                head_key += heads[edge_position[passing]]
                candidate = candidate[passing]
                improved = candidate < dist[head_key]
                head_key = head_key[improved]
                candidate = candidate[improved]
            else:
                head_key = frontier[:0]
            # Update: scatter-min, then re-derive incumbents from the
            # tail lane for every key that moved.
            if head_key.size:
                np.minimum.at(dist, head_key, candidate)
                # Winner dedup: keep the entries whose candidate became
                # the key's new label.  Exact float ties can leave a key
                # duplicated here — harmless (its re-expansion relaxes
                # identical candidates) and far cheaper than a key-space
                # scan per sweep.
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
                if pending:
                    # A repaired key whose label dropped below its
                    # repair-time floor gets its row rebuilt with the
                    # wider ``best - dist`` limit before it expands
                    # again.
                    reopen = updated[new_dist < repair_floor[updated]]
                    if reopen.size:
                        affected_mask[reopen] = True
                live = updated[new_dist < best[updated_query]]
            else:
                live = frontier[:0]
            if deferred.size:
                if live.size:
                    mark[live] = True
                    mark[deferred] = True
                    frontier = np.flatnonzero(mark)
                    mark[frontier] = False
                else:
                    frontier = deferred
            else:
                # Tie-duplicated keys from the winner dedup must not
                # survive into the next frontier (duplicates would
                # re-amplify through every expansion); the deferred
                # branch above already dedups through ``mark``.
                frontier = np.unique(live)
        return best
