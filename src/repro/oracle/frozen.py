"""The frozen query plane — DISO/ADISO queries compiled to integers.

The oracles' indexes are read-only after preprocessing, yet the dict
engines (:class:`DISO`, :class:`ADISO`) run every hot phase — bounded
searches, inverted-index lookups, the overlay search with lazy
DynDijkstra repair — over dict-of-dict structures, allocating fresh
O(n) state per query.  ``freeze()`` compiles the finished index once
(:class:`repro.overlay.frozen_index.FrozenIndex` + a
:class:`repro.graph.csr.FrozenGraph` with a reverse CSR) and this module
serves the queries from flat arrays:

* nodes are dense indices, failures are integer edge-id sets,
  transit-stop flags are one ``bytearray`` probe;
* the DISO overlay search is the paper's §4.1.3 bidirectional Dijkstra
  (:meth:`FrozenDISO._overlay_search`), run in dense transit-rank
  space over weight-sorted forward and reverse overlay rows, with a
  per-query memo of repaired rows — the only overlay search of the
  frozen DISO and DISO-S engines;
* all O(n)/O(|T|) scratch state comes from generation-stamped
  :class:`~repro.graph.csr.SearchArena` instances — preallocated once,
  invalidated per query by a counter bump, never cleared;
* each *thread* gets its own arena set via ``threading.local``, so the
  paper's no-locking concurrency claim survives: concurrent queries on
  one shared frozen index never touch shared mutable state.

Answer parity is exact, not approximate.  A frozen DISO or DISO-S
engine performs the float additions of the dict engine's bidirectional
variant (:class:`~repro.oracle.diso_bi.DISOBidirectional`), and a
frozen ADISO those of :class:`ADISO`, so their distances are
``==``-equal (property-tested in ``tests/test_frozen_plane.py``).
Against the forward-only dict :class:`DISO` a float-weight answer may
differ in the last bits — the two searches split the same shortest
path at different meeting nodes — and on integer weights every path
equals Dijkstra exactly.  Batches (:meth:`FrozenDISO.query_many`) run
the same search per query.
"""

from __future__ import annotations

import threading
import time
from heapq import heappop, heappush

from repro.graph.csr import FrozenGraph, SearchArena, csr_distance
from repro.graph.digraph import DiGraph, Edge
from repro.oracle.base import (
    INFINITY,
    DistanceSensitivityOracle,
    QueryResult,
    QueryStats,
    normalize_failures,
)
from repro.overlay.frozen_index import FrozenIndex, FrozenTree
from repro.pathing.csr_bounded import csr_bounded_dijkstra


class _ArenaSet:
    """Per-thread scratch state for one frozen engine."""

    __slots__ = ("forward", "backward", "overlay", "overlay_back", "search")

    def __init__(self, num_nodes: int, num_transit: int) -> None:
        self.forward = SearchArena(num_nodes)
        self.backward = SearchArena(num_nodes)
        self.overlay = SearchArena(num_transit)
        self.overlay_back = SearchArena(num_transit)
        self.search = SearchArena(num_nodes)


class FrozenDISO(DistanceSensitivityOracle):
    """DISO's 4-step query served from a compiled flat-array index.

    Built via ``DISO.freeze()`` (also from DISO-S, whose sparsified
    overlay and Dijkstra fallback are preserved).  The source oracle's
    index is compiled once; the source itself is not retained — not
    even its live graph.  Endpoint checks and node-failure expansion
    read the engine's own :class:`FrozenGraph`, so later maintenance
    of the source oracle never leaks into a frozen engine's answers.

    Parameters
    ----------
    oracle:
        A fully built :class:`repro.oracle.diso.DISO` (or subclass).
    fallback_graph:
        Original unsparsified graph for the DISO-S safety net: when the
        compiled index reports the target unreachable, the answer is
        recomputed exactly on this graph (CSR Dijkstra).  ``None`` for
        exact oracles, which need no net.
    """

    exact = True

    def __init__(
        self,
        oracle,
        fallback_graph: DiGraph | None = None,
    ) -> None:
        started = time.perf_counter()
        self.name = f"{oracle.name}-F"
        self.exact = oracle.exact
        self.frozen = FrozenGraph.from_digraph(oracle.graph)
        trees = {
            root: oracle.trees.tree(root) for root in oracle.trees.roots()
        }
        self.index = FrozenIndex.compile(
            self.frozen, oracle.distance_graph, trees, oracle.transit
        )
        self._fallback: FrozenGraph | None = (
            FrozenGraph.from_digraph(fallback_graph)
            if fallback_graph is not None
            else None
        )
        self._local = threading.local()
        self.freeze_seconds = time.perf_counter() - started
        self.preprocess_seconds = oracle.preprocess_seconds + self.freeze_seconds

    @classmethod
    def _restore(
        cls,
        frozen: FrozenGraph,
        index: FrozenIndex,
        fallback: FrozenGraph | None,
        name: str,
        exact: bool,
        preprocess_seconds: float,
        freeze_seconds: float,
    ) -> "FrozenDISO":
        """Rebuild an engine from already-compiled parts.

        The snapshot loader (:mod:`repro.oracle.snapshot`) constructs
        the compiled structures directly over mapped buffers; this
        bypasses ``__init__`` (which compiles from a dict oracle) and
        wires the finished parts together.
        """
        oracle = cls.__new__(cls)
        oracle.name = name
        oracle.exact = exact
        oracle.frozen = frozen
        oracle.index = index
        oracle._fallback = fallback
        oracle._local = threading.local()
        oracle.freeze_seconds = freeze_seconds
        oracle.preprocess_seconds = preprocess_seconds
        return oracle

    def apply_delta(
        self,
        weights: dict[int, float],
        ranks: dict[int, tuple[FrozenTree, tuple]],
    ) -> None:
        """Patch this engine in place into a same-shape successor index.

        ``weights`` maps edge ids to new weights and ``ranks`` maps
        transit ranks to their new ``(tree, overlay_row)``; the node
        set, the CSR shape and the transit set must be unchanged.  The
        views follow the patch, so the engine answers bitwise as one
        loaded fresh from the successor.
        """
        self.frozen.set_weights(weights)
        self.index.replace_ranks(ranks)

    def close(self) -> None:
        """Release the snapshot mapping this engine was loaded from.

        Only engines from :func:`~repro.oracle.snapshot.load_snapshot`
        hold one; for them the engine must not be queried afterwards.
        Idempotent, and a no-op for engines built by ``freeze()``.
        """
        reader = getattr(self, "_snapshot_reader", None)
        if reader is not None:
            self._snapshot_reader = None
            reader.close()

    def __enter__(self) -> "FrozenDISO":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _has_node(self, node: int) -> bool:
        return node in self.frozen.index_of

    def _incident_edges(self, node: int) -> list[Edge]:
        frozen = self.frozen
        return [(node, head) for head, _ in frozen.successors(node)] + [
            (tail, node) for tail, _ in frozen.predecessors(node)
        ]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.frozen.number_of_nodes()}, "
            f"edges={self.frozen.number_of_edges()})"
        )

    # ------------------------------------------------------------------
    # Arenas
    # ------------------------------------------------------------------
    def _arenas(self) -> _ArenaSet:
        """This thread's arena set (created on first use, then reused)."""
        arenas = getattr(self._local, "arenas", None)
        if arenas is None:
            # The first query in any thread makes sure the index's
            # derived views exist.
            self.index.build_views()
            arenas = _ArenaSet(
                self.frozen.number_of_nodes(), self.index.num_transit()
            )
            self._local.arenas = arenas
        return arenas

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------
    def query_many(self, queries) -> list[float]:
        """Answer a batch of queries; same answers as the scalar loop.

        ``queries`` holds :class:`~repro.workload.queries.Query`
        objects or ``(source, target, failed)`` triples.  Answers are
        **bitwise identical** to ``[self.query(...) for ...]``
        (property-tested): the batch runs the scalar search per query
        and only shares the failure translation between queries with
        the same failure set.  An invalid query raises exactly what the
        scalar loop would raise at its position; use
        :meth:`answer_many` for the per-query sentinel form instead.
        """
        answers, failures = self._answer_many(queries)
        if failures:
            raise failures[0][1]
        return answers

    def answer_many(
        self, queries
    ) -> tuple[list[float], list[tuple[int, str]]]:
        """Batch answers with per-query error capture (serving form).

        Mirrors the worker's per-query error channel: a query that
        would raise contributes NaN at its position plus a
        ``(position, "ExcType: message")`` entry, and its neighbours
        are answered normally.
        """
        answers, failures = self._answer_many(queries)
        return answers, [
            (position, f"{type(exc).__name__}: {exc}")
            for position, exc in failures
        ]

    def _answer_many(self, queries):
        from repro.oracle.batch import as_query_triple

        triples = [as_query_triple(query) for query in queries]
        answers: list[float] = []
        failures: list[tuple[int, Exception]] = []
        arenas = self._arenas()
        # A batch reports no per-query stats; one scratch record serves.
        stats = QueryStats()
        # Edge ids, affected ranks and repaired rows depend only on the
        # failure set, and the legs of one sharded request all share it.
        states: dict[frozenset, tuple] = {}
        for position, (source, target, failed) in enumerate(triples):
            try:
                self._validate_endpoints(source, target)
                fail_set = normalize_failures(
                    frozenset(failed) if failed else None
                )
                if source == target:
                    answers.append(0.0)
                    continue
                state = states.get(fail_set)
                if state is None:
                    state = states[fail_set] = self._failure_state(fail_set)
                answers.append(
                    self._distance(source, target, fail_set, *state,
                                   stats, arenas)
                )
            except Exception as exc:
                answers.append(float("nan"))
                failures.append((position, exc))
        return answers, failures

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
        distance = 0.0
        if source != target:
            arenas = self._arenas()
            distance = self._distance(
                source, target, fail_set, *self._failure_state(fail_set),
                stats, arenas,
            )
        stats.total_seconds = time.perf_counter() - started
        return QueryResult(distance=distance, stats=stats)

    def _failure_state(
        self, fail_set: frozenset[Edge]
    ) -> tuple[frozenset[int], set[int], dict[int, tuple]]:
        """What depends on ``F`` alone: its edge ids, the transit ranks
        whose trees it hits, and an empty store for their repaired
        rows (filled by :meth:`_overlay_search`)."""
        failed_ids = (
            self.frozen.edge_ids(fail_set) if fail_set else frozenset()
        )
        return failed_ids, self.index.affected_ranks(failed_ids), {}

    def _access(
        self,
        source: int,
        target: int,
        failed_ids: frozenset[int],
        stats: QueryStats,
        arenas: _ArenaSet,
    ):
        """Both bounded access searches, on this thread's arenas."""
        frozen = self.frozen
        flags = self.index.transit_flags
        index_of = frozen.index_of
        access_start = time.perf_counter()
        forward = csr_bounded_dijkstra(
            frozen, index_of[source], flags, failed_ids, "out",
            arenas.forward,
        )
        backward = csr_bounded_dijkstra(
            frozen, index_of[target], flags, failed_ids, "in",
            arenas.backward,
        )
        stats.access_seconds = time.perf_counter() - access_start
        stats.graph_settled = forward.settled_count + backward.settled_count
        return forward, backward

    def _distance(
        self,
        source: int,
        target: int,
        fail_set: frozenset[Edge],
        failed_ids: frozenset[int],
        affected: set[int],
        repaired: dict[int, tuple],
        stats: QueryStats,
        arenas: _ArenaSet,
    ) -> float:
        """``d(s, t, F)`` for ``s != t``: the scalar and batch paths' core."""
        stats.affected_count = len(affected)
        forward, backward = self._access(
            source, target, failed_ids, stats, arenas
        )
        # Locality-filter answer: d_hat(s, t, F) when t lies in s's
        # transit-free region.
        best = forward.distance(backward.source)
        overlay_best = self._overlay_search(
            forward.access, backward.access, failed_ids, affected, repaired,
            stats, best, arenas,
        )
        if overlay_best < best:
            best = overlay_best
        if best == INFINITY and self._fallback is not None:
            # DISO-S safety net: answer exactly on the original graph.
            fallback_ids = self._fallback.edge_ids(fail_set)
            best = csr_distance(
                self._fallback, source, target, fallback_ids, arenas.search
            )
            stats.used_fallback = True
        return best

    def _overlay_search(
        self,
        seeds: dict[int, float],
        into_target: dict[int, float],
        failed_ids: frozenset[int],
        affected: set[int],
        repaired: dict[int, tuple],
        stats: QueryStats,
        upper_bound: float,
        arenas: _ArenaSet,
    ) -> float:
        """Bidirectional Dijkstra on ``D``, in transit-rank space.

        The paper's §4.1.3 suggestion, as :class:`~repro.oracle.diso_bi.
        DISOBidirectional` runs it on the dict index: a forward search
        from ``s``'s out-access nodes over overlay out-rows and a
        backward search from ``t``'s in-access nodes over the reverse
        rows, alternating on the smaller queue top and stopping once
        ``top_f + top_b`` reaches the best meeting.  ``seeds`` and
        ``into_target`` are the access maps in graph-index space; each
        direction keeps its labels in its own rank arena.

        Both directions scan weight-sorted rows and stop at the first
        candidate that reaches the incumbent.  An affected rank's
        repaired out-weights are computed by whichever direction needs
        them first and kept in ``repaired`` as ``rank -> (limit,
        weights)``: a repair bounded by ``limit`` is exact below it, so
        it serves every later use whose incumbent is at most ``limit``
        — the rest of the query, and the next queries of a batch with
        the same failure set.  A stored weight lower-bounds its repaired
        one, so the early stop stays safe on their rows too.  Every
        candidate that pruning skips is at least the final answer, and
        a label that does not improve meets nothing a better label has
        not met already, so the answer is the float
        :class:`DISOBidirectional` returns.
        """
        index = self.index
        rows_out = index.overlay_rank_rows
        rows_in = index.overlay_reverse_rows
        min_weight = index.overlay_min_weight
        rank_of = index.rank_of
        push = heappush
        pop = heappop
        best = upper_bound
        gen_f = arenas.overlay.begin()
        dist_f = arenas.overlay.dist
        seen_f = arenas.overlay.seen
        gen_b = arenas.overlay_back.begin()
        dist_b = arenas.overlay_back.dist
        seen_b = arenas.overlay_back.seen
        heap_f: list[tuple[float, int]] = []
        heap_b: list[tuple[float, int]] = []
        for node_index, d in into_target.items():
            rank = rank_of[node_index]
            seen_b[rank] = gen_b
            dist_b[rank] = d
            heap_b.append((d, rank))
        for node_index, d in seeds.items():
            rank = rank_of[node_index]
            seen_f[rank] = gen_f
            dist_f[rank] = d
            heap_f.append((d, rank))
            if seen_b[rank] == gen_b:
                meeting = d + dist_b[rank]
                if meeting < best:
                    best = meeting
        heap_f.sort()
        heap_b.sort()

        recompute_seconds = 0.0
        recomputed = 0
        settled_count = 0
        # Strict-improvement pushes make ``d > dist[rank]`` a complete
        # staleness (and hence settlement) test in either direction.
        # A label is always recorded (the other direction meets it),
        # but queued only while it plus the other queue's top is below
        # the incumbent: queue tops never fall and the incumbent never
        # rises, so a label that fails the test could only be popped
        # after the stop test below has already ended the search.
        while heap_f or heap_b:
            top_f = heap_f[0][0] if heap_f else INFINITY
            top_b = heap_b[0][0] if heap_b else INFINITY
            if top_f + top_b >= best:
                break
            if top_f <= top_b:
                d, rank = pop(heap_f)
                if d > dist_f[rank]:
                    continue
                settled_count += 1
                changed = None
                if rank in affected:
                    # A repaired weight never undercuts the stored one,
                    # so when even the lightest stored edge cannot beat
                    # the incumbent, neither can any repaired edge.
                    if d + min_weight[rank] >= best:
                        continue
                    entry = repaired.get(rank)
                    if entry is not None and entry[0] >= best:
                        changed = entry[1]
                    else:
                        tick = time.perf_counter()
                        changed = index.recomputed_out_weights(
                            rank, failed_ids, best
                        )
                        repaired[rank] = (best, changed)
                        recompute_seconds += time.perf_counter() - tick
                        recomputed += 1
                for head, weight in rows_out[rank]:
                    candidate = d + weight
                    if candidate >= best:
                        break
                    if changed:
                        patched = changed.get(head)
                        if patched is not None:
                            candidate = d + patched
                            if candidate >= best:
                                continue
                    if seen_f[head] != gen_f:
                        seen_f[head] = gen_f
                    elif candidate >= dist_f[head]:
                        continue
                    dist_f[head] = candidate
                    if candidate + top_b < best:
                        push(heap_f, (candidate, head))
                    if seen_b[head] == gen_b:
                        meeting = candidate + dist_b[head]
                        if meeting < best:
                            best = meeting
            else:
                d, rank = pop(heap_b)
                if d > dist_b[rank]:
                    continue
                settled_count += 1
                for tail, weight in rows_in[rank]:
                    candidate = d + weight
                    if candidate >= best:
                        break
                    if tail in affected:
                        entry = repaired.get(tail)
                        if entry is not None and entry[0] >= best:
                            changed = entry[1]
                        else:
                            tick = time.perf_counter()
                            changed = index.recomputed_out_weights(
                                tail, failed_ids, best
                            )
                            repaired[tail] = (best, changed)
                            recompute_seconds += time.perf_counter() - tick
                            recomputed += 1
                        if changed:
                            patched = changed.get(rank)
                            if patched is not None:
                                candidate = d + patched
                                if candidate >= best:
                                    continue
                    if seen_b[tail] != gen_b:
                        seen_b[tail] = gen_b
                    elif candidate >= dist_b[tail]:
                        continue
                    dist_b[tail] = candidate
                    if top_f + candidate < best:
                        push(heap_b, (candidate, tail))
                    if seen_f[tail] == gen_f:
                        meeting = candidate + dist_f[tail]
                        if meeting < best:
                            best = meeting
        stats.overlay_settled += settled_count
        stats.recompute_seconds += recompute_seconds
        stats.recomputed_nodes += recomputed
        return best

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def index_entries(self) -> dict[str, int]:
        return self.index.index_entries()


class FreezeMemo:
    """What a DISO keeps between freezes, so a re-freeze compiles only
    what changed.

    It holds the CSR shape (labels, offsets, heads), the transit set,
    and per root the :class:`ShortestPathTree` object last compiled and
    a :class:`FrozenTree` over the lanes made from it.  :meth:`freeze`
    snapshots the graph afresh and, when the node set, the CSR shape and
    the transit set are the remembered ones, reuses the lanes of every
    root whose tree object is still the one compiled last time
    (maintenance swaps the object of every tree it rebuilds, so
    identity is exact).  Engines get their own :class:`FrozenTree`
    objects over shared lanes, so the maps a query builds on them never
    reach the memo: it keeps compact lanes only, however the engines it
    returned are used.  The overlay rows are compiled afresh each time.
    The result equals a full ``FrozenDISO(oracle)`` bitwise.
    """

    __slots__ = ("node_ids", "offsets", "heads", "transit", "trees")

    def __init__(self) -> None:
        self.node_ids: list[int] | None = None
        self.offsets = None
        self.heads = None
        self.transit: frozenset[int] | None = None
        self.trees: dict = {}

    def freeze(self, oracle) -> FrozenDISO:
        """Compile ``oracle`` (a DISO), reusing what the last call made."""
        started = time.perf_counter()
        frozen = FrozenGraph.from_digraph(oracle.graph)
        node_ids = frozen.node_ids
        same_shape = (
            node_ids == self.node_ids
            and frozen._offsets == self.offsets
            and frozen._heads == self.heads
            and oracle.transit == self.transit
        )
        trees = {
            root: oracle.trees.tree(root) for root in oracle.trees.roots()
        }
        index = FrozenIndex.compile(
            frozen, oracle.distance_graph, trees, oracle.transit,
            reuse=self.trees if same_shape else None,
        )
        self.node_ids = node_ids
        self.offsets = frozen._offsets
        self.heads = frozen._heads
        self.transit = oracle.transit
        self.trees = {
            node_ids[tree.root]: (trees[node_ids[tree.root]], tree.share())
            for tree in index.trees
        }
        seconds = time.perf_counter() - started
        return FrozenDISO._restore(
            frozen=frozen,
            index=index,
            fallback=None,
            name=f"{oracle.name}-F",
            exact=oracle.exact,
            preprocess_seconds=oracle.preprocess_seconds + seconds,
            freeze_seconds=seconds,
        )


class FrozenADISO(FrozenDISO):
    """ADISO's Algorithm 2 served from the compiled index.

    Built via ``ADISO.freeze()``.  The landmark table is densified to
    flat arrays (:class:`repro.landmarks.base.FrozenLandmarkTable`), the
    merged two-queue A* runs on dense indices with arena-backed
    ``d_o`` / ``cost`` lanes, and affected transit nodes relax raw graph
    edges exactly as in the dict engine (improved lazy recomputation).
    """

    def __init__(self, oracle) -> None:
        super().__init__(oracle)
        started = time.perf_counter()
        self.landmarks = oracle.landmarks.compile(self.frozen)
        self._landmark_entries = oracle.landmarks.size_in_entries()
        self.freeze_seconds += time.perf_counter() - started
        self.preprocess_seconds += time.perf_counter() - started

    @classmethod
    def _restore_adiso(
        cls,
        landmarks,
        landmark_entries: int,
        **parts,
    ) -> "FrozenADISO":
        """ADISO variant of :meth:`FrozenDISO._restore`."""
        oracle = cls._restore(**parts)
        oracle.landmarks = landmarks
        oracle._landmark_entries = landmark_entries
        return oracle

    def _distance(
        self,
        source: int,
        target: int,
        fail_set: frozenset[Edge],
        failed_ids: frozenset[int],
        affected: set[int],
        repaired: dict[int, tuple],
        stats: QueryStats,
        arenas: _ArenaSet,
    ) -> float:
        stats.affected_count = len(affected)
        forward, backward = self._access(
            source, target, failed_ids, stats, arenas
        )
        local = forward.distance(backward.source)
        overlay = self._merged_search(
            forward.access,
            backward.access,
            failed_ids,
            affected,
            backward.source,
            stats,
            local,
            arenas.search,
        )
        return min(local, overlay)

    def _merged_search(
        self,
        seeds: dict[int, float],
        into_target: dict[int, float],
        failed_ids: frozenset[int],
        affected_ranks: set[int],
        target: int,
        stats: QueryStats,
        upper_bound: float,
        arena: SearchArena,
    ) -> float:
        """Algorithm 2 on dense indices with arena-backed state."""
        index = self.index
        frozen = self.frozen
        adjacency = frozen._adjacency
        overlay = index.overlay_node_rows
        rank_of = index.rank_of
        transit_flags = index.transit_flags
        heuristic = self.landmarks.heuristic_to(target)
        affected = {index.transit_nodes[rank] for rank in affected_ranks}  # dsolint: disable=DSO101 -- rank set to node set; only membership is read

        gen = arena.begin()
        d_o = arena.dist
        cost = arena.aux
        seen = arena.seen
        done = arena.done
        queue_d: list[tuple[float, int]] = []
        queue_g: list[tuple[float, int]] = []

        best_known = upper_bound
        into_target_get = into_target.get
        for node, d in seeds.items():
            seen[node] = gen
            d_o[node] = d
            c = d + heuristic(node)
            cost[node] = c
            heappush(queue_d, (c, node))

        def clean(heap: list[tuple[float, int]]) -> None:
            while heap:
                c, node = heap[0]
                if done[node] == gen:
                    heappop(heap)
                    continue
                node_cost = cost[node] if seen[node] == gen else INFINITY
                if c > node_cost + 1e-12:
                    heappop(heap)
                else:
                    return

        settled_count = 0
        graph_settled = 0
        target_seen = seen[target] == gen  # seeds may include the target
        while True:
            clean(queue_d)
            clean(queue_g)
            top_d = queue_d[0][0] if queue_d else INFINITY
            top_g = queue_g[0][0] if queue_g else INFINITY
            if top_d == INFINITY and top_g == INFINITY:
                break
            target_dist = d_o[target] if target_seen else INFINITY
            current_best = (
                best_known if best_known < target_dist else target_dist
            )
            if min(top_d, top_g) >= current_best:
                # Every remaining label's completion is at least its A*
                # cost, so nothing can improve the answer.
                break
            heap = queue_d if top_d <= top_g else queue_g
            _, node = heappop(heap)
            done[node] = gen
            settled_count += 1
            if node == target:
                break
            node_dist = d_o[node]

            tail_distance = into_target_get(node)
            if tail_distance is not None:
                candidate = node_dist + tail_distance
                target_dist = d_o[target] if target_seen else INFINITY
                if candidate < target_dist:
                    seen[target] = gen
                    target_seen = True
                    d_o[target] = candidate
                    cost[target] = candidate  # h(t, t) = 0
                    heappush(queue_d, (candidate, target))

            node_in_transit = transit_flags[node]
            use_overlay = node_in_transit and node not in affected
            if use_overlay:
                for head, weight in overlay[rank_of[node]]:
                    if done[head] == gen or head == node:
                        continue
                    candidate = node_dist + weight
                    if seen[head] != gen or candidate < d_o[head]:
                        seen[head] = gen
                        if head == target:
                            target_seen = True
                        d_o[head] = candidate
                        c = candidate + heuristic(head)
                        cost[head] = c
                        # An overlay tail is a transit node, so its
                        # relaxations always go to Q_G (lines 19-20).
                        heappush(queue_g, (c, head))
            else:
                graph_settled += 1
                for head, weight, edge_id in adjacency[node]:
                    if done[head] == gen or head == node:
                        continue
                    if edge_id in failed_ids:
                        continue
                    candidate = node_dist + weight
                    if seen[head] != gen or candidate < d_o[head]:
                        seen[head] = gen
                        if head == target:
                            target_seen = True
                        d_o[head] = candidate
                        c = candidate + heuristic(head)
                        cost[head] = c
                        if not node_in_transit and transit_flags[head]:
                            heappush(queue_d, (c, head))
                        else:
                            heappush(queue_g, (c, head))
        stats.overlay_settled += settled_count
        stats.graph_settled += graph_settled
        return d_o[target] if target_seen else INFINITY

    def index_entries(self) -> dict[str, int]:
        entries = super().index_entries()
        entries["landmark_entries"] = self._landmark_entries
        return entries
