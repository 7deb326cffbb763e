"""Landmark-based lower bounds (Section 5.2, Goldberg & Harrelson [31]).

For a landmark set ``L`` the table stores, per landmark ``x``, the
outbound distances ``d(x, .)`` and inbound distances ``d(., x)`` on the
failure-free graph.  The triangle inequality then gives the lower bound

    h(u, v) = max over x in L of max(d(x, u) - d(x, v), d(u, x) - d(v, x))

on ``d(u, v)``, which — because edge deletions only lengthen shortest
paths — is also a valid lower bound on ``d(u, v, F)`` for any failed
edge set ``F``.  That observation is what lets ADISO reuse a static
landmark table under arbitrary failures without ever updating it.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graph.digraph import DiGraph
from repro.pathing.dijkstra import dijkstra, reverse_dijkstra
from repro.pathing.spt import INFINITY


class LandmarkTable:
    """Precomputed landmark distances and the ALT lower bound ``h``.

    Parameters
    ----------
    graph:
        The failure-free input graph.
    landmarks:
        The selected landmark nodes.

    Notes
    -----
    Space is ``O(N_L * n)`` (two distance maps per landmark) and
    preprocessing is ``O(N_L (m + n log n))`` — the figures quoted in the
    paper's Section 5.2 complexity discussion.
    """

    __slots__ = ("landmarks", "_outbound", "_inbound")

    def __init__(self, graph: DiGraph, landmarks: Iterable[int]) -> None:
        self.landmarks: tuple[int, ...] = tuple(landmarks)
        self._outbound: list[dict[int, float]] = []
        self._inbound: list[dict[int, float]] = []
        for landmark in self.landmarks:
            out_dist, _ = dijkstra(graph, landmark)
            self._outbound.append(out_dist)
            self._inbound.append(reverse_dijkstra(graph, landmark))

    def __len__(self) -> int:
        return len(self.landmarks)

    def lower_bound(self, u: int, v: int) -> float:
        """Return ``h(u, v)``, a lower bound on ``d(u, v)``.

        Clamped to 0 from below (a negative difference carries no
        information).  Unreachable landmark distances contribute nothing.
        """
        if u == v:
            return 0.0
        best = 0.0
        for out_dist, in_dist in zip(self._outbound, self._inbound):
            # Triangle inequality, directed form:
            #   d(x, v) <= d(x, u) + d(u, v)  =>  d(u, v) >= d(x, v) - d(x, u)
            du = out_dist.get(u)
            dv = out_dist.get(v)
            if du is not None and dv is not None:
                diff = dv - du
                if diff > best:
                    best = diff
            #   d(u, x) <= d(u, v) + d(v, x)  =>  d(u, v) >= d(u, x) - d(v, x)
            iu = in_dist.get(u)
            iv = in_dist.get(v)
            if iu is not None and iv is not None:
                diff = iu - iv
                if diff > best:
                    best = diff
        return best

    def landmark_bound(self, landmark_index: int, u: int, v: int) -> float:
        """Return ``l_x(u, v)`` for the landmark at ``landmark_index``.

        The per-landmark triangle bound, written in the admissible
        directed form ``max{d(x, v) - d(x, u), d(u, x) - d(v, x)}`` (the
        paper's Section 5.2 states the terms with the operands swapped,
        which would bound ``d(v, u)``; we use the orientation that is a
        valid lower bound on ``d(u, v)``).  This is the term the SLS
        coverage test ``d(u, v) - l_w(u, v) <= alpha * d(u, v)`` uses.
        """
        out_dist = self._outbound[landmark_index]
        in_dist = self._inbound[landmark_index]
        best = 0.0
        du = out_dist.get(u)
        dv = out_dist.get(v)
        if du is not None and dv is not None and dv - du > best:
            best = dv - du
        iu = in_dist.get(u)
        iv = in_dist.get(v)
        if iu is not None and iv is not None and iu - iv > best:
            best = iu - iv
        return best

    def heuristic_to(self, target: int):
        """Return a unary ``h(u) = lower_bound(u, target)`` callable.

        The returned closure pre-fetches the per-landmark target
        distances so the per-node evaluation is a tight loop — this is
        the hot path of both the A* baseline and ADISO.
        """
        target_out: list[float] = []
        target_in: list[float] = []
        for out_dist, in_dist in zip(self._outbound, self._inbound):
            target_out.append(out_dist.get(target, INFINITY))
            target_in.append(in_dist.get(target, INFINITY))
        outbound = self._outbound
        inbound = self._inbound
        count = len(outbound)

        def heuristic(node: int) -> float:
            if node == target:
                return 0.0
            best = 0.0
            for i in range(count):
                # d(x, t) - d(x, u) <= d(u, t)
                to_t = target_out[i]
                if to_t < INFINITY:
                    from_x = outbound[i].get(node)
                    if from_x is not None:
                        diff = to_t - from_x
                        if diff > best:
                            best = diff
                # d(u, x) - d(t, x) <= d(u, t)
                t_to_x = target_in[i]
                if t_to_x < INFINITY:
                    u_to_x = inbound[i].get(node)
                    if u_to_x is not None:
                        diff = u_to_x - t_to_x
                        if diff > best:
                            best = diff
            return best

        return heuristic

    def size_in_entries(self) -> int:
        """Total stored distance entries (for Table 6 index sizing)."""
        return sum(len(d) for d in self._outbound) + sum(
            len(d) for d in self._inbound
        )

    def compile(self, frozen) -> "FrozenLandmarkTable":
        """Compile the table to dense arrays over a CSR snapshot.

        ``frozen`` is a :class:`repro.graph.csr.FrozenGraph` of the same
        graph; the result serves ``h`` lookups by dense node index for
        the frozen query plane.
        """
        return FrozenLandmarkTable(self, frozen)


class FrozenLandmarkTable:
    """Landmark distances as dense arrays, indexed by CSR node index.

    Produces bitwise-identical lower bounds to :class:`LandmarkTable`
    (same landmarks, same evaluation order); unreachable entries are
    stored as ``inf`` and guarded exactly like the dict version's
    missing keys.
    """

    __slots__ = ("landmarks", "_outbound", "_inbound")

    def __init__(self, table: LandmarkTable, frozen) -> None:
        self.landmarks = table.landmarks
        index_of = frozen.index_of
        n = len(frozen.node_ids)

        def densify(dist_map: dict[int, float]) -> list[float]:
            row = [INFINITY] * n
            for label, d in dist_map.items():
                index = index_of.get(label)
                if index is not None:
                    row[index] = d
            return row

        self._outbound = [densify(d) for d in table._outbound]
        self._inbound = [densify(d) for d in table._inbound]

    @classmethod
    def _restore(cls, landmarks, outbound, inbound) -> "FrozenLandmarkTable":
        """Rebuild a table from already-dense rows (snapshot loading).

        ``outbound``/``inbound`` are sequences of per-landmark dense
        rows indexed by CSR node index — lists or zero-copy memoryviews
        over a mapped snapshot; both serve ``h`` lookups identically.
        """
        table = cls.__new__(cls)
        table.landmarks = tuple(landmarks)
        table._outbound = list(outbound)
        table._inbound = list(inbound)
        return table

    def __len__(self) -> int:
        return len(self.landmarks)

    def heuristic_to(self, target: int):
        """Unary ``h(index) = lower_bound(index, target)`` closure.

        ``target`` is a dense index; mirrors
        :meth:`LandmarkTable.heuristic_to` arithmetic exactly.
        """
        outbound = self._outbound
        inbound = self._inbound
        target_out = [row[target] for row in outbound]
        target_in = [row[target] for row in inbound]
        count = len(outbound)

        def heuristic(node: int) -> float:
            if node == target:
                return 0.0
            best = 0.0
            for i in range(count):
                to_t = target_out[i]
                if to_t < INFINITY:
                    from_x = outbound[i][node]
                    if from_x < INFINITY:
                        diff = to_t - from_x
                        if diff > best:
                            best = diff
                t_to_x = target_in[i]
                if t_to_x < INFINITY:
                    u_to_x = inbound[i][node]
                    if u_to_x < INFINITY:
                        diff = u_to_x - t_to_x
                        if diff > best:
                            best = diff
            return best

        return heuristic
