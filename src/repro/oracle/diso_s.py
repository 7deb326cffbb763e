"""DISO-S — DISO with distance graph sparsification (Section 6.2).

DISO-S trades a bounded amount of accuracy for query speed on dense
(scale-free) inputs, where the plain distance graph is the bottleneck.
As in the paper's experiments, sparsification is applied *both* to the
input graph and to the distance graph with the same ``beta``:

1. sparsify ``G`` to ``G'`` (every removed edge keeps a witness path
   within ``beta``),
2. build the full DISO index on ``G'``,
3. sparsify the resulting distance graph ``D`` to ``D-hat``, with the
   degree floor preventing nodes from being stranded by future failures.

Queries run the DISO procedure over ``G'`` and ``D-hat``.  Failed edges
that were sparsified away are dropped from ``F`` (they no longer exist
in the index's world; their witness paths bound the error).  When the
sparsified oracle reports ``t`` unreachable, the query falls back to
plain Dijkstra on the *original* graph — the paper's safety net ("if the
query algorithm fails to find the query answer, the Dijkstra's algorithm
is used"; such cases are extremely rare).
"""

from __future__ import annotations

import time

from repro.graph.digraph import DiGraph, Edge
from repro.oracle.base import (
    INFINITY,
    QueryResult,
    normalize_failures,
)
from repro.oracle.diso import DISO
from repro.overlay.distance_graph import DistanceGraph
from repro.overlay.sparsify import sparsify_graph
from repro.pathing.dijkstra import shortest_distance


class DISOSparse(DISO):
    """DISO over a sparsified input graph and distance graph.

    Parameters
    ----------
    graph:
        The *original* input graph; kept for the Dijkstra fallback.
    beta:
        Sparsification stretch bound (>= 1).  Paper settings: 1.5 for
        DBLP/Youtube-like graphs, 2.0 for Pokec-like graphs.
    tau, theta, transit:
        Transit-set parameters, as in :class:`DISO`.
    degree_floor:
        Minimum retained degree; ``None`` applies the paper's rule.
    """

    name = "DISO-S"
    exact = False

    def __init__(
        self,
        graph: DiGraph,
        beta: float = 1.5,
        tau: int = 4,
        theta: float = 16.0,
        transit: set[int] | frozenset[int] | None = None,
        degree_floor: int | None = None,
    ) -> None:
        started = time.perf_counter()
        self.original_graph = graph
        self.beta = beta
        input_result = sparsify_graph(graph, beta, degree_floor)
        sparse_input = input_result.graph
        self.input_sparsification = input_result
        super().__init__(sparse_input, tau=tau, theta=theta, transit=transit)
        # Step 3: sparsify D to D-hat (same rule as step 1).
        overlay_result = sparsify_graph(
            self.distance_graph.graph, beta, degree_floor
        )
        self.overlay_sparsification = overlay_result
        self.distance_graph = DistanceGraph(
            graph=overlay_result.graph, transit=self.transit
        )
        self.preprocess_seconds = time.perf_counter() - started

    def freeze(self):
        """Compile for flat-array serving, keeping DISO-S semantics.

        The compiled overlay is the sparsified ``D-hat`` (the frozen
        recomputation filter keeps removed edges removed), failures
        naming sparsified-away edges drop out during edge-id
        translation, and the Dijkstra safety net answers on the
        *original* graph — so frozen answers match the dict path,
        including its bounded approximation error.  The frozen overlay
        search is bidirectional: on float weights its answers are
        bitwise those of DISO-S run with DISO-B's overlay search, and
        may differ from this forward search's in the last bits.
        """
        from repro.oracle.frozen import FrozenDISO

        return FrozenDISO(self, fallback_graph=self.original_graph)

    def _recomputed_weights(
        self,
        node: int,
        failed: frozenset[Edge],
    ) -> dict[int, float]:
        """Lazy recomputation restricted to surviving overlay edges.

        The trees cover the unsparsified overlay neighbourhood; edges
        removed from ``D-hat`` stay removed, keeping the sparsified
        topology authoritative.
        """
        weights = super()._recomputed_weights(node, failed)
        surviving = self.distance_graph.graph.successors(node)
        return {v: d for v, d in weights.items() if v in surviving}

    def query_detailed(
        self,
        source: int,
        target: int,
        failed: set[Edge] | frozenset[Edge] | None = None,
    ) -> QueryResult:
        fail_set = normalize_failures(failed)
        # Failures naming sparsified-away edges do not exist in this
        # oracle's world; drop them (their witnesses bound the error).
        live_failures = frozenset(  # dsolint: disable=DSO101 -- frozenset-to-frozenset filter; only membership is read
            edge for edge in fail_set if self.graph.has_edge(*edge)
        )
        result = super().query_detailed(source, target, live_failures)
        if result.distance == INFINITY:
            # Safety net: answer exactly on the original graph.
            fallback_start = time.perf_counter()
            exact = shortest_distance(
                self.original_graph, source, target, set(fail_set)
            )
            result.stats.used_fallback = True
            result.stats.total_seconds += (
                time.perf_counter() - fallback_start
            )
            result.distance = exact
        return result
