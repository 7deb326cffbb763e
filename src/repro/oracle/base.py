"""Oracle interfaces and query result types.

A *distance sensitivity oracle* answers queries ``(s, t, F)`` asking for
``d(s, t, F)`` — the shortest distance from ``s`` to ``t`` in the graph
with the failed edge set ``F`` removed (Definition 3.1) — without any
index update, so queries never stall and can run concurrently on the
same index (the paper's central design requirement, Sections 1 and 4.2).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph, Edge

INFINITY = float("inf")


@dataclass
class QueryStats:
    """Per-phase instrumentation of a single query.

    The fields correspond to the columns broken out in the paper's
    Table 3: access time (bounded Dijkstra runs for the endpoints),
    recomputation time (lazy edge-weight recomputation for affected
    nodes), and the overall search effort.
    """

    affected_count: int = 0
    access_seconds: float = 0.0
    recompute_seconds: float = 0.0
    overlay_settled: int = 0
    graph_settled: int = 0
    recomputed_nodes: int = 0
    used_fallback: bool = False
    total_seconds: float = 0.0


@dataclass
class QueryResult:
    """The answer of a distance sensitivity query with instrumentation.

    Attributes
    ----------
    distance:
        ``d(s, t, F)`` (exact oracles) or an upper-bound estimate
        (approximate oracles: DISO-S, ADISO-P, FDDO); ``inf`` when ``t``
        is unreachable from ``s`` after removing ``F``.
    stats:
        Phase instrumentation; populated by ``query_detailed``.
    """

    distance: float
    stats: QueryStats = field(default_factory=QueryStats)

    @property
    def reachable(self) -> bool:
        """Whether a path avoiding the failures exists."""
        return self.distance < INFINITY


class DistanceSensitivityOracle(abc.ABC):
    """Abstract base for all oracles and baselines in this library.

    Subclasses must implement :meth:`query_detailed`; :meth:`query` is a
    thin convenience wrapper.  Oracles additionally expose their
    preprocessing wall-clock time and an index size estimate so the
    experiment harness can fill Tables 5 and 6 uniformly.
    """

    #: Short identifier used in experiment reports ("DISO", "ADISO", ...).
    name: str = "oracle"

    #: Whether answers are exact (DISO/ADISO/DI/A*) or approximate
    #: (DISO-S, ADISO-P, FDDO).
    exact: bool = True

    def __init__(self, graph: DiGraph) -> None:
        self.graph = graph
        self.preprocess_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Query interface
    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        target: int,
        failed: set[Edge] | frozenset[Edge] | None = None,
    ) -> float:
        """Return ``d(source, target, failed)``.

        Raises
        ------
        QueryError
            If either endpoint is not a node of the graph.
        """
        return self.query_detailed(source, target, failed).distance

    @abc.abstractmethod
    def query_detailed(
        self,
        source: int,
        target: int,
        failed: set[Edge] | frozenset[Edge] | None = None,
    ) -> QueryResult:
        """Answer the query and return instrumentation alongside."""

    def query_avoiding_nodes(
        self,
        source: int,
        target: int,
        failed_nodes: set[int],
        failed: set[Edge] | frozenset[Edge] | None = None,
    ) -> float:
        """Answer a query with *node* failures (Section 3.1 extension).

        A failed node is modelled as the failure of all its incident
        edges, exactly the reduction the paper describes ("this work is
        easily extended to handle node failures").  Extra edge failures
        can be mixed in via ``failed``.

        Raises
        ------
        QueryError
            If ``source`` or ``target`` is itself a failed node (there
            is no defined answer in that case), or endpoints are
            missing from the graph.
        """
        if source in failed_nodes:
            raise QueryError(f"source node {source!r} is failed")
        if target in failed_nodes:
            raise QueryError(f"target node {target!r} is failed")
        edge_failures: set[Edge] = set(failed) if failed else set()
        for node in failed_nodes:
            if self._has_node(node):
                edge_failures.update(self._incident_edges(node))
        return self.query(source, target, edge_failures)

    def _validate_endpoints(self, source: int, target: int) -> None:
        """Shared endpoint validation for all oracles."""
        if not self._has_node(source):
            raise QueryError(f"source node {source!r} is not in the graph")
        if not self._has_node(target):
            raise QueryError(f"target node {target!r} is not in the graph")

    def _has_node(self, node: int) -> bool:
        """Whether ``node`` is in the graph this oracle answers on."""
        return self.graph.has_node(node)

    def _incident_edges(self, node: int) -> list[Edge]:
        """Every edge out of and into ``node`` (a node of the graph)."""
        graph = self.graph
        return [(node, head) for head in graph.successors(node)] + [
            (tail, node) for tail in graph.predecessors(node)
        ]

    # ------------------------------------------------------------------
    # Sizing (Table 6)
    # ------------------------------------------------------------------
    def index_entries(self) -> dict[str, int]:
        """Return named entry counts of every index component.

        Subclasses override to describe their structures; the sizing
        module converts entries to byte estimates for Table 6.
        """
        return {}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.graph.number_of_nodes()}, "
            f"edges={self.graph.number_of_edges()})"
        )


def canonical_failure_key(
    failed: set[Edge] | frozenset[Edge] | tuple[Edge, ...] | None,
) -> tuple[Edge, ...]:
    """Deterministic, hashable canonical form of a failure set.

    Two failure sets with the same members always canonicalize to the
    same tuple regardless of how they were constructed or in which
    order a ``set`` happens to iterate — the property that makes the
    tuple safe as cache-key material (the serving plane's result cache
    keys on ``(s, t, canonical_failure_key(F))``).  ``None`` and the
    empty set both mean "no failures" and canonicalize to ``()``.

    >>> canonical_failure_key({(3, 4), (1, 2)})
    ((1, 2), (3, 4))
    >>> canonical_failure_key(None)
    ()
    """
    if not failed:
        return ()
    return tuple(sorted(failed))


def normalize_failures(
    failed: set[Edge] | frozenset[Edge] | None,
) -> frozenset[Edge]:
    """Validate and freeze a failed edge set.

    ``None`` means no failures.  Members must be ``(tail, head)`` pairs.

    Raises
    ------
    QueryError
        If any member is not a 2-tuple.
    """
    if not failed:
        return frozenset()
    for item in failed:
        if not isinstance(item, tuple) or len(item) != 2:
            raise QueryError(
                f"failed edges must be (tail, head) tuples, got {item!r}"
            )
    return frozenset(failed)
